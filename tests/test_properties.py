"""Structural identities of the gradient-flow engine on random states."""

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from gradflow._grid import free_energy_flux, interface_gradient
from gradflow.gradient_flow import (
    EnergyFunctional,
    FlowProblem,
    QuadraticDissipation,
    implicit_step,
    local_step,
)
from gradflow.measures import (
    DiscreteMeasure,
    GridDensity1D,
    push_forward,
    read_grid_csv,
    relative_entropy,
    total_variation,
    write_grid_csv,
)
from gradflow.models import MultiSpeciesState, PhaseFieldState


@settings(max_examples=200, deadline=None)
@given(
    a=st.floats(-1e6, 1e6),
    width=st.floats(1e-6, 1e6),
    cells=st.integers(4, 300),
)
def test_grid_geometry_is_one_formula_for_every_state(a, width, cells):
    """h, centers and edges of every grid state are the uniform grid's
    (b - a) / cells, a + (i + 1/2) h and a + i h, to the bit."""
    b = a + width
    assume(b > a)
    h = (b - a) / cells
    centers = a + (np.arange(cells) + 0.5) * h
    edges = a + np.arange(cells + 1) * h
    states = [
        GridDensity1D(a, b, np.ones(cells)),
        PhaseFieldState(a, b, np.zeros(cells)),
        MultiSpeciesState(a, b, np.full((2, cells), 0.25), np.array([2.0, 2.0]), np.ones(2)),
    ]
    for state in states:
        assert state.cells == cells
        assert state.h == h
        assert state.centers.tobytes() == centers.tobytes()
        assert state.edges.tobytes() == edges.tobytes()


grids = st.fixed_dictionaries(
    {
        "cells": st.integers(4, 300),
        "a": st.floats(-10.0, 10.0),
        "width": st.floats(0.5, 20.0),
        "seed": st.integers(0, 2**32 - 1),
    }
)


def random_density(grid) -> GridDensity1D:
    rng = np.random.default_rng(grid["seed"])
    values = rng.uniform(0.05, 5.0, grid["cells"])
    return GridDensity1D(grid["a"], grid["a"] + grid["width"], values)


def random_mixture(grid) -> MultiSpeciesState:
    """2 or 3 species with volume fractions alpha_i c_i that fill every cell."""
    rng = np.random.default_rng(grid["seed"])
    species = int(rng.integers(2, 4))
    fractions = rng.uniform(0.05, 1.0, (species, grid["cells"]))
    fractions /= fractions.sum(axis=0)
    alpha = rng.uniform(0.2, 5.0, species)
    return MultiSpeciesState(
        grid["a"],
        grid["a"] + grid["width"],
        fractions / alpha[:, None],
        alpha,
        rng.uniform(0.1, 10.0, species),
    )


def resolved_mixture(grid) -> MultiSpeciesState:
    """2 or 3 species whose log volume fractions are four cosine modes, a
    mixture the grid resolves.  (On the cell-wise noise of random_mixture,
    contrasting frictions drive a strong drift between neighbouring cells,
    and backward-Euler Newton can stall there beyond dt ~ h^2 eta / rt.)"""
    rng = np.random.default_rng(grid["seed"])
    species = int(rng.integers(2, 4))
    modes = np.arange(1, 5)
    x = (np.arange(grid["cells"]) + 0.5) / grid["cells"]
    logs = (rng.normal(size=(species, modes.size)) * 1.5 / modes) @ np.cos(np.pi * modes[:, None] * x)
    fractions = np.exp(logs)
    fractions /= fractions.sum(axis=0)
    alpha = rng.uniform(0.2, 5.0, species)
    return MultiSpeciesState(
        grid["a"],
        grid["a"] + grid["width"],
        fractions / alpha[:, None],
        alpha,
        rng.uniform(0.1, 10.0, species),
    )


def random_potential(grid):
    """V(x) = slope t + amp sin(k t + phase) with t in [0, 1] across the domain."""
    rng = np.random.default_rng(grid["seed"] + 1)
    slope = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 10.0)
    amp, k, phase = rng.uniform(0.0, 2.0), rng.uniform(0.0, 10.0), rng.uniform(0.0, 6.3)

    def V(x):
        t = (x - grid["a"]) / grid["width"]
        return slope * t + amp * np.sin(k * t + phase)

    return V


class TestFreeEnergyFlux:
    @settings(max_examples=200, deadline=None)
    @given(grid=grids, rt=st.floats(0.1, 5.0), eta=st.floats(0.1, 5.0))
    def test_vanishes_on_boltzmann_states(self, grid, rt, eta):
        rho = random_density(grid)
        V = rt * random_potential(grid)(rho.centers)
        c = np.exp(-V / rt)
        flux = free_energy_flux(c, V, rt, eta, rho.h)
        scale = np.abs(rt * interface_gradient(c, rho.h)).max() / eta
        assert np.abs(flux).max() <= 1e-10 * scale


class TestDualityGap:
    @settings(max_examples=200, deadline=None)
    @given(
        grid=grids,
        kind=st.sampled_from(["l2", "wasserstein", "hminus1", "species_local", "species_global"]),
        coefficient=st.floats(0.1, 10.0),
    )
    def test_closes_at_the_mobility_rate(self, grid, kind, coefficient):
        rho = random_mixture(grid) if kind.startswith("species") else random_density(grid)
        xi = np.random.default_rng(grid["seed"] + 2).normal(size=rho.values.shape)
        diss = QuadraticDissipation(kind, coefficient)
        rate = diss.apply_mobility(rho, xi)
        psi, psi_star = diss.psi(rho, rate), diss.psi_star(rho, xi)
        gap = psi + psi_star - diss.pairing(rho, xi, rate)
        assert abs(gap) <= 1e-13 * (psi + psi_star)


class TestLocalStepMass:
    @settings(max_examples=150, deadline=None)
    @given(grid=grids, rt=st.floats(0.1, 5.0), eta=st.floats(0.1, 5.0))
    def test_wasserstein_step_conserves_mass(self, grid, rt, eta):
        rho = random_density(grid)
        energy = EnergyFunctional.grid_free_energy(rt=rt, potential=random_potential(grid))
        problem = FlowProblem(energy, QuadraticDissipation("wasserstein", eta))
        dt = 1e-3 * rho.h**2 * eta / (2.0 * rt)
        out = local_step(problem, rho, dt)
        scale = rho.h * (np.abs(rho.values).sum() + np.abs(out.values).sum())
        assert abs(out.mass() - rho.mass()) <= 1e-13 * scale

    @settings(max_examples=150, deadline=None)
    @given(grid=grids, well=st.floats(0.1, 5.0), mobility=st.floats(0.1, 5.0))
    def test_hminus1_step_conserves_mass(self, grid, well, mobility):
        rng = np.random.default_rng(grid["seed"])
        u = PhaseFieldState(
            grid["a"], grid["a"] + grid["width"], rng.uniform(-1.5, 1.5, grid["cells"])
        )
        problem = FlowProblem(
            EnergyFunctional.dirichlet_double_well(well),
            QuadraticDissipation("hminus1", 1.0 / mobility),
        )
        out = local_step(problem, u, 0.1 * u.h**4 / (8.0 * mobility))
        scale = np.abs(u.u).sum() + np.abs(out.u).sum()
        assert abs(out.u.sum() - u.u.sum()) <= 1e-13 * scale


class TestImplicitStep:
    @settings(max_examples=150, deadline=None)
    @given(
        grid=grids,
        rt=st.floats(0.1, 5.0),
        eta=st.floats(0.1, 5.0),
        dt=st.floats(1e-3, 1.0),
    )
    def test_conserves_mass_and_does_not_raise_energy(self, grid, rt, eta, dt):
        rho = random_density(grid)
        energy = EnergyFunctional.grid_free_energy(rt=rt, potential=random_potential(grid))
        problem = FlowProblem(energy, QuadraticDissipation("wasserstein", eta))
        out = implicit_step(problem, rho, dt)
        scale = rho.h * (np.abs(rho.values).sum() + np.abs(out.values).sum())
        assert abs(out.mass() - rho.mass()) <= 1e-13 * scale
        before, after = energy.value(rho), energy.value(out)
        assert after <= before + 1e-13 * max(1.0, abs(before))


class TestImplicitSpeciesStep:
    @settings(max_examples=100, deadline=None)
    @given(
        grid=grids,
        rt=st.floats(0.1, 5.0),
        tau=st.floats(1e-4, 1.0),
        mode=st.sampled_from(["local", "global"]),
    )
    def test_stays_positive_on_the_constraint_and_does_not_raise_energy(
        self, grid, rt, tau, mode
    ):
        # dt up to the domain's diffusion time width^2, far past the
        # explicit bound h^2 eta / (2 rt)
        z = resolved_mixture(grid)
        energy = EnergyFunctional.grid_free_energy(rt=rt)
        problem = FlowProblem(energy, QuadraticDissipation(f"species_{mode}"))
        out = implicit_step(problem, z, tau * grid["width"] ** 2)
        assert out.concentrations.min() > 0.0
        assert out.constraint_violation() <= 1e-8
        assert np.abs(out.masses() - z.masses()).max() <= 1e-10 * z.masses().max()
        before, after = energy.value(z), energy.value(out)
        assert after <= before + 1e-12 * max(1.0, abs(before))


phase_fields = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(["l2", "hminus1"]),
        "dt": st.floats(1e-3, 100.0),
        "mobility": st.floats(0.1, 5.0),
        "well": st.floats(0.1, 5.0),
    }
)


def splitting_problem(flow) -> FlowProblem:
    return FlowProblem(
        EnergyFunctional.dirichlet_double_well(flow["well"]),
        QuadraticDissipation(flow["kind"], 1.0 / flow["mobility"]),
    )


class TestConvexSplittingStep:
    @settings(max_examples=200, deadline=None)
    @given(grid=grids, flow=phase_fields, amplitude=st.floats(0.0, 2.0))
    def test_does_not_raise_energy_and_keeps_the_mean(self, grid, flow, amplitude):
        rng = np.random.default_rng(grid["seed"])
        u = PhaseFieldState(
            grid["a"], grid["a"] + grid["width"], amplitude * rng.uniform(-1.0, 1.0, grid["cells"])
        )
        problem = splitting_problem(flow)
        out = implicit_step(problem, u, flow["dt"])
        before, after = problem.energy.value(u), problem.energy.value(out)
        assert after <= before + 1e-12 * max(1.0, abs(before))
        if flow["kind"] == "hminus1":
            assert abs(out.mean() - u.mean()) <= 1e-14

    @settings(max_examples=50, deadline=None)
    @given(grid=grids, flow=phase_fields, sign=st.sampled_from([-1.0, 1.0]))
    def test_returns_the_wells_as_they_are(self, grid, flow, sign):
        u = PhaseFieldState(grid["a"], grid["a"] + grid["width"], np.full(grid["cells"], sign))
        assert implicit_step(splitting_problem(flow), u, flow["dt"]) is u


finite = st.floats(allow_nan=False, allow_infinity=False)
weight = st.floats(0.0, 1e300)


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


class TestCsvRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(grid=grids, values=st.lists(weight, min_size=2, max_size=40))
    def test_grid_values_come_back_bitwise(self, tmp_path_factory, grid, values):
        rho = GridDensity1D(grid["a"], grid["a"] + grid["width"], values)
        path = tmp_path_factory.getbasetemp() / "rho.csv"
        write_grid_csv(rho, path)
        back = read_grid_csv(path)
        assert np.array_equal(bits(back.values), bits(rho.values))
        # the domain is rebuilt from the cell centers, so only to rounding
        assert abs(back.a - rho.a) <= 1e-12 * grid["width"]
        assert abs(back.b - rho.b) <= 1e-12 * grid["width"]


class TestDiscreteMeasure:
    @settings(max_examples=200, deadline=None)
    @given(
        dim=st.integers(1, 3),
        rows=st.lists(st.tuples(finite, finite, finite, weight), min_size=1, max_size=30),
    )
    def test_atoms_and_weights_are_kept_bitwise(self, dim, rows):
        # the checks of any finite input, up to 1e308, raise no overflow
        data = np.array(rows)
        mu = DiscreteMeasure(data[:, :dim], data[:, 3])
        assert np.array_equal(bits(mu.atoms), bits(data[:, :dim]))
        assert np.array_equal(bits(mu.weights), bits(data[:, 3]))


def probability_pair(draw_mu, draw_nu):
    mu, nu = np.asarray(draw_mu), np.asarray(draw_nu)
    assume(mu.sum() > 0.0 and nu.sum() > 0.0)
    atoms = np.arange(mu.size, dtype=float)[:, None]
    return DiscreteMeasure(atoms, mu / mu.sum()), DiscreteMeasure(atoms, nu / nu.sum())


laws = st.integers(1, 12).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n),
        st.lists(st.floats(1e-6, 1.0), min_size=n, max_size=n),
    )
)


class TestEntropyInequalities:
    @settings(max_examples=300, deadline=None)
    @given(pair=laws)
    # nearly equal laws: H is about 2 TV^2 = 1.25e-11, so a rounded f log f
    # misses the bound by 8e-12
    @example(pair=([1.0, 1.0], [1.0, 0.99999]))
    # the normalized laws' masses differ by 1.1e-16, which H's last term adds
    # to H = 1.9e-13: TV - sqrt(H / 2) = 9.0e-11, while 2 TV^2 - H = 1.1e-16
    @example(pair=([0.821119, 0.823285], [0.821123, 0.823288]))
    def test_pinsker(self, pair):
        # Pinsker's inequality 2 TV^2 <= H, squared: near H = 0 a square root
        # would magnify H's rounding.  That rounding is set by the masses.
        # A law of n atoms is normalized by n divisions, each rounded once, by
        # a sum rounded n - 1 times.  Its mass, and the sum relative_entropy
        # takes of it, is thus 1 to within (2n - 1) eps / 2 < n eps.  H's last
        # term is the difference of the two summed masses, so it may add up to
        # 2 n eps to H.  Against exactly normalized laws, 2 TV^2 and H's other
        # terms move by O(n eps TV), which is smaller where Pinsker is tight.
        # s = 2 n eps (M_mu + M_nu) is twice that mass bound.
        mu, nu = probability_pair(*pair)
        h, tv = relative_entropy(mu, nu), total_variation(mu, nu)
        slack = 2 * len(mu.weights) * np.finfo(float).eps * (mu.mass() + nu.mass())
        assert 2.0 * tv * tv <= h + slack

    @settings(max_examples=300, deadline=None)
    @given(pair=laws, seed=st.integers(0, 2**32 - 1), classes=st.integers(1, 12))
    def test_push_forward_does_not_raise_relative_entropy(self, pair, seed, classes):
        mu, nu = probability_pair(*pair)
        label = np.random.default_rng(seed).integers(0, classes, size=len(mu))
        merge = lambda x: label[x[:, 0].astype(int)].astype(float)
        h = relative_entropy(mu, nu)
        pushed = relative_entropy(push_forward(mu, merge), push_forward(nu, merge))
        assert pushed <= h + 1e-14 * (1.0 + h)
