import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradflow.measures import GridDensity1D, PhysicalConstants, UniformGrid
from gradflow.models import (
    CflError,
    ConstraintError,
    MultiSpeciesState,
    PhaseFieldState,
    PositivityError,
    allen_cahn_solve,
    cahn_hilliard_solve,
    derive_velocity,
    fokker_planck_solve,
    multicomponent_evolve,
    spring_dashpot_solve,
)
from gradflow._grid import (
    divergence_of_flux,
    free_energy_flux,
    interface_gradient,
    laplacian_neumann,
    logarithmic_interface_mean,
)
from gradflow import gradient_flow
from gradflow.gradient_flow import (
    ConvergenceError,
    EnergyFunctional,
    FlowProblem,
    QuadraticDissipation,
    edi_residual,
    implicit_step,
    local_step,
)
from gradflow.transport import SingularWeightError

RT1 = PhysicalConstants.with_rt(1.0)


def heat_kernel(x, t, diffusivity=1.0):
    return np.exp(-(x**2) / (4 * diffusivity * t)) / math.sqrt(4 * math.pi * diffusivity * t)


class TestSpringDashpot:
    def test_zero_start_stays_zero(self):
        res = spring_dashpot_solve(2.0, 1.0, 0.0, 1.0, 1e-2)
        assert np.all(res.exact == 0.0)

    def test_closed_form_value(self):
        res = spring_dashpot_solve(2.0, 1.0, 1.0, 1.0, 1e-3)
        assert res.exact[-1] == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_energy_strictly_decreasing(self):
        k = 1.7
        res = spring_dashpot_solve(k, 0.9, 1.0, 2.0, 1e-2)
        energy = 0.5 * k * res.exact**2
        assert np.all(np.diff(energy) < 0.0)

    def test_euler_tracks_closed_form(self):
        res = spring_dashpot_solve(2.0, 1.0, 1.0, 1.0, 1e-4)
        assert np.abs(res.euler - res.exact).max() <= 2e-4


class TestDeriveVelocity:
    def test_boltzmann_flux_cancels(self):
        grid = GridDensity1D(0.0, 5.0, np.ones(200))
        V = lambda x: x
        c = grid.with_values(np.exp(-V(grid.centers)))
        w = derive_velocity(c, RT1, V)
        assert np.abs(w).max() <= 1e-8

    def test_pure_fick_flux_without_potential(self):
        grid = GridDensity1D(-4.0, 4.0, np.ones(160))
        c = grid.with_values(np.exp(-grid.centers**2 / 2) + 0.01)
        w = derive_velocity(c, RT1, lambda x: np.zeros_like(x))
        cw = logarithmic_interface_mean(c.values) * w
        fick = -RT1.RT / RT1.eta * interface_gradient(c.values, c.h)
        assert np.abs(cw - fick).max() <= 1e-12

    def test_uniform_concentration_is_still(self):
        c = GridDensity1D(0.0, 1.0, np.full(50, 2.0))
        w = derive_velocity(c, RT1, lambda x: np.zeros_like(x))
        assert np.abs(w).max() == 0.0


class TestFokkerPlanck:
    def test_heat_kernel_propagation(self):
        cells = 400
        grid = GridDensity1D(-6.0, 6.0, np.ones(cells))
        t0, T = 0.25, 0.25
        c0 = grid.with_values(heat_kernel(grid.centers, t0))
        dt = 0.8 * grid.h**2 / 2.0
        traj = fokker_planck_solve(c0, RT1, lambda x: np.zeros_like(x), T, dt)
        exact = heat_kernel(grid.centers, t0 + T)
        l1 = grid.h * np.abs(traj.final.values - exact).sum()
        assert l1 <= 5 * (grid.h**2 + dt)

    def test_boltzmann_initial_state_is_stationary(self):
        grid = GridDensity1D(0.0, 5.0, np.ones(150))
        c0 = grid.with_values(np.exp(-grid.centers)).normalized()
        dt = 0.9 * grid.h**2 / 2.0
        traj = fokker_planck_solve(c0, RT1, lambda x: x, 1.0, dt)
        assert np.abs(traj.final.values - c0.values).max() <= 1e-9

    def test_mass_conserved_and_energy_monotone(self):
        grid = GridDensity1D(-4.0, 4.0, np.ones(128))
        c0 = grid.with_values(np.exp(-grid.centers**2) + 0.05)
        dt = 0.5 * grid.h**2 / 2.0
        traj = fokker_planck_solve(c0, RT1, lambda x: 0.3 * x**2, 0.5, dt)
        assert traj.max_mass_drift() <= 1e-12
        assert traj.max_energy_increase() <= 1e-12

    def test_cfl_guard(self):
        grid = GridDensity1D(0.0, 1.0, np.ones(64))
        c0 = grid.with_values(np.ones(64))
        with pytest.raises(CflError):
            fokker_planck_solve(c0, RT1, lambda x: np.zeros_like(x), 0.1, grid.h**2)
        # backward Euler has no such bound
        fokker_planck_solve(c0, RT1, lambda x: np.zeros_like(x), 0.1, grid.h**2, scheme="implicit")
        with pytest.raises(ValueError, match="scheme"):
            fokker_planck_solve(c0, RT1, None, 0.1, grid.h**2, scheme="crank_nicolson")

    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    @pytest.mark.parametrize("store_every", [0, -2])
    def test_store_every_below_one_rejected(self, scheme, store_every):
        grid = GridDensity1D(0.0, 1.0, np.ones(16))
        c0 = grid.with_values(np.ones(16))
        dt = 0.5 * grid.h**2 / 2.0
        with pytest.raises(ValueError, match="store_every"):
            fokker_planck_solve(c0, RT1, None, 4 * dt, dt, store_every=store_every, scheme=scheme)

    def test_implicit_scheme_is_first_order_in_dt(self):
        # both schemes share the flux, so their gap at fixed T is the time
        # error alone, first order in dt (the explicit reference's is small)
        grid = GridDensity1D(0.0, 5.0, np.ones(100))
        c0 = grid.with_values(1.0 + 0.5 * np.cos(np.pi * grid.centers / 5.0))
        V, T = (lambda x: x), 0.5
        reference = fokker_planck_solve(c0, RT1, V, T, T / 2000, store_every=10**9).final
        gaps = []
        for dt in (0.05, 0.025, 0.0125):
            traj = fokker_planck_solve(c0, RT1, V, T, dt, scheme="implicit")
            assert traj.max_mass_drift() <= 1e-13
            assert traj.max_energy_increase() <= 0.0
            gaps.append(grid.h * np.abs(traj.final.values - reference.values).sum())
        assert gaps[0] <= 2e-2
        for coarse, fine in zip(gaps, gaps[1:]):
            assert 1.7 <= coarse / fine <= 2.1


def reference_fokker_planck(c0, constants, V_arr, T_end, dt):
    """The explicit step composed from the flux and divergence helpers,
    with a fresh array per step: the reference for the buffered solver."""
    rt, eta, h = constants.RT, constants.eta, c0.h

    def energy(values):
        pos = values > 0.0
        ent = float(np.sum(values[pos] * np.log(values[pos] / constants.c0)))
        return h * (rt * ent + float(np.sum(values * V_arr)))

    steps = int(round(T_end / dt))
    c = c0.values.copy()
    states, energies, masses = [c], [energy(c)], [h * c.sum()]
    for k in range(1, steps + 1):
        c = c + dt * divergence_of_flux(free_energy_flux(c, V_arr, rt, eta, h), h)
        if np.min(c) < -1e-12:
            raise PositivityError(f"concentration turned negative at step {k}; reduce dt")
        np.clip(c, 0.0, None, out=c)
        states.append(c)
        energies.append(energy(c))
        masses.append(h * c.sum())
    return np.array(states), np.array(energies), np.array(masses)


def assert_bitwise(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert np.array_equal(actual.view(np.int64), expected.view(np.int64))


class TestBufferedFokkerPlanckStep:
    """The in-place solver performs the composed step's arithmetic exactly."""

    def check(self, c0, constants, V, V_arr, T_end, dt):
        states, energies, masses = reference_fokker_planck(c0, constants, V_arr, T_end, dt)
        traj = fokker_planck_solve(c0, constants, V, T_end, dt, store_every=1)
        assert_bitwise(traj.energies, energies)
        assert_bitwise(traj.masses, masses)
        assert_bitwise([s.values for s in traj.snapshots], states)
        return traj

    def test_criterion_07_problem(self):
        grid = GridDensity1D(0.0, 5.0, np.ones(200))
        c0 = grid.with_values(np.full(grid.cells, 0.2))
        self.check(c0, RT1, lambda x: x, grid.centers, 300 * 0.9 * grid.h**2 / 2.0,
                   0.9 * grid.h**2 / 2.0)

    def test_vacuum_cells(self):
        grid = GridDensity1D(0.0, 5.0, np.ones(100))
        values = np.exp(-grid.centers)
        values[:20] = 0.0
        values[50] = 0.0
        values[80:] = 0.0
        c0 = grid.with_values(values)
        V = lambda x: 0.5 * (x - 2.5) ** 2
        dt = 0.9 * grid.h**2 / 2.0
        traj = self.check(c0, RT1, V, V(grid.centers), 200 * dt, dt)
        assert (traj.snapshots[1].values == 0.0).any()

    def test_reference_concentration_not_one(self):
        constants = PhysicalConstants.with_rt(1.7, c0=0.37, eta=2.3)
        grid = GridDensity1D(-1.0, 2.0, np.ones(80))
        c0 = grid.with_values(1.0 + 0.5 * np.sin(3.0 * grid.centers))
        dt = 0.8 * grid.h**2 * constants.eta / (2.0 * constants.RT)
        self.check(c0, constants, np.cos, np.cos(grid.centers), 150 * dt, dt)

    def test_potential_as_array(self):
        grid = GridDensity1D(-1.0, 2.0, np.ones(80))
        c0 = grid.with_values(1.0 + 0.5 * np.sin(3.0 * grid.centers))
        dt = 0.8 * grid.h**2 / 2.0
        self.check(c0, RT1, np.cos, np.cos(grid.centers), 150 * dt, dt)

    def test_no_potential(self):
        grid = GridDensity1D(0.0, 1.0, np.ones(64))
        c0 = grid.with_values(1.0 + 0.5 * np.sin(7.0 * grid.centers))
        dt = 0.7 * grid.h**2 / 2.0
        self.check(c0, RT1, None, np.zeros(grid.cells), 150 * dt, dt)

    def test_positivity_error_at_same_step(self):
        grid = GridDensity1D(-1.0, 1.0, np.ones(60))
        spike = np.zeros(60)
        spike[30] = 50.0
        c0 = grid.with_values(spike)
        V = lambda x: 40.0 * x
        dt = 0.99 * grid.h**2 / 2.0
        with pytest.raises(PositivityError) as expected:
            reference_fokker_planck(c0, RT1, V(grid.centers), 20 * dt, dt)
        with pytest.raises(PositivityError) as actual:
            fokker_planck_solve(c0, RT1, V, 20 * dt, dt)
        assert str(actual.value) == str(expected.value)

    def test_snapshots_do_not_alias_the_buffer(self):
        grid = GridDensity1D(0.0, 5.0, np.ones(50))
        c0 = grid.with_values(np.full(grid.cells, 0.2))
        dt = 0.9 * grid.h**2 / 2.0
        traj = fokker_planck_solve(c0, RT1, lambda x: x, 40 * dt, dt, store_every=1)
        values = [s.values for s in traj.snapshots]
        for i, a in enumerate(values):
            for b in values[i + 1:]:
                assert not np.shares_memory(a, b)
        assert not np.array_equal(values[1], values[2])


def make_two_species(profile, alpha=2.0, eta=(1.0, 1.0), domain=(0.0, 1.0), cells=100):
    grid = GridDensity1D(domain[0], domain[1], np.ones(cells))
    c1 = profile(grid.centers)
    c2 = 1.0 / alpha - c1
    return MultiSpeciesState(
        domain[0],
        domain[1],
        np.stack([c1, c2]),
        np.array([alpha, alpha]),
        np.asarray(eta, dtype=float),
    )


def species_problem(mode, constants=RT1):
    return FlowProblem(
        EnergyFunctional.grid_free_energy(rt=constants.RT, c0=constants.c0),
        QuadraticDissipation(f"species_{mode}"),
    )


def species_rate(state, mode):
    """The rate s = -K(z) DF(z) of one balance mode, and the interface fluxes
    j = -h cumsum(s) it fixes (s_i = -div j_i with no-flux ends)."""
    problem = species_problem(mode)
    rate = -problem.dissipation.apply_mobility(state, problem.energy.derivative(state))
    return rate, -state.h * np.cumsum(rate, axis=1)[:, :-1]


def skewed_pair(cells=64):
    grid = GridDensity1D(0.0, 1.0, np.ones(cells))
    alpha, eta = np.array([1.0, 3.0]), np.array([1.0, 5.0])
    c1 = 0.5 / alpha[0] + 0.08 * np.sin(2 * math.pi * grid.centers)
    c2 = (1.0 - alpha[0] * c1) / alpha[1]
    return MultiSpeciesState(0.0, 1.0, np.stack([c1, c2]), alpha, eta)


class TestMulticomponent:
    @pytest.mark.parametrize("mode", ["local", "global"])
    def test_energy_rate_equals_dissipation(self, mode):
        # with the log-mean species mobility L(c_i), dF/dt = h <DF, s> equals
        # -sum_i h sum eta_i j_i^2 / L(c_i) to rounding
        state = skewed_pair()
        rate, fluxes = species_rate(state, mode)
        df = EnergyFunctional.grid_free_energy(rt=RT1.RT, c0=RT1.c0).derivative(state)
        energy_rate = state.h * np.sum(df * rate)
        mobility = logarithmic_interface_mean(state.concentrations)
        dissipation = state.h * np.sum(state.frictions[:, None] * fluxes**2 / mobility)
        assert energy_rate < 0.0
        assert energy_rate == pytest.approx(-dissipation, rel=1e-13)

    @pytest.mark.parametrize("mode", ["local", "global"])
    def test_edi_residual_halves_with_dt(self, mode):
        # criterion 08 for the mixture: the explicit step is first order, so
        # the residual of its trajectory to T = 1e-3 halves with dt
        state = skewed_pair()
        residuals = []
        for dt in (2e-5, 1e-5):
            traj = multicomponent_evolve(state, RT1, dt, round(1e-3 / dt), mode, store_every=1)
            residuals.append(edi_residual(species_problem(mode), traj.snapshots, dt))
        assert residuals[1] > 0.0
        assert 1.8 <= residuals[0] / residuals[1] <= 2.2

    def test_uniform_mixture_is_stationary(self):
        state = make_two_species(lambda x: np.full_like(x, 0.2))
        for mode in ("global", "local"):
            out = local_step(species_problem(mode), state, 1e-5)
            assert np.abs(out.concentrations - state.concentrations).max() <= 1e-14

    def test_single_species_pinned_by_constraint(self):
        state = MultiSpeciesState(
            0.0, 1.0, np.full((1, 50), 0.5), np.array([2.0]), np.array([1.0])
        )
        out = local_step(species_problem("global"), state, 1e-5)
        assert np.abs(out.concentrations - state.concentrations).max() <= 1e-14

    def test_symmetric_pair_matches_single_species_diffusion(self):
        profile = lambda x: 0.25 + 0.08 * np.sin(2 * math.pi * x)
        state = make_two_species(profile, cells=100)
        dt = 2e-5
        steps = 500
        traj = multicomponent_evolve(state, RT1, dt, steps, mode="global")
        grid = GridDensity1D(0.0, 1.0, np.ones(100))
        single = fokker_planck_solve(
            grid.with_values(profile(grid.centers)),
            RT1,
            lambda x: np.zeros_like(x),
            dt * steps,
            dt,
        )
        diff = np.abs(traj.final.concentrations[0] - single.final.values).max()
        assert diff <= 1e-6

    def test_local_balance_exact_flux_cancellation(self):
        profile = lambda x: 0.25 + 0.1 * np.sin(2 * math.pi * x)
        state = make_two_species(profile)
        _, fluxes = species_rate(state, "local")
        total = state.molar_volumes @ fluxes
        assert np.abs(total).max() <= 1e-10
        # equal molar volumes make the two species' fluxes antisymmetric
        assert np.abs(fluxes[0] + fluxes[1]).max() <= 1e-10

    def test_global_balance_weak_divergence(self):
        rng = np.random.default_rng(3)
        profile = lambda x: 0.25 + 0.07 * np.cos(3 * math.pi * x)
        state = make_two_species(profile, eta=(1.0, 2.5))
        rate, _ = species_rate(state, "global")
        weighted_div = state.molar_volumes @ rate
        for _ in range(5):
            test_vec = rng.normal(size=state.cells)
            assert abs(state.h * np.dot(test_vec, weighted_div)) <= 1e-10

    def test_constraint_and_masses_over_thousand_steps(self):
        profile = lambda x: 0.25 + 0.08 * np.sin(2 * math.pi * x)
        for mode in ("global", "local"):
            state = make_two_species(profile, eta=(1.0, 3.0), cells=64)
            traj = multicomponent_evolve(state, RT1, 1e-5, 1000, mode=mode)
            assert traj.extra["constraint_max_violation"].max() <= 1e-8
            assert traj.max_energy_increase() <= 1e-12
            start = traj.snapshots[0].masses()
            end = traj.final.masses()
            assert np.abs(end - start).max() <= 1e-10

    def test_vacuum_species_rejected_by_local_balance(self):
        # both closures: the log-mean mobility of an empty cell is singular
        grid_cells = 32
        c1 = np.full(grid_cells, 0.5)
        c1[3] = 0.0
        c2 = (1.0 - 2.0 * c1) / 2.0
        state = MultiSpeciesState(
            0.0, 1.0, np.stack([c1, c2]), np.array([2.0, 2.0]), np.array([1.0, 1.0])
        )
        for mode in ("global", "local"):
            with pytest.raises(SingularWeightError):
                local_step(species_problem(mode), state, 1e-6)

    @pytest.mark.parametrize("mode", ["global", "local"])
    def test_vacuum_species_rejected_by_psi(self, mode):
        # as for the Wasserstein psi: no division by the zero log mean
        c1 = np.full(32, 0.25)
        c1[3] = 0.0
        state = MultiSpeciesState(
            0.0, 1.0, np.stack([c1, 0.5 - c1]), np.array([2.0, 2.0]), np.array([1.0, 1.0])
        )
        rate = np.zeros((2, 32))
        rate[0, 2:5] = rate[1, 5:8] = [1.0, 0.0, -1.0]
        with pytest.raises(SingularWeightError):
            species_problem(mode).dissipation.psi(state, rate)


def banded_to_dense(ab, band):
    """The square matrix of a solve_banded layout with band rows each side."""
    size = ab.shape[1]
    dense = np.zeros((size, size))
    for row in range(size):
        for col in range(max(0, row - band), min(size, row + band + 1)):
            dense[row, col] = ab[band + row - col, col]
    return dense


def test_wasserstein_jacobian_matches_central_differences():
    # one species without the constraint term: the tridiagonal case
    rng = np.random.default_rng(5)
    grid = GridDensity1D(0.0, 1.3, np.ones(12))
    state = grid.with_values(rng.uniform(0.2, 2.0, grid.cells))
    problem = FlowProblem(
        EnergyFunctional.grid_free_energy(
            rt=1.7, c0=0.8, potential=lambda x: 2.0 * np.sin(3.0 * x) + x * x
        ),
        QuadraticDissipation("wasserstein", 1.3),
    )
    residual, jacobian, _ = gradient_flow._backward_euler_system(problem, state)
    c_prev = state.values
    c = c_prev * np.exp(0.1 * rng.normal(size=c_prev.shape))
    dt = 0.1
    ab = jacobian(c, dt)
    assert ab.shape == (3, grid.cells)
    exact = banded_to_dense(ab, 1)
    central = np.empty_like(exact)
    for col in range(c.size):
        step = np.zeros_like(c)
        step[col] = 1e-6 * c[col]
        diff = residual(c + step, c_prev, dt) - residual(c - step, c_prev, dt)
        central[:, col] = diff / (2.0 * step[col])
    assert np.abs(exact - central).max() <= 1e-6 * np.abs(central).max()


@pytest.mark.parametrize("kind", ["l2", "hminus1"])
def test_convex_splitting_jacobian_matches_central_differences(kind):
    rng = np.random.default_rng(7)
    state = PhaseFieldState(0.0, 2.0, rng.uniform(-1.2, 1.2, 12))
    problem = FlowProblem(
        EnergyFunctional.dirichlet_double_well(2.5), QuadraticDissipation(kind, 0.7)
    )
    residual, jacobian, _ = gradient_flow._convex_splitting_system(problem, state)
    u_prev = state.u
    u = u_prev + 0.2 * rng.normal(size=u_prev.size)
    dt = 0.05  # dt m w u^2 is of the order of the identity
    ab = jacobian(u, dt)
    band = 1 if kind == "l2" else 2
    assert ab.shape == (2 * band + 1, state.cells)
    exact = banded_to_dense(ab, band)
    central = np.empty_like(exact)
    for col in range(u.size):
        step = np.zeros_like(u)
        step[col] = 1e-6
        diff = residual(u + step, u_prev, dt) - residual(u - step, u_prev, dt)
        central[:, col] = diff / 2e-6
    assert np.abs(exact - central).max() <= 1e-6 * np.abs(central).max()


class TestImplicitMulticomponent:
    """Backward Euler on the species kinds: implicit_step, scheme="implicit"."""

    @pytest.mark.parametrize("mode", ["local", "global"])
    @pytest.mark.parametrize("species", [2, 3])
    def test_jacobian_matches_central_differences(self, mode, species):
        rng = np.random.default_rng(species)
        fractions = rng.uniform(0.05, 1.0, (species, 12))
        fractions /= fractions.sum(axis=0)
        alpha = rng.uniform(0.2, 5.0, species)
        state = MultiSpeciesState(
            0.0, 1.3, fractions / alpha[:, None], alpha, rng.uniform(0.1, 10.0, species)
        )
        problem = FlowProblem(
            EnergyFunctional.grid_free_energy(rt=1.7, c0=0.8),
            QuadraticDissipation(f"species_{mode}", 1.3),
        )
        residual, jacobian, _ = gradient_flow._backward_euler_system(problem, state)
        c_prev = state.concentrations
        c = c_prev * np.exp(0.1 * rng.normal(size=c_prev.shape))
        dt = 0.1  # the flux part of R outweighs its identity part
        exact = banded_to_dense(jacobian(c, dt), 2 * species - 1)
        central = np.empty_like(exact)
        for col in range(c.size):
            cell, i = divmod(col, species)  # cell-major unknowns
            step = np.zeros_like(c)
            step[i, cell] = 1e-6 * c[i, cell]
            diff = residual(c + step, c_prev, dt) - residual(c - step, c_prev, dt)
            central[:, col] = (diff / (2.0 * step[i, cell])).T.ravel()
        assert np.abs(exact - central).max() <= 1e-6 * np.abs(central).max()

    @pytest.mark.parametrize("dt", [1e-3, 1e-2])
    def test_skewed_pair_modes_agree_and_descend(self, dt):
        state = skewed_pair()
        global_, local = (
            multicomponent_evolve(state, RT1, dt, round(4e-2 / dt), mode, scheme="implicit")
            for mode in ("global", "local")
        )
        gap = np.abs(global_.final.concentrations - local.final.concentrations).max()
        assert gap <= 1e-10
        for traj in (global_, local):
            assert np.all(np.diff(traj.energies) < 0.0)
            assert traj.extra["constraint_max_violation"].max() <= 1e-8
            masses = [snapshot.masses() for snapshot in traj.snapshots]
            assert np.abs(masses[-1] - masses[0]).max() <= 1e-10

    def test_symmetric_pair_matches_implicit_single_species(self):
        # for equal molar volumes and frictions the species-1 residual is
        # the backward-Euler Fokker-Planck residual of species 1
        profile = lambda x: 0.25 + 0.08 * np.sin(2 * math.pi * x)
        state = make_two_species(profile, cells=100)
        dt, steps = 1e-3, 20
        traj = multicomponent_evolve(state, RT1, dt, steps, mode="global", scheme="implicit")
        grid = GridDensity1D(0.0, 1.0, np.ones(100))
        single = fokker_planck_solve(
            grid.with_values(profile(grid.centers)), RT1, None, dt * steps, dt, scheme="implicit"
        )
        assert np.abs(traj.final.concentrations[0] - single.final.values).max() <= 1e-6

    def test_first_order_in_dt(self):
        # distance at T = 1e-2 to the explicit march at dt = 1e-5 (9.2e-4 at
        # dt = 1e-3 on the symmetric default) halves with dt
        state = skewed_pair()
        reference = multicomponent_evolve(state, RT1, 1e-5, 1000, "global").final.concentrations
        errors = []
        for dt in (2e-3, 1e-3):
            traj = multicomponent_evolve(state, RT1, dt, round(1e-2 / dt), "global", scheme="implicit")
            errors.append(np.abs(traj.final.concentrations - reference).max())
        assert 1.8 <= errors[0] / errors[1] <= 2.2

    def test_at_most_three_newton_iterations_per_step(self, monkeypatch):
        counts = []
        march = gradient_flow._newton_march

        def counted(*args, **kwargs):
            out = march(*args, **kwargs)
            counts.append(out[1])
            return out

        monkeypatch.setattr(gradient_flow, "_newton_march", counted)
        # the experiment's default mixture at its dt, and the skewed pair at 10x it
        default = make_two_species(lambda x: 0.25 + 0.08 * np.sin(2 * math.pi * x), cells=64)
        for state, dt in ((default, 1e-3), (skewed_pair(), 1e-2)):
            for mode in ("global", "local"):
                multicomponent_evolve(state, RT1, dt, 5, mode, scheme="implicit")
        assert len(counts) == 20
        assert 1 <= min(counts) and max(counts) <= 3

    def test_uniform_mixture_is_returned_as_it_is(self):
        state = make_two_species(lambda x: np.full_like(x, 0.2))
        for mode in ("global", "local"):
            assert implicit_step(species_problem(mode), state, 1.0) is state

    def test_rejected_inputs(self):
        state = skewed_pair()
        with pytest.raises(ValueError, match="scheme"):
            multicomponent_evolve(state, RT1, 1e-3, 2, scheme="crank_nicolson")
        vacuum = state.concentrations.copy()
        vacuum[:, 3] = [0.0, 1.0 / 3.0]
        empty = MultiSpeciesState(0.0, 1.0, vacuum, state.molar_volumes, state.frictions)
        with pytest.raises(SingularWeightError):
            implicit_step(species_problem("local"), empty, 1e-3)

    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    @pytest.mark.parametrize("steps", [-1, -2])
    def test_negative_steps_rejected(self, steps, scheme):
        # -1 gave a trajectory with no energies, -2 numpy's "negative dimensions"
        with pytest.raises(ValueError, match="steps must be nonnegative"):
            multicomponent_evolve(skewed_pair(), RT1, 1e-4, steps, scheme=scheme)


class TestMultiSpeciesWithValues:
    def test_shares_the_frozen_parameters(self):
        state = skewed_pair()
        out = state.with_values(state.concentrations * 1.0000001)
        assert out.molar_volumes is state.molar_volumes
        assert out.frictions is state.frictions
        for arr in (out.concentrations, out.molar_volumes, out.frictions):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            out.concentrations[0, 0] = 1.0

    def test_matches_the_validated_constructor(self):
        state = skewed_pair()
        c = state.concentrations * (1.0 + 1e-7 * np.sin(np.arange(state.cells)))
        fill = state.molar_volumes @ c
        expected = MultiSpeciesState(0.0, 1.0, c / fill, state.molar_volumes, state.frictions)
        assert_bitwise(state.with_values(c).concentrations, expected.concentrations)
        assert state.with_values(c).constraint_violation() <= 1e-15

    def test_checks_floor_drift_and_shape(self):
        state = skewed_pair()
        c = state.concentrations.copy()
        c[1, 5] = 1e-15
        with pytest.raises(PositivityError):
            state.with_values(c)
        c[1, 5] = np.nan
        with pytest.raises(PositivityError):
            state.with_values(c)
        with pytest.raises(ConstraintError):
            state.with_values(state.concentrations * 1.01)
        with pytest.raises(ValueError, match="shape"):
            state.with_values(state.concentrations[:, :-1])


class TestPhaseField:
    def test_allen_cahn_wells_are_stationary(self):
        state = PhaseFieldState(0.0, 8.0, np.ones(32))
        traj = allen_cahn_solve(state, 1.0, 0.5, 0.01)
        assert np.abs(traj.final.u - 1.0).max() == 0.0

    def test_allen_cahn_leaves_unstable_well(self):
        rng = np.random.default_rng(11)
        u0 = 1e-3 * rng.normal(size=64)
        state = PhaseFieldState(0.0, 64.0, u0)
        traj = allen_cahn_solve(state, 1.0, 20.0, 0.05)
        assert np.abs(traj.final.u).max() > 0.5
        assert traj.max_energy_increase() <= 1e-12

    def test_allen_cahn_energy_decreases_from_random_state(self):
        rng = np.random.default_rng(7)
        state = PhaseFieldState(0.0, 32.0, 0.5 * rng.normal(size=64))
        traj = allen_cahn_solve(state, 1.0, 5.0, 0.02)
        assert traj.max_energy_increase() <= 1e-12
        assert traj.energies[-1] < traj.energies[0]

    def test_cahn_hilliard_well_is_stationary(self):
        state = PhaseFieldState(0.0, 32.0, -np.ones(32))
        traj = cahn_hilliard_solve(state, 1.0, 5.0, 0.05)
        assert np.abs(traj.final.u + 1.0).max() == 0.0

    def test_cahn_hilliard_conserves_mean_and_coarsens(self):
        # the biharmonic guard is dt <= h^4/8; the double-well reaction
        # tightens the practical bound, so run with a safety margin
        rng = np.random.default_rng(5)
        u0 = 0.05 * rng.normal(size=64)
        state = PhaseFieldState(0.0, 64.0, u0)
        traj = cahn_hilliard_solve(state, 1.0, 400.0, 0.04, store_every=2000)
        assert abs(traj.final.mean() - state.mean()) <= 1e-12
        assert traj.max_energy_increase() <= 1e-12
        # spinodal instability grows the perturbation toward the wells
        assert np.abs(traj.final.u).max() > 0.5

    def test_cfl_guards(self):
        state = PhaseFieldState(0.0, 1.0, np.zeros(64))
        with pytest.raises(CflError):
            allen_cahn_solve(state, 1.0, 1.0, state.h)
        with pytest.raises(CflError):
            cahn_hilliard_solve(state, 1.0, 1.0, state.h**2)


def dense_laplacian(n, h):
    """laplacian_neumann as an n x n matrix, column by column."""
    return np.column_stack([laplacian_neumann(e, h) for e in np.eye(n)])


class TestConvexSplitting:
    """The implicit phase-field scheme: Eyre's convex splitting."""

    @pytest.mark.parametrize("kind", ["l2", "hminus1"])
    @pytest.mark.parametrize("dt", [0.01, 1.0, 50.0])
    def test_step_solves_the_splitting_equation(self, kind, dt):
        # u1 - u0 + dt m K (-lap u1 + w u1^3 - w u0) = 0, solved again by
        # dense Newton from the step's state
        rng = np.random.default_rng(12)
        state = PhaseFieldState(0.0, 20.0, 0.7 * rng.normal(size=40))
        mobility, well = 1.7, 0.8
        problem = FlowProblem(
            EnergyFunctional.dirichlet_double_well(well),
            QuadraticDissipation(kind, 1.0 / mobility),
        )
        u0, u1 = state.u, implicit_step(problem, state, dt).u
        lap = dense_laplacian(state.cells, state.h)
        K = np.eye(state.cells) if kind == "l2" else -lap
        exact = u1
        for _ in range(4):
            residual = exact - u0 + dt * mobility * (K @ (-lap @ exact + well * (exact**3 - u0)))
            jacobian = np.eye(state.cells) + dt * mobility * K @ (
                -lap + 3.0 * well * np.diag(exact**2)
            )
            exact = exact - np.linalg.solve(jacobian, residual)
        # the documented Newton bound, in units of u: the Jacobian is I plus
        # a nonnegative operator
        M, a = max(1.0, np.abs(u0).max()), 1.0 / state.h**2
        k = 1.0 if kind == "l2" else 4.0 * a
        bound = 1e-12 * M * (1.0 + dt * mobility * k * (4.0 * a + well * M * M))
        assert np.abs(u1 - exact).max() <= bound

    @pytest.mark.parametrize("solve", [allen_cahn_solve, cahn_hilliard_solve])
    def test_wells_and_zero_are_returned_as_they_are(self, solve):
        for value in (-1.0, 0.0, 1.0):
            state = PhaseFieldState(0.0, 8.0, np.full(32, value))
            traj = solve(state, 1.0, 40.0, 4.0, scheme="implicit")
            assert all(snapshot is state for snapshot in traj.snapshots)

    def test_no_step_bound(self):
        # the explicit scheme rejects these steps (test_cfl_guards)
        rng = np.random.default_rng(2)
        state = PhaseFieldState(0.0, 1.0, 0.5 * rng.normal(size=64))
        ac = allen_cahn_solve(state, 1.0, 10.0, 1.0, scheme="implicit")
        ch = cahn_hilliard_solve(state, 1.0, 10.0, 1.0, scheme="implicit")
        for traj in (ac, ch):
            assert traj.energies.size == 11
            assert traj.max_energy_increase() <= 1e-12
        assert np.abs(ch.extra["mean"] - state.mean()).max() <= 1e-14

    @pytest.mark.parametrize("mobility", [1e4, 1e8])
    def test_stiff_cahn_hilliard_keeps_descent_and_mean(self, mobility):
        # dt m / h^4 up to 2.6e10: the state is shifted back to the mean, not
        # rebuilt as u_prev + dt m lap(mu), whose rounding grows with it
        u0 = 0.05 * np.random.default_rng(0).normal(size=256)
        state = PhaseFieldState(0.0, 64.0, u0)
        traj = cahn_hilliard_solve(state, mobility, 400.0, 1.0, scheme="implicit")
        assert traj.max_energy_increase() <= 1e-12
        assert np.abs(traj.extra["mean"] - state.mean()).max() <= 1e-14

    def test_failed_newton_halves_the_step(self, monkeypatch):
        # 7 Newton iterations at dt 4; 6 and 5 on the two halves
        rng = np.random.default_rng(3)
        state = PhaseFieldState(0.0, 16.0, 0.8 * rng.normal(size=32))
        problem = FlowProblem(
            EnergyFunctional.dirichlet_double_well(1.0), QuadraticDissipation("l2")
        )
        monkeypatch.setattr(gradient_flow, "MAX_NEWTON", 6)
        halves = implicit_step(problem, implicit_step(problem, state, 2.0), 2.0)
        assert np.array_equal(implicit_step(problem, state, 4.0).u, halves.u)
        monkeypatch.setattr(gradient_flow, "MAX_SPLITS", 0)
        with pytest.raises(ConvergenceError):
            implicit_step(problem, state, 4.0)

    def test_failed_newton_names_its_step(self, monkeypatch):
        rng = np.random.default_rng(3)
        state = PhaseFieldState(0.0, 16.0, 0.8 * rng.normal(size=32))
        monkeypatch.setattr(gradient_flow, "MAX_NEWTON", 0)
        monkeypatch.setattr(gradient_flow, "MAX_SPLITS", 0)
        with pytest.raises(ConvergenceError, match="^step 1: "):
            allen_cahn_solve(state, 1.0, 4.0, 2.0, scheme="implicit")

    def test_unknown_scheme_rejected(self):
        state = PhaseFieldState(0.0, 8.0, np.zeros(32))
        with pytest.raises(ValueError, match="scheme"):
            cahn_hilliard_solve(state, 1.0, 1.0, 0.5, scheme="crank_nicolson")

    def test_cli_default_energy_gap_to_the_explicit_reference(self):
        # the phasefield experiment's default start (seed 0) and step (dt 1);
        # coarsening is metastable, so the states are compared by energy
        u0 = 0.05 * np.random.default_rng(0).normal(size=64)
        state = PhaseFieldState(0.0, 64.0, u0)
        implicit = cahn_hilliard_solve(state, 1.0, 400.0, 1.0, scheme="implicit")
        explicit = cahn_hilliard_solve(state, 1.0, 400.0, 0.04, store_every=10**6)
        assert implicit.energies.size - 1 == 400
        assert implicit.max_energy_increase() <= 1e-12
        assert np.abs(implicit.extra["mean"] - state.mean()).max() <= 1e-14
        gap = implicit.energies[-1] - explicit.energies[-1]
        assert gap == pytest.approx(-1.31e-3, abs=1e-4)


def oracle_convex_splitting_system(problem, z, dts):
    """Eyre's residual, Jacobian and tolerance with every array formed
    afresh, as the unbuffered system formed them: the oracle for
    ``_convex_splitting_system``.  Each residual's dt is appended to ``dts``."""
    h, well = z.h, problem.energy.well
    friction = problem.dissipation.coefficient
    hminus1 = problem.dissipation.kind == "hminus1"
    n, a = z.cells, 1.0 / (h * h)
    lap = np.zeros((3, n))
    lap[0, 1:] = a
    lap[1] = -2.0 * a
    lap[1, [0, -1]] = -a
    lap[2, :-1] = a
    if hminus1:
        d = lap[1]
        lap_sq = np.zeros((5, n))
        lap_sq[0, 2:] = lap_sq[4, :-2] = a * a
        lap_sq[1, 1:] = lap_sq[3, :-1] = a * (d[:-1] + d[1:])
        lap_sq[2] = d * d + 2.0 * a * a
        lap_sq[2, [0, -1]] -= a * a

    def residual(u, u_prev, dt):
        dts.append(dt)
        mu = -laplacian_neumann(u, h) + well * (u**3 - u_prev)
        if hminus1:
            return u - u_prev - dt / friction * laplacian_neumann(mu, h)
        return u - u_prev + dt / friction * mu

    def jacobian(u, dt):
        mdt = dt / friction
        if hminus1:
            ab = mdt * lap_sq
            ab[1:4] -= (3.0 * mdt * well) * lap * (u * u)
            ab[2] += 1.0
            return ab
        ab = -mdt * lap
        ab[1] += 1.0 + (3.0 * mdt * well) * (u * u)
        return ab

    def tol(u_prev, dt):
        bound = max(1.0, float(np.abs(u_prev).max()))
        stiffness = (4.0 * a if hminus1 else 1.0) * (4.0 * a + well * bound * bound)
        return SPLITTING_TOL * bound * (1.0 + dt / friction * stiffness)

    return residual, jacobian, tol


SPLITTING_TOL = gradient_flow.SPLITTING_TOL


class TestConvexSplittingOracle:
    """The system built once per march, with its buffers and its dt-scaled
    band parts, gives the unbuffered system's states to the bit."""

    @staticmethod
    def oracle_states(problem, state, dt, steps, dts):
        residual, jacobian, tol = oracle_convex_splitting_system(problem, state, dts)

        def newton_update(x, r, dt):
            return gradient_flow._solve_banded(jacobian(x, dt), -r)

        u, states = state.values, [state.values]
        for _ in range(steps):
            x, _ = gradient_flow._newton_march(u, dt, residual, newton_update, tol)
            if x is not u and problem.dissipation.kind == "hminus1":
                x = x + (u.mean() - x.mean())
            states.append(x)
            u = x
        return states

    @pytest.mark.parametrize(
        "model, cells, dt",
        [
            ("allen_cahn", 64, 1.0),
            ("allen_cahn", 64, 10.0),
            ("cahn_hilliard", 64, 1.0),
            ("cahn_hilliard", 256, 100.0),
        ],
    )
    def test_march_matches_the_unbuffered_system(self, model, cells, dt):
        # the phasefield experiment's defaults: 400 steps on a length of 64,
        # mobility 1, well 1 and amplitude 0.05 at seed 0
        self.check(model, cells, dt, 400)

    def test_march_that_halves_dt(self, monkeypatch):
        # two Newton iterations do not reach the tolerance on every step, so
        # some steps are covered by halves, and the band is scaled anew for
        # them and for the whole steps after them
        monkeypatch.setattr(gradient_flow, "MAX_NEWTON", 2)
        dts = self.check("cahn_hilliard", 64, 1.0, 100)
        assert 0.5 in dts and 1.0 in dts[dts.index(0.5):]

    def check(self, model, cells, dt, steps):
        state = PhaseFieldState(0.0, 64.0, 0.05 * np.random.default_rng(0).normal(size=cells))
        solve, kind = {
            "allen_cahn": (allen_cahn_solve, "l2"), "cahn_hilliard": (cahn_hilliard_solve, "hminus1")
        }[model]
        problem = FlowProblem(EnergyFunctional.dirichlet_double_well(1.0), QuadraticDissipation(kind))
        traj = solve(state, 1.0, steps * dt, dt, store_every=1, scheme="implicit")
        dts = []
        states = self.oracle_states(problem, state, dt, steps, dts)
        assert list(traj.snapshot_steps) == list(range(steps + 1))
        assert_bitwise([s.values for s in traj.snapshots], states)
        assert_bitwise(traj.energies, [problem.energy.value(state.with_values(u)) for u in states])
        return dts


def mixture_energy(state, constants):
    return EnergyFunctional.grid_free_energy(rt=constants.RT, c0=constants.c0).value(state)


class TestFreeEnergyMultispecies:
    def test_reference_concentration_gives_zero(self):
        state = MultiSpeciesState(
            0.0, 2.0, np.full((2, 40), 1.0), np.array([0.5, 0.5]), np.ones(2)
        )
        constants = PhysicalConstants.with_rt(1.0, c0=1.0)
        assert mixture_energy(state, constants) == 0.0

    def test_double_reference_uniform(self):
        # single species at 2 c0 on |Omega| = 2: RT * 2 c0 * |Omega| * log 2
        constants = PhysicalConstants.with_rt(3.0, c0=0.7)
        c_val = 2 * constants.c0
        state = MultiSpeciesState(
            0.0,
            2.0,
            np.full((1, 50), c_val),
            np.array([1.0 / c_val]),
            np.ones(1),
        )
        expected = 3.0 * c_val * 2.0 * math.log(2.0)
        assert mixture_energy(state, constants) == pytest.approx(
            expected, rel=1e-12
        )

    def test_c0_shift_is_linear_in_total_moles(self):
        rng = np.random.default_rng(2)
        c1 = 0.2 + 0.1 * rng.random(30)
        c2 = 0.5 - c1
        state = MultiSpeciesState(
            0.0, 1.5, np.stack([c1, c2]), np.array([2.0, 2.0]), np.ones(2)
        )
        f_a = mixture_energy(state, PhysicalConstants.with_rt(1.0, c0=1.0))
        f_b = mixture_energy(state, PhysicalConstants.with_rt(1.0, c0=2.0))
        total_moles = float(state.masses().sum())
        assert f_b - f_a == pytest.approx(-total_moles * math.log(2.0), rel=1e-12)


GRID_STATES = {
    "grid": lambda a, b: UniformGrid(a, b, np.ones(8)),
    "density": lambda a, b: GridDensity1D(a, b, np.ones(8)),
    "phase_field": lambda a, b: PhaseFieldState(a, b, np.zeros(8)),
    "species": lambda a, b: MultiSpeciesState(
        a, b, np.full((2, 8), 0.25), np.array([2.0, 2.0]), np.array([1.0, 1.0])
    ),
}


class TestStateValidation:
    @pytest.mark.parametrize("make", GRID_STATES.values(), ids=list(GRID_STATES))
    @pytest.mark.parametrize(
        "a, b, message",
        [
            (1.0, 0.0, "b > a"),
            (1.0, 1.0, "b > a"),
            (0.0, math.inf, "finite"),
            (-math.inf, 0.0, "finite"),
            (0.0, math.nan, "finite"),
            (math.nan, 1.0, "finite"),
        ],
        ids=["reversed", "empty", "inf-end", "inf-start", "nan-end", "nan-start"],
    )
    def test_domain_must_be_finite_with_b_above_a(self, make, a, b, message):
        with pytest.raises(ValueError, match=message):
            make(a, b)

    def test_volume_constraint_enforced(self):
        with pytest.raises(ValueError):
            MultiSpeciesState(
                0.0, 1.0, np.full((1, 10), 0.4), np.array([2.0]), np.array([1.0])
            )

    @pytest.mark.parametrize("field", ["concentrations", "molar_volumes", "frictions"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_mixture_rejected(self, field, bad):
        fields = {
            "concentrations": np.full((2, 10), 0.25),
            "molar_volumes": np.array([2.0, 2.0]),
            "frictions": np.array([1.0, 1.0]),
        }
        fields[field][..., 0] = bad
        with pytest.raises(ValueError, match="must be finite"):
            MultiSpeciesState(0.0, 1.0, *fields.values())

    @pytest.mark.parametrize("solve", [allen_cahn_solve, cahn_hilliard_solve])
    def test_recorded_energies_are_the_functional_values(self, solve):
        rng = np.random.default_rng(9)
        state = PhaseFieldState(0.0, 40.0, 0.3 * rng.normal(size=40))
        traj = solve(state, 1.0, 20 * 0.01, 0.01, store_every=1, well=1.3)
        functional = EnergyFunctional.dirichlet_double_well(well=1.3)
        assert_bitwise(traj.energies, [functional.value(s) for s in traj.snapshots])
        assert_bitwise(traj.extra["mean"], [s.mean() for s in traj.snapshots])

    @pytest.mark.parametrize("well", [0.0, -1.0, float("nan")])
    def test_nonpositive_well_depth_rejected(self, well):
        with pytest.raises(ValueError, match="well depth"):
            EnergyFunctional.dirichlet_double_well(well)
        state = PhaseFieldState(0.0, 8.0, np.zeros(32))
        with pytest.raises(ValueError, match="well depth"):
            allen_cahn_solve(state, 1.0, 0.1, 0.01, well=well)


# each state's value rule written out as plain predicates: the oracles that
# the constructor and with_values must both follow
VALUE_RULES = {
    "density": lambda v: v.size >= 2 and not (np.any(v < 0.0) or not np.isfinite(v).all()),
    "phase_field": lambda v: v.size >= 4 and bool(np.isfinite(v).all()),
}
TINY = np.nextafter(0.0, 1.0)
SPECIAL_VALUES = [
    0.0, -0.0, 1.0, -1.0, -1e-300, 1e-300, TINY, -TINY, 2.2e-308, -2.2e-308,
    np.finfo(float).max, -np.finfo(float).max, math.nan, -math.nan, math.inf, -math.inf,
]


def admits(make, values):
    try:
        make(values)
    except ValueError:
        return False
    return True


class TestOneStateRule:
    """The constructor and ``with_values`` of every grid state run one rule."""

    @pytest.mark.parametrize("kind", ["density", "phase_field", "species"])
    def test_with_values_requires_the_states_shape(self, kind):
        state = GRID_STATES[kind](0.0, 1.0)
        shape = state.values.shape
        assert state.with_values(state.values).values.shape == shape
        others = [(4,), (1, 8)] if kind != "species" else [(2, 4), (3, 8), (16,)]
        for other in others:
            message = re.escape(f"{shape}") + ".*" + re.escape(f"{other}")
            with pytest.raises(ValueError, match=message):
                state.with_values(np.full(other, state.values.flat[0]))

    @pytest.mark.parametrize("kind", sorted(VALUE_RULES))
    @pytest.mark.parametrize("special", SPECIAL_VALUES, ids=repr)
    @pytest.mark.parametrize("where", ["one-cell", "every-cell"])
    def test_special_values_follow_the_value_rule(self, kind, special, where):
        state = GRID_STATES[kind](0.0, 1.0)
        values = np.full(8, special if where == "every-cell" else 1.0)
        values[3] = special
        expected = VALUE_RULES[kind](values)
        assert admits(state.with_values, values) == expected
        assert admits(lambda v: type(state)(0.0, 1.0, v), values) == expected

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(sorted(VALUE_RULES)),
        values=st.lists(st.sampled_from(SPECIAL_VALUES) | st.floats(), max_size=6),
    )
    def test_random_values_follow_the_value_rule(self, kind, values):
        values = np.array(values, dtype=float)
        expected = VALUE_RULES[kind](values)
        cls = type(GRID_STATES[kind](0.0, 1.0))
        assert admits(lambda v: cls(-1.0, 2.0, v), values) == expected
        if values.size >= 4:
            state = cls(-1.0, 2.0, np.ones(values.size))
            assert admits(state.with_values, values) == expected

    @pytest.mark.parametrize("kind", ["density", "phase_field", "species"])
    def test_values_are_read_only_copies_on_a_shared_grid(self, kind):
        state = GRID_STATES[kind](0.0, 1.0)
        given_values = 0.5 * state.values + 0.5 * state.values[..., ::-1]
        parameters = (state.molar_volumes, state.frictions) if kind == "species" else ()
        made = type(state)(0.0, 1.0, given_values, *parameters)
        out = state.with_values(given_values)
        for held in (made.values, out.values):
            assert not held.flags.writeable
            assert not np.shares_memory(held, given_values)
            with pytest.raises(ValueError):
                held[..., 0] = 1.0
        assert_bitwise(out.values, made.values)
        # the new state shares the grid, and a species state its molar
        # volumes and frictions, by identity
        assert type(out) is type(state) and list(vars(out)) == list(vars(state))
        for key in vars(state):
            assert key == "values" or vars(out)[key] is vars(state)[key]
        if kind == "species":
            assert out.molar_volumes is state.molar_volumes
            assert out.frictions is state.frictions
        alias = {"phase_field": "u", "species": "concentrations"}.get(kind, "values")
        assert getattr(out, alias) is out.values


class TestSharedEngine:
    """Grid models stepped by the gradient-flow engine and the shared loop."""

    @pytest.mark.parametrize("seed", range(6))
    def test_wasserstein_local_step_is_one_fokker_planck_step(self, seed):
        rng = np.random.default_rng(seed)
        constants = PhysicalConstants.with_rt(
            rng.uniform(0.3, 3.0), c0=rng.uniform(0.5, 2.0), eta=rng.uniform(0.5, 3.0)
        )
        grid = GridDensity1D(-1.0, rng.uniform(1.0, 4.0), np.ones(int(rng.integers(8, 300))))
        coeffs = rng.normal(size=3)
        V = lambda x: coeffs[0] * x + coeffs[1] * x**2 + coeffs[2] * np.sin(3 * x)
        c0 = grid.with_values(rng.uniform(0.2, 2.0, grid.cells))
        dt = 0.5 * grid.h**2 * constants.eta / (2.0 * constants.RT)
        problem = FlowProblem(
            EnergyFunctional.grid_free_energy(rt=constants.RT, potential=V, c0=constants.c0),
            QuadraticDissipation("wasserstein", constants.eta),
        )
        stepped = local_step(problem, c0, dt).values
        reference = fokker_planck_solve(c0, constants, V, dt, dt).final.values
        assert np.abs(stepped - reference).max() <= 1e-14 * np.abs(reference).max()

    @pytest.mark.parametrize("mobility", [1.0, 0.3, 2.5])
    def test_phase_field_steps_match_the_composed_updates(self, mobility):
        rng = np.random.default_rng(4)
        state = PhaseFieldState(0.0, 40.0, 0.4 * rng.normal(size=40))
        h, well, dt = state.h, 1.3, 0.01
        u = state.u
        chemical = laplacian_neumann(u, h) - well * (u**3 - u)
        allen_cahn = u + dt * mobility * chemical
        flux = -mobility * interface_gradient(chemical, h)
        cahn_hilliard = u + dt * divergence_of_flux(flux, h)
        cases = ((allen_cahn_solve, allen_cahn), (cahn_hilliard_solve, cahn_hilliard))
        for solve, expected in cases:
            got = solve(state, mobility, dt, dt, well=well).final.u
            if mobility == 1.0:
                assert_bitwise(got, expected)
            else:
                assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()

    def test_phase_field_blow_up_names_the_step(self):
        state = PhaseFieldState(0.0, 8.0, np.full(32, 1e3))
        dt = 0.01
        # the same explicit Allen-Cahn update, composed by hand
        u, first_bad = state.u.copy(), None
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1, 50):
                u = u + dt * (laplacian_neumann(u, state.h) - (u**3 - u))
                if not np.isfinite(u).all():
                    first_bad = k
                    break
            with pytest.raises(PositivityError) as info:
                allen_cahn_solve(state, 1.0, 50 * dt, dt)
        assert first_bad is not None
        assert str(info.value) == f"step {first_bad}: phase field blew up; reduce dt"

    def test_multicomponent_error_names_the_step(self):
        state = make_two_species(lambda x: 0.25 + 0.2 * np.sin(2 * math.pi * x), cells=32)
        with pytest.raises(PositivityError, match=r"^step \d+: .*reduce dt"):
            multicomponent_evolve(state, RT1, 5e-3, 50, mode="local")

    def test_snapshot_steps_index_the_per_step_series(self):
        # a _march trajectory (Allen-Cahn) and the explicit Fokker-Planck loop
        state = PhaseFieldState(0.0, 40.0, 0.4 * np.random.default_rng(5).normal(size=40))
        dt = 0.01
        marched = allen_cahn_solve(state, 1.0, 250 * dt, dt)
        energy = EnergyFunctional.dirichlet_double_well(1.0)
        grid = GridDensity1D(0.0, 5.0, np.ones(50))
        fp_dt = 0.9 * grid.h**2 / 2.0
        explicit = fokker_planck_solve(
            grid.with_values(np.full(grid.cells, 0.2)), RT1, lambda x: x, 250 * fp_dt, fp_dt
        )
        for traj, step_dt, series, of in (
            (marched, dt, marched.energies, energy.value),
            (explicit, fp_dt, explicit.masses, GridDensity1D.mass),
        ):
            assert traj.dt == step_dt
            assert_bitwise(traj.snapshot_times, traj.snapshot_steps * step_dt)
            assert traj.snapshot_steps[0] == 0 and traj.snapshot_steps[-1] == 250
            assert len(traj.snapshots) == len(traj.snapshot_steps)
            for k, snapshot in zip(traj.snapshot_steps, traj.snapshots):
                assert series[k] == of(snapshot)


class TestImplicitMarch:
    """A march builds its implicit step once for its grid and carries the
    converged flux from step to step; a loop of implicit_step gives the same
    states to the bit."""

    def check(self, traj, problem, state, dt):
        steps = traj.energies.size - 1
        looped = [state]
        for _ in range(steps):
            looped.append(implicit_step(problem, looped[-1], dt))
        assert list(traj.snapshot_steps) == list(range(steps + 1))
        assert_bitwise([s.values for s in traj.snapshots], [s.values for s in looped])
        assert_bitwise(traj.energies, [problem.energy.value(s) for s in looped])

    @pytest.mark.parametrize("V", [lambda x: 0.8 * x, None], ids=["linear", "none"])
    def test_fokker_planck(self, V):
        constants = PhysicalConstants.with_rt(0.7, eta=1.6)
        grid = GridDensity1D(0.0, 5.0, np.ones(60))
        c0 = grid.with_values(np.random.default_rng(2).uniform(0.5, 1.5, grid.cells))
        dt = 0.1
        traj = fokker_planck_solve(c0, constants, V, 30 * dt, dt, store_every=1, scheme="implicit")
        problem = FlowProblem(
            EnergyFunctional.grid_free_energy(rt=constants.RT, potential=V, c0=constants.c0),
            QuadraticDissipation("wasserstein", constants.eta),
        )
        self.check(traj, problem, c0, dt)

    @pytest.mark.parametrize("mode", ["global", "local"])
    def test_multicomponent(self, mode):
        state, dt = skewed_pair(), 1e-3
        traj = multicomponent_evolve(state, RT1, dt, 12, mode, store_every=1, scheme="implicit")
        self.check(traj, species_problem(mode), state, dt)

    @pytest.mark.parametrize("solve, kind", [(allen_cahn_solve, "l2"), (cahn_hilliard_solve, "hminus1")])
    def test_phase_fields(self, solve, kind):
        state = PhaseFieldState(0.0, 32.0, 0.3 * np.random.default_rng(6).normal(size=32))
        mobility, well, dt = 0.8, 1.2, 0.5
        traj = solve(state, mobility, 40 * dt, dt, store_every=1, well=well, scheme="implicit")
        problem = FlowProblem(
            EnergyFunctional.dirichlet_double_well(well), QuadraticDissipation(kind, 1.0 / mobility)
        )
        self.check(traj, problem, state, dt)

    def test_boltzmann_start_is_returned_as_it_is(self):
        grid = GridDensity1D(0.0, 5.0, np.ones(50))
        start = grid.with_values(np.exp(-grid.centers))
        problem = FlowProblem(
            EnergyFunctional.grid_free_energy(rt=RT1.RT, potential=lambda x: x, c0=RT1.c0),
            QuadraticDissipation("wasserstein", RT1.eta),
        )
        assert implicit_step(problem, start, 0.1) is start
        traj = fokker_planck_solve(start, RT1, lambda x: x, 1.0, 0.1, store_every=1, scheme="implicit")
        assert all(snapshot is start for snapshot in traj.snapshots)

    @staticmethod
    def count_log_means(monkeypatch):
        """The log means the backward-Euler system forms, one per flux with a
        potential or a species, and the Newton iterations of each step."""
        means, iterations = [], []
        mean, march = gradient_flow.logarithmic_interface_mean, gradient_flow._newton_march

        def counted_mean(*args, **kwargs):
            means.append(1)
            return mean(*args, **kwargs)

        def counted_march(*args, **kwargs):
            out = march(*args, **kwargs)
            iterations.append(out[1])
            return out

        monkeypatch.setattr(gradient_flow, "logarithmic_interface_mean", counted_mean)
        monkeypatch.setattr(gradient_flow, "_newton_march", counted_march)
        return means, iterations

    def test_each_newton_iteration_forms_one_flux(self, monkeypatch):
        # the first residual of a step is the previous step's last one
        fluxes, iterations = self.count_log_means(monkeypatch)
        grid = GridDensity1D(0.0, 5.0, np.ones(80))
        c0 = grid.with_values(np.full(grid.cells, 0.2))
        fokker_planck_solve(c0, RT1, lambda x: x, 4.0, 0.1, scheme="implicit")
        assert len(iterations) == 40 and sum(iterations) >= 40
        assert len(fluxes) == 1 + sum(iterations)

    @pytest.mark.parametrize("mode", ["global", "local"])
    def test_species_jacobian_forms_no_log_mean(self, mode, monkeypatch):
        # a species step starts at the retracted state, so each of its
        # residuals forms one log mean; the Jacobian reads the last one
        means, iterations = self.count_log_means(monkeypatch)
        multicomponent_evolve(skewed_pair(), RT1, 1e-3, 10, mode, scheme="implicit")
        assert len(iterations) == 10 and sum(iterations) >= 10
        assert len(means) == len(iterations) + sum(iterations)

    def test_potential_memo_follows_the_grid(self):
        # different cells, then the same cells on a different domain
        V = lambda x: np.sin(3.0 * x) + x * x
        energy = EnergyFunctional.grid_free_energy(rt=0.8, potential=V)
        rng = np.random.default_rng(8)
        states = [
            GridDensity1D(a, b, rng.uniform(0.5, 1.5, cells))
            for a, b, cells in ((0.0, 2.0, 30), (0.0, 2.0, 45), (-1.0, 2.0, 45))
        ]
        for rho in (states[0], states[1], states[0], states[2], states[1], states[2]):
            fresh = EnergyFunctional.grid_free_energy(rt=0.8, potential=V)
            assert energy.value(rho) == fresh.value(rho)
            assert_bitwise(energy.derivative(rho), fresh.derivative(rho))

    @pytest.mark.parametrize("kind", ["wasserstein", "species_global"])
    def test_residual_recomputes_the_flux_of_new_values(self, kind):
        if kind == "wasserstein":
            grid = GridDensity1D(0.0, 3.0, np.ones(40))
            state = grid.with_values(np.random.default_rng(9).uniform(0.5, 1.5, grid.cells))
            problem = FlowProblem(
                EnergyFunctional.grid_free_energy(rt=0.9, potential=lambda x: x * x),
                QuadraticDissipation(kind, 1.4),
            )
        else:
            state, problem = skewed_pair(), species_problem("global")
        dt = 0.01
        residual = gradient_flow._backward_euler_system(problem, state)[0]
        c_prev = state.values
        converged = implicit_step(problem, state, dt).values
        one_ulp = converged.copy()
        one_ulp.flat[7] = np.nextafter(one_ulp.flat[7], np.inf)
        scaled = converged * 1.001
        # read-only, as a state's values are: the arrays the residual compares
        one_ulp.flags.writeable = scaled.flags.writeable = False
        for c in (converged, one_ulp, converged, scaled, scaled, converged, converged.copy()):
            fresh = gradient_flow._backward_euler_system(problem, state)[0]
            assert_bitwise(residual(c, c_prev, dt), fresh(c, c_prev, dt))
        # the same array, changed in place after its residual, and a read-only
        # view of an array so changed
        c = converged.copy()
        view = c.view()
        view.flags.writeable = False
        for taken in (c, view):
            residual(taken, c_prev, dt)
            c.flat[3] *= 1.01
            fresh = gradient_flow._backward_euler_system(problem, state)[0]
            assert_bitwise(residual(taken, c_prev, dt), fresh(taken, c_prev, dt))
