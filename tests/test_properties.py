"""Structural identities of the gradient-flow engine on random states."""

import numpy as np
from hypothesis import given, settings, strategies as st

from gradflow._grid import free_energy_flux, interface_gradient
from gradflow.gradient_flow import (
    EnergyFunctional,
    FlowProblem,
    QuadraticDissipation,
    local_step,
)
from gradflow.measures import GridDensity1D
from gradflow.models import PhaseFieldState

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
        kind=st.sampled_from(["l2", "wasserstein", "hminus1"]),
        coefficient=st.floats(0.1, 10.0),
    )
    def test_closes_at_the_mobility_rate(self, grid, kind, coefficient):
        rho = random_density(grid)
        xi = np.random.default_rng(grid["seed"] + 2).normal(size=rho.cells)
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
