"""Two species diffusing under the volume-filling constraint
sum_i alpha_i c_i = 1, with global-balance (pressure) and local-balance
(pointwise multiplier) closures: the two species dissipations of the
gradient-flow engine, stepped by ``local_step``.

Run:  python3 demos/07_multicomponent_volume.py
"""

import math

import numpy as np

from gradflow import GridDensity1D, PhysicalConstants
from gradflow.gradient_flow import EnergyFunctional, FlowProblem, QuadraticDissipation
from gradflow.models import MultiSpeciesState, fokker_planck_solve, multicomponent_evolve

constants = PhysicalConstants.with_rt(1.0)
cells = 64
grid = GridDensity1D(0.0, 1.0, np.ones(cells))
alpha = np.array([2.0, 2.0])
c1 = 0.25 + 0.08 * np.sin(2 * math.pi * grid.centers)
c2 = (1.0 - alpha[0] * c1) / alpha[1]
state = MultiSpeciesState(0.0, 1.0, np.stack([c1, c2]), alpha, np.array([1.0, 1.0]))

dt, steps = 1e-5, 1000
print("symmetric two-species mixture, both balance closures:")
for mode in ("global", "local"):
    traj = multicomponent_evolve(state, constants, dt, steps, mode=mode)
    print(
        f"  {mode:6s}: constraint violation {traj.extra['constraint_max_violation'].max():.2e},"
        f" energy drop {traj.energies[0] - traj.energies[-1]:.3e}"
    )

# the rate s = -K DF of each closure keeps the volume cellwise, and the
# dissipation pair closes at it: psi(s) + psi*(-DF) = <-DF, s>
print("\nat the start, per closure:")
for mode in ("global", "local"):
    problem = FlowProblem(
        EnergyFunctional.grid_free_energy(rt=constants.RT, c0=constants.c0),
        QuadraticDissipation(f"species_{mode}"),
    )
    diss, force = problem.dissipation, -problem.energy.derivative(state)
    rate = diss.apply_mobility(state, force)
    gap = diss.psi(state, rate) + diss.psi_star(state, force) - diss.pairing(state, force, rate)
    print(
        f"  {mode:6s}: sup |sum alpha_i s_i| = {np.abs(alpha @ rate).max():.2e},"
        f" duality gap {gap:.2e}"
    )

# in the symmetric case the pressure drops out and species 1 obeys plain
# Fickian diffusion
single = fokker_planck_solve(grid.with_values(c1), constants, None, dt * steps, dt)
traj = multicomponent_evolve(state, constants, dt, steps, mode="global")
gap = np.abs(traj.final.concentrations[0] - single.final.values).max()
print(f"\nL_inf gap to the single-species diffusion solution: {gap:.2e}")
