"""Solute diffusion in a potential: free-energy decay to the Boltzmann
profile, and the velocity field that the minimization principle selects.

Run:  python3 demos/06_fokker_planck_boltzmann.py
"""

import numpy as np

from gradflow import GridDensity1D, PhysicalConstants
from gradflow.models import derive_velocity, fokker_planck_solve

constants = PhysicalConstants.with_rt(1.0)
grid = GridDensity1D(0.0, 5.0, np.ones(200))
V = lambda x: x  # a gravity column: linear potential

c0 = grid.with_values(np.full(grid.cells, 0.2))
# backward Euler: no CFL bound, so 500 steps of 0.1 instead of ~178k explicit ones
dt = 0.1
traj = fokker_planck_solve(c0, constants, V, 50.0, dt, store_every=50, scheme="implicit")

target = np.exp(-grid.centers)
target *= c0.mass() / (grid.h * target.sum())

print("uniform column of solute settling under gravity (RT = 1):")
print(" time     free energy    L1 distance to Boltzmann")
for t, snap in zip(traj.snapshot_times, traj.snapshots):
    k = int(round(t / dt))
    l1 = grid.h * np.abs(snap.values - target).sum()
    print(f"  {t:6.1f}   {traj.energies[k]:+.6f}     {l1:.2e}")

print(f"\nmass drift over the whole run : {traj.max_mass_drift():.2e}")
print(f"largest energy increase       : {traj.max_energy_increase():.2e}")

# the variational velocity: zero once the Boltzmann balance is reached
w_initial = derive_velocity(c0, constants, V)
w_final = derive_velocity(traj.final, constants, V)
print(f"\nsup |velocity| at start : {np.abs(w_initial).max():.3f}")
print(f"sup |velocity| at T=50  : {np.abs(w_final).max():.2e}")
