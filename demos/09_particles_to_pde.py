"""Interacting particles and their hydrodynamic limit.

With the Einstein relation sigma^2 = kT A, the empirical measure of the
SDE converges to the Fokker-Planck solution, and the path-space rate
functional of the limit equation is (numerically) zero exactly on solver
output.

Run:  python3 demos/09_particles_to_pde.py
"""

import math

import numpy as np

from gradflow import GridDensity1D, PhysicalConstants
from gradflow.models import fokker_planck_solve
from gradflow.particles import (
    ParticleEnsemble,
    empirical_density,
    euler_maruyama,
    rate_functional,
    schilder_action,
)
from gradflow.transport import quantiles, w2_grid_1d

constants = PhysicalConstants.with_rt(1.0)
grid = GridDensity1D(-6.0, 6.0, np.ones(800))
rho0 = grid.with_values(np.exp(-grid.centers**2 / 0.5)).normalized()
kT, A = 1.0, 1.0
T, dt = 0.5, 2e-3

pde = fokker_planck_solve(
    rho0, constants, lambda x: 0.5 * x**2, T, 0.9 * grid.h**2 / 2, store_every=10**6
)

print("empirical measure vs. Fokker-Planck solution at T = 0.5 (OU drift):")
for n in (100, 1000, 10000):
    start = quantiles(rho0, (np.arange(n) + 0.5) / n)[:, None]
    dists = []
    for seed in range(5):
        ens = ParticleEnsemble(
            positions=start,
            seed=seed,
            grad_background=lambda x: x,
            A=A,
            sigma=math.sqrt(kT * A),
        )
        _, traj = euler_maruyama(ens, dt, T, store_every=10**6)
        hist = empirical_density(traj[-1][:, 0], (-6.0, 6.0), 800)
        dists.append(w2_grid_1d(hist, pde.final))
    print(f"  n = {n:5d}: median W2 over 5 seeds = {np.median(dists):.4f}")

# the rate functional vanishes on the limit path and is positive elsewhere
coarse = GridDensity1D(-6.0, 6.0, np.ones(160))
c0 = coarse.with_values(np.exp(-coarse.centers**2 / 0.5)).normalized()
fd_dt = 0.8 * coarse.h**2 / 2
traj = fokker_planck_solve(c0, constants, lambda x: 0.5 * x**2, 0.05, fd_dt, store_every=1)
fwd = rate_functional(traj.snapshots, fd_dt, constants, Vb=lambda x: 0.5 * x**2)
rev = rate_functional(traj.snapshots[::-1], fd_dt, constants, Vb=lambda x: 0.5 * x**2)
print(f"\nrate functional of the solver path     : {fwd:.2e}")
print(f"rate functional of its time reversal   : {rev:.4f}")
print(f"free energy dropped along the path     : {traj.energies[0] - traj.energies[-1]:.4f}")

# Schilder: the straight line is the cheapest Brownian fluctuation
d, tau, steps = 2.0, 1.0, 200
line = np.linspace(0.0, d, steps + 1)
print(f"\nSchilder action of a straight line over distance {d}: "
      f"{schilder_action(line, tau / steps):.4f} (= d^2/(4 tau) = {d**2 / (4 * tau)})")
