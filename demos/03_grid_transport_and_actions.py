"""Grid measures: W2 by CDF inversion, the local Wasserstein metric behind
it (the dissipation psi / psi_star), and the Benamou-Brenier style action
of density paths.

Run:  python3 demos/03_grid_transport_and_actions.py
"""

import numpy as np

from gradflow import GridDensity1D
from gradflow.gradient_flow import QuadraticDissipation, path_action
from gradflow.transport import w2_grid_1d


def gaussian(grid, mean, var=1.0):
    vals = np.exp(-((grid.centers - mean) ** 2) / (2 * var))
    return grid.with_values(vals).normalized()


grid = GridDensity1D(-8.0, 12.0, np.ones(1000))
rho = gaussian(grid, 0.0)

print("W2 between a Gaussian and its translates (exact answer = shift)")
for shift_cells in (50, 150, 300):
    d = shift_cells * grid.h
    shifted = rho.with_values(np.roll(rho.values, shift_cells)).normalized()
    print(f"  shift {d:5.2f}: W2 = {w2_grid_1d(rho, shifted):.5f}")

# the local metric is the Wasserstein dissipation: a potential xi drives the
# rate s = -(L(rho) xi')', and the squared (-1, rho) norm 2 psi(s), the dual
# norm 2 psi*(xi) and the pairing h sum xi s agree -- exactly
W = QuadraticDissipation("wasserstein")
rng = np.random.default_rng(2)
xi = rng.normal(size=grid.cells)
s = W.apply_mobility(rho, xi)
print("\nlocal (-1, rho) norm of the rate driven by a random potential:")
print(f"  2 psi(s)         = {2 * W.psi(rho, s):.8f}")
print(f"  2 psi*(xi)       = {2 * W.psi_star(rho, xi):.8f}")
print(f"  h sum xi s       = {W.pairing(rho, xi, s):.8f}")

# a constant-speed translating path realizes W2^2; the action converges to
# the squared displacement
d, steps = 3.0, 60
path = [gaussian(grid, d * k / steps) for k in range(steps + 1)]
action = path_action(path, 1.0 / steps)
print(f"\ntranslating Gaussian over unit time, displacement {d}:")
print(f"  path action = {action:.5f}  (continuum value {d**2})")
print(f"  endpoint W2^2 = {w2_grid_1d(path[0], path[-1])**2:.5f}")
