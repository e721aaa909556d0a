"""The minimizing-movement (JKO) scheme for the heat flow.

Each step solves argmin (1/2h) W2(rho, rho_prev)^2 + Ent(rho) in Lagrangian
mass coordinates, carrying the mass nodes from step to step.  For a
Gaussian start the variance must grow like 2t, and the entropy decreases
step by step.

Run:  python3 demos/05_jko_heat_flow.py
"""

import numpy as np

from gradflow import GridDensity1D
from gradflow.gradient_flow import (
    EnergyFunctional,
    FlowProblem,
    QuadraticDissipation,
    jko_evolve,
    local_step,
)
from gradflow.transport import w2_grid_1d

grid = GridDensity1D(-6.0, 6.0, np.ones(400))
rho = grid.with_values(np.exp(-grid.centers**2 / 2)).normalized()
entropy = EnergyFunctional.entropy()

tau, steps = 1e-3, 100
print(f"JKO heat flow: {steps} steps of tau = {tau} from a standard Gaussian")
print(" step   variance   entropy     W2^2 per step   newton iters")
traj, infos = jko_evolve(rho, tau, steps, entropy)
variances = traj.extra["variance"]
for k, info in enumerate(infos, 1):
    if k % 20 == 0 or k == 1:
        print(
            f"  {k:3d}   {variances[k]:.5f}   {traj.energies[k]:+.5f}"
            f"   {info.w2_sq:.3e}      {info.iters}"
        )
print(f"\nfinal variance {variances[-1]:.4f}  (heat flow predicts 1 + 2*{steps*tau} = 1.2)")

# the implicit JKO iterates shadow the explicit FD heat flow in W2
problem = FlowProblem(entropy, QuadraticDissipation("wasserstein"))
explicit = rho
dt = 2e-4
for _ in range(int(steps * tau / dt)):
    explicit = local_step(problem, explicit, dt)
print(f"W2 distance to the explicit FD solution at the same time: "
      f"{w2_grid_1d(traj.final, explicit):.4f}")
