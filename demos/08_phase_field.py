"""Allen-Cahn and Cahn-Hilliard flows of the same double-well energy.

The L^2 flow (Allen-Cahn) relaxes pointwise into the wells; the H^-1 flow
(Cahn-Hilliard) does the same while conserving the mean, which forces
phase separation and coarsening.  Each flow runs twice: explicitly, below
its step bound, and by Eyre's convex splitting (``scheme="implicit"``),
which has no step bound and takes 25 to 50 times fewer steps here.

Run:  python3 demos/08_phase_field.py
"""

import time

import numpy as np

from gradflow.models import PhaseFieldState, allen_cahn_solve, cahn_hilliard_solve

rng = np.random.default_rng(3)
L, cells = 64.0, 64


def sparkline(u, buckets="_.-~^"):
    idx = np.clip(((u + 1.2) / 2.4 * len(buckets)).astype(int), 0, len(buckets) - 1)
    return "".join(buckets[i] for i in idx)


def run(solve, state, T, dt, snapshots, scheme):
    steps = int(round(T / dt))
    started = time.perf_counter()
    traj = solve(state, 1.0, T, dt, store_every=steps // snapshots, scheme=scheme)
    return traj, time.perf_counter() - started


def compare(title, solve, state, T, runs, snapshots):
    print(title)
    for scheme, dt in runs:
        traj, wall = run(solve, state, T, dt, snapshots, scheme)
        steps = traj.energies.size - 1
        print(f"  {scheme:8s} dt={dt:<5}  {steps:5d} steps  {wall:6.3f} s  "
              f"E(T)={traj.energies[-1]:.5f}  largest energy step "
              f"{traj.max_energy_increase():.1e}")
        for k, t, snap in zip(traj.snapshot_steps, traj.snapshot_times, traj.snapshots):
            print(f"    t={t:6.1f}  E={traj.energies[k]:8.4f}  {sparkline(snap.u)}")
    return traj


ac_state = PhaseFieldState(0.0, L, 0.4 * rng.normal(size=cells))
compare("Allen-Cahn (L^2 flow): pointwise relaxation into the wells",
        allen_cahn_solve, ac_state, 60.0, [("explicit", 0.02), ("implicit", 1.0)], 3)

ch_state = PhaseFieldState(0.0, L, 0.05 * rng.normal(size=cells))
ch = compare("\nCahn-Hilliard (H^-1 flow): conserved mean, spinodal coarsening",
             cahn_hilliard_solve, ch_state, 400.0, [("explicit", 0.04), ("implicit", 1.0)], 4)

means = ch.extra["mean"]
print(f"\nimplicit CH mean drift over {means.size - 1} steps: "
      f"{np.abs(means - means[0]).max():.2e}")
