"""Noise geometry and reversibility.

The cross term of the fluctuation rate functional is an exact differential
of a free energy precisely when sigma sigma^T is a multiple of the
mobility (the Einstein relation).  With two coupled fields carrying
different temperature ratios, the same integral becomes path dependent.

Run:  python3 demos/11_reversibility.py
"""

import math

import numpy as np

from gradflow import GridDensity1D
from gradflow.particles import reversibility_check

grid = GridDensity1D(-3.0, 3.0, np.ones(80))
x = grid.centers

bump = lambda c, w: np.exp(-((x - c) ** 2) / (2 * w**2)) + 0.05
start = np.stack([bump(-0.8, 0.5), bump(0.6, 0.7)])
end = np.stack([bump(0.7, 0.8), bump(-0.5, 0.6)])
ts = np.linspace(0.0, 1.0, 61)

straight = np.array([(1 - t) * start + t * end for t in ts])


def detour(t):
    t0, t1 = min(1.0, 2 * t), max(0.0, 2 * t - 1)
    snap = start.copy()
    snap[0] = (1 - t0) * start[0] + t0 * end[0]
    snap[1] = (1 - t1) * start[1] + t1 * end[1]
    return snap


zigzag = np.array([detour(t) for t in ts])
coupling = lambda r: np.exp(-(r**2))

A = np.array([1.0, 2.0])
kT = 1.3
c1, c2 = reversibility_check(
    A, np.sqrt(kT * A), straight, zigzag,
    domain=(-3.0, 3.0), coupling=coupling,
)
print("proportional case (sigma^2 = kT A for one kT):")
print(f"  straight path cross term: {c1:+.10f}")
print(f"  detour path cross term  : {c2:+.10f}")
print(f"  gap                     : {abs(c1 - c2):.2e}  (an exact differential)")

c1, c2 = reversibility_check(
    np.array([1.0, 1.0]), np.array([1.0, math.sqrt(2.0)]),
    straight, zigzag, domain=(-3.0, 3.0), coupling=coupling,
)
print("\nnon-proportional case (sigma sigma^T = diag(1, 2), A = I):")
print(f"  straight path cross term: {c1:+.6f}")
print(f"  detour path cross term  : {c2:+.6f}")
print(f"  gap                     : {abs(c1 - c2):.4f}  (path dependent: no free energy)")
