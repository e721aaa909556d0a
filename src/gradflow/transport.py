"""Wasserstein distances and the action of particle paths.

Atomic problems are solved three ways on purpose: a factorial brute force
(`w2_atomic_bruteforce`, the oracle), and `w2_atomic`, which takes the
monotone coupling in 1D (O(n log n), optimal for the quadratic cost) and an
exact O(n^3) assignment solve in dimension 2 and up.  Grid problems use the
1D inverse-CDF reduction.  The local Wasserstein metric of grid densities
is the dissipation ``QuadraticDissipation("wasserstein")`` of
:mod:`gradflow.gradient_flow`: its psi is half the squared (-1, rho) norm
of a rate, its psi_star half the squared dual norm of a potential, and
``gradient_flow.path_action`` sums 2 psi along a density path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .measures import MASS_MATCH_TOL, GridDensity1D, _check_time_step

__all__ = [
    "TransportPlan",
    "SingularWeightError",
    "w2_atomic_bruteforce",
    "w2_atomic",
    "quantiles",
    "w2_grid_1d",
    "atomic_path_action",
]

BRUTEFORCE_MAX_N = 9
QUANTILE_NODES_PER_CELL = 4


class SingularWeightError(ValueError):
    """A vacuum cell makes a log-mean mobility or a quantile map singular."""


@dataclass(frozen=True)
class TransportPlan:
    """Optimal matching for an equal-size atomic transport problem.

    ``permutation[i]`` is the target index assigned to source atom i and
    ``cost`` is (1/n) sum |x_i - y_perm(i)|^2 (squared-distance units).
    """

    permutation: np.ndarray
    cost: float

    def __post_init__(self):
        perm = np.asarray(self.permutation, dtype=int)
        if sorted(perm.tolist()) != list(range(perm.size)):
            raise ValueError("permutation must be a bijection on 0..n-1")
        if not self.cost >= 0.0:
            raise ValueError("cost must be nonnegative")
        perm = perm.copy()
        perm.flags.writeable = False
        object.__setattr__(self, "permutation", perm)

    @property
    def distance(self) -> float:
        """W2 distance, the square root of the mean matching cost."""
        return float(np.sqrt(self.cost))


def _as_points(x) -> np.ndarray:
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    return pts


def _pair_cost_matrix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    diff = x[:, None, :] - y[None, :, :]
    return np.sum(diff * diff, axis=2)


@lru_cache(maxsize=None)
def _all_permutations(n: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(n))), dtype=np.intp)


def w2_atomic_bruteforce(x, y) -> TransportPlan:
    """Exact minimizer of (1/n) sum |x_i - y_sigma(i)|^2 over all n! sigma.

    Guarded at n <= 9; beyond that the factorial enumeration is not worth
    waiting for and `w2_atomic` should be used instead.
    """
    x, y = _as_points(x), _as_points(y)
    if x.shape != y.shape:
        raise ValueError("point lists must have equal size and dimension")
    n = x.shape[0]
    if n > BRUTEFORCE_MAX_N:
        raise ValueError(f"brute force limited to n <= {BRUTEFORCE_MAX_N}, got {n}")
    cost = _pair_cost_matrix(x, y)
    perms = _all_permutations(n)
    totals = cost[np.arange(n), perms].sum(axis=1)
    best = int(np.argmin(totals))
    return TransportPlan(perms[best].copy(), float(totals[best]) / n)


def w2_atomic(x, y) -> TransportPlan:
    """Optimal assignment for the atomic W2 problem, exact in every dimension.

    In 1D the i-th smallest source goes to the i-th smallest target (stable
    sorts, so tied points keep their order): the monotone coupling, optimal
    for the quadratic cost, in O(n log n).  In dimension 2 and up it is
    :func:`scipy.optimize.linear_sum_assignment` (augmenting-path, exact,
    O(n^3)).  Agrees with the brute-force oracle to 1e-12 for n <= 9.
    """
    x, y = _as_points(x), _as_points(y)
    if x.shape != y.shape:
        raise ValueError("point lists must have equal size and dimension")
    if x.shape[1] == 1:
        perm = np.empty(x.shape[0], dtype=np.intp)
        perm[np.argsort(x[:, 0], kind="stable")] = np.argsort(y[:, 0], kind="stable")
        diff = x[:, 0] - y[perm, 0]
        return TransportPlan(perm, np.sum(diff * diff) / x.shape[0])
    from scipy.optimize import linear_sum_assignment

    cost = _pair_cost_matrix(x, y)
    rows, cols = linear_sum_assignment(cost)
    return TransportPlan(cols[np.argsort(rows)], cost[rows, cols].sum() / x.shape[0])


def quantiles(rho: GridDensity1D, mass_levels: np.ndarray) -> np.ndarray:
    """Positions at which the cumulative mass of rho reaches ``mass_levels``.

    The inverse of the piecewise-linear CDF, which is exact for the
    piecewise-constant density: each cell's mass spreads uniformly over it.
    """
    cell_mass = rho.h * rho.values
    cdf = np.concatenate(([0.0], np.cumsum(cell_mass)))
    cdf[-1] = rho.mass()  # guard the running sum against rounding
    edges = rho.edges
    idx = np.searchsorted(cdf, mass_levels, side="left")
    idx = np.clip(idx, 1, rho.cells)
    cell = idx - 1
    frac = np.zeros_like(mass_levels)
    dense = cell_mass[cell] > 0.0
    frac[dense] = (mass_levels[dense] - cdf[cell[dense]]) / cell_mass[cell[dense]]
    return edges[cell] + np.clip(frac, 0.0, 1.0) * rho.h


def w2_grid_1d(rho0: GridDensity1D, rho1: GridDensity1D) -> float:
    """W2 distance between equal-mass grid densities by CDF inversion.

    Uses 4 quantile nodes per cell; the distance between measures of
    different mass is not defined and raises.
    """
    m0, m1 = rho0.mass(), rho1.mass()
    if m0 <= 0.0 or m1 <= 0.0:
        raise ValueError("densities must carry strictly positive mass")
    if abs(m0 - m1) > MASS_MATCH_TOL * max(1.0, m0):
        raise ValueError(
            "distance between measures of different mass is not defined"
        )
    n_nodes = QUANTILE_NODES_PER_CELL * max(rho0.cells, rho1.cells)
    nodes = (np.arange(n_nodes) + 0.5) / n_nodes
    q0 = quantiles(rho0.normalized(), nodes)
    q1 = quantiles(rho1.normalized(), nodes)
    w2_sq_prob = float(np.mean((q0 - q1) ** 2))
    return float(np.sqrt(m0 * w2_sq_prob))


def atomic_path_action(trajectories, dt: float) -> float:
    """Discrete (1/n) sum_i int |xdot_i|^2 dt for sampled particle paths.

    ``trajectories`` has shape (n, steps+1) or (n, steps+1, d).
    """
    _check_time_step(dt)
    traj = np.asarray(trajectories, dtype=float)
    if traj.ndim == 2:
        traj = traj[:, :, None]
    diffs = np.diff(traj, axis=1)
    return float(np.sum(diffs * diffs) / (dt * traj.shape[0]))
