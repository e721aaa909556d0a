"""Wasserstein distances, local (-1, rho) norms, and path actions.

Atomic problems are solved two ways on purpose: a factorial brute force
(`w2_atomic_bruteforce`, the oracle) and an exact O(n^3) assignment solve
(`w2_atomic`).  Grid problems use the 1D inverse-CDF reduction; local norms
solve the weighted Neumann problem -(L(rho) xi')' = s, which in 1D integrates
exactly, so the duality bracket

    ||s||^2 = h * sum xi s = sum L(rho) |xi'|^2 h

holds to machine precision.  The interface density L(rho) is the
logarithmic mean (:func:`gradflow._grid.logarithmic_interface_mean`), the
mobility of the drift-diffusion flux too, so the energy rate of a
Wasserstein flow is exactly minus its dual norm.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import linear_sum_assignment

from ._grid import (
    divergence_of_flux,
    interface_gradient,
    logarithmic_interface_mean,
    weighted_poisson_neumann,
)
from .measures import GridDensity1D

__all__ = [
    "TransportPlan",
    "TangentField1D",
    "SingularWeightError",
    "w2_atomic_bruteforce",
    "w2_atomic",
    "quantiles",
    "w2_grid_1d",
    "local_w_norm",
    "dual_w_norm",
    "tangent_from_rate",
    "path_action",
    "atomic_path_action",
]

BRUTEFORCE_MAX_N = 9
MASS_MATCH_TOL = 1e-10
QUANTILE_NODES_PER_CELL = 4


class SingularWeightError(ValueError):
    """A vacuum cell makes the weighted elliptic problem singular."""


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


@dataclass(frozen=True)
class TangentField1D:
    """A mass rate s and its velocity representation v on one grid.

    ``rho`` carries the reference density; ``s`` is the cellwise rate and
    ``v`` the velocity at the n-1 interior interfaces.  The pair must
    satisfy the discrete continuity relation s + (L(rho) v)' = 0 with no-flux
    ends, L the logarithmic interface mean, and s must have zero total mass
    rate.
    """

    rho: GridDensity1D
    s: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float).reshape(-1)
        v = np.asarray(self.v, dtype=float).reshape(-1)
        n, h = self.rho.cells, self.rho.h
        if s.size != n or v.size != n - 1:
            raise ValueError("rate needs n cells and velocity n-1 interfaces")
        if abs(h * s.sum()) > 1e-12 * max(1.0, float(np.abs(s).max(initial=0.0))):
            raise ValueError("total mass rate must vanish (1e-12)")
        flux = logarithmic_interface_mean(self.rho.values) * v
        residual = s + divergence_of_flux(flux, h)
        if np.abs(residual).max() > 1e-9 * max(1.0, float(np.abs(s).max())):
            raise ValueError("discrete continuity s + (L(rho) v)' = 0 violated")
        for name, arr in (("s", s), ("v", v)):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


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
    """Optimal assignment for the atomic W2 problem via an exact cubic solver.

    Backed by :func:`scipy.optimize.linear_sum_assignment` (augmenting-path,
    exact); agrees with the brute-force oracle to 1e-12 for n <= 9.
    """
    x, y = _as_points(x), _as_points(y)
    if x.shape != y.shape:
        raise ValueError("point lists must have equal size and dimension")
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


def local_w_norm(rho: GridDensity1D, s) -> tuple[float, np.ndarray]:
    """Squared local Wasserstein norm of a zero-mean rate s, plus potential.

    Solves -(L(rho) xi')' = s with no-flux ends (L the logarithmic interface
    mean, zero-mean gauge) and returns ``(norm_sq, xi)`` with

        norm_sq = sum_ifaces L(rho) |xi'|^2 h = h * sum_i xi_i s_i >= 0.

    Raises :class:`SingularWeightError` on any vacuum cell.
    """
    s = np.asarray(s, dtype=float).reshape(-1)
    if s.size != rho.cells:
        raise ValueError("rate field must have one value per cell")
    if np.min(rho.values) <= 0.0:
        raise SingularWeightError("vacuum cell: local norm weight is singular")
    h = rho.h
    if abs(h * s.sum()) > 1e-10 * max(1.0, float(np.abs(s).max(initial=0.0))):
        raise ValueError("rate must have zero total mass rate")
    xi = weighted_poisson_neumann(logarithmic_interface_mean(rho.values), s, h)
    norm_sq = float(h * np.dot(xi, s))
    return max(norm_sq, 0.0), xi


def dual_w_norm(rho: GridDensity1D, xi) -> float:
    """Squared dual norm sum_ifaces L(rho) |xi'|^2 h (logarithmic means)."""
    xi = np.asarray(xi, dtype=float).reshape(-1)
    if xi.size != rho.cells:
        raise ValueError("potential must have one value per cell")
    grad = interface_gradient(xi, rho.h)
    return float(np.sum(logarithmic_interface_mean(rho.values) * grad * grad) * rho.h)


def tangent_from_rate(rho: GridDensity1D, s) -> TangentField1D:
    """Build the (s, v) tangent pair with v = xi' from the elliptic solve."""
    _, xi = local_w_norm(rho, s)
    return TangentField1D(rho, np.asarray(s, dtype=float), interface_gradient(xi, rho.h))


def path_action(path, dt: float) -> float:
    """Kinetic action sum_k ||(rho_{k+1}-rho_k)/dt||^2_{-1, rho_mid} dt.

    The local norm is evaluated at the midpoint density of each segment;
    all path entries must carry equal mass.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    path = list(path)
    mass0 = path[0].mass() if path else 0.0
    total = 0.0
    for prev, cur in zip(path[:-1], path[1:]):
        if abs(cur.mass() - mass0) > MASS_MATCH_TOL * max(1.0, mass0):
            raise ValueError("path entries must have equal mass")
        mid = prev.with_values(0.5 * (prev.values + cur.values))
        norm_sq, _ = local_w_norm(mid, (cur.values - prev.values) / dt)
        total += norm_sq * dt
    return total


def atomic_path_action(trajectories, dt: float) -> float:
    """Discrete (1/n) sum_i int |xdot_i|^2 dt for sampled particle paths.

    ``trajectories`` has shape (n, steps+1) or (n, steps+1, d).
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    traj = np.asarray(trajectories, dtype=float)
    if traj.ndim == 2:
        traj = traj[:, :, None]
    diffs = np.diff(traj, axis=1)
    return float(np.sum(diffs * diffs) / (dt * traj.shape[0]))
