"""Shared finite-volume helpers for cell-centered fields on uniform 1D grids.

Conventions used throughout the package:

* a grid of ``n`` cells on ``[a, b]`` has spacing ``h = (b - a) / n`` and
  cell centers ``a + (i + 1/2) h``;
* scalar fields (densities, rates, potentials) live at cell centers;
* gradients and fluxes live at the ``n - 1`` interior interfaces, and the
  density an interface carries is the logarithmic mean of its two cells;
* boundary interfaces always carry zero flux (no-flux domain).
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def interface_gradient(values: np.ndarray, h: float) -> np.ndarray:
    """Gradient (v[i+1] - v[i]) / h at the n-1 interior interfaces."""
    return np.diff(values) / h


def logarithmic_interface_mean(
    values: np.ndarray,
    *,
    logs: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Logarithmic mean (b - a) / (log b - log a) at interior interfaces.

    The one interface density of the package: the Wasserstein mobility of
    fluxes, norms, dissipation and rate functional alike.  Taken along the
    last axis, so an (m, n) array of m species gives m rows of n-1 means.

    Continuously extended with the limits M(a, a) = a and M(0, b) = 0, so it
    is safe on nonnegative fields.  This mean satisfies
    ``M(a, b) * (log b - log a) = b - a`` exactly, which is what makes the
    entropy flux reduce to a plain difference of the field.  The quotient
    is used where it is finite and |b - a| > 1e-10 (a + b); nearly equal
    pairs, and pairs whose logs are not finite numbers (negative or
    non-finite cells), take the arithmetic mean; a pair with a zero cell
    gives 0.

    ``logs`` may pass ``np.log(values)`` when the caller already has it (a
    time stepper that also needs log c for its energy); the result is the
    same to the bit.  ``out`` receives the n-1 interface values in place of
    a new array; it must not overlap ``values`` or ``logs``.
    """
    a = values[..., :-1]
    b = values[..., 1:]
    diff = b - a
    with np.errstate(divide="ignore", invalid="ignore"):
        if logs is None:
            logs = np.log(values)
        quotient = diff / (logs[..., 1:] - logs[..., :-1])
    total = a + b
    out = np.multiply(total, 0.5, out)
    use = abs(diff) > 1e-10 * total
    use &= np.isfinite(quotient)
    np.copyto(out, quotient, where=use)
    zero = values == 0.0
    out[zero[..., 1:] | zero[..., :-1]] = 0.0
    return out


def logarithmic_mean_partials(values: np.ndarray) -> np.ndarray:
    """Partial derivatives of the logarithmic mean L(a, b) at interior
    interfaces (a the left cell, b the right one), for positive fields: a
    (2, n-1) array with rows dL/da and dL/db.

    Away from a = b they are (L/a - 1) / (log b - log a) and
    (1 - L/b) / (log b - log a).  Where |b - a| <= 1e-6 (a + b) those
    quotients cancel badly, and the first-order limits 1/2 + t/6 and
    1/2 - t/6, t = (b - a) / m with m the arithmetic mean, are used.
    """
    a = values[:-1]
    b = values[1:]
    near = abs(b - a) <= 1e-6 * (a + b)
    t = (b - a) / (0.5 * (a + b))
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = logarithmic_interface_mean(values)
        dlog = np.log(b) - np.log(a)
        d_left = np.where(near, 0.5 + t / 6.0, (mean / a - 1.0) / dlog)
        d_right = np.where(near, 0.5 - t / 6.0, (1.0 - mean / b) / dlog)
    return np.array([d_left, d_right])


def free_energy_flux(
    c: np.ndarray, potential: Optional[np.ndarray], rt: float, eta: float, h: float
) -> np.ndarray:
    """Interface flux (rt grad c + L(c) grad potential) / eta, L the log mean.

    By the log-mean identity this is L(c) grad(rt log c + potential) / eta,
    the Wasserstein flux of rt int c log c + int c potential, and it
    vanishes on exp(-potential / rt).  ``potential=None`` gives Fick alone.
    """
    fick = rt * interface_gradient(c, h)
    if potential is None:
        return fick / eta
    drift = logarithmic_interface_mean(c) * interface_gradient(potential, h)
    return (fick + drift) / eta


def pair_potential(values: np.ndarray, h: float, W) -> np.ndarray:
    """Pair potential h * sum_j W(x_i - x_j) v[j] at every cell center.

    On a uniform grid x_i - x_j = (i - j) h, so the n x n kernel matrix is
    Toeplitz and fixed by its 2n - 1 offsets.  ``W`` is evaluated once at
    ``np.arange(1 - n, n) * h`` and must return one value per offset; it
    need not be even.  The result equals the dense product up to rounding
    (x_i - x_j is not bitwise (i - j) h).
    """
    n = values.shape[0]
    offsets = np.arange(1 - n, n) * h
    kernel = np.asarray(W(offsets), dtype=float)
    if kernel.shape != offsets.shape:
        raise ValueError(
            f"interaction kernel must return one value per offset: expected "
            f"shape {offsets.shape}, got {kernel.shape}"
        )
    return h * np.convolve(kernel, values, mode="valid")


def divergence_of_flux(flux: np.ndarray, h: float) -> np.ndarray:
    """Cellwise divergence of an interior-interface flux, no-flux ends.

    Returns (G[i] - G[i-1]) / h with G[-1] = G[n-1] = 0 implied, so the
    cell sum of the result telescopes to zero.
    """
    padded = np.concatenate(([0.0], flux, [0.0]))
    return np.diff(padded) / h


def laplacian_neumann(values: np.ndarray, h: float) -> np.ndarray:
    """Second difference with no-flux (homogeneous Neumann) ends."""
    return divergence_of_flux(interface_gradient(values, h), h)


def weighted_poisson_neumann(
    weights: np.ndarray, rhs: np.ndarray, h: float
) -> np.ndarray:
    """Solve -(w xi')' = rhs with no-flux ends and zero-mean gauge.

    ``weights`` are the n-1 interior interface coefficients (all > 0), and
    ``rhs`` must have zero cell sum (Neumann compatibility).  In 1D the
    problem integrates exactly: the interface flux G = -w xi' is the running
    cell sum of ``-h * rhs``, and xi follows by a second cumulative sum.
    The returned potential has zero mean, which fixes the constant left free
    by the pure-Neumann problem.
    """
    if np.any(weights <= 0.0):
        raise ValueError("interface weights must be strictly positive")
    # G[j] = w xi' at interface j; G[j] - G[j-1] = -h rhs[j]
    flux = -h * np.cumsum(rhs)[:-1]
    dxi = h * flux / weights  # xi[j+1] - xi[j]
    xi = np.concatenate(([0.0], np.cumsum(dxi)))
    return xi - xi.mean()
