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

import contextlib
from typing import Optional

import numpy as np

# the log mean and its partials take their a = b limits below |b - a| =
# LOG_MEAN_NEAR (a + b): log b - log a errs by about eps |log a| / u there,
# u = (b - a) / (a + b), the arithmetic mean by u^2 / 3 (both < 2e-10)
LOG_MEAN_NEAR = 1e-5
# a pair whose log difference (log mean) or relative difference r (partials)
# exceeds _LOG_MEAN_APART is more than LOG_MEAN_NEAR (a + b) apart, with room
# for the rounding of both sides
_LOG_MEAN_APART = 3.0 * LOG_MEAN_NEAR
# the largest cell whose sum with another such cell cannot overflow
_HALF_MAX = 0.5 * np.finfo(float).max
# the context of the kernels' arithmetic when no input can warn
_UNGUARDED = contextlib.nullcontext()


def interface_gradient(values: np.ndarray, h: float) -> np.ndarray:
    """Gradient (v[i+1] - v[i]) / h at the n-1 interior interfaces (np.diff's
    subtraction without its per-call overhead, a few microseconds)."""
    return (values[..., 1:] - values[..., :-1]) / h


def _quiet(values: np.ndarray) -> bool:
    """Whether the cells are at least two, each positive and at most
    _HALF_MAX (so none is NaN or infinite).  Then their logs, the log
    differences of neighbours and their pair sums cannot warn, and neither
    can a quotient by a log difference that is not 0."""
    if values.shape[-1] < 2 or values.size == 0:
        return False
    return values.min() > 0.0 and values.max() <= _HALF_MAX


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
    is used where it is finite and |b - a| > LOG_MEAN_NEAR (a + b); nearly
    equal pairs, and pairs whose logs are not finite numbers (negative or
    non-finite cells), take the arithmetic mean; a pair with a zero cell
    gives 0.

    The fix-ups run only where some input needs them.  On cells that are
    positive and at most _HALF_MAX, the logs and their differences are
    formed outside ``np.errstate``, since they cannot warn; when moreover
    every log difference exceeds _LOG_MEAN_APART, no pair is nearly equal
    and the quotient, formed outside it as well, is the result.  Otherwise
    the quotient is formed under ``np.errstate`` (an equal pair is 0 / 0, a
    zero cell divides by an infinite log difference, a negative one gives
    NaN), the arithmetic mean replaces it where it is not used, and the
    zero-cell fix-up runs when some cell is 0.  Either way the values and
    the warnings are those of the fix-ups applied on every input.

    ``logs`` may pass ``np.log(values)`` when the caller already has it (a
    time stepper that also needs log c for its energy); the result is the
    same to the bit.  ``out`` receives the n-1 interface values in place of
    a new array; it must not overlap ``values`` or ``logs``.
    """
    a = values[..., :-1]
    b = values[..., 1:]
    diff = b - a
    quiet = _quiet(values)
    with _UNGUARDED if quiet else np.errstate(divide="ignore", invalid="ignore"):
        if logs is None:
            logs = np.log(values)
        dlog = logs[..., 1:] - logs[..., :-1]
    if quiet and abs(dlog).min() > _LOG_MEAN_APART:
        return np.divide(diff, dlog, out=out)
    with np.errstate(divide="ignore", invalid="ignore"):
        quotient = diff / dlog
    total = a + b
    out = np.multiply(total, 0.5, out)
    use = abs(diff) > LOG_MEAN_NEAR * total
    use &= np.isfinite(quotient)
    np.copyto(out, quotient, where=use)
    zero = values == 0.0
    if zero.any():
        out[zero[..., 1:] | zero[..., :-1]] = 0.0
    return out


def logarithmic_mean_partials(values: np.ndarray) -> np.ndarray:
    """Partial derivatives of the logarithmic mean L(a, b) at interior
    interfaces (a the left cell, b the right one), for positive fields: a
    (2, n-1) array with rows dL/da and dL/db.  Taken along the last axis, so
    an (m, n) array gives a (2, m, n-1) one.

    Away from a = b they are (L/a - 1) / (log b - log a) and
    (1 - L/b) / (log b - log a), evaluated as (r - d) / d^2 and
    (q d - r) / (q d^2) with q = b / a, r = (b - a) / a and d = log1p(r)
    (log q below q = 1/2, where b - a is no longer exact): r and d are
    correctly rounded, while L/a - 1 would divide the mean's own rounding by
    d, a relative error of up to 1e-5 just above the switch.  Where
    |b - a| <= LOG_MEAN_NEAR (a + b) even r - d cancels badly, and the
    first-order limits 1/2 + t/6 and 1/2 - t/6, t = (b - a) / m with m the
    arithmetic mean, are used.

    The fix-ups run only where some input needs them.  On cells that are
    positive and at most _HALF_MAX with _LOG_MEAN_APART < |r| < 0.4 at every
    pair, no q is below 1/2, no pair is nearly equal and nothing can warn,
    so the quotients are formed outside ``np.errstate`` and are the result.
    Otherwise they are formed under it (a nearly equal pair gives 0 / 0),
    and each fix-up, log q where q < 1/2 and the limits of the nearly equal
    pairs, runs when some pair needs it.
    """
    a = values[..., :-1]
    b = values[..., 1:]
    diff = b - a
    r = diff / a
    q = b / a
    out = np.empty((2,) + diff.shape)
    d_left, d_right = out[0], out[1]
    quiet = _quiet(values)
    if quiet:
        size = abs(r)  # q = 1 + r stays above 1/2 with room for rounding
        quiet = size.min() > _LOG_MEAN_APART and size.max() < 0.4
    with _UNGUARDED if quiet else np.errstate(divide="ignore", invalid="ignore"):
        d = np.log1p(r)
        if not quiet:
            far = q < 0.5
            if far.any():
                np.log(q, out=d, where=far)
        d_sq = d * d
        np.subtract(r, d, out=d_left)
        d_left /= d_sq
        np.multiply(q, d, out=d_right)
        d_right -= r
        d_sq *= q
        d_right /= d_sq
    if quiet:
        return out
    total = a + b
    near = abs(diff) <= LOG_MEAN_NEAR * total
    if near.any():
        t = diff / (3.0 * total)  # t/6 of the docstring
        np.copyto(d_left, 0.5 + t, where=near)
        np.copyto(d_right, 0.5 - t, where=near)
    return out


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
    cell sum of the result telescopes to zero.  Taken along the last axis,
    so an (m, n-1) array of m species' fluxes gives m rows of n cells.
    """
    padded = np.zeros(flux.shape[:-1] + (flux.shape[-1] + 2,))
    padded[..., 1:-1] = flux
    return (padded[..., 1:] - padded[..., :-1]) / h


def laplacian_neumann(values: np.ndarray, h: float) -> np.ndarray:
    """Second difference with no-flux (homogeneous Neumann) ends, along the
    last axis."""
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
