"""Interacting-particle SDEs, empirical measures, and large deviations.

The stochastic side of the package: Euler-Maruyama ensembles with a
counter-based RNG (bitwise reproducible for a given seed), empirical
densities, the path-space rate functional of the hydrodynamic limit, a
reversibility diagnostic, and exact finite-alphabet large-deviation
computations (coin tails, Sanov by multinomial enumeration, Varadhan
tilting, degeneracy counting, Schilder actions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .gradient_flow import EnergyFunctional, QuadraticDissipation, _segment_rates
from .measures import GridDensity1D, PhysicalConstants, _check_time_step, _step_count
from .transport import SingularWeightError

__all__ = [
    "ParticleEnsemble",
    "FiniteLdpProblem",
    "HalfSpace",
    "SanovResult",
    "TiltTable",
    "BlowUpError",
    "GENERATOR_VERSION",
    "euler_maruyama",
    "empirical_density",
    "rate_functional",
    "reversibility_check",
    "coin_rate",
    "coin_tail_exact",
    "check_enumeration",
    "sanov_exact",
    "varadhan_tilt",
    "log_degeneracy",
    "schilder_action",
]

GENERATOR_VERSION = f"numpy-{np.__version__}-philox4x64"
# exact type enumeration: largest alphabet, sample size and number of types
ENUMERATION_MAX_ALPHABET = 5
ENUMERATION_MAX_N = 120
ENUMERATION_LIMIT = 2_000_000
# how far the weights of a reference law may sum away from 1
LAW_SUM_TOL = 1e-12
# the share of a sample that may fall outside a histogram's domain
_OUTSIDE_MAX_FRACTION = 1e-3
# float64 elements in one block of pair differences (112 KiB).  Every
# temporary of a block then stays below glibc's default 128 KiB mmap
# threshold, so it is reused from the heap instead of being mapped, unmapped
# and page-faulted again on every block.  At 2**16 (512 KiB) the drift took
# twice as long at n = 1000 and 4000 (2-CPU Xeon, numpy 2.4.6); raising
# glibc's mmap and trim thresholds together recovered that time, so cache
# size was not the cause.  Smaller budgets lose again to per-block overhead.
PAIR_BLOCK_ELEMENTS = 14 * 2**10


class BlowUpError(RuntimeError):
    """A trajectory left the finite range; carries the offending step."""


def _as_matrix(M, dim: int) -> np.ndarray:
    arr = np.asarray(M, dtype=float)
    if arr.ndim == 0:
        arr = arr * np.eye(dim)
    if arr.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix")
    return arr


@dataclass(frozen=True)
class ParticleEnsemble:
    """n particles in R^dim with drift potentials and noise geometry.

    The drift is -A grad Vb(X_i) - (1/n) sum_j A grad Vi(X_i - X_j), with
    ``grad_background`` = grad Vb and ``grad_interaction`` = grad Vi (an
    omitted term is zero).  The noise is sqrt(2 dt) sigma xi per step.  A
    must be symmetric positive semidefinite.  Identical seeds give
    bitwise-identical trajectories.
    """

    positions: np.ndarray
    seed: int
    grad_background: Optional[Callable] = None
    grad_interaction: Optional[Callable] = None
    A: object = 1.0
    sigma: object = 1.0

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim == 1:
            pos = pos[:, None]
        if pos.ndim != 2 or pos.size == 0:
            raise ValueError("positions must be a nonempty (n, dim) array")
        dim = pos.shape[1]
        A = _as_matrix(self.A, dim)
        sigma = _as_matrix(self.sigma, dim)
        if not np.allclose(A, A.T, atol=1e-12):
            raise ValueError("mobility matrix A must be symmetric")
        if np.min(np.linalg.eigvalsh(A)) < -1e-12:
            raise ValueError("mobility matrix A must be positive semidefinite")
        if np.min(np.linalg.eigvalsh(sigma @ sigma.T)) < -1e-12:
            raise ValueError("sigma sigma^T must be positive semidefinite")
        pos = pos.copy()
        pos.flags.writeable = False
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "sigma", sigma)

    @property
    def n(self) -> int:
        return self.positions.shape[0]


def _interaction_drift(pos: np.ndarray, grad_vi) -> np.ndarray:
    """Mean-field drift (1/n) sum_j grad Vi(X_i - X_j), in blocks of rows.

    Each block holds at most ``max(PAIR_BLOCK_ELEMENTS, n * dim)`` pair
    differences (at least one row), so its temporaries stay under the
    allocator's mmap threshold (see ``PAIR_BLOCK_ELEMENTS``).  A row's sum
    over j does not depend on how rows are grouped, so the result is
    bitwise the same for every block size.  A single row wider than the
    budget is still one block: splitting it would change the rounding of
    its sum.
    """
    n, dim = pos.shape
    rows = max(1, PAIR_BLOCK_ELEMENTS // (n * dim))
    out = np.empty_like(pos)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        diff = pos[start:stop, None, :] - pos[None, :, :]
        out[start:stop] = grad_vi(diff).sum(axis=1) / n
    return out


def euler_maruyama(
    ensemble: ParticleEnsemble,
    dt: float,
    T: float,
    *,
    store_every: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the interacting SDE; returns (times, positions).

    ``positions`` has shape (stored, n, dim) with the initial state first.
    Interaction costs O(n^2) time per step but is formed in row blocks of
    at most ``max(PAIR_BLOCK_ELEMENTS, n * dim)`` pair differences, so its
    memory is bounded by that block budget, not by n^2, and is reused from
    the heap between blocks; the block size never changes a bit of the
    trajectory.  The interaction is skipped when no interaction gradient is
    given.
    Every ``store_every``-th state is kept, and the last one always;
    ``store_every`` must be at least 1.  Raises :class:`BlowUpError` with
    the step index if any coordinate becomes non-finite.
    """
    steps = _step_count(T, dt)
    if store_every < 1:
        raise ValueError(f"store_every must be at least 1, got {store_every}")
    rng = np.random.Generator(np.random.Philox(ensemble.seed))
    pos = ensemble.positions.copy()
    A, sigma = ensemble.A, ensemble.sigma
    noise_scale = math.sqrt(2.0 * dt)
    times = [0.0]
    stored = [pos.copy()]
    for k in range(1, steps + 1):
        drift = np.zeros_like(pos)
        if ensemble.grad_background is not None:
            drift += np.asarray(ensemble.grad_background(pos), dtype=float)
        if ensemble.grad_interaction is not None:
            drift += _interaction_drift(pos, ensemble.grad_interaction)
        xi = rng.standard_normal(pos.shape)
        pos = pos - (drift @ A.T) * dt + noise_scale * (xi @ sigma.T)
        if not np.isfinite(pos).all():
            raise BlowUpError(f"non-finite position at step {k}")
        if k % store_every == 0 or k == steps:
            times.append(k * dt)
            stored.append(pos.copy())
    return np.asarray(times), np.asarray(stored)


def empirical_density(positions, domain: tuple[float, float], cells: int) -> GridDensity1D:
    """Mass-1 histogram of 1D particle positions on a uniform grid.

    Each in-domain particle contributes 1/(n_in h) to its cell; losing more
    than _OUTSIDE_MAX_FRACTION (0.1%) of the sample outside the domain is an error.
    """
    pos = np.asarray(positions, dtype=float).reshape(-1)
    a, b = domain
    grid = GridDensity1D(a, b, np.zeros(cells))
    inside = (pos >= a) & (pos <= b)
    lost = pos.size - int(inside.sum())
    if lost > _OUTSIDE_MAX_FRACTION * pos.size:
        raise ValueError(
            f"{lost} of {pos.size} particles fell outside the histogram domain"
        )
    h = grid.h
    idx = np.clip(((pos[inside] - a) / h).astype(int), 0, cells - 1)
    counts = np.bincount(idx, minlength=cells).astype(float)
    return grid.with_values(counts / (inside.sum() * h))


# -- path-space rate functional -------------------------------------------------


def rate_functional(path, dt: float, constants: PhysicalConstants, Vb=None, Vi=None) -> float:
    """Fluctuation rate of a density path around the hydrodynamic limit.

    (1/4) sum_k || (rho_{k+1}-rho_k)/dt - div((RT/eta) grad rho_k
    + (rho_k/eta) grad[Vb + rho_k * Vi]) ||^2_{-1, (RT/eta) rho_k} dt.

    The drift is -K(rho_k) DF(rho_k), the rate of
    :func:`gradflow.gradient_flow.local_step` for F = entropy + Vb + Vi
    under the Wasserstein dissipation of friction eta, and each term is
    psi(rho_k, residual) / (2 RT) dt of that dissipation.  Solver output
    has (near-)zero rate; any other equal-mass path a strictly positive one.
    The path's rounding mass mismatch is taken out of (rho_{k+1}-rho_k)/dt
    before the drift is subtracted (see ``gradient_flow._segment_rates``).
    """
    _check_time_step(dt)
    path = list(path)
    if len(path) < 2:
        return 0.0
    energy = EnergyFunctional.grid_free_energy(
        rt=constants.RT, potential=Vb, interaction=Vi, c0=constants.c0
    )
    dissipation = QuadraticDissipation("wasserstein", constants.eta)
    total = 0.0
    for prev, rate in _segment_rates(path, dt, dissipation):
        if np.min(prev.values) <= 0.0:
            raise SingularWeightError("rate functional needs positive densities")
        drift = -dissipation.apply_mobility(prev, energy.derivative(prev))
        total += dissipation.psi(prev, rate - drift) / (2.0 * constants.RT) * dt
    return total


# -- reversibility diagnostic ---------------------------------------------------


def _entropy_difference_quotient(prev: np.ndarray, cur: np.ndarray) -> np.ndarray:
    """Discrete gradient of rho log rho along a segment.

    (phi(cur) - phi(prev)) / (cur - prev) with the limit log rho + 1; using
    it in the cross term makes the entropy part telescope exactly.  Nearly
    equal endpoints switch to the midpoint formula before the secant loses
    digits to cancellation (its error there is O((drho/rho)^2)).
    """
    out = np.empty_like(prev)
    close = np.abs(cur - prev) <= 1e-6 * (np.abs(cur) + np.abs(prev))
    mid = 0.5 * (prev + cur)
    out[close] = np.log(mid[close]) + 1.0
    far = ~close
    phi_prev = prev[far] * np.log(prev[far])
    phi_cur = cur[far] * np.log(cur[far])
    out[far] = (phi_cur - phi_prev) / (cur[far] - prev[far])
    return out


def reversibility_check(
    A,
    sigma,
    path1,
    path2,
    *,
    domain: tuple[float, float],
    background=None,
    coupling=None,
) -> tuple[float, float]:
    """Cross term of the rate-functional expansion along two paths.

    The state is a pair of coupled 1D fields (a structural stand-in for a
    2D mobility geometry): ``A`` and ``sigma`` are length-2 arrays holding
    the per-field scalar mobility a_f and noise sigma_f, ``path1/2`` are
    (steps+1, 2, cells) arrays sharing both endpoints, at least 2 cells on
    a uniform grid of the finite ``domain`` (a, b) with b > a,
    ``background`` is an optional potential of position, and ``coupling``
    an even kernel tying the two fields.

    Returns the integral of (rho_dot, -div sigma^2 grad rho
    - div rho a grad[Vb + K * rho_other])_{-1, rho sigma^2} along each
    path.  When sigma_f^2 = kT a_f with one kT for both fields, the
    integrand is the exact differential of a free energy and the two
    values agree to machine precision; otherwise they genuinely differ.
    """
    a_vec = np.asarray(A, dtype=float).reshape(-1)
    s_vec = np.asarray(sigma, dtype=float).reshape(-1)
    if a_vec.size != 2 or s_vec.size != 2:
        raise ValueError("A and sigma must give one scalar per field")
    p1 = np.asarray(path1, dtype=float)
    p2 = np.asarray(path2, dtype=float)
    if p1.ndim != 3 or p1.shape[1] != 2 or p2.shape[1:] != p1.shape[1:]:
        raise ValueError("paths must have shape (steps+1, 2, cells)")
    if not (
        np.allclose(p1[0], p2[0], atol=1e-12) and np.allclose(p1[-1], p2[-1], atol=1e-12)
    ):
        raise ValueError("paths must share both endpoints")
    grid = GridDensity1D(*domain, np.zeros(p1.shape[2]))
    h, centers = grid.h, grid.centers
    vb_arr = background(centers) if background is not None else None
    kernel = (
        coupling(centers[:, None] - centers[None, :]) if coupling is not None else None
    )
    ratios = a_vec / (s_vec * s_vec)

    def cross_term(path: np.ndarray) -> float:
        if np.min(path) <= 0.0:
            raise SingularWeightError("reversibility check needs positive fields")
        total = 0.0
        for k in range(path.shape[0] - 1):
            prev, cur = path[k], path[k + 1]
            mid = 0.5 * (prev + cur)
            for f in range(2):
                other = 1 - f
                xi = _entropy_difference_quotient(prev[f], cur[f])
                if vb_arr is not None:
                    xi = xi + ratios[f] * vb_arr
                if kernel is not None:
                    xi = xi + ratios[f] * (h * kernel @ mid[other])
                total += float(h * np.dot(xi, cur[f] - prev[f]))
        return total

    return cross_term(p1), cross_term(p2)


# -- exact finite-alphabet large deviations --------------------------------------


def coin_rate(a: float) -> float:
    """Rate function a log a + (1-a) log(1-a) + log 2 on [0, 1], +inf outside."""
    if a < 0.0 or a > 1.0:
        return math.inf
    total = math.log(2.0)
    if a > 0.0:
        total += a * math.log(a)
    if a < 1.0:
        total += (1.0 - a) * math.log(1.0 - a)
    return total


def _log_factorials(n: int) -> np.ndarray:
    """log k! for k = 0..n, as math.lgamma(k + 1): a table to index."""
    return np.fromiter(map(math.lgamma, range(1, n + 2)), dtype=float, count=n + 1)


def _logsumexp(values: np.ndarray) -> float:
    """log sum exp(values), shifted by the maximum; a non-finite maximum
    (all -inf, any +inf, any NaN) is the result itself."""
    peak = float(np.max(values))
    if not math.isfinite(peak):
        return peak
    return peak + math.log(float(np.sum(np.exp(values - peak))))


def coin_tail_exact(n: int, a: float) -> float:
    """Exact -(1/n) log P(S_n >= a n) for n fair coin tosses.

    Evaluated in log space with a stable log-sum-exp over the binomial
    tail; valid for 1 <= n <= 1e5 and 1/2 <= a <= 1.
    """
    if not 1 <= n <= 100_000:
        raise ValueError("n must lie in [1, 1e5]")
    if not 0.5 <= a <= 1.0:
        raise ValueError("tail threshold must lie in [1/2, 1]")
    k_min = math.ceil(a * n - 1e-9)
    k = np.arange(k_min, n + 1)
    log_fact = _log_factorials(n)
    log_terms = log_fact[n] - log_fact[k] - log_fact[n - k] - n * math.log(2.0)
    return -_logsumexp(log_terms) / n


@dataclass(frozen=True)
class FiniteLdpProblem:
    """Finite-alphabet sampling problem: reference law mu, optional tilt F,
    and sample size n."""

    mu: np.ndarray
    n: int
    tilt: Optional[np.ndarray] = None

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float).reshape(-1)
        if np.any(mu <= 0.0):
            raise ValueError("reference weights must be strictly positive")
        if abs(mu.sum() - 1.0) > LAW_SUM_TOL:
            raise ValueError(f"reference law must sum to 1 ({LAW_SUM_TOL:g})")
        if self.n < 1:
            raise ValueError("sample size must be at least 1")
        mu = mu.copy()
        mu.flags.writeable = False
        object.__setattr__(self, "mu", mu)
        if self.tilt is not None:
            tilt = np.asarray(self.tilt, dtype=float).reshape(-1)
            if tilt.size != mu.size:
                raise ValueError("tilt needs one value per state")
            tilt = tilt.copy()
            tilt.flags.writeable = False
            object.__setattr__(self, "tilt", tilt)

    @property
    def alphabet(self) -> int:
        return self.mu.size


@dataclass(frozen=True)
class HalfSpace:
    """Closed constraint {rho : coeffs . rho >= bound} on the simplex."""

    coeffs: np.ndarray
    bound: float

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float).reshape(-1)
        coeffs = coeffs.copy()
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    def contains(self, rho: np.ndarray, tol: float = 1e-12) -> np.ndarray:
        return np.asarray(rho) @ self.coeffs >= self.bound - tol


def _enumerate_types(n: int, parts: int) -> np.ndarray:
    """All occupation vectors k with sum k = n, shape (count, parts)."""
    if parts == 1:
        return np.array([[n]], dtype=np.int64)
    blocks = []
    for first in range(n + 1):
        rest = _enumerate_types(n - first, parts - 1)
        col = np.full((rest.shape[0], 1), first, dtype=np.int64)
        blocks.append(np.hstack([col, rest]))
    return np.vstack(blocks)


def _type_count(n: int, parts: int) -> int:
    return math.comb(n + parts - 1, parts - 1)


def check_enumeration(alphabet: int, n: int) -> None:
    """Raise ValueError unless the types of n samples from ``alphabet``
    states are few enough to enumerate exactly."""
    if alphabet > ENUMERATION_MAX_ALPHABET or n > ENUMERATION_MAX_N:
        raise ValueError(
            f"exact enumeration is limited to alphabet <= {ENUMERATION_MAX_ALPHABET}, "
            f"n <= {ENUMERATION_MAX_N}"
        )
    if _type_count(n, alphabet) > ENUMERATION_LIMIT:
        raise ValueError("type enumeration would exceed the size guard")


def _log_multinomial(types: np.ndarray, mu: np.ndarray, n: int) -> np.ndarray:
    log_fact = _log_factorials(n)
    return log_fact[n] - log_fact[types].sum(axis=1) + types @ np.log(mu)


def _entropy_infimum_halfspace(mu: np.ndarray, constraint: HalfSpace) -> tuple[float, np.ndarray]:
    """inf H(rho|mu) over a closed half-space, via exponential tilting.

    The minimizer lies on the boundary and belongs to the family
    rho_theta ~ mu exp(theta a); <a, rho_theta> is increasing in theta, so
    the boundary equation is a 1D root-find.
    """
    a, b = constraint.coeffs, constraint.bound
    if float(a @ mu) >= b - 1e-15:
        return 0.0, mu.copy()
    if b > a.max() + 1e-15:
        return math.inf, np.full_like(mu, math.nan)

    def moment(theta: float) -> float:
        w = mu * np.exp(theta * (a - a.max()))
        rho = w / w.sum()
        return float(a @ rho) - b

    hi = 1.0
    while moment(hi) < 0.0:
        hi *= 2.0
        if hi > 1e8:
            # boundary value only reachable in the limit (degenerate vertex)
            support = np.isclose(a, a.max())
            rho = np.where(support, mu, 0.0)
            rho /= rho.sum()
            pos = rho > 0
            return float(np.sum(rho[pos] * np.log(rho[pos] / mu[pos]))), rho
    from scipy.optimize import brentq

    theta = brentq(moment, 0.0, hi, xtol=1e-14)
    w = mu * np.exp(theta * (a - a.max()))
    rho = w / w.sum()
    h_val = float(np.sum(rho * np.log(rho / mu)))
    return h_val, rho


@dataclass(frozen=True)
class SanovResult:
    """Exact finite-n rate and the limiting entropy infimum for one set."""

    exact_rate: float
    entropy_infimum: float
    minimizer: np.ndarray
    n: int


def sanov_exact(problem: FiniteLdpProblem, constraint: Optional[HalfSpace] = None) -> SanovResult:
    """Exact -(1/n) log P(empirical measure in set) by type enumeration.

    The set is a closed half-space on the simplex (or the whole simplex if
    omitted); the companion limit value inf H(rho|mu) over the same set is
    returned alongside.
    """
    check_enumeration(problem.alphabet, problem.n)
    n, mu = problem.n, problem.mu
    types = _enumerate_types(n, problem.alphabet)
    log_probs = _log_multinomial(types, mu, n)
    if constraint is None:
        mask = np.ones(types.shape[0], dtype=bool)
        inf_h, minimizer = 0.0, mu.copy()
    else:
        mask = constraint.contains(types / n)
        inf_h, minimizer = _entropy_infimum_halfspace(mu, constraint)
    if not mask.any():
        exact = math.inf
    else:
        exact = -_logsumexp(log_probs[mask]) / n
    return SanovResult(exact, inf_h, minimizer, n)


@dataclass(frozen=True)
class TiltTable:
    """Per-type exact tilted rates next to the limiting tilted rate."""

    types: np.ndarray
    exact_rate: np.ndarray
    limit_rate: np.ndarray
    n: int

    def argmin_exact(self) -> np.ndarray:
        return self.types[int(np.argmin(self.exact_rate))] / self.n


def varadhan_tilt(problem: FiniteLdpProblem) -> TiltTable:
    """Exponentially tilted law over type vectors and its limit rate.

    Tilting the multinomial law with exp(-n <F, rho>) yields per-type
    values -(1/n) log mu_tilde(type); the limit is
    I(rho) = H(rho|mu) + <F, rho> - inf(H + <F, .>), whose normalization
    constant has the closed form -log sum_i mu_i exp(-F_i).
    """
    check_enumeration(problem.alphabet, problem.n)
    F = problem.tilt if problem.tilt is not None else np.zeros_like(problem.mu)
    n, mu = problem.n, problem.mu
    types = _enumerate_types(n, problem.alphabet)
    rhos = types / n
    log_w = _log_multinomial(types, mu, n) - n * (rhos @ F)
    log_z = _logsumexp(log_w)
    exact = -(log_w - log_z) / n
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(rhos > 0, rhos * np.log(rhos / mu), 0.0)
    limit = rel.sum(axis=1) + rhos @ F
    limit -= -math.log(float(np.sum(mu * np.exp(-F))))
    return TiltTable(types, exact, limit, n)


def log_degeneracy(k) -> tuple[float, float]:
    """Exact log(N! / prod k_i!) and its Stirling approximation.

    The companion value is -N sum (k_i/N) log(k_i/N); the gap is O(log N)
    and vanishes relative to N.
    """
    k = np.asarray(k, dtype=float).reshape(-1)
    if not np.all(np.isfinite(k) & (k == np.round(k))):
        raise ValueError("occupation numbers must be integers")
    if np.any(k < 0) or k.sum() < 1:
        raise ValueError("occupation numbers must be nonnegative with N >= 1")
    N = int(k.sum())
    # the entries of _log_factorials(N) at N and at k, without its O(N) table
    exact = math.lgamma(N + 1) - float(np.sum([math.lgamma(v + 1) for v in k.tolist()]))
    pos = k > 0
    freq = k[pos] / N
    stirling = -float(N * np.sum(freq * np.log(freq)))
    return exact, stirling


def schilder_action(path, dt: float) -> float:
    """Brownian action (1/4) sum |dx_k|^2 / dt of a sampled path.

    Accepts a single path (steps+1,) or (steps+1, d), or a stack of n
    paths (n, steps+1, d); the action is summed over paths.
    """
    _check_time_step(dt)
    x = np.asarray(path, dtype=float)
    if x.ndim == 1:
        x = x[None, :, None]
    elif x.ndim == 2:
        x = x[None, :, :]
    diffs = np.diff(x, axis=1)
    return 0.25 * float(np.sum(diffs * diffs)) / dt
