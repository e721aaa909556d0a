"""Generalized gradient-flow engine.

A flow is the triple (state kind, driving energy, quadratic dissipation).
The dissipation is one of four kinds; each defines a dual pair of
potentials ``psi`` (cost of a rate of change) and ``psi_star`` (cost of a
driving force) built from the same discrete operator, so the duality gap

    psi(z, s) + psi_star(z, xi) - <xi, s>  >=  0,   = 0 iff s = K(z) xi

closes to machine precision.

The Wasserstein mobility K(rho) xi = -div(L(rho) grad xi) weights each
interface by the logarithmic mean L of its two cells
(:func:`gradflow._grid.logarithmic_interface_mean`), and the explicit
step, the norms of :mod:`gradflow.transport` and the dissipation share it.
Since L(rho) grad log rho = grad rho, the entropy rate is the plain second
difference of rho, any discrete state exp(-V/RT) is an exact stationary
point, and the energy rate along ``local_step`` is minus the dual norm of
DF to rounding: the chain rule of the flow holds for the discrete (F, psi)
themselves, not only in the limit h -> 0.

The time steppers share one march loop, ``_march``: it applies a step
function and records the energy, mass and named diagnostics of every state,
with thinned snapshots, in a :class:`GridTrajectory`.  It runs the JKO
minimizing movement (:func:`jko_evolve`) here and the multicomponent,
phase-field and implicit Fokker-Planck flows of :mod:`gradflow.models`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.linalg import solve_banded, solveh_banded

from ._grid import (
    divergence_of_flux,
    free_energy_flux,
    interface_gradient,
    laplacian_neumann,
    logarithmic_interface_mean,
    logarithmic_mean_partials,
    pair_potential,
    weighted_poisson_neumann,
)
from .measures import GridDensity1D, PhysicalConstants
from .transport import (
    QUANTILE_NODES_PER_CELL,
    SingularWeightError,
    dual_w_norm,
    local_w_norm,
    quantiles,
)

__all__ = [
    "QuadraticDissipation",
    "EnergyFunctional",
    "FlowProblem",
    "ConvergenceError",
    "PositivityError",
    "ConstraintError",
    "GridTrajectory",
    "JkoStepInfo",
    "legendre_dual",
    "local_step",
    "implicit_step",
    "edi_residual",
    "jko_evolve",
]

DISSIPATION_KINDS = ("scalar", "l2", "wasserstein", "hminus1")
# the JKO Newton solve stops at a gradient sup-norm of NEWTON_TOL and fails
# with ConvergenceError after MAX_NEWTON iterations
NEWTON_TOL = 1e-9
MAX_NEWTON = 200
# the backward-Euler Newton solve stops at |R|_inf <= IMPLICIT_TOL max c_prev
# (1 + dt rt / (eta h^2)): the residual's rounding floor is near 3e-11 of that
# scale on the 200-cell gravity column, and 1e-12 stalls some steps at the
# iteration cap.  Where it fails, dt is halved, at most MAX_SPLITS times deep.
IMPLICIT_TOL = 1e-10
MAX_SPLITS = 12
# the convex-splitting Newton solve of the phase fields stops at |R|_inf <=
# SPLITTING_TOL times the size of R's largest term (see
# _convex_splitting_step), whose rounding floor is near machine epsilon
# times that size.  Late Allen-Cahn steps change u by about 1e-12, so the
# bound stays that tight.
SPLITTING_TOL = 1e-12


class ConvergenceError(RuntimeError):
    """An implicit solve failed to reach its stated tolerance."""


class PositivityError(RuntimeError):
    """A concentration left the positive cone; the step size is too large."""


class ConstraintError(RuntimeError):
    """The volume constraint drifted beyond the consistency limit."""


def _values_of(state) -> np.ndarray:
    if isinstance(state, GridDensity1D):
        return state.values
    if hasattr(state, "values"):
        return np.asarray(state.values, dtype=float)
    return np.asarray(state, dtype=float)


def _h_of(state) -> float:
    if hasattr(state, "h"):
        return float(state.h)
    raise TypeError("grid dissipation needs a state with spacing attribute h")


@dataclass(frozen=True)
class QuadraticDissipation:
    """Quadratic dissipation potential of one of four kinds.

    scalar      psi = c |s|^2 / 2 on finite-dimensional states
    l2          psi = (c/2) h sum s^2
    wasserstein psi = (c/2) ||s||^2_{-1,rho}   (state must be GridDensity1D)
    hminus1     psi = (c/2) ||s||^2_{H^-1}     (unweighted Neumann solve)

    ``coefficient`` c > 0 is the friction scale; the mobility K is c^{-1}
    times the corresponding inverse operator.
    """

    kind: str
    coefficient: float = 1.0

    def __post_init__(self):
        if self.kind not in DISSIPATION_KINDS:
            raise ValueError(f"unknown dissipation kind {self.kind!r}")
        if not self.coefficient > 0.0:
            raise ValueError("coefficient must be strictly positive")

    # -- dual pair -------------------------------------------------------

    def psi(self, state, rate) -> float:
        c = self.coefficient
        if self.kind == "scalar":
            s = np.asarray(rate, dtype=float)
            return 0.5 * c * float(np.sum(s * s))
        s = np.asarray(rate, dtype=float)
        h = _h_of(state)
        if self.kind == "l2":
            return 0.5 * c * float(h * np.sum(s * s))
        if self.kind == "wasserstein":
            norm_sq, _ = local_w_norm(self._density(state), s)
            return 0.5 * c * norm_sq
        norm_sq = float(h * np.dot(self._hminus1_potential(state, s), s))
        return 0.5 * c * norm_sq

    def psi_star(self, state, force) -> float:
        c = self.coefficient
        if self.kind == "scalar":
            xi = np.asarray(force, dtype=float)
            return 0.5 / c * float(np.sum(xi * xi))
        xi = np.asarray(force, dtype=float)
        h = _h_of(state)
        if self.kind == "l2":
            return 0.5 / c * float(h * np.sum(xi * xi))
        if self.kind == "wasserstein":
            return 0.5 / c * dual_w_norm(self._density(state), xi)
        grad = interface_gradient(xi, h)
        return 0.5 / c * float(h * np.sum(grad * grad))

    def pairing(self, state, force, rate) -> float:
        """Duality pairing <xi, s> (an L^2 sum on grids)."""
        xi = np.asarray(force, dtype=float)
        s = np.asarray(rate, dtype=float)
        if self.kind == "scalar":
            return float(np.sum(xi * s))
        return float(_h_of(state) * np.sum(xi * s))

    def apply_mobility(self, state, force) -> np.ndarray:
        """Rate s = K(z) xi induced by a force, for the duality identity.

        K is minus the divergence form (-div(L(rho) grad xi), L the
        logarithmic interface mean, resp. -lap xi), so that <xi, K xi> is
        the nonnegative dual norm.
        """
        c = self.coefficient
        xi = np.asarray(force, dtype=float)
        if self.kind in ("scalar", "l2"):
            return xi / c
        h = _h_of(state)
        if self.kind == "wasserstein":
            weights = logarithmic_interface_mean(self._density(state).values)
            return -divergence_of_flux(weights * interface_gradient(xi, h), h) / c
        return -laplacian_neumann(xi, h) / c

    # -- helpers ---------------------------------------------------------

    def _density(self, state) -> GridDensity1D:
        if not isinstance(state, GridDensity1D):
            raise TypeError("wasserstein dissipation needs a GridDensity1D state")
        return state

    @staticmethod
    def _hminus1_potential(state, rate) -> np.ndarray:
        h = _h_of(state)
        s = np.asarray(rate, dtype=float)
        if abs(h * s.sum()) > 1e-10 * max(1.0, float(np.abs(s).max(initial=0.0))):
            raise ValueError("H^-1 norm needs a zero-mean rate")
        return weighted_poisson_neumann(np.ones(s.size - 1), s, h)


def _as_callable(f, centers: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    if f is None:
        return lambda x: np.zeros_like(x)
    if callable(f):
        return f
    arr = np.asarray(f, dtype=float)
    if arr.shape != centers.shape:
        raise ValueError("potential array must match the grid")
    return lambda x, arr=arr: arr


def _drift_potential(rho: GridDensity1D, potential=None, interaction=None, internal=None):
    """V + W * rho + U'(rho), the non-entropic part of DF (None if all absent):
    the potential of :func:`gradflow._grid.free_energy_flux`."""
    parts = []
    if potential is not None:
        parts.append(_as_callable(potential, rho.centers)(rho.centers))
    if interaction is not None:
        parts.append(pair_potential(rho.values, rho.h, interaction))
    if internal is not None:
        parts.append(internal[1](rho.values))
    return sum(parts[1:], parts[0]) if parts else None


@dataclass(frozen=True)
class EnergyFunctional:
    """Driving functional with value and variational-derivative evaluators.

    Three descriptors:

    * ``finite_dim(f, grad)``: F and its gradient on R^m states;
    * ``grid_free_energy(...)``: rt * int rho log(rho/c0) + int rho V
      + (1/2) iint rho rho W + int U(rho) on GridDensity1D states;
    * ``dirichlet_double_well(well)``: (1/2) int |grad u|^2 + int W(u) with
      the double well W(s) = well/4 (1-s^2)^2 on phase fields; the depth is
      kept as ``well`` for the implicit step.

    The derivative returned is the variational derivative DF (a per-cell
    field for grid states), so that <DF, f> h matches the directional
    derivative of the value.
    """

    kind: str
    value: Callable[[object], float]
    derivative: Callable[[object], np.ndarray]
    rt: float = 0.0
    c0: float = 1.0
    potential: Optional[Callable] = None
    potential_grad: Optional[Callable] = None
    interaction: Optional[Callable] = None
    internal: Optional[tuple] = None
    well: float = 0.0

    @classmethod
    def finite_dim(cls, f, grad) -> "EnergyFunctional":
        return cls(
            kind="finite_dim",
            value=lambda z: float(f(np.asarray(z, dtype=float))),
            derivative=lambda z: np.asarray(grad(np.asarray(z, dtype=float)), dtype=float),
        )

    @classmethod
    def grid_free_energy(
        cls,
        rt: float = 1.0,
        potential=None,
        interaction=None,
        internal: Optional[tuple] = None,
        c0: float = 1.0,
        constants: Optional[PhysicalConstants] = None,
        potential_grad=None,
    ) -> "EnergyFunctional":
        """Free energy on grid densities.

        ``rt`` scales the entropy term (``constants`` overrides it with
        R*T and supplies c0); ``potential`` is V (callable on positions or
        a per-cell array); ``interaction`` is a kernel W(r), not necessarily
        even, whose potential h sum_j W(x_i - x_j) rho_j is a Toeplitz
        convolution with W evaluated at the 2n - 1 grid offsets (see
        :func:`gradflow._grid.pair_potential`); ``internal`` is a pair
        (U, U') of callables of the density value.
        """
        if constants is not None:
            rt = constants.RT
            c0 = constants.c0
        if rt < 0.0:
            raise ValueError("entropy weight rt must be nonnegative")

        def value(rho: GridDensity1D) -> float:
            v = rho.values
            total = 0.0
            if rt > 0.0:
                pos = v > 0.0
                total += rt * rho.h * float(np.sum(v[pos] * np.log(v[pos] / c0)))
            if potential is not None:
                V = _as_callable(potential, rho.centers)(rho.centers)
                total += rho.h * float(np.sum(v * V))
            if interaction is not None:
                pair = pair_potential(v, rho.h, interaction)
                total += 0.5 * rho.h * float(np.sum(v * pair))
            if internal is not None:
                total += rho.h * float(np.sum(internal[0](v)))
            return total

        def derivative(rho: GridDensity1D) -> np.ndarray:
            v = rho.values
            df = rt * (np.log(v / c0) + 1.0) if rt > 0.0 else np.zeros_like(v)
            drift = _drift_potential(rho, potential, interaction, internal)
            return df if drift is None else df + drift

        return cls(
            kind="grid_free_energy",
            value=value,
            derivative=derivative,
            rt=rt,
            c0=c0,
            potential=potential,
            potential_grad=potential_grad,
            interaction=interaction,
            internal=internal,
        )

    @classmethod
    def entropy(cls, rt: float = 1.0) -> "EnergyFunctional":
        """Pure entropy rt * int rho log rho."""
        return cls.grid_free_energy(rt=rt)

    @classmethod
    def dirichlet_double_well(cls, well: float = 1.0) -> "EnergyFunctional":
        if not well > 0.0:
            raise ValueError("well depth coefficient must be positive")

        def value(state) -> float:
            u = _values_of(state)
            h = _h_of(state)
            grad = interface_gradient(u, h)
            dirichlet = 0.5 * float(h * np.sum(grad * grad))
            return dirichlet + float(h * np.sum(0.25 * well * (1.0 - u * u) ** 2))

        def derivative(state) -> np.ndarray:
            u = _values_of(state)
            h = _h_of(state)
            return -laplacian_neumann(u, h) + well * (u**3 - u)

        return cls(kind="dirichlet_double_well", value=value, derivative=derivative, well=well)


_COMPATIBLE = {
    "scalar": ("finite_dim",),
    "l2": ("dirichlet_double_well", "grid_free_energy"),
    "hminus1": ("dirichlet_double_well", "grid_free_energy"),
    "wasserstein": ("grid_free_energy",),
}


@dataclass(frozen=True)
class FlowProblem:
    """Bundle of driving energy and dissipation defining one gradient flow."""

    energy: EnergyFunctional
    dissipation: QuadraticDissipation

    def __post_init__(self):
        if self.energy.kind not in _COMPATIBLE[self.dissipation.kind]:
            raise ValueError(
                f"dissipation {self.dissipation.kind!r} is incompatible with "
                f"energy {self.energy.kind!r}"
            )


def legendre_dual(s_samples, psi_samples, xi: float) -> float:
    """Legendre transform max_s (xi s - psi(s)) over sampled values.

    The samples must describe a convex function (nondecreasing secant
    slopes, tolerance 1e-10); for psi(s) = eta s^2/2 the result matches
    xi^2 / (2 eta) up to grid resolution.
    """
    s = np.asarray(s_samples, dtype=float)
    p = np.asarray(psi_samples, dtype=float)
    if s.size != p.size or s.size < 3:
        raise ValueError("need matching sample arrays with at least 3 points")
    if np.any(np.diff(s) <= 0.0):
        raise ValueError("sample grid must be strictly increasing")
    slopes = np.diff(p) / np.diff(s)
    scale = max(1.0, float(np.abs(p).max()))
    if np.any(np.diff(slopes) < -1e-10 * scale):
        raise ValueError("samples are not convex")
    return float(np.max(xi * s - p))


def local_step(problem: FlowProblem, z, dt: float):
    """One explicit step z - dt K(z) DF(z), for every dissipation kind.

    The rate s* = -K(z) DF(z) minimizes psi(z, s) + <DF(z), s>, K the
    mobility of the dissipation (:meth:`QuadraticDissipation.apply_mobility`).
    For the wasserstein kind it is div(L(rho) grad DF) / c, the conservative
    drift-diffusion rate: total mass rate zero, rt times the discrete
    Laplacian of rho for pure entropy, and zero on exp(-V/rt).  A vacuum cell
    raises SingularWeightError before DF takes its logarithm.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    diss = problem.dissipation
    values = _values_of(z)
    if diss.kind == "wasserstein" and np.min(values) <= 0.0:
        raise SingularWeightError("vacuum cell: Wasserstein mobility is singular")
    out = values - dt * diss.apply_mobility(z, problem.energy.derivative(z))
    if diss.kind == "scalar":
        return float(out) if out.ndim == 0 else out
    return z.with_values(out)


def implicit_step(problem: FlowProblem, z, dt: float):
    """One implicit step over dt, with no step-size bound, of either

    * a Wasserstein flow of entropy plus potential, by backward Euler, or
    * a Dirichlet double-well flow (L^2 or H^-1 dissipation: Allen-Cahn or
      Cahn-Hilliard), by Eyre's convex splitting
      (:func:`_convex_splitting_step`).

    Backward Euler solves R(c) = 0 for the residual

        R(c) = c - c_prev - (dt / eta) div(free_energy_flux(c, V, rt, 1, h)),

    eta the friction coefficient.  The flux (rt grad c + L(c) grad V) / eta
    is that of the explicit step, L(c) grad DF(c) / eta, by the log-mean
    identity L(c) grad log c = grad c: mass is conserved to rounding, and the
    discrete Boltzmann state exp(-V/rt) is a fixed point, returned unchanged
    without a Newton iteration.  R = 0 is solved by Newton on the exact
    tridiagonal Jacobian (one banded solve per iteration), each update
    halved until every cell stays positive, until
    |R|_inf <= IMPLICIT_TOL max c_prev (1 + dt rt / (eta h^2)).  A state
    already within that tolerance is returned as it is, so a march settles
    within about the tolerance of the fixed point.

    Newton started at c_prev can fail when strong drift moves much mass
    within dt; the interval is then covered by halved steps (see
    :func:`_newton_march`).  Every such step conserves mass, and since F is
    convex an exact step does not raise it.

    Interaction and internal energies couple more than neighbouring cells
    and raise NotImplementedError; a vacuum cell raises SingularWeightError;
    any other flow raises ValueError.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if problem.energy.kind == "dirichlet_double_well":
        return _convex_splitting_step(problem, z, dt)
    if problem.dissipation.kind != "wasserstein":
        raise ValueError(
            "implicit_step needs a wasserstein dissipation or a double-well energy"
        )
    energy = problem.energy
    if energy.interaction is not None or energy.internal is not None:
        raise NotImplementedError("implicit_step supports entropy + potential energies only")
    if np.min(z.values) <= 0.0:
        raise SingularWeightError("vacuum cell: Wasserstein mobility is singular")
    h, rt, eta = z.h, energy.rt, problem.dissipation.coefficient
    potential = _drift_potential(z, energy.potential)
    grad_V = None if potential is None else interface_gradient(potential, h)

    def residual(c, c_prev, dt):
        flux = free_energy_flux(c, potential, rt, 1.0, h)
        return c - c_prev - dt / eta * divergence_of_flux(flux, h)

    def jacobian(c, dt):
        # d flux_i / d c_i and d flux_i / d c_{i+1}
        left = np.full(c.size - 1, -rt / h)
        right = np.full(c.size - 1, rt / h)
        if grad_V is not None:
            d_left, d_right = logarithmic_mean_partials(c)
            left += d_left * grad_V
            right += d_right * grad_V
        k = dt / eta / h
        ab = np.zeros((3, c.size))
        ab[0, 1:] = -k * right
        ab[1] = 1.0
        ab[1, :-1] -= k * left
        ab[1, 1:] += k * right
        ab[2, :-1] = k * left
        return (1, 1), ab

    def tol(c_prev, dt):
        return IMPLICIT_TOL * float(c_prev.max()) * (1.0 + dt / eta * rt / (h * h))

    c = _newton_march(
        z.values, dt, residual, jacobian, tol, admissible=lambda c: np.min(c) > 0.0
    )
    return z if c is z.values else z.with_values(c)


def _convex_splitting_step(problem: FlowProblem, z, dt: float):
    """Eyre's convex-splitting step of a Dirichlet double-well flow.

    The double well W(u) = w/4 (1 - u^2)^2 splits into the convex w/4 u^4
    (plus a constant) and the concave -w/2 u^2.  The Dirichlet energy and
    the convex part are taken at the new state, the concave part at the old
    one, so a step solves R(u) = 0 for

        R(u) = u - u_prev + dt m K mu,   mu = -lap u + w u^3 - w u_prev,

    m the mobility (the inverse dissipation coefficient), lap the Neumann
    Laplacian and K = I (l2, Allen-Cahn) or K = -lap (hminus1,
    Cahn-Hilliard).  The energy is a convex function minus a convex one, so
    an exact step does not raise it for any dt (Eyre 1998).

    R = 0 is solved by Newton from u_prev, each iteration one banded solve
    with the Jacobian I - dt m lap + 3 dt m w diag(u^2) (tridiagonal) or
    I + dt m lap^2 - 3 dt m w lap diag(u^2) (pentadiagonal), until
    |R|_inf <= SPLITTING_TOL M (1 + dt m k (4 / h^2 + w M^2)), with
    M = max(1, |u_prev|_inf) and k = 1 (l2) or 4 / h^2 (hminus1): the size
    of R's largest term.  A state R does not move (the wells u = +-1,
    u = 0) is returned as it is, the same object.  Where Newton fails the
    step is halved (see :func:`_newton_march`).

    The columns of the Cahn-Hilliard Jacobian sum to 1, so each Newton
    update keeps the mean in exact arithmetic; a constant shift back to the
    mean of u_prev removes the rounding of the banded solves, which grows
    with dt m / h^4.  Writing the state as u_prev + dt m lap(mu), as the
    explicit update is written, would keep the mean too, but it multiplies
    the rounding of mu by up to 16 dt m / h^4: at 256 cells on a length of
    64 with dt m = 1e4, the energy then rose by 3.9e-9 in a step.
    """
    u0 = _values_of(z)
    h, well = _h_of(z), problem.energy.well
    friction = problem.dissipation.coefficient
    hminus1 = problem.dissipation.kind == "hminus1"
    n, a = u0.size, 1.0 / (h * h)
    # laplacian_neumann in solve_banded's layout: row 0 the upper diagonal,
    # row 1 the main one, row 2 the lower one
    lap = np.zeros((3, n))
    lap[0, 1:] = a
    lap[1] = -2.0 * a
    lap[1, [0, -1]] = -a
    lap[2, :-1] = a
    if hminus1:
        # lap @ lap, pentadiagonal: a^2 two off the diagonal, a (d_i + d_i+1)
        # next to it and d_i^2 plus a^2 per neighbour on it
        d = lap[1]
        lap_sq = np.zeros((5, n))
        lap_sq[0, 2:] = lap_sq[4, :-2] = a * a
        lap_sq[1, 1:] = lap_sq[3, :-1] = a * (d[:-1] + d[1:])
        lap_sq[2] = d * d + 2.0 * a * a
        lap_sq[2, [0, -1]] -= a * a

    def residual(u, u_prev, dt):
        mu = -laplacian_neumann(u, h) + well * (u**3 - u_prev)
        if hminus1:
            return u - u_prev - dt / friction * laplacian_neumann(mu, h)
        return u - u_prev + dt / friction * mu

    def jacobian(u, dt):
        mdt = dt / friction
        if hminus1:
            ab = mdt * lap_sq
            ab[1:4] -= (3.0 * mdt * well) * lap * (u * u)
            ab[2] += 1.0
            return (2, 2), ab
        ab = -mdt * lap
        ab[1] += 1.0 + (3.0 * mdt * well) * (u * u)
        return (1, 1), ab

    def tol(u_prev, dt):
        bound = max(1.0, float(np.abs(u_prev).max()))
        stiffness = (4.0 * a if hminus1 else 1.0) * (4.0 * a + well * bound * bound)
        return SPLITTING_TOL * bound * (1.0 + dt / friction * stiffness)

    u = _newton_march(u0, dt, residual, jacobian, tol)
    if u is u0:
        return z
    if hminus1:
        u = u + (u0.mean() - u.mean())
    return z.with_values(u)


def _newton_march(x0, dt, residual, jacobian, tol, *, admissible=None):
    """Cover dt by implicit steps, each solved by Newton from its start.

    ``residual(x, x_prev, dt)`` is a step's residual, ``jacobian(x, dt)``
    its Jacobian as ``(l_and_u, bands)`` for ``solve_banded``, and
    ``tol(x_prev, dt)`` the bound on |R|_inf at which Newton stops.  Each
    Newton update is halved until ``admissible`` holds for the new iterate
    (None: every iterate is).  A start already within the tolerance is
    returned as it is, the same object.

    When Newton has not converged after MAX_NEWTON iterations, its residual
    is not finite, or no halving of an update is admissible, the interval is
    covered by two steps of dt/2 instead, recursively, at most MAX_SPLITS
    times deep; past that ConvergenceError is raised.
    """

    def newton(x_prev, dt):
        """The step's state, or None when Newton fails."""
        bound = tol(x_prev, dt)
        x = x_prev
        for iters in range(MAX_NEWTON + 1):
            r = residual(x, x_prev, dt)
            norm = np.abs(r).max()
            if norm <= bound:
                return x
            if iters == MAX_NEWTON or not np.isfinite(norm):
                return None
            delta = solve_banded(*jacobian(x, dt), -r)
            t = 1.0
            candidate = x + delta
            while admissible is not None and not admissible(candidate):
                t *= 0.5
                if t < 1e-12:
                    return None
                candidate = x + t * delta
            x = candidate

    def march(x, dt, splits):
        out = newton(x, dt)
        if out is not None:
            return out
        if splits == MAX_SPLITS:
            raise ConvergenceError(
                f"implicit Newton solve failed at dt = {dt:.3e}, {MAX_NEWTON} iterations "
                f"after {MAX_SPLITS} halvings of the step"
            )
        return march(march(x, 0.5 * dt, splits + 1), 0.5 * dt, splits + 1)

    return march(x0, dt, 0)


def edi_residual(problem: FlowProblem, trajectory, dt: float) -> float:
    """Energy-dissipation residual of a sampled curve.

    F(z_T) - F(z_0) + sum_k [psi(z_k, dz_k/dt) + psi_star(z_k, -F'(z_k))] dt.
    Vanishes (to first order in dt) along exact flows and is strictly
    positive for any other curve.
    """
    states = list(trajectory)
    if len(states) < 2:
        return 0.0
    energy, diss = problem.energy, problem.dissipation
    total = energy.value(states[-1]) - energy.value(states[0])
    for prev, cur in zip(states[:-1], states[1:]):
        rate = (_values_of(cur) - _values_of(prev)) / dt
        force = -np.asarray(energy.derivative(prev), dtype=float)
        total += (diss.psi(prev, rate) + diss.psi_star(prev, force)) * dt
    return total


# -- the shared march loop --------------------------------------------------------


@dataclass(frozen=True)
class GridTrajectory:
    """Per-step diagnostics plus thinned state snapshots of a grid solver.

    ``energies``, ``masses`` and each ``extra`` series hold one value per
    step 0..steps; ``snapshots[i]`` is the state after step
    ``snapshot_steps[i]`` of size ``dt``.
    """

    snapshot_steps: np.ndarray
    snapshots: list
    energies: np.ndarray
    masses: np.ndarray
    dt: float
    extra: dict = field(default_factory=dict)

    @property
    def snapshot_times(self) -> np.ndarray:
        return self.snapshot_steps * self.dt

    @property
    def final(self):
        return self.snapshots[-1]

    def max_energy_increase(self) -> float:
        return float(np.max(np.diff(self.energies), initial=-np.inf))

    def max_mass_drift(self) -> float:
        return float(np.abs(self.masses - self.masses[0]).max())


def _march(
    state,
    step: Callable,
    steps: int,
    dt: float,
    store_every: Optional[int],
    energy: Callable[[object], float],
    mass: Callable[[object], float],
    diagnostics: Optional[dict] = None,
) -> GridTrajectory:
    """Apply ``step`` ``steps`` times, recording energy, mass and each named
    diagnostic of every state; snapshots are the start, every
    ``store_every``-th state (default: about 100 in all) and the last one.
    Positivity and constraint errors of a step are raised again naming it.
    """
    if store_every is None:
        store_every = max(1, steps // 100)
    diagnostics = diagnostics or {}
    series = [(np.empty(steps + 1), fn) for fn in (energy, mass, *diagnostics.values())]
    snapshot_steps, snapshots = [0], [state]
    cur = state
    for k in range(steps + 1):
        if k > 0:
            try:
                cur = step(cur)
            except (PositivityError, ConstraintError) as exc:
                raise type(exc)(f"step {k}: {exc}") from exc
            if k % store_every == 0 or k == steps:
                snapshot_steps.append(k)
                snapshots.append(cur)
        for values, fn in series:
            values[k] = fn(cur)
    (energies, _), (masses, _), *extra = series
    return GridTrajectory(
        np.asarray(snapshot_steps), snapshots, energies, masses, dt,
        extra={name: values for name, (values, _) in zip(diagnostics, extra)},
    )


# -- JKO minimizing movement ---------------------------------------------------


@dataclass(frozen=True)
class JkoStepInfo:
    """Inner-solver diagnostics for one minimizing-movement step.

    ``energy`` is the minimized free-energy part in mass coordinates and
    ``energy_start`` its value at the warm start (the previous iterate);
    the minimization guarantees energy <= energy_start at every step,
    independent of grid resolution.
    """

    iters: int
    grad_norm: float
    w2_sq: float
    energy: float
    energy_start: float


def _jko_objective(X, Y, dm, tau, energy):
    gaps = np.diff(X)
    rt = energy.rt
    val = 0.5 / tau * float(dm * np.sum((X - Y) ** 2))
    if rt > 0.0:
        val += -rt * dm * float(np.sum(np.log(gaps / dm)))
        val += -rt * math.log(energy.c0)
    if energy.potential is not None:
        val += dm * float(np.sum(energy.potential(X)))
    return val


def _jko_minimize(Y, dm, tau, energy) -> tuple[np.ndarray, JkoStepInfo]:
    """Nodes X minimizing (1/2 tau) W2^2 to the nodes Y plus F, by damped Newton."""
    n = Y.size
    rt = energy.rt
    vp = energy.potential_grad if energy.potential is not None else None
    X = Y.copy()
    obj = _jko_objective(X, Y, dm, tau, energy)
    energy_start = obj  # W2 term vanishes at the warm start
    iters = 0
    while True:
        gaps = np.diff(X)
        inv_g = 1.0 / gaps
        grad = dm / tau * (X - Y)
        grad[:-1] += rt * dm * inv_g
        grad[1:] -= rt * dm * inv_g
        if vp is not None:
            grad += dm * vp(X)
        grad_norm = float(np.abs(grad).max())
        if grad_norm <= NEWTON_TOL:
            break
        if iters >= MAX_NEWTON:
            raise ConvergenceError(
                f"JKO Newton failed: grad {grad_norm:.3e} after {MAX_NEWTON} iterations"
            )
        inv_g2 = inv_g * inv_g
        diag = np.full(n, dm / tau)
        diag[:-1] += rt * dm * inv_g2
        diag[1:] += rt * dm * inv_g2
        if vp is not None:  # V'' as one central difference of V'
            diag += dm * np.maximum((vp(X + 1e-4) - vp(X - 1e-4)) / 2e-4, 0.0)
        upper = -rt * dm * inv_g2
        ab = np.zeros((2, n))
        ab[0, 1:] = upper
        ab[1] = diag
        delta = solveh_banded(ab, -grad)

        t = 1.0
        armijo = 1e-4 * float(np.dot(grad, delta))
        # allowance for objective decreases below fp resolution near the end
        fuzz = 4.0 * np.finfo(float).eps * max(1.0, abs(obj))
        while True:
            X_try = X + t * delta
            if np.all(np.diff(X_try) > 0.0):
                obj_try = _jko_objective(X_try, Y, dm, tau, energy)
                if obj_try <= obj + t * armijo + fuzz:
                    break
            t *= 0.5
            if t < 1e-12:
                raise ConvergenceError("JKO line search could not recover monotonicity")
        X, obj = X_try, obj_try
        iters += 1

    w2_sq = float(dm * np.sum((X - Y) ** 2))
    return X, JkoStepInfo(
        iters=iters,
        grad_norm=grad_norm,
        w2_sq=w2_sq,
        energy=obj - 0.5 / tau * w2_sq,
        energy_start=energy_start,
    )


def _rebin_mass_nodes(X: np.ndarray, dm: float, template: GridDensity1D) -> GridDensity1D:
    """Conservative histogram of the mass-node measure onto the grid.

    Mass dm sits between consecutive nodes (uniformly), and the two half
    node-masses at the ends extend outward at the adjacent gap's density.
    Mass falling outside [a, b] is folded into the boundary cells, keeping
    the total exact.
    """
    n_nodes = X.size
    knots_x = np.concatenate(
        ([X[0] - 0.5 * (X[1] - X[0])], X, [X[-1] + 0.5 * (X[-1] - X[-2])])
    )
    knots_m = np.concatenate(([0.0], (np.arange(n_nodes) + 0.5) * dm, [1.0]))
    cdf_at_edges = np.interp(template.edges, knots_x, knots_m)
    cell_mass = np.diff(cdf_at_edges)
    cell_mass[0] += cdf_at_edges[0]
    cell_mass[-1] += 1.0 - cdf_at_edges[-1]
    return template.with_values(cell_mass / template.h)


def _variance(rho: GridDensity1D) -> float:
    mean = rho.h * np.sum(rho.values * rho.centers)
    return float(rho.h * np.sum(rho.values * (rho.centers - mean) ** 2))


def jko_evolve(
    rho0: GridDensity1D, tau: float, steps: int, energy: EnergyFunctional
) -> tuple[GridTrajectory, list[JkoStepInfo]]:
    """Minimizing movement rho_k = argmin (1/2 tau) W2(rho, rho_{k-1})^2 + F(rho).

    Works in Lagrangian mass coordinates, where the state of the flow is
    the inverse CDF X_j at n midpoint mass levels (j + 1/2) dm, dm = 1/n:

        W2^2 = sum |X_j - X_prev,j|^2 dm,
        Ent  = -sum log(dX_j / dm) dm.

    rho0 is quantized once, at QUANTILE_NODES_PER_CELL nodes per grid cell
    (:func:`gradflow.transport.quantiles`); each step then minimizes over
    the nodes, from the previous step's nodes, by damped (Armijo) Newton
    until the gradient sup-norm falls below ``NEWTON_TOL``.  Every iterate
    is rebinned conservatively onto the grid of rho0 only to be recorded.
    Supports entropy plus an external potential V, which needs its
    derivative ``potential_grad``; interaction kernels have no diagonal
    mass-coordinate form and are rejected.

    The steps run through ``_march`` with ``dt = tau``.  Returns the
    :class:`GridTrajectory` (``F`` of every rebinned iterate as
    ``energies``, their masses, their variance as ``extra["variance"]``,
    about 100 snapshots) and one :class:`JkoStepInfo` per step; the
    minimized energy is nonincreasing along the steps.  One step is
    ``jko_evolve(rho, tau, 1, energy)``.
    """
    if tau <= 0.0:
        raise ValueError("time step must be positive")
    if energy.kind != "grid_free_energy":
        raise ValueError("JKO stepping needs a grid free energy")
    if energy.interaction is not None or energy.internal is not None:
        raise NotImplementedError(
            "JKO inner solver supports entropy + potential energies only"
        )
    if energy.potential is not None and not (
        callable(energy.potential) and callable(energy.potential_grad)
    ):
        raise ValueError("JKO needs the potential and its potential_grad as callables")
    if energy.rt <= 0.0:
        raise ValueError("JKO inner solver needs a positive entropy weight")
    if abs(rho0.mass() - 1.0) > 1e-8:
        raise ValueError("rho0 must be probability-normalized")

    n = QUANTILE_NODES_PER_CELL * rho0.cells
    dm = 1.0 / n
    X = quantiles(rho0.normalized(), (np.arange(n) + 0.5) * dm)
    if np.any(np.diff(X) <= 0.0):
        # distinct mass levels collide only when the density degenerates
        raise SingularWeightError("JKO needs strictly increasing quantiles")
    infos = []

    def step(_rho: GridDensity1D) -> GridDensity1D:
        nonlocal X
        X, info = _jko_minimize(X, dm, tau, energy)
        infos.append(info)
        return _rebin_mass_nodes(X, dm, rho0)

    traj = _march(
        rho0, step, steps, tau, None, energy.value, GridDensity1D.mass, {"variance": _variance}
    )
    return traj, infos
