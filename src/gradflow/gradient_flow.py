"""Generalized gradient-flow engine.

A flow is the triple (state kind, driving energy, quadratic dissipation).
A state is a plain vector (the scalar kind) or a grid state, a
:class:`gradflow.measures.UniformGrid` whose ``values`` hold its field(s)
and whose ``h`` is its cell width.
The dissipation is one of six kinds, each one Onsager operator K(z); the
dual pair of potentials ``psi`` (cost of a rate of change) and ``psi_star``
(cost of a driving force) is <K^{-1} s, s> / 2 and <xi, K xi> / 2, so the
duality gap

    psi(z, s) + psi_star(z, xi) - <xi, s>  >=  0,   = 0 iff s = K(z) xi

closes to machine precision.  On the conservative kinds K xi = -div J / c,
J = w grad xi the flux of interface weights w, and psi, psi_star and K are
all read off J: in 1D a rate s fixes its flux j = h cumsum(s), so psi needs
no Poisson solve.

The Wasserstein weights are the logarithmic means L of an interface's two
cells (:func:`gradflow._grid.logarithmic_interface_mean`), the one local
Wasserstein metric of the dissipation and of the explicit Fokker-Planck
loop.  DF comes from the energy alone and psi, psi_star and K from the
dissipation alone: ``local_step`` and ``edi_residual`` call their public
evaluators.
Since L(rho) grad log rho = grad rho, the entropy rate is the plain second
difference of rho, any discrete state exp(-V/RT) is an exact stationary
point, and the energy rate along ``local_step`` is minus the dual norm of
DF to rounding: the chain rule of the flow holds for the discrete (F, psi)
themselves, not only in the limit h -> 0.

The two species kinds carry the same log-mean weights, L(c_i) / eta_i for
m species, under the volume constraint sum_i alpha_i c_i = 1 (Mielke 2011);
the Wasserstein kind is their one-species case without the constraint, and
one backward-Euler system steps all three.

The time steppers share one march loop, ``_march``: it applies a step
function and records the energy, mass and named diagnostics of every state,
with thinned snapshots, in a :class:`GridTrajectory`.  It runs the JKO
minimizing movement (:func:`jko_evolve`) here and the multicomponent,
phase-field and implicit Fokker-Planck flows of :mod:`gradflow.models`.
Their implicit steps (backward Euler for the Wasserstein and species
kinds, Eyre's splitting for the phase fields) are each a residual, banded
Jacobian and tolerance that ``implicit_step`` solves by one call of the
Newton loop ``_newton_march``, which halves a step where Newton fails; the
JKO step runs the same loop with its own symmetric solve.

A run fixes the flow and its grid, and a time step only moves the state,
so a march builds its implicit step once (``_implicit_stepper``): the flow
is checked and the system's grid-fixed parts (the Laplacian bands, V at
the cells and grad V) are formed before the first step.  From step to step
the backward-Euler residual carries the flux divergence of the last state
it took: a step's first residual is at the state the previous step
converged to, so a one-iteration step forms one flux, not two.  The reuse
is keyed on the values, bitwise, and a march gives the same states as a
loop of ``implicit_step``.  A grid free energy likewise keeps V at the
cells of the last grid it was evaluated on.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy
from numpy.linalg import LinAlgError

from ._grid import (
    divergence_of_flux,
    interface_gradient,
    laplacian_neumann,
    logarithmic_interface_mean,
    logarithmic_mean_partials,
    pair_potential,
    weighted_poisson_neumann,
)
from .measures import MASS_MATCH_TOL, GridDensity1D, UniformGrid, _check_time_step
from .transport import QUANTILE_NODES_PER_CELL, SingularWeightError, quantiles

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
    "path_action",
    "jko_evolve",
]

# the energy kinds that each dissipation kind can drive
_COMPATIBLE = {
    "scalar": ("finite_dim",),
    "l2": ("dirichlet_double_well", "grid_free_energy"),
    "hminus1": ("dirichlet_double_well", "grid_free_energy"),
    "wasserstein": ("grid_free_energy",),
    "species_local": ("grid_free_energy",),
    "species_global": ("grid_free_energy",),
}
SPECIES_KINDS = ("species_local", "species_global")
# a Newton solve of _newton_march fails after MAX_NEWTON iterations; the JKO
# solve stops at a gradient sup-norm (in mass coordinates) of NEWTON_TOL
NEWTON_TOL = 1e-9
MAX_NEWTON = 200
# the backward-Euler Newton solve stops at |R|_inf <= IMPLICIT_TOL times the
# scale given in _backward_euler_system: the residual's rounding floor is near
# 3e-11 of that scale on the 200-cell gravity column, and 1e-12 stalls some
# steps at the iteration cap.  Where it fails, dt is halved, at most
# MAX_SPLITS times deep.
IMPLICIT_TOL = 1e-10
MAX_SPLITS = 12
# the convex-splitting Newton solve of the phase fields stops at |R|_inf <=
# SPLITTING_TOL times the size of R's largest term (see
# _convex_splitting_system), whose rounding floor is near machine epsilon
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
    """The field(s) of a grid state, or the vector of a finite-dimensional one."""
    if isinstance(state, UniformGrid):
        return state.values
    return np.asarray(state, dtype=float)


@dataclass(frozen=True)
class QuadraticDissipation:
    """Quadratic dissipation potential of one of six kinds.

    Each kind is one Onsager operator K(z): psi*(z, xi) = <xi, K(z) xi> / 2
    and psi(z, s) = <K(z)^{-1} s, s> / 2, <., .> the pairing (an L^2 sum on
    grids).  ``coefficient`` c > 0 is the friction scale.

    scalar, l2   K = 1/c: psi = (c/2) <s, s>, psi* = <xi, xi> / (2c), on
                 finite-dimensional states and on grids.
    conservative K xi = -div J / c with the interface flux J = w grad xi of
                 weights w: 1 (hminus1), L(rho) the logarithmic interface
                 mean (wasserstein) or L(c_i) / eta_i per species
                 (species_local, species_global, J corrected by
                 :func:`_volume_constrained`).  Then
                 psi* = (1/2c) h sum J grad xi and psi = (c/2) h sum j^2 / w,
                 j = h cumsum(s) the flux of the rate (s = div j with no-flux
                 ends, exact in 1D).

    Every kind but scalar takes a grid state, a
    :class:`gradflow.measures.UniformGrid`, and raises TypeError on any
    other; the species kinds take a :class:`gradflow.models.MultiSpeciesState`
    and read its (m, cells) concentrations, molar volumes and frictions.
    A rate or force not of the state's shape raises ValueError.
    psi of the log-mean kinds raises SingularWeightError on a vacuum cell,
    where psi* and K stay defined (L = 0).
    """

    kind: str
    coefficient: float = 1.0

    def __post_init__(self):
        if self.kind not in _COMPATIBLE:
            raise ValueError(f"unknown dissipation kind {self.kind!r}")
        if not self.coefficient > 0.0:
            raise ValueError("coefficient must be strictly positive")

    # -- dual pair -------------------------------------------------------

    def psi(self, state, rate) -> float:
        if self.kind in ("scalar", "l2"):
            return 0.5 * self.coefficient * self.pairing(state, rate, rate)
        s, h, weights = self._field(state, rate), state.h, self._weights(state)
        if np.any(weights <= 0.0):
            raise SingularWeightError("vacuum cell: the log-mean mobility is singular")
        scale = max(1.0, float(np.abs(s).max(initial=0.0)))
        if np.any(np.abs(h * s.sum(axis=-1)) > 1e-10 * scale):
            raise ValueError("a conservative dissipation needs a rate that conserves each mass")
        # j = h cumsum(s), summed from the end with less |s| before it: psi
        # divides the rounding of a running sum by w, tiny in a density's tail
        size = np.cumsum(np.abs(s), axis=-1)
        nearer_left = size[..., :-1] <= size[..., -1:] - size[..., :-1]
        left, right = np.cumsum(s, axis=-1), -np.cumsum(s[..., ::-1], axis=-1)
        flux = h * np.where(nearer_left, left[..., :-1], right[..., -2::-1])
        return 0.5 * self.coefficient * float(h * np.sum(flux * flux / weights))

    def psi_star(self, state, force) -> float:
        if self.kind in ("scalar", "l2"):
            return 0.5 / self.coefficient * self.pairing(state, force, force)
        grad = interface_gradient(self._field(state, force), state.h)
        return 0.5 / self.coefficient * float(state.h * np.sum(self._flux(state, grad) * grad))

    def pairing(self, state, force, rate) -> float:
        """Duality pairing <xi, s> (an L^2 sum on grids)."""
        product = self._field(state, force) * self._field(state, rate)
        return float((1.0 if self.kind == "scalar" else state.h) * np.sum(product))

    def apply_mobility(self, state, force) -> np.ndarray:
        """Rate s = K(z) xi induced by a force: xi / c, or -div J / c with
        the flux J of the conservative kinds, so that <xi, K xi> is the
        nonnegative dual norm."""
        if self.kind in ("scalar", "l2"):
            return self._field(state, force) / self.coefficient
        grad = interface_gradient(self._field(state, force), state.h)
        return -divergence_of_flux(self._flux(state, grad), state.h) / self.coefficient

    def _field(self, state, field) -> np.ndarray:
        """A rate or force on state (its grid, or its vector for the scalar
        kind), as a float array of the state's shape."""
        if self.kind != "scalar" and not isinstance(state, UniformGrid):
            raise TypeError(f"the {self.kind} dissipation needs a grid state, a UniformGrid")
        values = np.asarray(field, dtype=float)
        if values.shape != _values_of(state).shape:
            raise ValueError(
                f"a rate or force of shape {values.shape} on a state of shape "
                f"{_values_of(state).shape}"
            )
        return values

    # -- the flux of a conservative kind -----------------------------------

    def _weights(self, state):
        """Interface weights w of the flux J = w grad xi (L = 0 at vacuum)."""
        if self.kind == "hminus1":
            return 1.0
        weights = logarithmic_interface_mean(_values_of(state))
        return weights / state.frictions[:, None] if self.kind in SPECIES_KINDS else weights

    def _flux(self, state, grad) -> np.ndarray:
        """J = w grad xi from a force's interface gradient, with the volume
        constraint's correction for the species kinds."""
        weights = self._weights(state)
        if self.kind not in SPECIES_KINDS:
            return weights * grad
        return _volume_constrained(
            weights * grad, weights, state.molar_volumes[:, None], state.h,
            pressure=self.kind == "species_global",
        )


def _volume_constrained(fluxes, weights, alpha, h, pressure: bool) -> np.ndarray:
    """Species fluxes F_i - alpha_i w_i m under the volume constraint
    sum_i alpha_i c_i = 1, from (m, cells - 1) unconstrained fluxes F, the
    weights w_i = L(c_i) / eta_i of species with frictions eta_i and an
    (m, 1) column of molar volumes alpha.  sum_i alpha_i (F_i - alpha_i w_i m)
    = D - W m with D = sum_i alpha_i F_i and W = sum_i alpha_i^2 w_i: the
    local closure zeroes it with m = D / W, the global one zeroes its
    divergence with m = grad p, div(W grad p) = div D (the Neumann
    pressure), which in 1D integrates once to the local m.  Either way, for
    F_i = w_i grad xi_i, <xi, -div J> = h sum_i sum eta_i J_i^2 / L(c_i).
    """
    drive = np.sum(alpha * fluxes, axis=0)
    total = np.sum(alpha * alpha * weights, axis=0)
    if pressure:  # weighted_poisson_neumann solves -(w p')' = rhs
        p = weighted_poisson_neumann(total, -divergence_of_flux(drive, h), h)
        mult = interface_gradient(p, h)
    else:
        mult = drive / total
    return fluxes - alpha * weights * mult


def _potential_values(f, centers: np.ndarray) -> np.ndarray:
    """A potential (callable on positions or a per-cell array) at the cells."""
    if callable(f):
        return f(centers)
    arr = np.asarray(f, dtype=float)
    if arr.shape != centers.shape:
        raise ValueError("potential array must match the grid")
    return arr


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
        potential_grad=None,
    ) -> "EnergyFunctional":
        """Free energy on grid densities.

        ``rt`` scales the entropy term rt int rho log(rho / c0); ``potential``
        is V (callable on positions or a per-cell array); ``interaction`` is a
        kernel W(r), not necessarily even, whose potential
        h sum_j W(x_i - x_j) rho_j is a Toeplitz convolution with W evaluated
        at the 2n - 1 grid offsets (see :func:`gradflow._grid.pair_potential`);
        ``internal`` is a pair (U, U') of callables of the density value.
        """
        if not 0.0 <= rt < math.inf:
            raise ValueError("entropy weight rt must be finite and nonnegative")
        if not 0.0 < c0 < math.inf:
            raise ValueError("reference concentration c0 must be finite and positive")
        # V at the cells of the last grid seen, keyed by (a, b, cells): a march
        # evaluates the energy on one grid at every step
        memo = {}

        def potential_at(rho):
            key = (rho.a, rho.b, rho.cells)
            if memo.get("key") != key:
                memo.update(key=key, V=_potential_values(potential, rho.centers))
            return memo["V"]

        def value(rho: GridDensity1D) -> float:
            v = rho.values
            total = 0.0
            if rt > 0.0:
                # over the positive cells; when all are, v itself sums the same
                positive = v if v.min() > 0.0 else v[v > 0.0]
                total += rt * rho.h * float((positive * np.log(positive / c0)).sum())
            if potential is not None:
                total += rho.h * float((v * potential_at(rho)).sum())
            if interaction is not None:
                pair = pair_potential(v, rho.h, interaction)
                total += 0.5 * rho.h * float(np.sum(v * pair))
            if internal is not None:
                total += rho.h * float(np.sum(internal[0](v)))
            return total

        def derivative(rho: GridDensity1D) -> np.ndarray:
            v = rho.values
            df = rt * (np.log(v / c0) + 1.0) if rt > 0.0 else np.zeros_like(v)
            # V + W * rho + U'(rho), the potential of free_energy_flux, is
            # summed before it is added to the entropy part
            parts = [] if potential is None else [potential_at(rho)]
            if interaction is not None:
                parts.append(pair_potential(v, rho.h, interaction))
            if internal is not None:
                parts.append(internal[1](v))
            return df + sum(parts[1:], parts[0]) if parts else df

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
            u, h = state.values, state.h
            grad = interface_gradient(u, h)
            dirichlet = 0.5 * float(h * np.sum(grad * grad))
            return dirichlet + float(h * np.sum(0.25 * well * (1.0 - u * u) ** 2))

        def derivative(state) -> np.ndarray:
            u, h = state.values, state.h
            return -laplacian_neumann(u, h) + well * (u**3 - u)

        return cls(kind="dirichlet_double_well", value=value, derivative=derivative, well=well)


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

    The samples and xi must be finite and the samples must describe a
    convex function (nondecreasing secant slopes, tolerance 1e-10); for
    psi(s) = eta s^2/2 the result matches xi^2 / (2 eta) up to grid
    resolution.
    """
    s = np.asarray(s_samples, dtype=float)
    p = np.asarray(psi_samples, dtype=float)
    if s.size != p.size or s.size < 3:
        raise ValueError("need matching sample arrays with at least 3 points")
    if not (np.isfinite(s).all() and np.isfinite(p).all() and math.isfinite(xi)):
        raise ValueError("samples and xi must be finite")
    if np.any(np.diff(s) <= 0.0):
        raise ValueError("sample grid must be strictly increasing")
    slopes = np.diff(p) / np.diff(s)
    scale = max(1.0, float(np.abs(p).max()))
    if np.any(np.diff(slopes) < -1e-10 * scale):
        raise ValueError("samples are not convex")
    return float(np.max(xi * s - p))


def local_step(problem: FlowProblem, z, dt: float):
    """One explicit step z - dt K(z) DF(z), for every dissipation kind.

    DF is the energy's ``derivative`` and K the dissipation's
    ``apply_mobility``; dt must be positive and finite.  The rate
    s* = -K(z) DF(z) minimizes psi(z, s) + <DF(z), s>.  For the
    wasserstein kind it is div(L(rho) grad DF) / c, the conservative
    drift-diffusion rate: total mass rate zero, rt times the discrete
    Laplacian of rho for pure entropy, and zero on exp(-V/rt).  A species
    step moves all species at once, and the state's ``with_values`` retracts
    it onto the volume constraint.  A vacuum cell of either log-mean
    mobility raises SingularWeightError before DF takes its logarithm.
    """
    _check_time_step(dt)
    diss = problem.dissipation
    values = _values_of(z)
    if (diss.kind == "wasserstein" or diss.kind in SPECIES_KINDS) and np.min(values) <= 0.0:
        raise SingularWeightError("vacuum cell: the log-mean mobility is singular")
    out = values - dt * diss.apply_mobility(z, problem.energy.derivative(z))
    if diss.kind == "scalar":
        return float(out) if out.ndim == 0 else out
    return z.with_values(out)


def implicit_step(problem: FlowProblem, z, dt: float):
    """One implicit step over dt, with no step-size bound, of

    * a Wasserstein flow of entropy plus potential or a species flow of the
      mixing entropy (``species_local`` or ``species_global`` dissipation),
      by backward Euler (:func:`_backward_euler_system`), or
    * a Dirichlet double-well flow (L^2 or H^-1 dissipation: Allen-Cahn or
      Cahn-Hilliard), by Eyre's convex splitting
      (:func:`_convex_splitting_system`).

    Each system gives the step's residual R, its exact banded Jacobian and
    the bound on |R|_inf at which Newton stops; one ``_newton_march`` call
    solves R = 0 from the start, one :func:`_solve_banded` per Newton update,
    and where Newton fails it covers dt by halved steps.  Backward-Euler
    updates are halved until every concentration stays positive.  Only the
    result becomes a state, through ``with_values``; a start already within
    the tolerance (a Boltzmann state of a Wasserstein flow, the wells of a
    phase field) is returned as it is, the same object, so a march settles
    within about the tolerance of the fixed point.

    This is ``_implicit_stepper(problem, z)(z, dt)``.  The implicit marches
    of :mod:`gradflow.models` build that step once and call it on every
    state: the system's grid-fixed parts (the Laplacian bands, V at the
    cells and grad V) are formed once, and the backward-Euler residual
    carries the flux divergence of the state the previous step converged
    to, which is the next step's start.  A loop of this function gives the
    same states to the bit.

    The columns of the Cahn-Hilliard Jacobian sum to 1, so each Newton
    update keeps the mean in exact arithmetic; a constant shift back to the
    mean of the start removes the rounding of the banded solves, which grows
    with dt m / h^4 (m the mobility).  Writing the state as u_prev +
    dt m lap(mu), as the explicit update is written, would keep the mean
    too, but it multiplies the rounding of mu by up to 16 dt m / h^4: at 256
    cells on a length of 64 with dt m = 1e4, the energy then rose by 3.9e-9
    in a step.

    Interaction and internal energies couple more than neighbouring cells
    and raise NotImplementedError, as does a potential on a species flow; a
    vacuum cell raises SingularWeightError; any other flow raises
    ValueError.
    """
    return _implicit_stepper(problem, z)(z, dt)


def _implicit_stepper(problem: FlowProblem, grid_state) -> Callable:
    """The implicit step of :func:`implicit_step` as ``step(z, dt)`` for the
    states of one march: the flow is checked and its system built once, on
    the grid (and species parameters) of ``grid_state``, which every z must
    share."""
    energy, kind = problem.energy, problem.dissipation.kind
    admissible = None
    if energy.kind == "dirichlet_double_well":
        residual, jacobian, tol = _convex_splitting_system(problem, grid_state)
    else:
        if kind != "wasserstein" and kind not in SPECIES_KINDS:
            raise ValueError(
                "implicit_step needs a wasserstein or species dissipation or a double-well energy"
            )
        if energy.interaction is not None or energy.internal is not None:
            raise NotImplementedError("implicit_step supports entropy + potential energies only")
        if kind in SPECIES_KINDS and energy.potential is not None:
            raise NotImplementedError("the implicit species step supports the mixing entropy only")
        residual, jacobian, tol = _backward_euler_system(problem, grid_state)

        def admissible(c):
            return c.min() > 0.0

    def newton_update(x, r, dt):
        # the cell-major unknowns (cell * m + species) are x.T flattened
        delta = _solve_banded(jacobian(x, dt), -r.ravel("F"))
        return delta.reshape(x.shape[::-1]).T

    def step(z, dt: float):
        _check_time_step(dt)
        x0 = z.values
        if admissible is not None and not admissible(x0):
            raise SingularWeightError("vacuum cell: the log-mean mobility is singular")
        x, _ = _newton_march(x0, dt, residual, newton_update, tol, admissible=admissible)
        if x is x0:
            return z
        if kind == "hminus1":
            x = x + (x0.mean() - x.mean())
        return z.with_values(x)

    return step


def _backward_euler_system(problem: FlowProblem, z):
    """The backward-Euler step on the grid (and species parameters) of z:
    its residual ``R(c, c_prev, dt)``, exact Jacobian ``jacobian(c, dt)`` in
    :func:`_solve_banded`'s layout and Newton tolerance ``tol(c_prev, dt)``.

    c is the (cells,) density of a Wasserstein state or the (m, cells)
    concentrations of a species state; R(c) = c - c_prev - (dt / kappa)
    div J(c), kappa the dissipation coefficient.  Species i carries the
    Fokker-Planck flux F_i = free_energy_flux(c_i, V, rt, eta_i, h) (eta = 1
    for the Wasserstein kind), minus, for the species kinds, the constraint
    term alpha_i w_i m of :func:`_volume_constrained`, w_i = L(c_i) / eta_i.
    By the log-mean identity L(c) grad log c = grad c, R is the explicit
    step's update taken at the new state: mass is conserved to rounding, and
    a Wasserstein flow's discrete Boltzmann state exp(-V/rt) is a fixed
    point.  An interface's J depends on its two cells alone, and its m x m
    derivatives in either cell are a diagonal plus a rank-one term,

        dJ_i/dc_l = delta_il d_i - (alpha_i w_i / W) alpha_l d_l,
        d_i = (-+rt / h + L_i' grad V) / eta_i - alpha_i w_i' m,

    L' from ``logarithmic_mean_partials``, W = sum_i alpha_i^2 w_i and m =
    sum_i alpha_i F_i / W the local multiplier (in 1D the global pressure
    gives the same m, so one Jacobian serves both closures); the Wasserstein
    kind has m = 1 and neither constraint term.  Ordered cell-major (index
    cell * m + species), the Jacobian is banded (2m - 1, 2m - 1).  Newton
    stops at |R|_inf <= IMPLICIT_TOL max c_prev (1 + dt rt / (eta_min
    h^2)), eta_min kappa times the smallest species friction (kappa for a
    Wasserstein flow).  Since F is convex, an exact step does not raise it.

    The system makes its buffers once: the flux padded with its two zero
    no-flux ends, the log mean, the divergence, a copy of the last c whose
    fluxes they hold and the band, which each ``jacobian`` call fills and
    returns (the next call overwrites it).  A Wasserstein residual on a
    read-only array bitwise equal to that c takes div J from the buffers: a
    march's step starts at the values of the state the previous step
    converged to, where the previous step's last residual was taken (Newton
    iterates are new, writable arrays and are not compared).  A species step
    starts at the retracted state (``MultiSpeciesState.with_values``), never
    at the last c, so its residual always forms the fluxes; its Jacobian,
    taken at the c of the last residual, reads the log mean and the Fick
    flux from the buffers.
    """
    energy, diss = problem.energy, problem.dissipation
    rt, h, friction = energy.rt, z.h, diss.coefficient
    species = diss.kind in SPECIES_KINDS
    shape = z.values.shape
    if species:
        alpha, eta = z.molar_volumes[:, None], z.frictions[:, None]
        pressure = diss.kind == "species_global"
        m, cells = shape
        idx = np.arange(m)
    else:
        eta, m, cells = 1.0, 1, z.values.size
    band = 2 * m - 1
    fick = np.array((-rt / h, rt / h))[:, None, None] / eta
    # a potential drives the Wasserstein kind only, whose eta is 1
    grad_V = None
    if energy.potential is not None and not species:
        grad_V = interface_gradient(_potential_values(energy.potential, z.centers), h)
    eta_min = friction * (float(z.frictions.min()) if species else 1.0)

    padded = np.zeros(shape[:-1] + (cells + 1,))
    flux = padded[..., 1:-1]
    # the Fick flux rt grad c / eta, kept apart from J for a species Jacobian
    fick_flux = np.empty(flux.shape) if species else flux
    mean = np.empty(flux.shape)  # L(c) / eta of a species, L(c) grad V otherwise
    div = np.empty(shape)
    last_c = np.empty(shape)
    formed = False
    # the band and, made once, its views that each (species i, species l)
    # block fills: block (k, k) gets interface k's left and interface k - 1's
    # right derivatives, blocks (k, k + 1) and (k + 1, k) one each; entry
    # (k m + i, k' m + l) sits in row band + i - l + (k - k') m
    ab = np.zeros((2 * band + 1, m * cells))
    in_block, diagonal = ab[band - m + 1 : band + m], ab[band]
    fills = []
    for i in range(m):
        for l in range(m):
            row = band + i - l
            fills.append((
                i, l, ab[row - m, m + l :: m], ab[row + m, l : (cells - 1) * m : m],
                ab[row, l::m][:-1], ab[row, l::m][1:],
            ))

    def form(c):
        """The fluxes of c and their divergence into the buffers."""
        nonlocal formed
        # free_energy_flux(c, potential, rt, eta, h), with grad V formed once
        # (and the division by the Wasserstein kind's eta = 1 left out)
        np.subtract(c[..., 1:], c[..., :-1], out=fick_flux)
        np.divide(fick_flux, h, out=fick_flux)
        np.multiply(fick_flux, rt, out=fick_flux)
        if species:
            np.divide(fick_flux, eta, out=fick_flux)
            np.divide(logarithmic_interface_mean(c, out=mean), eta, out=mean)
            flux[...] = _volume_constrained(fick_flux, mean, alpha, h, pressure)
        elif grad_V is not None:
            np.multiply(logarithmic_interface_mean(c, out=mean), grad_V, out=mean)
            np.add(flux, mean, out=flux)
        np.subtract(padded[..., 1:], padded[..., :-1], out=div)
        np.divide(div, h, out=div)
        np.copyto(last_c, c)
        formed = True

    def holds(c):
        """Whether the buffers hold the fluxes of c."""
        return formed and (last_c == c).all()

    def residual(c, c_prev, dt):
        # of the arrays a march passes, only a step's start, the read-only
        # values of a state, can repeat the last c
        if species or c.flags.writeable or not holds(c):
            form(c)
        return c - c_prev - dt / friction * div

    def jacobian(c, dt):
        scale = dt / friction / h
        if species:
            if not holds(c):
                form(c)
            # d_i at each interface's left and right cell: (2, m, cells - 1)
            total = np.sum(alpha * alpha * mean, axis=0)
            mult = np.sum(alpha * fick_flux, axis=0) / total
            d = fick - alpha * logarithmic_mean_partials(c) / eta * mult
            blocks = -(alpha * mean / total)[:, None] * (alpha * d)[:, None]
            blocks[:, idx, idx] += d
            blocks *= scale
            in_block.fill(0.0)  # the fills below add to its off-diagonal entries
        elif grad_V is None:
            blocks = scale * fick[:, :, None]
        else:
            d = logarithmic_mean_partials(c)
            d *= grad_V
            d += fick[:, 0]
            d *= scale
            blocks = d[:, None, None]
        diagonal.fill(1.0)
        for i, l, upper, lower, head, tail in fills:
            left, right = blocks[0, i, l], blocks[1, i, l]
            np.negative(right, out=upper)
            np.copyto(lower, left)
            head -= left
            tail += right
        return ab

    def tol(c_prev, dt):
        return IMPLICIT_TOL * float(c_prev.max()) * (1.0 + dt / eta_min * rt / (h * h))

    return residual, jacobian, tol


def _convex_splitting_system(problem: FlowProblem, z):
    """Eyre's convex-splitting step of a Dirichlet double-well flow on the
    grid of z: its residual ``R(u, u_prev, dt)``, exact Jacobian
    ``jacobian(u, dt)`` in :func:`_solve_banded`'s layout and Newton tolerance
    ``tol(u_prev, dt)``.

    The double well W(u) = w/4 (1 - u^2)^2 splits into the convex w/4 u^4
    (plus a constant) and the concave -w/2 u^2.  The Dirichlet energy and
    the convex part are taken at the new state, the concave part at the old
    one, so a step solves R(u) = 0 for

        R(u) = u - u_prev + dt m K mu,   mu = -lap u + w u^3 - w u_prev,

    m the mobility (the inverse dissipation coefficient), lap the Neumann
    Laplacian and K = I (l2, Allen-Cahn) or K = -lap (hminus1,
    Cahn-Hilliard).  The energy is a convex function minus a convex one, so
    an exact step does not raise it for any dt (Eyre 1998).  The Jacobian
    is I - dt m lap + 3 dt m w diag(u^2) (tridiagonal) or
    I + dt m lap^2 - 3 dt m w lap diag(u^2) (pentadiagonal).  Newton stops
    at |R|_inf <= SPLITTING_TOL M (1 + dt m k (4 / h^2 + w M^2)), with
    M = max(1, |u_prev|_inf) and k = 1 (l2) or 4 / h^2 (hminus1): the size
    of R's largest term.
    """
    h, well = z.h, problem.energy.well
    friction = problem.dissipation.coefficient
    hminus1 = problem.dissipation.kind == "hminus1"
    n, a = z.cells, 1.0 / (h * h)
    # laplacian_neumann in the banded layout: row 0 the upper diagonal,
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
            return ab
        ab = -mdt * lap
        ab[1] += 1.0 + (3.0 * mdt * well) * (u * u)
        return ab

    def tol(u_prev, dt):
        bound = max(1.0, float(np.abs(u_prev).max()))
        stiffness = (4.0 * a if hminus1 else 1.0) * (4.0 * a + well * bound * bound)
        return SPLITTING_TOL * bound * (1.0 + dt / friction * stiffness)

    return residual, jacobian, tol


def _load_flapack():
    """scipy's compiled LAPACK wrappers, ``scipy.linalg._flapack``, loaded
    without running ``scipy/linalg/__init__.py``: that initializer imports
    about 300 modules and takes longer than most default runs, for the
    three routines :func:`_solve_banded` calls.  ``scipy.linalg.lapack``
    re-exports this module's functions, so they are the very objects that
    ``solve_banded`` calls.  The interpreter records a single-phase
    extension such as this f2py module under its name in ``sys.modules``,
    and a later ``import scipy.linalg`` takes it from there.
    """
    linalg_dir = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    found = importlib.machinery.PathFinder.find_spec("_flapack", [linalg_dir])
    if found is None:
        raise ImportError(f"no compiled _flapack module in {linalg_dir}")
    spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", found.origin)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
dgbsv, dgtsv, dptsv = _flapack.dgbsv, _flapack.dgtsv, _flapack.dptsv


def _solve_banded(ab: np.ndarray, b: np.ndarray, *, symmetric: bool = False) -> np.ndarray:
    """Solve the banded system of ``ab`` for ``b`` by the LAPACK routine that
    ``scipy.linalg.solve_banded`` calls, without the argument handling that
    costs more than the solve on a few hundred unknowns.  The routines are
    scipy's own f2py wrappers (``scipy.linalg.lapack.dgtsv`` and so on),
    loaded by :func:`_load_flapack` without importing ``scipy.linalg``.

    ``ab`` is in ``solve_banded``'s layout with equal lower and upper bands
    (``dgtsv`` for one band, ``dgbsv`` for wider ones) or, ``symmetric``, in
    ``solveh_banded``'s two-row upper layout of a positive definite
    tridiagonal matrix (``dptsv``).  A non-finite entry raises ValueError, as
    the wrappers' ``check_finite`` does, and a singular (or, symmetric, not
    positive definite) matrix LinAlgError.
    """
    if not (np.isfinite(ab).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    if symmetric:
        _, _, x, info = dptsv(ab[1], ab[0, 1:], b)
    elif ab.shape[0] == 3:
        _, _, _, x, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], b)
    else:
        # dgbsv needs band more rows above ab, for the fill-in of row pivoting
        band = ab.shape[0] // 2
        lu = np.zeros((ab.shape[0] + band, ab.shape[1]))
        lu[band:] = ab
        _, _, x, info = dgbsv(band, band, lu, b, overwrite_ab=True)
    if info > 0:
        raise LinAlgError("singular matrix" if not symmetric else "matrix not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of the LAPACK banded solve")
    return x


def _newton_march(x0, dt, residual, newton_update, tol, *, admissible=None):
    """Cover dt by implicit steps, each solved by Newton from its start.

    The one Newton loop of the package: backward-Euler Fokker-Planck and
    multicomponent diffusion and Eyre's phase-field step run on it through
    one call in ``implicit_step``, the JKO minimizing movement through
    ``_jko_minimize``.  ``residual(x, x_prev, dt)`` is a step's residual,
    ``newton_update(x, r, dt)`` the Newton update -J(x)^{-1} r (one
    :func:`_solve_banded`, general in ``implicit_step`` and symmetric on
    JKO's Hessian), and ``tol(x_prev, dt)`` the bound on |R|_inf at
    which Newton stops.  Each Newton update is halved until ``admissible``
    holds for the new iterate (None: every iterate is).  A start already
    within the tolerance is returned as it is, the same object.

    When Newton has not converged after MAX_NEWTON iterations, its residual
    is not finite, or no halving of an update is admissible, the interval is
    covered by two steps of dt/2 instead, recursively, at most MAX_SPLITS
    times deep; past that ConvergenceError is raised.  Returns the state and
    the number of Newton iterations of the solves it kept.
    """

    def newton(x_prev, dt):
        """The step's state and iterations, or None when Newton fails."""
        bound = tol(x_prev, dt)
        x = x_prev
        for iters in range(MAX_NEWTON + 1):
            r = residual(x, x_prev, dt)
            norm = np.abs(r).max()
            if norm <= bound:
                return x, iters
            if iters == MAX_NEWTON or not np.isfinite(norm):
                return None
            delta = newton_update(x, r, dt)
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
        mid, first = march(x, 0.5 * dt, splits + 1)
        end, second = march(mid, 0.5 * dt, splits + 1)
        return end, first + second

    return march(x0, dt, 0)


def _segment_rates(states, dt: float, dissipation, *, midpoint: bool = False):
    """Yield (base, rate) along a list of states: the base is a segment's
    first state (its midpoint with ``midpoint``), the rate (z_{k+1} - z_k) / dt.

    A conservative dissipation needs every state's mass, per species,
    within ``MASS_MATCH_TOL`` max(1, mass) of the first state's, and a
    positive one unless the kind is ``hminus1``.  The mismatch that
    rounding leaves is taken out of each rate as a rescaling of the base (a
    uniform shift for ``hminus1``, whose state is signed and whose weights
    are 1): divided by a small dt it would fail psi's absolute conservation
    check, and as a mean it would put a flux into the density's tail, where
    psi charges it 1 / L.
    """
    conservative = dissipation.kind not in ("scalar", "l2")
    signed = dissipation.kind == "hminus1"
    for k, (prev, cur) in enumerate(zip(states[:-1], states[1:])):
        before, after = _values_of(prev), _values_of(cur)
        base = prev.with_values(0.5 * (before + after)) if midpoint else prev
        rate = (after - before) / dt
        if conservative:
            h = prev.h
            if k == 0:
                mass0 = h * before.sum(axis=-1, keepdims=True)
                tol = MASS_MATCH_TOL * np.maximum(1.0, np.abs(mass0))
            gap = np.abs(h * after.sum(axis=-1, keepdims=True) - mass0)
            if np.any(gap > tol) or not (signed or np.all(mass0 > 0.0)):
                raise ValueError(
                    "a conservative dissipation needs states of equal mass, positive for a density"
                )
            profile = np.ones_like(before) if signed else _values_of(base)
            mismatch = rate.sum(axis=-1, keepdims=True)
            rate = rate - mismatch / profile.sum(axis=-1, keepdims=True) * profile
        yield base, rate


def edi_residual(problem: FlowProblem, trajectory, dt: float) -> float:
    """Energy-dissipation residual of a sampled curve.

    F(z_T) - F(z_0) + sum_k [psi(z_k, dz_k/dt) + psi_star(z_k, -F'(z_k))] dt.
    Vanishes (to first order in dt) along exact flows and is strictly
    positive for any other curve.  A conservative dissipation needs states
    of equal mass, whose rounding mismatch is taken out of each rate (see
    :func:`_segment_rates`).
    """
    _check_time_step(dt)
    states = list(trajectory)
    if len(states) < 2:
        return 0.0
    energy, diss = problem.energy, problem.dissipation
    total = energy.value(states[-1]) - energy.value(states[0])
    for prev, rate in _segment_rates(states, dt, diss):
        force = -np.asarray(energy.derivative(prev), dtype=float)
        total += (diss.psi(prev, rate) + diss.psi_star(prev, force)) * dt
    return total


def path_action(path, dt: float) -> float:
    """Kinetic action sum_k ||(rho_{k+1}-rho_k)/dt||^2_{-1, rho_mid} dt.

    Each term is 2 psi of the Wasserstein dissipation at the segment's
    midpoint density (Benamou-Brenier).  Path entries must carry equal
    positive mass; the rounding mismatch is taken out of each rate as a
    rescaling of the midpoint (see :func:`_segment_rates`).
    """
    _check_time_step(dt)
    metric = QuadraticDissipation("wasserstein")
    total = 0.0
    for mid, rate in _segment_rates(list(path), dt, metric, midpoint=True):
        total += 2.0 * metric.psi(mid, rate) * dt
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
    ``store_every``-th state (default: about 100 in all; at least 1 if
    given) and the last one; ``steps`` must be nonnegative.  Positivity,
    constraint and convergence errors of a step are raised again naming it.
    """
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    if store_every is None:
        store_every = max(1, steps // 100)
    if store_every < 1:
        raise ValueError(f"store_every must be at least 1, got {store_every}")
    diagnostics = diagnostics or {}
    series = [(np.empty(steps + 1), fn) for fn in (energy, mass, *diagnostics.values())]
    snapshot_steps, snapshots = [0], [state]
    cur = state
    for k in range(steps + 1):
        if k > 0:
            try:
                cur = step(cur)
            except (PositivityError, ConstraintError, ConvergenceError) as exc:
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
    ``energy_start`` its value at the warm start (the previous iterate).
    ``iters`` sums the Newton iterations over the halves of a split step,
    and ``grad_norm`` is the sup-norm of the step's objective gradient at
    the result (above ``NEWTON_TOL`` only where the step was split).  For convex V the
    minimizer certifies energy <= energy_start, at any grid resolution.
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
    """Nodes X minimizing (1/2 tau) W2^2 to the nodes Y plus F: Newton on the
    objective's gradient in :func:`_newton_march`, with its tridiagonal
    Hessian, while the nodes stay strictly increasing."""
    rt = energy.rt
    vp = energy.potential_grad if energy.potential is not None else None

    def gradient(X, Y, tau):
        inv_g = 1.0 / np.diff(X)
        grad = dm / tau * (X - Y)
        grad[:-1] += rt * dm * inv_g
        grad[1:] -= rt * dm * inv_g
        if vp is not None:
            grad += dm * vp(X)
        return grad

    def newton_update(X, grad, tau):
        inv_g = 1.0 / np.diff(X)
        inv_g2 = inv_g * inv_g
        diag = np.full(X.size, dm / tau)
        diag[:-1] += rt * dm * inv_g2
        diag[1:] += rt * dm * inv_g2
        if vp is not None:  # V'' as one central difference of V'
            diag += dm * np.maximum((vp(X + 1e-4) - vp(X - 1e-4)) / 2e-4, 0.0)
        upper = np.concatenate(([0.0], -rt * dm * inv_g2))
        return _solve_banded(np.array([upper, diag]), -grad, symmetric=True)

    X, iters = _newton_march(
        Y, tau, gradient, newton_update, lambda Y, tau: NEWTON_TOL,
        admissible=lambda X: np.all(np.diff(X) > 0.0),
    )
    w2_sq = float(dm * np.sum((X - Y) ** 2))
    return X, JkoStepInfo(
        iters=iters,
        grad_norm=float(np.abs(gradient(X, Y, tau)).max()),
        w2_sq=w2_sq,
        energy=_jko_objective(X, Y, dm, tau, energy) - 0.5 / tau * w2_sq,
        energy_start=_jko_objective(Y, Y, dm, tau, energy),
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
    the nodes, from the previous step's nodes, by Newton on the gradient in
    the shared loop ``_newton_march``, each update halved until the nodes
    stay strictly increasing, until the gradient sup-norm falls below
    ``NEWTON_TOL``.  Where Newton fails, the step of tau is covered by two
    of tau/2, as implicit steps are.  Every iterate is rebinned
    conservatively onto the grid of rho0 only to be recorded.
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
    _check_time_step(tau, "time step")
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
