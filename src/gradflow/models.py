"""Concrete dissipative models: spring-dashpot relaxation, solute
diffusion (Fokker-Planck), multi-component diffusion under a volume
constraint, and the Allen-Cahn / Cahn-Hilliard phase-field flows.

The phase-field and species states are, like the density
:class:`gradflow.measures.GridDensity1D`, a
:class:`gradflow.measures.UniformGrid`: each gives only its rule on
``values``, and the grid's constructor and ``with_values`` run it.

The grid solvers use conservative interface fluxes (no-flux ends) and
record per-step energy and mass so that dissipation and conservation can be
asserted rather than assumed.  The explicit Fokker-Planck and phase-field
schemes raise CflError beyond their stability bounds; the explicit
multicomponent march has no guard, and a dt too large for it raises
PositivityError.  Three have implicit schemes with no step-size bound, all
stepped by :func:`gradflow.gradient_flow.implicit_step`, whose system each
march builds once for its grid:
``fokker_planck_solve(..., scheme="implicit")`` and
``multicomponent_evolve(..., scheme="implicit")`` by backward Euler, and
``allen_cahn_solve`` / ``cahn_hilliard_solve(..., scheme="implicit")`` by
Eyre's convex splitting (the Dirichlet energy and the convex quartic of
the double well at the new state, its concave quadratic at the old one),
whose energy does not rise for any dt.  The ``fokker_planck``,
``multicomponent`` and ``phasefield`` experiments run the implicit
schemes.

Every interface density is the logarithmic mean L
(:func:`gradflow._grid.logarithmic_interface_mean`), the Wasserstein
mobility of :mod:`gradflow.gradient_flow`.  Drift terms are
:func:`gradflow._grid.free_energy_flux`, so the discrete Boltzmann profile
exp(-V/RT) is an exact fixed point of the scheme; the species fluxes of the
multicomponent model carry L(c_i) too, so its energy rate is exactly minus
its dissipation.  The multicomponent model (a species dissipation) and the
phase fields (L^2 or H^-1), each stepped by ``local_step`` or
``implicit_step``, are ``FlowProblem``s; they and the implicit Fokker-Planck
scheme run through the engine's one march loop,
``gradflow.gradient_flow._march``, which also steps the JKO scheme.

The explicit Fokker-Planck scheme is the reference and is stepped
in preallocated buffers: one log per step shared by the energy and the
next logarithmic mean, grad V formed once, fluxes written in place.  Its
contract is bitwise: trajectory, energies and masses equal those of
composing ``free_energy_flux`` and ``divergence_of_flux`` step by step
with fresh arrays.  It keeps its own loop: ``_march`` over ``local_step``
costs about 2-2.3 times as much per step (40-52 against 19-22 us on the
200-cell criterion-07 problem, min of three 5000-step runs on one pinned
CPU of a 2-CPU Xeon VM; about 8 s instead of 4 s for criterion 07), and
its states differ in the last bits (up to 6e-14, energies up to 1.8e-15).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ._grid import interface_gradient, logarithmic_interface_mean
from .gradient_flow import (
    ConstraintError,
    EnergyFunctional,
    FlowProblem,
    GridTrajectory,
    PositivityError,
    QuadraticDissipation,
    _implicit_stepper,
    _march,
    local_step,
)
from .measures import GridDensity1D, PhysicalConstants, UniformGrid, _frozen, _step_count

__all__ = [
    "PhaseFieldState",
    "MultiSpeciesState",
    "SpringDashpotResult",
    "GridTrajectory",
    "CflError",
    "PositivityError",
    "ConstraintError",
    "spring_dashpot_solve",
    "derive_velocity",
    "fokker_planck_solve",
    "multicomponent_evolve",
    "allen_cahn_solve",
    "cahn_hilliard_solve",
]

POSITIVITY_FLOOR = 1e-14
# a MultiSpeciesState fills its cells to within CONSTRAINT_TOL; a step may
# drift by CONSTRAINT_HARD_LIMIT before with_values retracts it
CONSTRAINT_TOL = 1e-8
CONSTRAINT_HARD_LIMIT = 1e-6


class CflError(ValueError):
    """Requested time step violates the explicit stability guard."""


class PhaseFieldState(UniformGrid):
    """Order parameter u on a uniform grid: at least 4 finite values.

    The double-well depth belongs to the energy
    (:meth:`~gradflow.gradient_flow.EnergyFunctional.dirichlet_double_well`),
    not to the state.
    """

    @property
    def u(self) -> np.ndarray:
        return self.values

    def _checked(self, u: np.ndarray) -> np.ndarray:
        u = u.reshape(-1)
        if u.size < 4:
            raise ValueError("need at least 4 cells")
        if not np.isfinite(u).all():
            raise ValueError("field values must be finite")
        return u

    def mean(self) -> float:
        return float(self.values.mean())


@dataclass(frozen=True)
class MultiSpeciesState(UniformGrid):
    """m species on one grid, subject to sum_i alpha_i c_i = 1 cellwise:
    ``values`` (or ``concentrations``), shape (m, cells), in mol/m^3, are
    nonnegative and on the constraint to within CONSTRAINT_TOL; the molar
    volumes alpha_i > 0 in m^3/mol and ``frictions`` eta_i > 0; all finite."""

    molar_volumes: np.ndarray
    frictions: np.ndarray

    def __post_init__(self):
        # the parameters come first: the rule on the concentrations reads them
        for name in ("molar_volumes", "frictions"):
            object.__setattr__(self, name, _frozen(np.ravel(getattr(self, name))))
        alpha, eta = self.molar_volumes, self.frictions
        if alpha.size != eta.size:
            raise ValueError("one molar volume and one friction per species")
        if not (np.isfinite(alpha).all() and np.isfinite(eta).all()):
            raise ValueError("molar volumes and frictions must be finite")
        if np.any(alpha <= 0.0) or np.any(eta <= 0.0):
            raise ValueError("molar volumes and frictions must be positive")
        super().__post_init__()

    @property
    def concentrations(self) -> np.ndarray:
        return self.values

    def _checked(self, c: np.ndarray) -> np.ndarray:
        alpha, c = self.molar_volumes, np.atleast_2d(c)
        if c.ndim != 2 or c.shape[0] != alpha.size:
            raise ValueError(f"expected concentrations of shape ({alpha.size}, cells), got {c.shape}")
        if not (c.min() >= 0.0 and c.max() < np.inf):
            raise ValueError("concentrations must be finite and nonnegative")
        violation = np.abs(alpha @ c - 1.0).max()
        if violation > CONSTRAINT_TOL:
            raise ValueError(f"volume constraint violated by {violation:.2e}")
        return c

    def _retracted(self, c: np.ndarray) -> np.ndarray:
        """A step's concentrations c (of ``local_step`` or ``implicit_step``)
        retracted onto the constraint before ``with_values`` checks them: a
        concentration below POSITIVITY_FLOOR (or not a number) raises
        PositivityError and a fill drift above CONSTRAINT_HARD_LIMIT raises
        ConstraintError; within that bound, dividing c by its fill
        sum_i alpha_i c_i is a hygiene step, not dynamics."""
        if not c.min() >= POSITIVITY_FLOOR:
            raise PositivityError("a concentration fell below the positivity floor; reduce dt")
        fill = self.molar_volumes @ c
        drift = float(np.abs(fill - 1.0).max())
        if not drift <= CONSTRAINT_HARD_LIMIT:
            raise ConstraintError(
                f"volume constraint drift {drift:.2e} exceeds {CONSTRAINT_HARD_LIMIT:g}"
            )
        return c / fill

    def masses(self) -> np.ndarray:
        return self.h * self.concentrations.sum(axis=1)

    def constraint_violation(self) -> float:
        return float(np.abs(self.molar_volumes @ self.concentrations - 1.0).max())


@dataclass(frozen=True)
class SpringDashpotResult:
    """Closed-form and explicit-Euler trajectories of the spring-dashpot flow."""

    times: np.ndarray
    exact: np.ndarray
    euler: np.ndarray


def spring_dashpot_solve(k: float, eta: float, x0: float, T: float, dt: float) -> SpringDashpotResult:
    """Relaxation x' = -(k/eta) x: closed form x0 exp(-kt/eta) sampled at dt.

    The explicit-Euler integration of the same local minimization problem
    is returned alongside for cross-checking.
    """
    if min(k, eta) <= 0.0:
        raise ValueError("k and eta must be positive")
    steps = _step_count(T, dt)
    times = np.arange(steps + 1) * dt
    exact = x0 * np.exp(-k * times / eta)
    euler = x0 * (1.0 - dt * k / eta) ** np.arange(steps + 1)
    return SpringDashpotResult(times, exact, euler)


def derive_velocity(
    c: GridDensity1D, constants: PhysicalConstants, V
) -> np.ndarray:
    """Velocity w = -grad(RT log c + V) / eta at interior interfaces.

    This is the stationarity condition of the dissipation-plus-energy-rate
    minimization for the free energy F = RT int c log(c/c0) + int c V: w is
    -grad DF / eta, and L(c) w, L the logarithmic interface mean (the
    Wasserstein mobility), is the drift-diffusion flux
    -(RT grad c + L(c) grad V) / eta of the Fokker-Planck solver.  w.n = 0
    holds at the ends by the no-flux convention.
    """
    if np.min(c.values) <= 0.0:
        raise PositivityError("velocity field needs a strictly positive concentration")
    energy = EnergyFunctional.grid_free_energy(rt=constants.RT, potential=V, c0=constants.c0)
    return -interface_gradient(energy.derivative(c), c.h) / constants.eta


def fokker_planck_solve(
    c0: GridDensity1D,
    constants: PhysicalConstants,
    V,
    T_end: float,
    dt: float,
    *,
    store_every: Optional[int] = None,
    scheme: str = "explicit",
) -> GridTrajectory:
    """Conservative solve of c' = div((RT/eta) grad c + (c/eta) grad V).

    Mass is conserved per step by the flux form and the free energy
    RT int c log(c/c0) + int c V is tracked per step.  ``store_every``
    (at least 1) thins the stored snapshots (all steps still contribute
    diagnostics).

    ``scheme="implicit"`` marches :func:`gradflow.gradient_flow.implicit_step`
    (backward Euler, any dt > 0; the start must be strictly positive) with
    energies from ``EnergyFunctional.value``.  It is first-order accurate
    in dt and keeps the exact discrete Boltzmann fixed point.

    ``scheme="explicit"`` requires the diffusive CFL bound
    dt <= h^2 eta / (2 RT).  Each step is the composed reference
    ``c + dt * divergence_of_flux(free_energy_flux(c, V, rt, eta, h), h)``
    evaluated into preallocated buffers: grad V is formed once, log c once
    per step (after the update, serving that step's energy and the next
    step's logarithmic mean), and the interface fluxes sit in one buffer of
    n + 1 entries whose two no-flux ends stay zero.  The floating point operations and their order
    are those of the composed form, so trajectory, energies and masses
    match it to the bit.  Stored snapshots are copies; the working buffer
    is never handed out.
    """
    rt, eta = constants.RT, constants.eta
    h = c0.h
    steps = _step_count(T_end, dt, "T_end")
    if store_every is None:
        store_every = max(1, steps // 200)
    if scheme == "implicit":
        energy = EnergyFunctional.grid_free_energy(rt=rt, potential=V, c0=constants.c0)
        step = _implicit_stepper(FlowProblem(energy, QuadraticDissipation("wasserstein", eta)), c0)
        return _march(
            c0,
            lambda c: step(c, dt),
            steps,
            dt,
            store_every,
            energy.value,
            GridDensity1D.mass,
        )
    if scheme != "explicit":
        raise ValueError(f"scheme must be 'explicit' or 'implicit', got {scheme!r}")
    if store_every < 1:
        raise ValueError(f"store_every must be at least 1, got {store_every}")
    if dt > h * h * eta / (2.0 * rt):
        raise CflError(
            f"dt = {dt:.3e} violates the diffusive CFL bound {h * h * eta / (2 * rt):.3e}"
        )
    V_arr = np.zeros(c0.cells) if V is None else V(c0.centers)
    grad_V = interface_gradient(V_arr, h)

    n = c0.cells
    c = c0.values.copy()
    log_c = np.empty(n)
    # log(c / c0) equals log c bitwise only for c0 == 1
    entropy_log = log_c if constants.c0 == 1.0 else np.empty(n)
    product = np.empty(n)
    drift = np.empty(n - 1)
    padded = np.zeros(n + 1)
    flux = padded[1:-1]
    rate = np.empty(n)
    c_right, c_left = c[1:], c[:-1]
    flux_right, flux_left = padded[1:], padded[:-1]

    def energy(positive: bool) -> float:
        if entropy_log is not log_c:
            np.divide(c, constants.c0, out=entropy_log)
            np.log(entropy_log, out=entropy_log)
        if positive:
            ent = float(np.multiply(c, entropy_log, out=product).sum())
        else:
            # summing over the positive cells alone keeps numpy's pairwise
            # grouping, and so the rounding, of the vacuum-free sum
            pos = c > 0.0
            ent = float(np.sum(c[pos] * entropy_log[pos]))
        return h * (rt * ent + float(np.multiply(c, V_arr, out=product).sum()))

    energies = np.empty(steps + 1)
    masses = np.empty(steps + 1)
    snapshot_steps = [0]
    snapshots = [c0]
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(c, out=log_c)
        energies[0] = energy(c.min() > 0.0)
        masses[0] = h * c.sum()
        for k in range(1, steps + 1):
            logarithmic_interface_mean(c, logs=log_c, out=drift)
            drift *= grad_V
            np.subtract(c_right, c_left, flux)
            flux /= h
            flux *= rt
            flux += drift
            flux /= eta
            np.subtract(flux_right, flux_left, rate)
            rate /= h
            rate *= dt
            c += rate
            c_min = c.min()
            if c_min < -1e-12:
                raise PositivityError(
                    f"concentration turned negative at step {k}; reduce dt"
                )
            positive = c_min > 0.0
            if not positive:
                # fp noise just below zero in vacuum cells is clamped (and
                # -0.0 made +0.0); genuine negativity raised above
                np.clip(c, 0.0, None, out=c)
            np.log(c, out=log_c)
            energies[k] = energy(positive)
            masses[k] = h * c.sum()
            if k % store_every == 0 or k == steps:
                snapshot_steps.append(k)
                snapshots.append(c0.with_values(c))
    return GridTrajectory(np.asarray(snapshot_steps), snapshots, energies, masses, dt)


# -- multi-component diffusion with volume constraint --------------------------


def multicomponent_evolve(
    state: MultiSpeciesState,
    constants: PhysicalConstants,
    dt: float,
    steps: int,
    mode: str = "global",
    *,
    store_every: Optional[int] = None,
    scheme: str = "explicit",
) -> GridTrajectory:
    """March the ideal-mixture free energy RT sum_i int c_i log(c_i / c0)
    (the engine's grid free energy of the (m, cells) concentrations) with
    the species dissipation of one balance ``mode``, "global" (pressure) or
    "local" (pointwise multiplier); records energies, masses and the
    constraint violation.  Of ``constants`` it reads RT and c0; the
    frictions are the state's.

    ``scheme="explicit"`` marches ``local_step``; it has no step guard, and
    a dt too large for it raises PositivityError.  ``scheme="implicit"``
    marches :func:`gradflow.gradient_flow.implicit_step`, backward Euler on
    the exact banded Jacobian of the species fluxes, with no step-size
    bound: every step stays positive and on the constraint, and since the
    energy is convex an exact step does not raise it.  Both are first
    order in dt."""
    if mode not in ("global", "local"):
        raise ValueError(f"mode must be 'global' or 'local', got {mode!r}")
    if scheme not in ("explicit", "implicit"):
        raise ValueError(f"scheme must be 'explicit' or 'implicit', got {scheme!r}")
    energy = EnergyFunctional.grid_free_energy(rt=constants.RT, c0=constants.c0)
    problem = FlowProblem(energy, QuadraticDissipation(f"species_{mode}"))
    if scheme == "explicit":
        step = lambda s: local_step(problem, s, dt)
    else:
        implicit = _implicit_stepper(problem, state)
        step = lambda s: implicit(s, dt)
    return _march(
        state,
        step,
        steps,
        dt,
        store_every,
        energy.value,
        lambda s: float(s.masses().sum()),
        {"constraint_max_violation": MultiSpeciesState.constraint_violation},
    )


# -- phase fields ---------------------------------------------------------------


def _phase_field_flow(state, kind, mobility, T_end, dt, store_every, well, scheme) -> GridTrajectory:
    """Dirichlet double-well flow, dissipation ``kind`` with coefficient 1/m."""
    steps = _step_count(T_end, dt, "T_end")
    if mobility <= 0.0:
        raise ValueError("mobility must be positive")
    energy = EnergyFunctional.dirichlet_double_well(well)
    problem = FlowProblem(energy, QuadraticDissipation(kind, 1.0 / mobility))
    if scheme == "implicit":
        implicit = _implicit_stepper(problem, state)
        step = lambda z: implicit(z, dt)
    elif scheme == "explicit":
        h = state.h
        cfl_bound = h * h / (2.0 * mobility) if kind == "l2" else h**4 / (8.0 * mobility)
        if dt > cfl_bound:
            raise CflError(f"dt = {dt:.3e} violates the stability bound {cfl_bound:.3e}")

        def step(z: PhaseFieldState) -> PhaseFieldState:
            try:
                return local_step(problem, z, dt)
            except ValueError:  # PhaseFieldState holds finite values only
                raise PositivityError("phase field blew up; reduce dt") from None

    else:
        raise ValueError(f"scheme must be 'explicit' or 'implicit', got {scheme!r}")
    traj = _march(state, step, steps, dt, store_every, energy.value, PhaseFieldState.mean)
    return replace(traj, extra={"mean": traj.masses})


def allen_cahn_solve(
    state: PhaseFieldState,
    mobility: float,
    T_end: float,
    dt: float,
    *,
    store_every: Optional[int] = None,
    well: float = 1.0,
    scheme: str = "explicit",
) -> GridTrajectory:
    """L^2 gradient flow u' = m (lap u - W'(u)) with no-flux ends and the
    double well W(s) = well/4 (1-s^2)^2.

    ``scheme="explicit"`` needs dt <= h^2 / (2 m); ``scheme="implicit"``
    marches Eyre's convex splitting
    (:func:`gradflow.gradient_flow.implicit_step`) at any dt, with no
    energy increase beyond the Newton tolerance.
    """
    return _phase_field_flow(state, "l2", mobility, T_end, dt, store_every, well, scheme)


def cahn_hilliard_solve(
    state: PhaseFieldState,
    mobility: float,
    T_end: float,
    dt: float,
    *,
    store_every: Optional[int] = None,
    well: float = 1.0,
    scheme: str = "explicit",
) -> GridTrajectory:
    """H^-1 gradient flow u' = -m lap(lap u - W'(u)), conservative form.

    Each update is m dt times the Neumann Laplacian of a chemical potential,
    so the cell mean is conserved to machine precision per step.
    ``scheme="explicit"`` needs dt <= h^4 / (8 m) for its fourth-order
    stencil; ``scheme="implicit"`` marches Eyre's convex splitting
    (:func:`gradflow.gradient_flow.implicit_step`) at any dt, with no
    energy increase beyond the Newton tolerance.
    """
    return _phase_field_flow(state, "hminus1", mobility, T_end, dt, store_every, well, scheme)
