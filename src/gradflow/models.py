"""Concrete dissipative models: spring-dashpot relaxation, solute
diffusion (Fokker-Planck), multi-component diffusion under a volume
constraint, and the Allen-Cahn / Cahn-Hilliard phase-field flows.

The grid solvers use conservative interface fluxes (no-flux ends) and
record per-step energy and mass so that dissipation and conservation can be
asserted rather than assumed.  Their explicit schemes have hard CFL guards.
Two have implicit schemes with no step-size bound, both stepped by
:func:`gradflow.gradient_flow.implicit_step`:
``fokker_planck_solve(..., scheme="implicit")`` by backward Euler, and
``allen_cahn_solve`` / ``cahn_hilliard_solve(..., scheme="implicit")`` by
Eyre's convex splitting (the Dirichlet energy and the convex quartic of
the double well at the new state, its concave quadratic at the old one),
whose energy does not rise for any dt.  The ``fokker_planck`` and
``phasefield`` experiments run the implicit schemes.

Every interface density is the logarithmic mean L
(:func:`gradflow._grid.logarithmic_interface_mean`), the Wasserstein
mobility of :mod:`gradflow.gradient_flow`.  Drift terms are
:func:`gradflow._grid.free_energy_flux`, so the discrete Boltzmann profile
exp(-V/RT) is an exact fixed point of the scheme; the species fluxes of the
multicomponent model carry L(c_i) too, so its energy rate is exactly minus
its dissipation.  The phase fields are ``FlowProblem``s stepped by
``local_step`` or ``implicit_step``; they, the multicomponent steps and the
implicit Fokker-Planck scheme run through the engine's one march loop,
``gradflow.gradient_flow._march``, which also steps the JKO scheme.

The explicit Fokker-Planck scheme is the reference and is stepped
in preallocated buffers: one log per step shared by the energy and the
next logarithmic mean, grad V formed once, fluxes written in place.  Its
contract is bitwise: trajectory, energies and masses equal those of
composing ``free_energy_flux`` and ``divergence_of_flux`` step by step
with fresh arrays.  It keeps its own loop: ``_march`` over ``local_step``
gives the same states at about three times the cost per step (163 against
52 us on the 200-cell criterion-07 problem, median of three 5000-step runs
on a 2-CPU Xeon VM), so criterion 07's 177,778 steps would take about 29 s
of its 30 s gate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ._grid import (
    divergence_of_flux,
    interface_gradient,
    laplacian_neumann,
    logarithmic_interface_mean,
    weighted_poisson_neumann,
)
from .gradient_flow import (
    ConstraintError,
    EnergyFunctional,
    FlowProblem,
    GridTrajectory,
    PositivityError,
    QuadraticDissipation,
    _march,
    implicit_step,
    local_step,
)
from .measures import GridDensity1D, PhysicalConstants

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
    "multicomponent_global_step",
    "multicomponent_local_step",
    "multicomponent_evolve",
    "allen_cahn_solve",
    "cahn_hilliard_solve",
]

POSITIVITY_FLOOR = 1e-14
CONSTRAINT_HARD_LIMIT = 1e-6


class CflError(ValueError):
    """Requested time step violates the explicit stability guard."""


@dataclass(frozen=True)
class PhaseFieldState:
    """Order parameter u on a uniform grid.

    The double-well depth belongs to the energy
    (:meth:`~gradflow.gradient_flow.EnergyFunctional.dirichlet_double_well`),
    not to the state.
    """

    a: float
    b: float
    u: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float).reshape(-1)
        if u.size < 4:
            raise ValueError("need at least 4 cells")
        if not np.isfinite(u).all():
            raise ValueError("field values must be finite")
        u = u.copy()
        u.flags.writeable = False
        object.__setattr__(self, "u", u)

    @property
    def cells(self) -> int:
        return self.u.size

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.cells

    @property
    def centers(self) -> np.ndarray:
        return self.a + (np.arange(self.cells) + 0.5) * self.h

    @property
    def values(self) -> np.ndarray:
        return self.u

    def with_values(self, values) -> "PhaseFieldState":
        return PhaseFieldState(self.a, self.b, values)

    def mean(self) -> float:
        return float(self.u.mean())


@dataclass(frozen=True)
class MultiSpeciesState:
    """m species on one grid, subject to sum_i alpha_i c_i = 1 cellwise.

    ``concentrations`` has shape (m, cells) in mol/m^3, ``molar_volumes``
    alpha_i > 0 in m^3/mol, ``frictions`` eta_i > 0.
    """

    a: float
    b: float
    concentrations: np.ndarray
    molar_volumes: np.ndarray
    frictions: np.ndarray
    constraint_tol: float = 1e-8

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.concentrations, dtype=float))
        alpha = np.asarray(self.molar_volumes, dtype=float).reshape(-1)
        eta = np.asarray(self.frictions, dtype=float).reshape(-1)
        if c.shape[0] != alpha.size or c.shape[0] != eta.size:
            raise ValueError("one molar volume and one friction per species")
        if np.any(c < 0.0):
            raise ValueError("concentrations must be nonnegative")
        if np.any(alpha <= 0.0) or np.any(eta <= 0.0):
            raise ValueError("molar volumes and frictions must be positive")
        fill = alpha @ c
        if np.abs(fill - 1.0).max() > self.constraint_tol:
            raise ValueError(
                f"volume constraint violated by {np.abs(fill - 1.0).max():.2e}"
            )
        for name, arr in (
            ("concentrations", c),
            ("molar_volumes", alpha),
            ("frictions", eta),
        ):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def species(self) -> int:
        return self.concentrations.shape[0]

    @property
    def cells(self) -> int:
        return self.concentrations.shape[1]

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.cells

    @property
    def values(self) -> np.ndarray:
        """The (m, cells) concentrations, the state the engine's energy reads."""
        return self.concentrations

    def with_concentrations(self, c) -> "MultiSpeciesState":
        return MultiSpeciesState(
            self.a, self.b, c, self.molar_volumes, self.frictions, self.constraint_tol
        )

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
    if min(k, eta, dt, T) <= 0.0:
        raise ValueError("k, eta, T, dt must all be positive")
    steps = int(round(T / dt))
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
    df = EnergyFunctional.grid_free_energy(potential=V, constants=constants).derivative(c)
    return -interface_gradient(df, c.h) / constants.eta


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
    thins the stored snapshots (all steps still contribute diagnostics).

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
    if dt <= 0.0 or T_end <= 0.0:
        raise ValueError("T_end and dt must be positive")
    steps = int(round(T_end / dt))
    if store_every is None:
        store_every = max(1, steps // 200)
    if scheme == "implicit":
        energy = EnergyFunctional.grid_free_energy(potential=V, constants=constants)
        problem = FlowProblem(energy, QuadraticDissipation("wasserstein", eta))
        return _march(
            c0,
            lambda c: implicit_step(problem, c, dt),
            steps,
            dt,
            store_every,
            energy.value,
            GridDensity1D.mass,
        )
    if scheme != "explicit":
        raise ValueError(f"scheme must be 'explicit' or 'implicit', got {scheme!r}")
    if dt > h * h * eta / (2.0 * rt):
        raise CflError(
            f"dt = {dt:.3e} violates the diffusive CFL bound {h * h * eta / (2 * rt):.3e}"
        )
    if V is None:
        V_arr = np.zeros(c0.cells)
    else:
        V_arr = V(c0.centers) if callable(V) else np.asarray(V, dtype=float)
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


def _advance_multispecies(
    state: MultiSpeciesState, fluxes: np.ndarray, dt: float
) -> MultiSpeciesState:
    c_new = np.empty_like(state.concentrations)
    for i in range(state.species):
        c_new[i] = state.concentrations[i] - dt * divergence_of_flux(fluxes[i], state.h)
    if np.min(c_new) < POSITIVITY_FLOOR:
        raise PositivityError(
            "a concentration fell below the positivity floor; reduce dt"
        )
    fill = state.molar_volumes @ c_new
    drift = float(np.abs(fill - 1.0).max())
    if drift > CONSTRAINT_HARD_LIMIT:
        raise ConstraintError(f"volume constraint drift {drift:.2e} exceeds 1e-6")
    # exact renormalization; the asserted pre-projection drift makes this a
    # hygiene step rather than dynamics
    c_new /= fill[None, :]
    return state.with_concentrations(c_new)


def multicomponent_global_step(
    state: MultiSpeciesState, constants: PhysicalConstants, dt: float
) -> MultiSpeciesState:
    """One step of the global-balance system.

    The pressure solves div(sum alpha_i^2 L(c_i) / eta_i grad p)
    = RT sum (alpha_i / eta_i) lap c_i with Neumann data, and the species
    move with fluxes j_i = (1/eta_i)(-RT grad c_i + alpha_i L(c_i) grad p),
    L the logarithmic interface mean.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    return _advance_multispecies(state, multicomponent_fluxes(state, constants, "global"), dt)


def multicomponent_local_step(
    state: MultiSpeciesState, constants: PhysicalConstants, dt: float
) -> MultiSpeciesState:
    """One step of the local-balance system with a pointwise multiplier.

    lambda is weighted so that sum_i alpha_i j_i = 0 holds at every interface
    in the discrete fluxes: lambda = RT sum (alpha_i/eta_i) grad c_i divided
    by sum alpha_i^2 L(c_i) / eta_i, with j_i = (1/eta_i)(-RT grad c_i
    + alpha_i L(c_i) lambda), L the logarithmic interface mean.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if np.min(state.concentrations) < POSITIVITY_FLOOR:
        raise PositivityError("local balance needs strictly positive species")
    return _advance_multispecies(state, multicomponent_fluxes(state, constants, "local"), dt)


def multicomponent_fluxes(
    state: MultiSpeciesState, constants: PhysicalConstants, mode: str = "local"
) -> np.ndarray:
    """Interface fluxes j_i = (1/eta_i)(-RT grad c_i + alpha_i L(c_i) m) of one
    balance mode, where the multiplier m is lambda ("local") or grad p
    ("global").

    L(c_i) is the logarithmic interface mean, taken for all species in one
    call.  Since L(c) grad log c = grad c, j_i = (L(c_i)/eta_i)(-grad mu_i
    + alpha_i m) with mu_i = RT (log c_i + 1), and sum_i alpha_i j_i = 0 at
    every interface in both modes, so the ideal-mixture energy falls at
    exactly sum_i h sum eta_i j_i^2 / L(c_i), the dissipation rate.
    """
    c, h, rt = state.concentrations, state.h, constants.RT
    alpha, eta = state.molar_volumes, state.frictions
    grad_c = interface_gradient(c, h)
    mobility = logarithmic_interface_mean(c)
    denom = np.einsum("i,ij->j", alpha**2 / eta, mobility)
    if mode == "local":
        mult = rt * np.einsum("i,ij->j", alpha / eta, grad_c) / denom
    elif mode == "global":
        if np.min(denom) <= 0.0:
            raise PositivityError("pressure problem is singular: all species vanish")
        rhs = rt * sum(
            (alpha[i] / eta[i]) * laplacian_neumann(c[i], h)
            for i in range(state.species)
        )
        # the Poisson helper solves -(w p')' = rhs, the pressure equation has
        # div(w grad p) = +rhs
        mult = np.diff(weighted_poisson_neumann(denom, -rhs, h)) / h
    else:
        raise ValueError("mode must be 'local' or 'global'")
    return (-rt * grad_c + alpha[:, None] * mobility * mult) / eta[:, None]


def multicomponent_evolve(
    state: MultiSpeciesState,
    constants: PhysicalConstants,
    dt: float,
    steps: int,
    mode: str = "global",
    *,
    store_every: Optional[int] = None,
) -> GridTrajectory:
    """Iterate one balance mode, recording the ideal-mixture free energy
    RT sum_i int c_i log(c_i / c0) (the engine's grid free energy of the
    (m, cells) concentrations), masses and the constraint."""
    step_fn = {
        "global": multicomponent_global_step,
        "local": multicomponent_local_step,
    }[mode]
    return _march(
        state,
        lambda s: step_fn(s, constants, dt),
        steps,
        dt,
        store_every,
        EnergyFunctional.grid_free_energy(constants=constants).value,
        lambda s: float(s.masses().sum()),
        {"constraint_max_violation": MultiSpeciesState.constraint_violation},
    )


# -- phase fields ---------------------------------------------------------------


def _phase_field_flow(state, kind, mobility, T_end, dt, store_every, well, scheme) -> GridTrajectory:
    """Dirichlet double-well flow, dissipation ``kind`` with coefficient 1/m."""
    if dt <= 0.0 or T_end <= 0.0 or mobility <= 0.0:
        raise ValueError("mobility, T_end, dt must be positive")
    energy = EnergyFunctional.dirichlet_double_well(well)
    problem = FlowProblem(energy, QuadraticDissipation(kind, 1.0 / mobility))
    if scheme == "implicit":
        step = lambda z: implicit_step(problem, z, dt)
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
    steps = int(round(T_end / dt))
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
