"""Experiment runner: ``gradflow run --config cfg.json [--out DIR] [--seed N]``.

One experiment per invocation.  Configs are strict JSON: unknown keys are
rejected with their key path, required keys must be present, and types are
checked before anything executes.  Each run writes ``result.csv`` (all
floats with 17 significant digits; byte-identical across reruns with the
same config and seed) and ``summary.json`` (config hash, library and
dependency versions, each built-in invariant with its outcome, wall time).

Exit status: 0 success, 2 config error, 3 runtime model error,
4 invariant failure.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from . import __version__
from .measures import GridDensity1D, PhysicalConstants
from . import measures, transport
from .gradient_flow import EnergyFunctional, _scipy_version, jko_evolve
from .models import (
    CONSTRAINT_TOL,
    POSITIVITY_FLOOR,
    MultiSpeciesState,
    PhaseFieldState,
    allen_cahn_solve,
    cahn_hilliard_solve,
    fokker_planck_solve,
    multicomponent_evolve,
)
from .particles import (
    ENUMERATION_MAX_N,
    FiniteLdpProblem,
    HalfSpace,
    LAW_SUM_TOL,
    ParticleEnsemble,
    _OUTSIDE_MAX_FRACTION,
    check_enumeration,
    coin_rate,
    coin_tail_exact,
    empirical_density,
    euler_maruyama,
    reversibility_check,
    sanov_exact,
    varadhan_tilt,
    GENERATOR_VERSION,
)

__all__ = ["ExperimentConfig", "ConfigError", "run", "validate", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_INVARIANT = 4


class ConfigError(ValueError):
    """Strict-parse failure; ``diagnostics`` lists keyed problems."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


@dataclass(frozen=True)
class Field:
    type: object
    default: Any = None  # None: nothing is filled in when the key is absent
    required: bool = False
    within: str = ""  # the allowed numbers (each item of a list), e.g. "(0, inf)"
    items: str = ""  # the allowed list lengths, e.g. "[2, 2]"
    choices: Any = ()  # the allowed strings; a dict maps each to the schema of the keys it reads


@dataclass(frozen=True)
class _Experiment:
    """One experiment: its body and everything of a config that its run reads."""

    body: Callable[["ExperimentConfig"], "ExperimentOutput"]
    schema: dict[str, Field]  # the parameters block
    constants: tuple[str, ...] = ()  # the fields of PhysicalConstants read, RT given as rt
    seeded: bool = False  # whether the run draws from the seed
    # the parameters that parse one by one but cannot run together:
    # check(parameters, the block as given, errors) -> (key, digest) of each input file, or None
    check: Callable[[dict, dict, list[str]], Optional[tuple]] = lambda p, given, errors: None


def _num(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _finite(value) -> Optional[float]:
    """``float(value)``, or None for NaN, infinities and ints beyond float range."""
    try:
        number = float(value)
    except OverflowError:
        return None
    return number if math.isfinite(number) else None


def _in_interval(number, interval: str) -> bool:
    """Whether ``number`` lies in ``interval``, written "[lo, hi]", "(lo, hi)", "[lo, inf)"..."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    above = lo < number if interval[0] == "(" else lo <= number
    below = number < hi if interval[-1] == ")" else number <= hi
    return above and below


# the scalar schema types: what each accepts and how diagnostics name it
_SCALARS = {
    float: ("a number", _num),
    int: ("an integer", _int),
    "uint64": ("an integer", _int),
    str: ("a string", lambda value: isinstance(value, str)),
    bool: ("a boolean", lambda value: isinstance(value, bool)),
    dict: ("an object", lambda value: isinstance(value, dict)),
}
# the integer types' ranges [lo, hi), compared exactly, and the diagnostic beyond them
_INT_RANGES = {
    int: (-(2**63), 2**63, "integer out of the 64-bit range"),
    "uint64": (0, 2**64, "must fit in an unsigned 64-bit integer"),
}


def _check_type(value, expected, path: str, errors: list[str]) -> Any:
    if expected in _SCALARS:
        name, accepts = _SCALARS[expected]
        if not accepts(value):
            errors.append(f"{path}: expected {name}, got {type(value).__name__}")
            return None
        if expected is not float:
            return value
        number = _finite(value)
        if number is None:
            errors.append(f"{path}: expected a finite number")
        return number
    if expected == "number_list":
        if not isinstance(value, list) or not all(_num(v) for v in value):
            errors.append(f"{path}: expected a list of numbers")
            return None
        numbers = [_finite(v) for v in value]
        for i, number in enumerate(numbers):
            if number is None:
                errors.append(f"{path}[{i}]: expected a finite number")
        return None if None in numbers else numbers
    if expected == "interval":
        numbers = _check_type(value, "number_list", path, errors)
        if numbers is not None and not (len(numbers) == 2 and numbers[0] < numbers[1]):
            errors.append(f"{path}: expected two ascending numbers [lo, hi]")
            return None
        return numbers
    raise AssertionError(f"unknown schema type {expected!r}")


def _check_field(value, field: Field, path: str, errors: list[str]) -> Any:
    """``_check_type``, then the field's integer range, bounds, length and choices."""
    parsed = _check_type(value, field.type, path, errors)
    if parsed is None:
        return None
    if field.type in _INT_RANGES:
        lo, hi, problem = _INT_RANGES[field.type]
        if not lo <= parsed < hi:
            errors.append(f"{path}: {problem}")
            return None
    if field.items and not _in_interval(len(parsed), field.items):
        errors.append(f"{path}: expected a list whose length lies in {field.items}")
        return None
    if field.within:
        numbers = parsed if isinstance(parsed, list) else [parsed]
        if not all(_in_interval(number, field.within) for number in numbers):
            kind = {int: "an integer", float: "a number"}.get(field.type, "numbers")
            errors.append(f"{path}: expected {kind} in {field.within}")
            return None
    if field.choices and parsed not in field.choices:
        errors.append(f"{path}: expected one of {list(field.choices)}, got {parsed!r}")
        return None
    return parsed


def _check_block(block: dict, schema: dict[str, Field], prefix: str, errors: list[str]) -> dict:
    """One level of a config: its unknown, unread and missing keys, then each field.

    A choice whose ``choices`` is a dict reads the keys of its value's schema
    too (replacing the block's own field of a key), and no key that only its
    other values read.  Returns the fields that parsed, with the defaults of
    the absent ones filled in; every problem goes to ``errors`` under
    ``prefix + key``.
    """
    fields, unread = dict(schema), {}
    for name, field in schema.items():
        if isinstance(field.choices, dict):
            value = block.get(name, field.default)
            keys = {key for reads in field.choices.values() for key in reads}
            unread.update(dict.fromkeys(keys, f"not read with {name} {value!r}"))
            fields.update(field.choices.get(value, {}) if isinstance(value, str) else {})
    for key in block:
        if key not in fields:
            errors.append(f"{prefix}{key}: {unread.get(key, 'unknown key')}")
    parsed: dict[str, Any] = {}
    for key, field in fields.items():
        if key in block:
            value = _check_field(block[key], field, prefix + key, errors)
            if value is not None:
                parsed[key] = value
        elif field.required:
            errors.append(f"{prefix}{key}: required key missing")
        elif field.default is not None:
            # a copy: a caller that changes its parameters leaves the schema as it was
            parsed[key] = copy.copy(field.default)
    return parsed


# backward-Euler steps of the particles experiment's PDE reference; the
# explicit step at the diffusive CFL bound turns negative once drift dominates
PDE_CHECK_STEPS = 20


def _check_step_count(p: dict, given: dict, errors: list[str]) -> None:
    """A march to t_end takes round(t_end / dt) steps and needs at least one:
    the solvers' own rule, ``measures._step_count``, reported at t_end."""
    try:
        measures._step_count(p["t_end"], p["dt"], "t_end")
    except ValueError as exc:
        errors.append(f"parameters.t_end: {exc}")


def _check_fokker_planck(p: dict, given: dict, errors: list[str]) -> Optional[tuple]:
    """The solver takes at least one step; an ``initial_csv`` must read as a grid density,
    gives the grid in place of ``cells`` and ``domain``, and is hashed by its bytes."""
    _check_step_count(p, given, errors)
    if not p["initial_csv"]:
        return None
    for key in ("cells", "domain"):
        del p[key]
        if key in given:
            errors.append(f"parameters.{key}: not read with initial_csv, which gives the grid")
    try:
        measures.read_grid_csv(p["initial_csv"])
        return (("initial_csv", hashlib.sha256(Path(p["initial_csv"]).read_bytes()).hexdigest()),)
    except (OSError, ValueError) as exc:
        errors.append(f"parameters.initial_csv: {exc}")


def _multicomponent_start(p: dict) -> tuple[GridDensity1D, np.ndarray]:
    """The grid on [0, 1] and the (2, cells) start: species 1 at half the
    volume plus a sine of ``amplitude``, species 2 filling the rest."""
    alpha = p["alpha"]
    grid = GridDensity1D(0.0, 1.0, np.ones(p["cells"]))
    c1 = 0.5 / alpha[0] + p["amplitude"] * np.sin(2 * math.pi * grid.centers)
    return grid, np.stack([c1, (1.0 - alpha[0] * c1) / alpha[1]])


def _check_multicomponent(p: dict, given: dict, errors: list[str]) -> None:
    """The steps keep every concentration above POSITIVITY_FLOOR; so must the start."""
    lowest = float(_multicomponent_start(p)[1].min())
    if lowest < POSITIVITY_FLOOR:
        errors.append(
            f"parameters.amplitude: the start reaches a concentration of {lowest:.3g},"
            f" below the positivity floor {POSITIVITY_FLOOR:g}"
        )


def _jko_start(p: dict) -> GridDensity1D:
    """The start on ``cells`` cells of ``domain``: the density of
    N(0, sigma0_sq) at the cell centers, normalized to unit mass."""
    lo, hi = p["domain"]
    grid = GridDensity1D(lo, hi, np.ones(p["cells"]))
    var0 = p["sigma0_sq"]
    return grid.with_values(
        np.exp(-grid.centers**2 / (2 * var0)) / math.sqrt(2 * math.pi * var0)
    ).normalized()


def _check_jko(p: dict, given: dict, errors: list[str]) -> None:
    """The start must be a density: a narrow Gaussian, or cell centers far
    from 0, underflow to zero mass."""
    try:
        _jko_start(p)
    except ValueError as exc:
        lo, hi = p["domain"]
        errors.append(
            f"parameters.sigma0_sq: the start N(0, {p['sigma0_sq']:g}) on {p['cells']} cells"
            f" of [{lo:g}, {hi:g}] is not a density: {exc}"
        )


def _check_ldp(p: dict, given: dict, errors: list[str]) -> None:
    """The ldp fields that pass one by one but cannot run together.

    The sanov and varadhan modes enumerate types exactly, at every
    ``n_values`` entry resp. at ``n``, within the limits of
    :func:`gradflow.particles.check_enumeration`, and need a law ``mu`` that
    sums to 1, with ``constraint_coeffs`` resp. ``tilt`` of its length;
    sanov also needs a ``constraint_bound`` that some type reaches.
    """
    mode = p["mode"]
    if mode == "coin":
        return
    mu = p["mu"]
    if abs(float(np.sum(mu)) - 1.0) > LAW_SUM_TOL:
        errors.append(f"parameters.mu: expected weights that sum to 1 (within {LAW_SUM_TOL:g})")
    key = "tilt" if mode == "varadhan" else "constraint_coeffs"
    if p[key] and len(p[key]) != len(mu):
        errors.append(f"parameters.{key}: expected {len(mu)} numbers, one per entry of mu")
    if mode == "sanov":
        # coeffs . rho reaches max(coeffs) on the simplex and no more; the
        # default coefficients are e_0
        top = max(p["constraint_coeffs"] or [1.0])
        if p["constraint_bound"] > top:
            errors.append(
                f"parameters.constraint_bound: expected at most max(constraint_coeffs)"
                f" = {top:g}; no type reaches the half-space beyond it"
            )
    try:
        check_enumeration(len(mu), 1)  # a single sample tests the alphabet alone
    except ValueError as exc:
        errors.append(f"parameters.mu: {exc}")
        return
    if mode == "varadhan":
        sizes = {"n": p["n"]}
    else:
        sizes = {f"n_values[{i}]": n for i, n in enumerate(p["n_values"])}
    for key, n in sizes.items():
        try:
            check_enumeration(len(mu), int(n))
        except ValueError as exc:
            errors.append(f"parameters.{key}: {exc}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment run."""

    experiment: str
    parameters: dict
    constants: PhysicalConstants
    output_dir: Path
    seed: int
    # (parameter, sha256 of its input file's bytes) pairs, taken at parse time
    _digests: tuple = ()

    def canonical_json(self) -> str:
        """The resolved computation: experiment, every parameter read (defaults filled in,
        an input file by its bytes' digest), and the seed and constants where the
        experiment's record reads them.  Where the output goes is not part of it."""
        record = EXPERIMENTS[self.experiment]
        computation = {
            "experiment": self.experiment,
            "parameters": {**self.parameters, **dict(self._digests)},
        }
        if record.seeded:
            computation["seed"] = self.seed
        if record.constants:
            computation["constants"] = asdict(self.constants)
        return json.dumps(computation, sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def parse_config(obj, *, overrides: Optional[dict] = None) -> ExperimentConfig:
    """Strict-parse a raw JSON object into an ExperimentConfig.

    ``overrides`` replace top-level keys (the --out and --seed flags replace
    ``output_dir`` and ``seed``) before the walk, so they pass the same
    checks as the keys of ``obj``.  Raises :class:`ConfigError` listing every
    problem with its key path.
    """
    errors: list[str] = []
    if _check_type(obj, dict, "top level", errors) is None:
        raise ConfigError(errors)
    top = _check_block({**obj, **(overrides or {})}, TOP_LEVEL, "", errors)
    if "experiment" not in top:  # no schema to check the parameters against
        raise ConfigError(errors)
    experiment = top["experiment"]
    record = EXPERIMENTS[experiment]
    given = top.get("parameters", {})
    params = _check_block(given, record.schema, "parameters.", errors)
    reads = {key: Field(float, within="(0, inf)") for key in record.constants}
    values = _check_block(top.get("constants", {}), reads, "constants.", errors)
    if not errors:  # fields are checked together only once each of them parsed
        digests = record.check(params, given, errors)
        constants = PhysicalConstants.with_rt(values.pop("rt", 1.0), **values)
    if errors:
        raise ConfigError(errors)
    output_dir = Path(top["output_dir"])
    return ExperimentConfig(experiment, params, constants, output_dir, top["seed"], digests or ())


def load_config(path, *, overrides: Optional[dict] = None) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError([f"cannot read config file: {exc}"])
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"invalid JSON: {exc}"])
    return parse_config(obj, overrides=overrides)


@dataclass
class Invariant:
    passed: bool
    value: Optional[float] = None
    detail: str = ""


class ExperimentOutput:
    def __init__(self):
        self.header: list[str] = []
        self.rows: list[tuple] = []
        self.invariants: dict[str, Invariant] = {}
        self.metrics: dict[str, Any] = {}
        # extra JSON files: name -> record
        self.artifacts: dict[str, Any] = {}

    def check(self, name: str, passed: bool, value=None, detail: str = "") -> None:
        self.invariants[name] = Invariant(
            bool(passed), None if value is None else float(value), detail
        )

    def check_descent(self, name: str, traj) -> None:
        """Check that the energy of ``traj`` rose in no step by more than
        1e-12 max(1, max_k |E_k|): rounding of a large energy alone must
        not fail a run."""
        rise = traj.max_energy_increase()
        scale = max(1.0, float(np.abs(traj.energies).max()))
        self.check(name, rise <= 1e-12 * scale, rise)

    @property
    def all_passed(self) -> bool:
        return all(inv.passed for inv in self.invariants.values())


# -- experiment bodies -------------------------------------------------------------


def _exp_entropy(cfg: ExperimentConfig) -> ExperimentOutput:
    """Relative-entropy identities on ``pairs`` random pairs (mu, nu) of laws
    on ``alphabet`` letters: H >= 0, Csiszar-Kullback-Pinsker, exact
    invariance under an injective map and data processing under a merging
    one.

    The pairs run side by side.  Pair i's laws are row i of two
    (pairs, alphabet) weight arrays, and one measure each on the product
    atoms (i, x).  H and TV are row-wise reductions of the kernels behind
    ``relative_entropy`` and ``total_variation``, each row bitwise what
    they return for that pair alone.  A pair's maps act on the product as
    (i, x) -> (i, T_i(x)), so one ``push_forward`` per map and law merges
    atoms only within a pair, keeps first-occurrence order and sums each
    merged weight in atom order: pair i's atoms of the image are the image
    of pair i alone, weight for weight.  Each check therefore still
    compares one pair's H before and after its own map, exactly.  The draws
    stay per pair (mu, nu, shift, merge, then the next pair), because the
    stream interleaves them: one seed gives the same pairs as a loop over
    them.
    """
    out = ExperimentOutput()
    rng = np.random.default_rng(cfg.seed)
    pairs = cfg.parameters["pairs"]
    alphabet = cfg.parameters["alphabet"]
    mu_w, nu_w = np.empty((pairs, alphabet)), np.empty((pairs, alphabet))
    shift = np.empty(pairs)
    merge = np.empty((pairs, alphabet), dtype=np.int64)
    for i in range(pairs):
        rng.random(out=mu_w[i])
        rng.random(out=nu_w[i])
        shift[i] = rng.normal()
        merge[i] = rng.integers(0, max(2, alphabet - 2), size=alphabet)
    for w in (mu_w, nu_w):
        w += 1e-3
        w /= w.sum(axis=1, keepdims=True)
    atoms = np.column_stack(
        [np.repeat(np.arange(pairs), alphabet), np.tile(np.arange(alphabet), pairs)]
    ).astype(float)
    mu = measures.DiscreteMeasure(atoms, mu_w.ravel())
    nu = measures.DiscreteMeasure(mu.atoms, nu_w.ravel())
    # the measures own copies of atoms and weights: the pushes below run
    # with one copy of each in memory
    del atoms, mu_w, nu_w
    mu_rows = mu.weights.reshape(pairs, alphabet)
    nu_rows = nu.weights.reshape(pairs, alphabet)
    h = measures._relative_entropy_weights(mu_rows, nu_rows, 1.0)
    tv = measures._total_variation_weights(mu_rows, nu_rows)
    slack = h - 2.0 * tv * tv

    def pushed_entropy(image_of_pair):
        """H of each pair's image under (i, x) -> (i, image_of_pair(i, x))."""
        def mapping(a):
            i = a[:, 0].astype(int)
            return np.column_stack([a[:, 0], image_of_pair(i, a[:, 1])])

        mu_t, nu_t = measures.push_forward(mu, mapping), measures.push_forward(nu, mapping)
        measures._check_shared_support(mu_t, nu_t)
        # the images keep the pairs in order, pair i's atoms in one run
        sizes = np.bincount(mu_t.atoms[:, 0].astype(int), minlength=pairs)
        starts = np.cumsum(sizes) - sizes
        h_t = np.empty(pairs)
        # rows of one length reduce together: a padded row would sum in
        # another order than the pair alone
        for size in np.flatnonzero(np.bincount(sizes)):
            rows = np.flatnonzero(sizes == size)
            at = starts[rows, None] + np.arange(size)
            h_t[rows] = measures._relative_entropy_weights(mu_t.weights[at], nu_t.weights[at], 1.0)
        return h_t

    injective = pushed_entropy(lambda i, x: 2.0 * x + shift[i])
    coarse = pushed_entropy(lambda i, x: merge[i, x.astype(int)].astype(float))
    violations = {
        "nonneg": np.count_nonzero(h < 0.0),
        "ckp": np.count_nonzero(slack < -1e-15),
        "push": np.count_nonzero(injective != h),
        "dpi": np.count_nonzero(coarse > h + 1e-12),
    }
    out.header = ["pair", "entropy", "tv", "ckp_slack"]
    out.rows = list(zip(range(pairs), h.tolist(), tv.tolist(), slack.tolist()))
    out.check("entropy_nonnegative", violations["nonneg"] == 0, violations["nonneg"])
    out.check("ckp_inequality", violations["ckp"] == 0, violations["ckp"])
    out.check("pushforward_invariance_exact", violations["push"] == 0, violations["push"])
    out.check("data_processing_inequality", violations["dpi"] == 0, violations["dpi"])
    out.metrics["pairs"] = pairs
    return out


def _exp_transport(cfg: ExperimentConfig) -> ExperimentOutput:
    out = ExperimentOutput()
    rng = np.random.default_rng(cfg.seed)
    n = cfg.parameters["n_atoms"]
    if n > transport.BRUTEFORCE_MAX_N:
        raise ValueError("transport experiment needs n_atoms <= 9 for the oracle")
    dim = cfg.parameters["dim"]
    out.header = ["instance", "n", "cost", "cost_bruteforce", "delta"]
    records = []
    max_delta = 0.0
    for i in range(cfg.parameters["instances"]):
        x = rng.normal(size=(n, dim))
        y = rng.normal(size=(n, dim))
        fast = transport.w2_atomic(x, y)
        brute = transport.w2_atomic_bruteforce(x, y)
        delta = abs(fast.cost - brute.cost)
        max_delta = max(max_delta, delta)
        records.append(
            {"n": n, "cost": float(fast.cost), "permutation": fast.permutation.tolist()}
        )
        out.rows.append((i, n, fast.cost, brute.cost, delta))
    out.check("hungarian_equals_bruteforce", max_delta <= 1e-12, max_delta)
    out.artifacts["transport.json"] = records
    return out


def _exp_jko(cfg: ExperimentConfig) -> ExperimentOutput:
    out = ExperimentOutput()
    p = cfg.parameters
    var0 = p["sigma0_sq"]
    rho = _jko_start(p)
    energy = EnergyFunctional.entropy()
    out.header = ["step", "time", "energy", "variance", "w2_sq", "iters", "grad_norm"]
    traj, infos = jko_evolve(rho, p["time_step"], p["steps"], energy)
    variances = traj.extra["variance"]
    records = [(0.0, 0, 0.0)] + [(info.w2_sq, info.iters, info.grad_norm) for info in infos]
    for k, (f_k, var_k, record) in enumerate(zip(traj.energies, variances, records)):
        out.rows.append((k, k * p["time_step"], f_k, var_k, *record))
    out.artifacts["jko_diagnostics.json"] = [
        {key: getattr(info, key) for key in ("iters", "grad_norm", "w2_sq", "energy")}
        for info in infos
    ]
    worst_ascent = max((info.energy - info.energy_start for info in infos), default=-math.inf)
    variance_final = float(variances[-1])
    target = var0 + 2 * p["steps"] * p["time_step"]
    out.check(
        "variance_final_within_2pct",
        abs(variance_final - target) <= 0.02 * target,
        variance_final,
        f"target {target}",
    )
    # each minimizing-movement step certifies descent of its own objective
    out.check("energy_nonincreasing", worst_ascent <= 1e-10, worst_ascent)
    out.metrics["variance_final"] = variance_final
    return out


def _exp_fokker_planck(cfg: ExperimentConfig) -> ExperimentOutput:
    out = ExperimentOutput()
    p = cfg.parameters
    kind = p["potential"]
    if kind == "linear":
        V = lambda x: p["slope"] * x
    elif kind == "quadratic":
        V = lambda x: 0.5 * p["slope"] * x**2
    else:
        V = None
    if p["initial_csv"]:
        c0 = measures.read_grid_csv(p["initial_csv"])
        grid = GridDensity1D(c0.a, c0.b, np.ones(c0.cells))
    else:
        lo, hi = p["domain"]
        grid = GridDensity1D(lo, hi, np.ones(p["cells"]))
        c0 = grid.with_values(np.full(grid.cells, 1.0 / (hi - lo)))
    dt = p["dt"]
    traj = fokker_planck_solve(c0, cfg.constants, V, p["t_end"], dt, scheme="implicit")
    out.header = ["snapshot", "time", "energy", "mass"]
    for i, (k, t) in enumerate(zip(traj.snapshot_steps, traj.snapshot_times)):
        out.rows.append((i, t, traj.energies[k], traj.masses[k]))
    out.check("mass_conserved", traj.max_mass_drift() <= 1e-10, traj.max_mass_drift())
    out.check_descent("energy_nonincreasing", traj)
    if kind == "linear" and p["check_boltzmann"]:
        # shifted by its maximum, so that exp does not overflow at steep slopes
        exponent = -p["slope"] * grid.centers / cfg.constants.RT
        target = np.exp(exponent - exponent.max())
        target *= c0.mass() / (grid.h * target.sum())
        l1 = float(grid.h * np.abs(traj.final.values - target).sum())
        out.check("boltzmann_l1", l1 <= 1e-3, l1)
    out.metrics["dt"] = dt
    return out


def _exp_multicomponent(cfg: ExperimentConfig) -> ExperimentOutput:
    out = ExperimentOutput()
    p = cfg.parameters
    alpha = np.asarray(p["alpha"])
    eta = np.asarray(p["eta"])
    grid, start = _multicomponent_start(p)
    state = MultiSpeciesState(0.0, 1.0, start, alpha, eta)
    modes = ["global", "local"] if p["mode"] == "both" else [p["mode"]]
    out.header = ["mode", "step", "time", "energy", "mass", "constraint_max_violation"]
    finals = {}
    for mode in modes:
        traj = multicomponent_evolve(
            state, cfg.constants, p["dt"], p["steps"], mode=mode, scheme="implicit"
        )
        finals[mode] = traj
        constraint = traj.extra["constraint_max_violation"]
        for k, t in zip(traj.snapshot_steps, traj.snapshot_times):
            out.rows.append((mode, k, t, traj.energies[k], traj.masses[k], constraint[k]))
        worst = float(constraint.max())
        out.check(f"{mode}_volume_constraint", worst <= CONSTRAINT_TOL, worst)
        out.check_descent(f"{mode}_energy_nonincreasing", traj)
    if len(modes) == 2:
        gap = float(
            np.abs(
                finals["global"].final.concentrations
                - finals["local"].final.concentrations
            ).max()
        )
        out.check("balance_modes_agree", gap <= 1e-10, gap)
    symmetric = alpha[0] == alpha[1] and eta[0] == eta[1]
    if symmetric:
        # species 1 diffuses as one species with friction eta[0]
        single = fokker_planck_solve(
            grid.with_values(start[0]),
            replace(cfg.constants, eta=float(eta[0])),
            None,
            p["dt"] * p["steps"],
            p["dt"],
            scheme="implicit",
        )
        mode = modes[0]
        gap = float(
            np.abs(finals[mode].final.concentrations[0] - single.final.values).max()
        )
        out.check("matches_single_species", gap <= 1e-6, gap)
    return out


def _exp_phasefield(cfg: ExperimentConfig) -> ExperimentOutput:
    out = ExperimentOutput()
    p = cfg.parameters
    rng = np.random.default_rng(cfg.seed)
    u0 = p["amplitude"] * rng.normal(size=p["cells"])
    state = PhaseFieldState(0.0, p["length"], u0)
    solve = {"allen_cahn": allen_cahn_solve, "cahn_hilliard": cahn_hilliard_solve}[p["model"]]
    traj = solve(state, p["mobility"], p["steps"] * p["dt"], p["dt"], scheme="implicit")
    out.header = ["step", "time", "energy", "mean"]
    means = traj.extra["mean"]
    for k, t in zip(traj.snapshot_steps, traj.snapshot_times):
        out.rows.append((k, t, traj.energies[k], means[k]))
    out.check_descent("energy_nonincreasing", traj)
    if p["model"] == "cahn_hilliard":
        drift = float(np.abs(means - means[0]).max())
        out.check("mean_conserved", drift <= 1e-12, drift)
    return out


def _exp_particles(cfg: ExperimentConfig) -> ExperimentOutput:
    out = ExperimentOutput()
    p = cfg.parameters
    kind = p["potential"]
    if kind == "quadratic":
        stiffness = p["stiffness"]
        Vb = lambda x: 0.5 * stiffness * x**2
        grad_Vb = lambda x: stiffness * x
    else:
        Vb, grad_Vb = None, None
    lo, hi = p["domain"]
    grid = GridDensity1D(lo, hi, np.ones(p["cells"]))
    start = grid.with_values(
        np.exp(-grid.centers**2 / 0.5) + 1e-6
    ).normalized()
    positions = transport.quantiles(start, (np.arange(p["n"]) + 0.5) / p["n"])[:, None]
    sigma = math.sqrt(p["kT"] * p["mobility"])
    ens = ParticleEnsemble(
        positions=positions,
        seed=cfg.seed,
        grad_background=grad_Vb,
        A=p["mobility"],
        sigma=sigma,
    )
    _, traj = euler_maruyama(ens, p["dt"], p["t_end"], store_every=10**9)
    final = traj[-1][:, 0]
    out.header, out.rows = ["particle_id", "x"], list(enumerate(final))
    # what reproduces the run: seed, sizes, step and generator
    out.artifacts["metadata.json"] = {
        "seed": int(ens.seed),
        "n": ens.n,
        "dt": p["dt"],
        "T": p["t_end"],
        "A": ens.A.tolist(),
        "sigma": ens.sigma.tolist(),
        "generator_version": GENERATOR_VERSION,
    }
    out.check("all_finite", bool(np.isfinite(final).all()))
    # the histogram has no cell for a particle outside the domain and admits
    # at most empirical_density's share of them; past that the run is a
    # failed invariant, with no histogram to check
    lost = final.size - int(np.count_nonzero((final >= lo) & (final <= hi)))
    in_domain = lost <= _OUTSIDE_MAX_FRACTION * final.size
    out.check(
        "particles_in_domain", in_domain, lost / final.size,
        f"{lost} of {final.size} particles outside [{lo}, {hi}]",
    )
    if in_domain:
        hist = empirical_density(final, (lo, hi), p["cells"])
        out.check("histogram_mass_one", abs(hist.mass() - 1.0) <= 1e-12, hist.mass() - 1.0)
        if kind == "quadratic" and p["kT"] > 0.0 and p["mobility"] > 0.0:
            # the ensemble's own generator: diffusion kT * mobility, drift mobility * V';
            # the reference solve needs RT = kT > 0 and friction 1 / mobility < inf
            constants = PhysicalConstants.with_rt(p["kT"], eta=1.0 / p["mobility"])
            dt = p["t_end"] / PDE_CHECK_STEPS
            pde = fokker_planck_solve(start, constants, Vb, p["t_end"], dt, scheme="implicit")
            w2 = transport.w2_grid_1d(hist, pde.final)
            out.check("w2_to_pde_small", w2 <= 10.0 / math.sqrt(p["n"]), w2)
    out.metrics["generator_version"] = GENERATOR_VERSION
    out.metrics["A"] = p["mobility"]
    out.metrics["sigma"] = sigma
    return out


def _exp_ldp(cfg: ExperimentConfig) -> ExperimentOutput:
    out = ExperimentOutput()
    p = cfg.parameters
    mode = p["mode"]
    if mode == "coin":
        a = p["a"]
        rate = coin_rate(a)
        out.header = ["n", "tail_rate", "limit_rate", "error"]
        errors = []
        for n in [int(v) for v in p["n_values"]]:
            tail = coin_tail_exact(n, a)
            err = abs(tail - rate)
            errors.append(err)
            out.rows.append((n, tail, rate, err))
        out.check("error_decreasing", all(x > y for x, y in zip(errors, errors[1:])))
        out.check("final_error_small", errors[-1] <= 0.01, errors[-1])
        bound_ok = all(tail >= rate - math.log(n + 1) / n for n, tail, _, _ in out.rows)
        out.check("type_counting_lower_bound", bound_ok)
    elif mode == "sanov":
        mu = np.asarray(p["mu"], dtype=float)
        coeffs = np.asarray(p["constraint_coeffs"] or np.eye(mu.size)[0], dtype=float)
        constraint = HalfSpace(coeffs, p["constraint_bound"])
        out.header = ["n", "exact_rate", "entropy_infimum", "gap"]
        gaps = []
        for n in [int(v) for v in p["n_values"]]:
            res = sanov_exact(FiniteLdpProblem(mu=mu, n=n), constraint)
            gap = abs(res.exact_rate - res.entropy_infimum)
            gaps.append(gap)
            out.rows.append((n, res.exact_rate, res.entropy_infimum, gap))
        out.check("gap_decreasing", all(x > y for x, y in zip(gaps, gaps[1:])))
        out.check("final_gap_small", gaps[-1] <= 0.05, gaps[-1])
    else:  # varadhan
        mu = np.asarray(p["mu"], dtype=float)
        tilt = np.asarray(p["tilt"], dtype=float) if p["tilt"] else np.zeros(mu.size)
        table = varadhan_tilt(FiniteLdpProblem(mu=mu, n=p["n"], tilt=tilt))
        out.header = [f"type_{i}" for i in range(mu.size)] + ["exact_rate", "limit_rate"]
        rows = zip(table.types, table.exact_rate, table.limit_rate)
        out.rows = [(*row, exact, limit) for row, exact, limit in rows]
        out.check("limit_rate_nonnegative", float(table.limit_rate.min()) >= -1e-12)
        target = mu * np.exp(-tilt)
        target /= target.sum()
        gap = float(np.abs(table.argmin_exact() - target).max())
        out.check("argmin_matches_tilted_boltzmann", gap <= 0.05, gap)
    return out


def _exp_reversibility(cfg: ExperimentConfig) -> ExperimentOutput:
    out = ExperimentOutput()
    p = cfg.parameters
    cells, steps = p["cells"], p["steps"]
    grid = GridDensity1D(-3.0, 3.0, np.ones(cells))
    x = grid.centers

    def bump(c, w):
        return np.exp(-((x - c) ** 2) / (2 * w**2)) + 0.05

    start = np.stack([bump(-0.8, 0.5), bump(0.6, 0.7)])
    end = np.stack([bump(0.7, 0.8), bump(-0.5, 0.6)])
    ts = np.linspace(0.0, 1.0, steps + 1)
    path1 = np.array([(1 - t) * start + t * end for t in ts])

    def detour(t):
        t0, t1 = min(1.0, 2 * t), max(0.0, 2 * t - 1)
        snap = start.copy()
        snap[0] = (1 - t0) * start[0] + t0 * end[0]
        snap[1] = (1 - t1) * start[1] + t1 * end[1]
        return snap

    path2 = np.array([detour(t) for t in ts])
    coupling = lambda r: p["coupling_strength"] * np.exp(-(r**2))
    mobility = np.asarray(p["mobility"], dtype=float)

    prop_sigma = np.sqrt(p["kT"] * mobility)
    c1p, c2p = reversibility_check(
        mobility, prop_sigma, path1, path2,
        domain=(-3.0, 3.0), coupling=coupling,
    )
    ratio_breaker = np.array([1.0, math.sqrt(2.0)]) * prop_sigma
    c1n, c2n = reversibility_check(
        mobility, ratio_breaker, path1, path2,
        domain=(-3.0, 3.0), coupling=coupling,
    )
    out.header = ["case", "crossterm_path1", "crossterm_path2", "gap"]
    out.rows = [
        ("proportional", c1p, c2p, abs(c1p - c2p)),
        ("nonproportional", c1n, c2n, abs(c1n - c2n)),
    ]
    out.check("proportional_agreement", abs(c1p - c2p) <= 1e-6, abs(c1p - c2p))
    out.check("nonproportional_gap", abs(c1n - c2n) > 1e-3, abs(c1n - c2n))
    return out


_LAW = Field("number_list", [0.5, 0.5], within="(0, inf)", items="[1, inf)")
# ldp sample sizes; the coin's default exceeds the exact enumerations' limit
_N_VALUES = Field("number_list", [100.0, 500.0, 2000.0], within="[1, 1e5]", items="[1, inf)")

# one record per experiment: parse_config, canonical_json and run read nothing else of it
EXPERIMENTS: dict[str, _Experiment] = {
    "entropy": _Experiment(_exp_entropy, {
        "pairs": Field(int, 1000, within="[0, inf)"),
        "alphabet": Field(int, 6, within="[1, inf)"),
    }, seeded=True),
    "transport": _Experiment(_exp_transport, {
        "n_atoms": Field(int, 6, within="[1, inf)"),
        "instances": Field(int, 50, within="[0, inf)"),
        "dim": Field(int, 1, within="[0, inf)"),
    }, seeded=True),
    "jko": _Experiment(_exp_jko, {
        "cells": Field(int, 400, within="[2, inf)"),
        "domain": Field("interval", [-6.0, 6.0]),
        "time_step": Field(float, 1e-3, within="(0, inf)"),
        "steps": Field(int, 100, within="[1, inf)"),
        "sigma0_sq": Field(float, 1.0, within="(0, inf)"),
    }, check=_check_jko),
    "fokker_planck": _Experiment(_exp_fokker_planck, {
        "cells": Field(int, 200, within="[2, inf)"),
        "domain": Field("interval", [0.0, 5.0]),
        "potential": Field(str, "linear", choices={
            "linear": {"slope": Field(float, 1.0), "check_boltzmann": Field(bool, True)},
            "quadratic": {"slope": Field(float, 1.0)},
            "none": {},
        }),
        "t_end": Field(float, 50.0, within="(0, inf)"),
        "dt": Field(float, 0.1, within="(0, inf)"),
        "initial_csv": Field(str, ""),
    }, constants=("rt", "eta", "c0"), check=_check_fokker_planck),
    "multicomponent": _Experiment(_exp_multicomponent, {
        "cells": Field(int, 64, within="[2, inf)"),
        "alpha": Field("number_list", [2.0, 2.0], within="(0, inf)", items="[2, 2]"),
        "eta": Field("number_list", [1.0, 1.0], within="(0, inf)", items="[2, 2]"),
        "dt": Field(float, 1e-3, within="(0, inf)"),
        "steps": Field(int, 10, within="[1, inf)"),
        "mode": Field(str, "both", choices=("both", "global", "local")),
        "amplitude": Field(float, 0.08),
    }, constants=("rt", "c0"), check=_check_multicomponent),
    "phasefield": _Experiment(_exp_phasefield, {
        "model": Field(str, "cahn_hilliard", choices=("allen_cahn", "cahn_hilliard")),
        "cells": Field(int, 64, within="[4, inf)"),
        "length": Field(float, 64.0, within="(0, inf)"),
        "mobility": Field(float, 1.0, within="(0, inf)"),
        "dt": Field(float, 1.0, within="(0, inf)"),
        "steps": Field(int, 400, within="[1, inf)"),
        "amplitude": Field(float, 0.05),
    }, seeded=True),
    "particles": _Experiment(_exp_particles, {
        "n": Field(int, 1000, within="[1, inf)"),
        "dt": Field(float, 2e-3, within="(0, inf)"),
        "t_end": Field(float, 1.0, within="(0, inf)"),
        "potential": Field(str, "quadratic", choices={
            "quadratic": {"stiffness": Field(float, 1.0)},
            "none": {},
        }),
        "kT": Field(float, 1.0, within="[0, inf)"),
        "mobility": Field(float, 1.0, within="[0, inf)"),
        "cells": Field(int, 100, within="[2, inf)"),
        "domain": Field("interval", [-6.0, 6.0]),
    }, seeded=True, check=_check_step_count),
    "ldp": _Experiment(_exp_ldp, {
        "mode": Field(str, "coin", choices={
            "coin": {"a": Field(float, 0.6, within="[0.5, 1]"), "n_values": _N_VALUES},
            "sanov": {"mu": _LAW, "constraint_coeffs": Field("number_list", []),
                      "constraint_bound": Field(float, 0.6),
                      "n_values": replace(
                          _N_VALUES, default=[20.0, 60.0, float(ENUMERATION_MAX_N)])},
            "varadhan": {"mu": _LAW, "tilt": Field("number_list", []),
                         "n": Field(int, ENUMERATION_MAX_N, within="[1, inf)")},
        }),
    }, check=_check_ldp),
    "reversibility": _Experiment(_exp_reversibility, {
        "cells": Field(int, 80, within="[2, inf)"),
        "steps": Field(int, 60, within="[1, inf)"),
        "kT": Field(float, 1.3, within="(0, inf)"),
        "mobility": Field("number_list", [1.0, 2.0], within="(0, inf)", items="[2, 2]"),
        "coupling_strength": Field(float, 1.0),
    }),
}

# the top level of a config; "parameters" follows the experiment's schema
TOP_LEVEL: dict[str, Field] = {
    "experiment": Field(str, required=True, choices=tuple(sorted(EXPERIMENTS))),
    "parameters": Field(dict, {}),
    "constants": Field(dict, {}),
    "output_dir": Field(str, "."),
    "seed": Field("uint64", 0),
}


def run(config: ExperimentConfig) -> int:
    """Execute one experiment; write result.csv and summary.json.

    Returns 0 on success, 3 on a runtime model error, 4 if any built-in
    invariant failed.
    """
    config.output_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    wall = None
    status = EXIT_OK
    error_detail = None
    output = None
    try:
        output = EXPERIMENTS[config.experiment].body(config)
        wall = time.perf_counter() - started
        measures.write_table(config.output_dir / "result.csv", output.header, output.rows)
        for name, record in output.artifacts.items():
            measures.write_json(config.output_dir / name, record)
    except Exception as exc:  # model or output failure; recorded, nonzero exit
        status = EXIT_RUNTIME
        error_detail = f"{type(exc).__name__}: {exc}"
    if wall is None:
        wall = time.perf_counter() - started

    summary: dict[str, Any] = {
        "experiment": config.experiment,
        "config_hash": config.config_hash(),
        "library_version": __version__,
        "seed": config.seed,
        "wall_time_s": wall,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": _scipy_version,
        },
        "invariants": {},
    }
    if output is not None:
        summary["invariants"] = {
            name: {"passed": inv.passed, "value": inv.value, "detail": inv.detail}
            for name, inv in output.invariants.items()
        }
        summary.update({k: v for k, v in output.metrics.items()})
        if status == EXIT_OK and not output.all_passed:
            status = EXIT_INVARIANT
    if error_detail is not None:
        summary["error"] = error_detail
    summary["status"] = status
    measures.write_json(config.output_dir / "summary.json", summary)
    return status


def validate(path) -> tuple[int, list[str]]:
    """Strict-parse report without execution: (status, diagnostics)."""
    try:
        load_config(path)
    except ConfigError as exc:
        return EXIT_CONFIG, exc.diagnostics
    return EXIT_OK, ["ok"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gradflow", description="run or validate gradflow experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute one experiment")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--out", default=None, help="override output_dir")
    run_p.add_argument("--seed", type=int, default=None, help="override seed")
    val_p = sub.add_parser("validate", help="strict-parse a config without running")
    val_p.add_argument("--config", required=True)
    args = parser.parse_args(argv)

    if args.command == "validate":
        status, diagnostics = validate(args.config)
        for line in diagnostics:
            print(line)
        return status

    overrides = {}
    if args.out is not None:
        overrides["output_dir"] = args.out
    if args.seed is not None:
        overrides["seed"] = args.seed
    try:
        config = load_config(args.config, overrides=overrides)
    except ConfigError as exc:
        for line in exc.diagnostics:
            print(line, file=sys.stderr)
        return EXIT_CONFIG
    status = run(config)
    if status == EXIT_OK:
        print(f"{config.experiment}: ok ({config.output_dir / 'summary.json'})")
    else:
        print(
            f"{config.experiment}: exit status {status}"
            f" (see {config.output_dir / 'summary.json'})",
            file=sys.stderr,
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
