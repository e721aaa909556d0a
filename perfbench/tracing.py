"""Span tracing of the gradflow layers, applied from outside the library.

Each layer is one module of the package.  ``install`` replaces the layer's
functions at the names their callers look up (``gradflow.cli.fokker_planck_solve``,
``gradflow.models.logarithmic_interface_mean``, ``gradflow.transport.w2_atomic``,
...) with wrappers that record one span per call: name, start, end, parent
span and operation id.  Spans stay in flat in-memory arrays until the worker
writes them out after its pass.  A few wrappers also read exact counts from
return values or array shapes (steps taken, Newton iterations, pair kernel
evaluations, bytes handed to the finite-volume kernels).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import json
import os
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("measures", "transport", "gradient_flow", "models", "particles", "cli", "_grid")
# metric names must start with a letter or a digit
PREFIX = {layer: layer.lstrip("_") for layer in LAYERS}

# private functions timed as well, because another layer or a per-layer metric needs them
PRIVATE_TRACED = {"gradient_flow._quantile_nodes"}

WRITERS = (
    "cli.write_result_csv",
    "transport.write_transport_json",
    "gradient_flow.write_jko_diagnostics_json",
    "particles.write_ensemble_metadata",
)
LDP = (
    "particles.coin_rate",
    "particles.coin_tail_exact",
    "particles.sanov_exact",
    "particles.varadhan_tilt",
)

# (name, unit, better); every traced run reports all of them
PER_LAYER = (
    [(f"{PREFIX[l]}.{m}", u, "lower") for l in LAYERS for m, u in
     (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))]
    + [
        ("harness.self_s", "s", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("models.fp_steps", "count", "lower"),
        ("models.fp_step_us", "us", "lower"),
        ("models.multicomponent_steps", "count", "lower"),
        ("models.multicomponent_step_us", "us", "lower"),
        ("models.phasefield_steps", "count", "lower"),
        ("models.phasefield_step_us", "us", "lower"),
        ("grid.logmean_calls", "count", "lower"),
        ("grid.logmean_s", "s", "lower"),
        ("grid.poisson_calls", "count", "lower"),
        ("grid.poisson_s", "s", "lower"),
        ("grid.bytes_computed", "B", "lower"),
        ("gradient_flow.jko_steps", "count", "lower"),
        ("gradient_flow.jko_step_ms", "ms", "lower"),
        ("gradient_flow.newton_iters", "count", "lower"),
        ("gradient_flow.quantile_s", "s", "lower"),
        ("gradient_flow.local_steps", "count", "lower"),
        ("gradient_flow.local_step_us", "us", "lower"),
        ("gradient_flow.derivative_calls", "count", "lower"),
        ("gradient_flow.edi_s", "s", "lower"),
        ("particles.em_steps", "count", "lower"),
        ("particles.em_step_ms", "ms", "lower"),
        ("particles.pair_evals", "count", "lower"),
        ("particles.rate_functional_s", "s", "lower"),
        ("particles.ldp_s", "s", "lower"),
        ("measures.relative_entropy_calls", "count", "lower"),
        ("measures.push_forward_calls", "count", "lower"),
        ("measures.grid_density_new", "count", "lower"),
        ("transport.w2_atomic_s", "s", "lower"),
        ("transport.w2_bruteforce_s", "s", "lower"),
        ("transport.w2_grid_s", "s", "lower"),
        ("cli.parse_s", "s", "lower"),
        ("cli.write_s", "s", "lower"),
        ("cli.result_bytes", "B", "lower"),
        ("proc.cpu_s", "s", "lower"),
        ("proc.cpu_util", "ratio", "higher"),
        ("trace.spans", "count", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
)


# -- count hooks: (counts, args, kwargs, result) --------------------------------


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _steps_of(key):
    def hook(counts, args, kwargs, out):
        counts[key] += out.energies.size - 1

    return hook


def _em_hook(counts, args, kwargs, out):
    ensemble, dt = _arg(args, kwargs, 0, "ensemble"), _arg(args, kwargs, 1, "dt")
    steps = int(round(out[0][-1] / dt))  # the time axis ends at steps * dt
    counts["particles.em_steps"] += steps
    if ensemble.grad_interaction is not None:
        counts["particles.pair_evals"] += steps * ensemble.n**2


def _rate_functional_hook(counts, args, kwargs, out):
    path, vi = _arg(args, kwargs, 0, "path"), _arg(args, kwargs, 4, "Vi")
    if vi is not None and hasattr(path, "__len__") and len(path) > 1:
        counts["particles.pair_evals"] += (len(path) - 1) * path[0].cells ** 2


def _jko_hook(counts, args, kwargs, out):
    counts["gradient_flow.newton_iters"] += out[1].iters


def _result_csv_hook(counts, args, kwargs, out):
    counts["cli.result_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _grid_bytes_hook(counts, args, kwargs, out):
    counts["grid.bytes_computed"] += out.nbytes + sum(
        a.nbytes for a in args if isinstance(a, np.ndarray)
    )


HOOKS = {
    "models.fokker_planck_solve": _steps_of("models.fp_steps"),
    "models.multicomponent_evolve": _steps_of("models.multicomponent_steps"),
    "models.allen_cahn_solve": _steps_of("models.phasefield_steps"),
    "models.cahn_hilliard_solve": _steps_of("models.phasefield_steps"),
    "gradient_flow.jko_step_detailed": _jko_hook,
    "particles.euler_maruyama": _em_hook,
    "particles.rate_functional": _rate_functional_hook,
    "cli.write_result_csv": _result_csv_hook,
}


class Tracer:
    """In-memory span recorder; spans of one process, single-threaded."""

    def __init__(self):
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.counts: Counter = Counter()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, span_name: str, hook=None):
        """``fn`` recording one span per call; ``hook`` adds counts from the result."""
        nid, open_span, close_span, counts = self._name_id(span_name), self._open, self._close, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_span(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                close_span(idx)
            if hook is not None:
                hook(counts, args, kwargs, out)
            return out

        traced.__traced__ = True
        return traced

    @contextlib.contextmanager
    def span(self, span_name: str):
        """A harness span (set-up, pass, operation); yields its index."""
        idx = self._open(self._name_id(span_name))
        try:
            yield idx
        finally:
            self._close(idx)

    def save(self, path) -> None:
        np.savez(
            path,
            span_names=np.array(json.dumps(self.span_names)),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )

    # -- analysis ---------------------------------------------------------------

    def window(self, first: int, last: int):
        """Durations, self times, layers and outermost flags of spans [first, last)."""
        name = np.frombuffer(self.name, dtype=np.int32)[first:last].copy()
        parent = np.frombuffer(self.parent, dtype=np.int32)[first:last] - first
        dur = np.frombuffer(self.end)[first:last] - np.frombuffer(self.start)[first:last]
        has_parent = parent >= 0
        p = np.where(has_parent, parent, 0)
        child = np.zeros(dur.size)
        np.add.at(child, p[has_parent], dur[has_parent])
        layer_of = np.array([_layer_index(n) for n in self.span_names], dtype=np.int64)
        layer = layer_of[name]
        # bitmask of the layers among each span's ancestors, by fixed-point iteration
        anc = np.zeros(dur.size, dtype=np.int64)
        while True:
            nxt = np.where(has_parent, anc[p] | (1 << layer[p]), 0)
            if np.array_equal(nxt, anc):
                break
            anc = nxt
        outermost = ((anc >> layer) & 1) == 0
        return name, dur, dur - child, layer, outermost

    def metrics(self, setup_idx: int, pass_idx: int) -> dict:
        """Per-layer metrics of the pass whose root span is ``pass_idx``.

        The ``proc.*`` and ``trace.overhead_frac`` metrics need the untraced
        samples and are added by run.py."""
        name, dur, self_t, layer, outermost = self.window(pass_idx, len(self.name))
        ids = {n: i for i, n in enumerate(self.span_names)}

        def calls(*names):
            return int(sum(np.count_nonzero(name == ids[n]) for n in names if n in ids))

        def busy(*names):
            return float(sum(dur[name == ids[n]].sum() for n in names if n in ids))

        def per_step(total_s, steps, scale):
            return total_s / steps * scale if steps else 0.0

        out = {}
        for i, l in enumerate(LAYERS):
            mine = layer == i
            out[f"{PREFIX[l]}.calls"] = int(mine.sum())
            out[f"{PREFIX[l]}.busy_s"] = float(dur[mine & outermost].sum())
            out[f"{PREFIX[l]}.self_s"] = float(self_t[mine].sum())
        out["harness.self_s"] = float(self_t[layer == len(LAYERS)].sum())
        out["trace.wall_s"] = float(dur[0])
        c = self.counts
        for key in ("models.fp_steps", "models.multicomponent_steps", "models.phasefield_steps",
                    "gradient_flow.newton_iters", "particles.em_steps", "particles.pair_evals",
                    "grid.bytes_computed", "cli.result_bytes"):
            out[key] = int(c[key])
        out["models.fp_step_us"] = per_step(
            busy("models.fokker_planck_solve"), c["models.fp_steps"], 1e6)
        out["models.multicomponent_step_us"] = per_step(
            busy("models.multicomponent_evolve"), c["models.multicomponent_steps"], 1e6)
        out["models.phasefield_step_us"] = per_step(
            busy("models.allen_cahn_solve", "models.cahn_hilliard_solve"),
            c["models.phasefield_steps"], 1e6)
        out["grid.logmean_calls"] = calls("_grid.logarithmic_interface_mean")
        out["grid.logmean_s"] = busy("_grid.logarithmic_interface_mean")
        out["grid.poisson_calls"] = calls("_grid.weighted_poisson_neumann")
        out["grid.poisson_s"] = busy("_grid.weighted_poisson_neumann")
        out["gradient_flow.jko_steps"] = calls("gradient_flow.jko_step_detailed")
        out["gradient_flow.jko_step_ms"] = per_step(
            busy("gradient_flow.jko_step_detailed"), out["gradient_flow.jko_steps"], 1e3)
        out["gradient_flow.quantile_s"] = busy("gradient_flow._quantile_nodes")
        out["gradient_flow.local_steps"] = calls("gradient_flow.local_step")
        out["gradient_flow.local_step_us"] = per_step(
            busy("gradient_flow.local_step"), out["gradient_flow.local_steps"], 1e6)
        out["gradient_flow.derivative_calls"] = calls("gradient_flow.derivative")
        out["gradient_flow.edi_s"] = busy("gradient_flow.edi_residual")
        out["particles.em_step_ms"] = per_step(
            busy("particles.euler_maruyama"), c["particles.em_steps"], 1e3)
        out["particles.rate_functional_s"] = busy("particles.rate_functional")
        out["particles.ldp_s"] = busy(*LDP)
        out["measures.relative_entropy_calls"] = calls("measures.relative_entropy")
        out["measures.push_forward_calls"] = calls("measures.push_forward")
        out["measures.grid_density_new"] = calls("measures.GridDensity1D")
        out["transport.w2_atomic_s"] = busy("transport.w2_atomic")
        out["transport.w2_bruteforce_s"] = busy("transport.w2_atomic_bruteforce")
        out["transport.w2_grid_s"] = busy("transport.w2_grid_1d")
        s_name, s_dur, *_ = self.window(setup_idx, pass_idx)
        out["cli.parse_s"] = float(s_dur[s_name == ids["cli.load_config"]].sum()) \
            if "cli.load_config" in ids else 0.0
        out["cli.write_s"] = busy(*WRITERS)
        out["trace.spans"] = int(dur.size)
        return out


def _layer_index(span_name: str) -> int:
    layer = span_name.split(".", 1)[0]
    return LAYERS.index(layer) if layer in LAYERS else len(LAYERS)


def install(tracer: Tracer) -> None:
    """Wrap every layer function at the names its callers look up.

    Cross-module bindings (``models.logarithmic_interface_mean`` imported from
    ``_grid``) are wrapped in the importing module; public functions are also
    wrapped in their own module, where ``module.function`` lookups and
    ``from module import function`` at call time find them.
    """
    import importlib

    modules = {l: importlib.import_module(f"gradflow.{l}") for l in LAYERS}
    home_of = {m.__name__: l for l, m in modules.items()}
    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if not inspect.isfunction(obj) or getattr(obj, "__traced__", False):
                continue
            home = home_of.get(obj.__module__)
            if home is None:
                continue
            if home == layer:
                public = not attr.startswith("_")
                if home == "_grid" or not (public or f"{home}.{attr}" in PRIVATE_TRACED):
                    continue
            span_name = f"{home}.{obj.__name__}"
            hook = _grid_bytes_hook if home == "_grid" else HOOKS.get(span_name)
            setattr(module, attr, tracer.wrap(obj, span_name, hook))

    grid_density = modules["measures"].GridDensity1D
    grid_density.__init__ = tracer.wrap(grid_density.__init__, "measures.GridDensity1D")

    # energies carry their evaluators as instance attributes; wrap them where
    # the grid free energies are built
    energy_cls = modules["gradient_flow"].EnergyFunctional
    build = energy_cls.__dict__["grid_free_energy"].__func__

    @functools.wraps(build)
    def grid_free_energy(cls, *args, **kwargs):
        energy = build(cls, *args, **kwargs)
        return dataclasses.replace(
            energy,
            value=tracer.wrap(energy.value, "gradient_flow.energy_value"),
            derivative=tracer.wrap(energy.derivative, "gradient_flow.derivative"),
        )

    energy_cls.grid_free_energy = classmethod(grid_free_energy)
