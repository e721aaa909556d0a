"""One benchmark sample: a fresh process that sets up a workload and runs one pass.

Started by run.py, never by hand.  Like a ``gradflow run`` invocation, each
sample pays its own imports and set-up; ``setup_s`` runs from the moment the
parent spawned the process to the first solver call.  The report goes to the
JSON file named by ``--report``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _versions() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--src", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace-out", default=None, help="trace this sample; write spans here")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--inject-failure", action="store_true")
    parser.add_argument("--warmup", action="store_true", help="import only, then exit")
    args = parser.parse_args()

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import gradflow.cli  # noqa: F401  (imports every layer)

    if not Path(gradflow.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"gradflow was imported from {gradflow.__file__}, not from {src}")
    if args.warmup:
        return 0

    import tracing
    import workloads

    tracer = None
    span = lambda name: contextlib.nullcontext()  # noqa: E731
    if args.trace_out:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        span = tracer.span
    ctx = workloads.Context(args.seed, args.tiny, args.inject_failure, Path(args.workdir))
    with span("harness.setup") as setup_idx:
        ops = workloads.WORKLOADS[args.workload](ctx)
    setup_s = time.monotonic() - args.spawned

    records = []
    cpu0, t0 = time.process_time(), time.perf_counter()
    with span("harness.pass") as pass_idx:
        for op_id, (name, op) in enumerate(ops):
            if tracer is not None:
                tracer.op_id = op_id
            with span(f"harness.op.{name}"):
                records.append(_attempt(name, op))
    pass_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0

    report = {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": records,
        "versions": _versions(),
    }
    if tracer is not None:
        report["per_layer"] = tracer.metrics(setup_idx, pass_idx)
        tracer.save(args.trace_out)
    Path(args.report).write_text(json.dumps(report))
    return 0


def _attempt(name, op) -> dict:
    try:
        gates, info = op()
    except Exception:  # a raising operation is a failed operation
        return {"op": name, "ok": False, "error": traceback.format_exc(limit=3)}
    failed = {k: v for k, (ok, v) in gates.items() if not ok}
    return {"op": name, "ok": not failed, "failed_gates": failed, **info}


if __name__ == "__main__":
    sys.exit(main())
