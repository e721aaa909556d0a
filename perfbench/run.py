"""gradflow benchmark: time to a verified solution on three workloads.

    python3 perfbench/run.py --workload {fp_relax,cli_suite,mean_field} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from its ``src/``.
A closed loop with one caller, pinned to one CPU: samples run one after
another, each in a fresh process (worker.py) that imports gradflow, sets up
the workload and runs one timed pass, the way a ``gradflow run`` invocation
does.  Samples start while they are expected to end within ``--seconds``, at
least three of them.

``--trace 0`` reports the end-to-end metrics: the mean pass wall time over
samples, the medians of set-up time and peak RSS, and the share of
operations that passed every check.  The two times are scaled to a reference machine speed, measured
by a probe (a fresh interpreter importing numpy and scipy, no gradflow) run
just before and just after each sample; unscaled medians are in the record
line.  ``--trace 1`` alternates untraced and traced samples and
reports the per-layer metrics of the traced sample with the median traced
wall time, plus the tracing overhead.  The last line of standard output is
the result object; the line before it records versions, thread settings and
every operation's outcome.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
WORKLOADS = ("fp_relax", "cli_suite", "mean_field")
MIN_SAMPLES = 3
SAMPLE_TIMEOUT_S = 90
# One BLAS/OpenMP thread (at most nproc): the caller is a single process,
# and a shared machine then adds no thread-count noise.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
THREADS = 1
# Machine-speed probe: a fresh interpreter importing what gradflow imports,
# with no gradflow code.  On a shared machine set-up and pass times drift
# with it by up to 1.6x within minutes; times are scaled to a machine on
# which the probe takes PROBE_REF_S.
PROBE = "import numpy, scipy.linalg, scipy.optimize, scipy.special"
PROBE_REF_S = 0.5


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _sample(args, run_dir: Path, index: int, env: dict, *, traced=False, warmup=False) -> dict:
    """Spawn one worker, wait for it, return its report."""
    report = run_dir / f"sample{index}.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--src", str(ROOT / "src"), "--workdir", str(run_dir / f"work{index}"),
        "--report", str(report),
    ]
    if traced:
        cmd += ["--trace-out", str(run_dir / f"spans{index}.npz")]
    if warmup:
        cmd.append("--warmup")
    if args.tiny:
        cmd.append("--tiny")
    if args.inject_failure:
        cmd.append("--inject-failure")
    cmd += ["--spawned", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, timeout=SAMPLE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"sample {index} exited with status {proc.returncode}")
    if warmup:
        return {}
    return dict(json.loads(report.read_text()), index=index, traced=traced)


def _probe(env: dict) -> float:
    """Seconds to start a fresh interpreter and import numpy and scipy."""
    started = time.monotonic()
    subprocess.run([sys.executable, "-c", PROBE], env=env, check=True, timeout=SAMPLE_TIMEOUT_S)
    return time.monotonic() - started


def _ops(samples) -> tuple[int, int]:
    ops = [op for s in samples for op in s["ops"]]
    return len(ops), sum(not op["ok"] for op in ops)


def _end_to_end(samples) -> dict:
    attempted, failed = _ops(samples)
    return {
        # the mean, not the median: the machine's slow and fast phases make
        # per-sample times two-humped, and the median jumps between the humps
        "wall_s": (statistics.fmean(s["pass_s"] * s["speed"] for s in samples), "s"),
        "setup_s": (statistics.median(s["setup_s"] * s["speed"] for s in samples), "s"),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in samples), "MB"),
        "verified_frac": ((attempted - failed) / attempted, "ratio"),
    }


def _per_layer(samples, run_dir: Path, workload: str) -> tuple[dict, bool]:
    """Metrics of the median traced sample, whose spans are kept; counts must
    agree across traced samples."""
    import tracing

    plain = [s for s in samples if not s["traced"]]
    traced = sorted((s for s in samples if s["traced"]), key=lambda s: s["per_layer"]["trace.wall_s"])
    median_sample = traced[(len(traced) - 1) // 2]
    shutil.move(run_dir / f"spans{median_sample['index']}.npz", OUT / f"spans-{workload}.npz")
    chosen = median_sample["per_layer"]
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    counts_agree = all(
        s["per_layer"][name] == chosen[name]
        for s in traced for name, unit in units.items() if unit == "count"
    )
    plain_wall = statistics.median(s["pass_s"] for s in plain)
    values = dict(chosen)
    values["proc.cpu_s"] = statistics.median(s["cpu_s"] for s in plain)
    values["proc.cpu_util"] = statistics.median(s["cpu_s"] / s["pass_s"] for s in plain)
    values["trace.overhead_frac"] = (
        statistics.median(s["per_layer"]["trace.wall_s"] for s in traced) / plain_wall - 1.0
    )
    return {name: (values[name], unit) for name, unit in units.items()}, counts_agree


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="self-test size")
    parser.add_argument("--inject-failure", action="store_true",
                        help="make one check per pass fail (self-test)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gradflow" / "__init__.py").is_file():
        print(f"no gradflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # on SIGTERM the running sample is killed and reaped before the run exits
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    nproc = len(os.sched_getaffinity(0))
    # probe and samples share one CPU, so the probe sees the contention they see
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = dict(os.environ, **{var: str(THREADS) for var in THREAD_VARS})
    # users run from compiled bytecode; the warm-up sample writes it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        # fills the bytecode and page caches, which users have after a first install
        _sample(args, run_dir, 0, env, warmup=True)
        samples, took = [], []
        started = time.monotonic()
        probe = _probe(env)
        # start another round only while it is expected to end within --seconds
        while len(took) < (1 if args.trace else MIN_SAMPLES) or (
            time.monotonic() - started + statistics.median(took) <= args.seconds
        ):
            round_started = time.monotonic()
            plain = _sample(args, run_dir, len(samples) + 1, env)
            samples.append(plain)
            if args.trace:
                samples.append(_sample(args, run_dir, len(samples) + 1, env, traced=True))
            # the probes just before and after the sample give the machine's speed
            after = _probe(env)
            plain["speed"] = PROBE_REF_S / (0.5 * (probe + after))
            probe = after
            took.append(time.monotonic() - round_started)
        counts_agree = True
        if args.trace:
            metrics, counts_agree = _per_layer(samples, run_dir, args.workload)
        else:
            metrics = _end_to_end(samples)
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted, failed = _ops(samples)
    hashes = [{op["op"]: op["result_sha256"] for op in s["ops"] if "result_sha256" in op}
              for s in samples]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "samples": len(samples),
        "threads": {var: env[var] for var in THREAD_VARS},
        "nproc": nproc,
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "versions": samples[0]["versions"],
        "unscaled_s": {
            key: statistics.median(s[key] for s in samples if not s["traced"])
            for key in ("pass_s", "setup_s")
        },
        "counts_repeat": counts_agree,
        "result_sha256": hashes[0],
        "result_sha256_repeat": all(h == hashes[0] for h in hashes),
        "failures": [op for s in samples for op in s["ops"] if not op["ok"]],
        "per_sample": [
            {k: s.get(k) for k in ("setup_s", "pass_s", "speed", "cpu_s", "peak_rss_mb", "traced")}
            for s in samples
        ],
    }
    result = {
        "correct": failed == 0 and counts_agree,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    lines = json.dumps(info) + "\n" + json.dumps(result) + "\n"
    (OUT / f"last-{args.workload}-trace{args.trace}.jsonl").write_text(lines)
    sys.stdout.write(lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
