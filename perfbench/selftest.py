"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py [--full]

Runs every workload (at the tiny self-test size unless ``--full``) and checks:

* the result line has exactly the keys of the result format, and every metric of
  BENCHMARK.json is emitted with its unit, untraced and traced;
* the layers' self times add up to the traced pass wall time, less the
  harness's own time;
* the exact counts repeat across two runs with the same seed, and every
  gate passes with a second seed;
* a deliberately failing check is counted in ``failed`` and lowers
  ``verified_frac`` instead of being dropped.

Exits 0 when everything holds and prints one line per failed check otherwise.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]


def bench(workload, seed, trace, *flags):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), *flags]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=HERE.parent)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    size = [] if "--full" in sys.argv else ["--tiny"]
    problems = []

    def check(ok, what):
        if not ok:
            problems.append(what)
            print("FAIL", what, flush=True)

    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, spec in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            result = bench(workload, 1, trace, *size)
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{workload} trace {trace}: result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload} trace {trace}: not correct")
            metrics = result["metrics"]
            check(sorted(metrics) == sorted(m["name"] for m in spec),
                  f"{workload} trace {trace}: metric names differ from BENCHMARK.json")
            for m in spec:
                got = metrics.get(m["name"], {})
                check(got.get("unit") == m["unit"] and math.isfinite(got.get("value", math.nan)),
                      f"{workload} trace {trace}: {m['name']} = {got}")
            if trace == 0:
                check(metrics["verified_frac"]["value"] == 1.0, f"{workload}: verified_frac < 1")
                continue
            layers = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
            wall = metrics["trace.wall_s"]["value"]
            check(abs(layers - wall) <= 1e-9 * wall,
                  f"{workload}: self times sum to {layers}, traced wall is {wall}")

            again = bench(workload, 1, 1, *size)
            for name in COUNTS:
                check(again["metrics"][name]["value"] == metrics[name]["value"],
                      f"{workload}: {name} differs between two runs with seed 1")
            other = bench(workload, 2, 1, *size)
            check(other["correct"] and other["failed"] == 0, f"{workload}: seed 2 fails a gate")

        broken = bench(workload, 1, 0, *size, "--inject-failure")
        frac = broken["metrics"]["verified_frac"]["value"]
        check(not broken["correct"] and broken["failed"] >= 1,
              f"{workload}: injected failure not counted ({broken['failed']} failed)")
        check(frac == (broken["attempted"] - broken["failed"]) / broken["attempted"] < 1.0,
              f"{workload}: verified_frac {frac} ignores the injected failure")
        print(f"{workload}: ok" if not problems else f"{workload}: checked", flush=True)

    print("selftest passed" if not problems else f"selftest: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
