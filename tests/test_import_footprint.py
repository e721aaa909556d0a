"""`import gradflow.cli` and the default runs load numpy and the top-level
scipy package only.

Each `gradflow run` pays its imports before any solver starts, so the
scipy submodules that default runs never call stay unloaded.  The banded
solves of the implicit steps call scipy's compiled LAPACK wrappers, which
`gradient_flow` loads from `scipy/linalg/_flapack` without running the
`scipy.linalg` package initializer; scipy.optimize is imported where
dim >= 2 transport or a Sanov half-space first needs it, and scipy.special
not at all.  The check runs in a fresh interpreter, since this test process
has long since imported scipy.stats.  In that interpreter, a later
`import scipy.linalg` must find the routines already loaded: the same
solves give the same bits before and after it, and the same bits as
`scipy.linalg.solve_banded`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import gradflow

UNLOADED = ("scipy.linalg", "scipy.optimize", "scipy.special")
# the four defaults that solve banded systems, and the two whose other
# options import scipy.optimize
DEFAULT_RUNS = ("fokker_planck", "jko", "multicomponent", "phasefield", "transport", "ldp")

SCRIPT = """
import json, sys
from pathlib import Path

unloaded, runs, out = json.loads(sys.argv[1]), json.loads(sys.argv[2]), Path(sys.argv[3])
from gradflow import cli
report = {"after_import": [m for m in unloaded if m in sys.modules], "status": {}}
for name in runs:
    config = cli.parse_config({"experiment": name, "output_dir": str(out / name)})
    report["status"][name] = cli.run(config)
report["after_runs"] = [m for m in unloaded if m in sys.modules]

import numpy as np
from gradflow.gradient_flow import _solve_banded

rng = np.random.default_rng(3)
systems = []
for band in (1, 2):
    ab = rng.uniform(-1.0, 1.0, size=(2 * band + 1, 50))
    ab[band] += 2.0 * band + 1.0
    systems.append((band, ab, rng.normal(size=50)))
before = [_solve_banded(ab, b).tobytes() for _, ab, b in systems]

import scipy.linalg

report["same_after_scipy_linalg"] = [_solve_banded(ab, b).tobytes() == x for (_, ab, b), x in zip(systems, before)]
report["same_as_solve_banded"] = [
    scipy.linalg.solve_banded((band, band), ab, b).tobytes() == x for (band, ab, b), x in zip(systems, before)
]
print(json.dumps(report))
"""


def test_cli_import_and_default_runs_leave_optimize_and_special_unloaded(tmp_path):
    src = str(Path(gradflow.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(UNLOADED), json.dumps(DEFAULT_RUNS), str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["after_import"] == []
    assert report["status"] == {name: 0 for name in DEFAULT_RUNS}
    assert report["after_runs"] == []
    assert report["same_after_scipy_linalg"] == [True, True]
    assert report["same_as_solve_banded"] == [True, True]
