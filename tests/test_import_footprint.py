"""`import gradflow.cli` and the nine default runs load numpy and, of scipy,
its compiled LAPACK wrappers only.

Each `gradflow run` pays its imports before any solver starts, so the parts
of scipy that default runs never call stay unloaded, its package
initializer included.  The banded solves of the implicit steps call
scipy's compiled LAPACK wrappers, which `gradient_flow` loads from
`scipy/linalg/_flapack` without running `scipy/__init__.py` or the
`scipy.linalg` initializer, and `summary.json` reads scipy's version from
`scipy/version.py` the same way; scipy.optimize is imported where dim >= 2
transport or a Sanov half-space first needs it, and scipy.special not at
all.  The check runs in a fresh interpreter, since this test process has
long since imported scipy.stats.  In that interpreter, a later
`import scipy.linalg` must find the routines already loaded: they are the
objects `scipy.linalg.lapack` exports, the same solves give the same bits
before and after it, and the same bits as `scipy.linalg.solve_banded`; and
the version written to `summary.json` is `scipy.__version__`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import gradflow

UNLOADED = ("scipy", "scipy.linalg", "scipy.optimize", "scipy.special")
DEFAULT_RUNS = (
    "entropy",
    "transport",
    "jko",
    "fokker_planck",
    "multicomponent",
    "phasefield",
    "particles",
    "ldp",
    "reversibility",
)

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
report["scipy_modules"] = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

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
from gradflow import gradient_flow

report["same_routines"] = scipy.linalg.lapack.dgtsv is gradient_flow.dgtsv
summary = json.loads((out / runs[0] / "summary.json").read_text())
report["scipy_version"] = summary["versions"]["scipy"] == scipy.__version__
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
    assert report["scipy_modules"] == ["scipy.linalg._flapack"]
    assert report["same_routines"]
    assert report["scipy_version"]
    assert report["same_after_scipy_linalg"] == [True, True]
    assert report["same_as_solve_banded"] == [True, True]
