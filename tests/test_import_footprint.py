"""`import gradflow.cli` and the default runs load numpy and scipy.linalg only.

Each `gradflow run` pays its imports before any solver starts, so the
scipy submodules that default runs never call stay unloaded: scipy.optimize
is imported where dim >= 2 transport or a Sanov half-space first needs it,
and scipy.special not at all.  The check runs in a fresh interpreter, since
this test process has long since imported scipy.stats.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import gradflow

UNLOADED = ("scipy.optimize", "scipy.special")
DEFAULT_RUNS = ("fokker_planck", "transport", "ldp")

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
