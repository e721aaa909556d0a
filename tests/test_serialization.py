"""Format checks for the files each experiment writes through `gradflow run`.

Only `measures` (the encoding) and `cli` (each experiment's file layout)
write files, so the formats are checked on the run's own output directory.
"""

import json

import pytest

from gradflow.cli import EXIT_OK, main
from gradflow.particles import GENERATOR_VERSION


def run_experiment(tmp_path, experiment, parameters, seed=None):
    obj = {"experiment": experiment, "parameters": parameters}
    if seed is not None:
        obj["seed"] = seed
    config = tmp_path / f"{experiment}.json"
    config.write_text(json.dumps(obj))
    out_dir = tmp_path / experiment
    assert main(["run", "--config", str(config), "--out", str(out_dir)]) == EXIT_OK
    return out_dir


def csv_lines(out_dir):
    return (out_dir / "result.csv").read_text().splitlines()


class TestTransportSerialization:
    def test_plan_record_fields(self, tmp_path, capsys):
        out_dir = run_experiment(tmp_path, "transport", {"n_atoms": 4, "instances": 2})
        capsys.readouterr()
        records = json.loads((out_dir / "transport.json").read_text())
        rows = [line.split(",") for line in csv_lines(out_dir)[1:]]
        for record, row in zip(records, rows):
            assert set(record) == {"n", "cost", "permutation"}
            assert record["n"] == 4
            assert sorted(record["permutation"]) == [0, 1, 2, 3]
            # the record's cost is the plan cost written in result.csv
            assert record["cost"] == float(row[2])

    def test_transport_json(self, tmp_path, capsys):
        out_dir = run_experiment(tmp_path, "transport", {"n_atoms": 2, "instances": 3})
        capsys.readouterr()
        records = json.loads((out_dir / "transport.json").read_text())
        assert len(records) == 3
        assert records[0]["n"] == 2


class TestTrajectoryCsv:
    def test_jko_diagnostics_json(self, tmp_path, capsys):
        out_dir = run_experiment(tmp_path, "jko", {"cells": 60, "steps": 3})
        capsys.readouterr()
        records = json.loads((out_dir / "jko_diagnostics.json").read_text())
        assert len(records) == 3
        assert all(set(r) == {"iters", "grad_norm", "w2_sq", "energy"} for r in records)
        assert all(r["grad_norm"] <= 1e-9 for r in records)


class TestModelCsv:
    def test_fokker_planck_stream(self, tmp_path, capsys):
        parameters = {
            "cells": 64,
            "domain": [-4.0, 4.0],
            "potential": "none",
            "t_end": 0.02,
            "dt": 1e-3,
        }
        out_dir = run_experiment(tmp_path, "fokker_planck", parameters)
        capsys.readouterr()
        lines = csv_lines(out_dir)
        assert lines[0] == "snapshot,time,energy,mass"
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        assert rows[0][1] == 0.0
        assert rows[-1][1] == pytest.approx(0.02, rel=1e-12)
        masses = [row[3] for row in rows]
        assert max(abs(m - masses[0]) for m in masses) <= 1e-12

    def test_multicomponent_stream_includes_constraint(self, tmp_path, capsys):
        parameters = {"cells": 32, "dt": 1e-5, "steps": 20, "mode": "local"}
        out_dir = run_experiment(tmp_path, "multicomponent", parameters)
        capsys.readouterr()
        lines = csv_lines(out_dir)
        assert lines[0] == "mode,step,time,energy,mass,constraint_max_violation"
        assert all(line.startswith("local,") for line in lines[1:])
        violations = [float(line.split(",")[5]) for line in lines[1:]]
        assert max(violations) <= 1e-8


class TestParticleSerialization:
    PARAMETERS = {"n": 5, "t_end": 0.1, "cells": 20}

    def test_snapshot_csv(self, tmp_path, capsys):
        out_dir = run_experiment(tmp_path, "particles", self.PARAMETERS)
        capsys.readouterr()
        lines = csv_lines(out_dir)
        assert lines[0] == "particle_id,x"
        assert len(lines) == 6
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2", "3", "4"]

    def test_metadata_json(self, tmp_path, capsys):
        out_dir = run_experiment(tmp_path, "particles", self.PARAMETERS, seed=17)
        capsys.readouterr()
        meta = json.loads((out_dir / "metadata.json").read_text())
        assert meta["seed"] == 17
        assert meta["n"] == 5
        assert meta["generator_version"] == GENERATOR_VERSION
        assert meta["A"] == [[1.0]]

    def test_ldp_table_csv(self, tmp_path, capsys):
        parameters = {"mode": "varadhan", "tilt": [0.0, 0.5], "n": 10}
        out_dir = run_experiment(tmp_path, "ldp", parameters)
        capsys.readouterr()
        lines = csv_lines(out_dir)
        assert lines[0] == "type_0,type_1,exact_rate,limit_rate"
        # one row per type: the 11 occupation vectors (k, 10 - k)
        assert len(lines) == 1 + 11
