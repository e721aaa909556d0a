import csv
import dataclasses
import json

import numpy as np
import pytest

from gradflow import measures
from gradflow.cli import (
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_OK,
    EXPERIMENTS,
    ConfigError,
    ExperimentOutput,
    load_config,
    main,
    parse_config,
    run,
    validate,
)
from gradflow.gradient_flow import GridTrajectory
from gradflow.measures import DiscreteMeasure, push_forward, relative_entropy, total_variation


# the parameters block of each experiment, as its record reads it
PARAMETER_SCHEMAS = {name: record.schema for name, record in EXPERIMENTS.items()}


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestParsing:
    def test_minimal_config(self):
        cfg = parse_config({"experiment": "entropy"})
        assert cfg.experiment == "entropy"
        assert cfg.parameters["pairs"] == 1000
        assert cfg.seed == 0

    def test_missing_experiment(self):
        with pytest.raises(ConfigError) as err:
            parse_config({})
        assert any("experiment" in d for d in err.value.diagnostics)

    def test_unknown_parameter_named(self):
        with pytest.raises(ConfigError) as err:
            parse_config({"experiment": "jko", "parameters": {"stepz": 3}})
        assert any("parameters.stepz" in d for d in err.value.diagnostics)

    def test_wrong_type_reports_key_path(self):
        with pytest.raises(ConfigError) as err:
            parse_config({"experiment": "jko", "parameters": {"time_step": "small"}})
        assert any(
            "parameters.time_step" in d and "number" in d
            for d in err.value.diagnostics
        )

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config({"experiment": "entropy", "extra": 1})
        assert any(d.startswith("extra") for d in err.value.diagnostics)

    def test_constants_block(self):
        cfg = parse_config(
            {"experiment": "fokker_planck", "constants": {"rt": 2.0, "eta": 3.0}}
        )
        assert cfg.constants.RT == pytest.approx(2.0, rel=1e-12)
        assert cfg.constants.eta == 3.0
        with pytest.raises(ConfigError):
            parse_config({"experiment": "fokker_planck", "constants": {"flub": 1.0}})

    def test_seed_override(self):
        cfg = parse_config({"experiment": "entropy", "seed": 5}, overrides={"seed": 9})
        assert cfg.seed == 9

    def test_non_string_output_dir_override_is_a_config_error(self):
        with pytest.raises(ConfigError) as err:
            parse_config({"experiment": "entropy"}, overrides={"output_dir": 5})
        assert err.value.diagnostics == ["output_dir: expected a string, got int"]

    def test_unknown_keys_report_one_form_at_every_level(self):
        obj = {
            "experiment": "entropy",
            "flub": 1,
            "parameters": {"flub": 1},
            "constants": {"flub": 1.0},
        }
        with pytest.raises(ConfigError) as err:
            parse_config(obj)
        assert err.value.diagnostics == [
            "flub: unknown key",
            "parameters.flub: unknown key",
            "constants.flub: unknown key",
        ]

    def test_constants_keys_are_the_models_constants(self):
        # fokker_planck reads every field of PhysicalConstants, RT given as rt
        fields = [field.name for field in dataclasses.fields(measures.PhysicalConstants)]
        assert EXPERIMENTS["fokker_planck"].constants == tuple(name.lower() for name in fields)

    def test_multicomponent_frictions_are_no_constants(self):
        with pytest.raises(ConfigError) as err:
            parse_config({"experiment": "multicomponent", "constants": {"eta": 5.0}})
        assert err.value.diagnostics == ["constants.eta: unknown key"]

    @pytest.mark.parametrize("constants", [{}, {"eta": 2.5}, {"c0": 0.5}])
    def test_rt_is_one_without_rt(self, constants):
        # a block without rt runs at RT = 1, as no block does
        cfg = parse_config({"experiment": "fokker_planck", "constants": constants})
        assert cfg.constants.RT == 1.0

    def test_rt_is_kept_exactly(self):
        cfg = parse_config({"experiment": "fokker_planck", "constants": {"rt": 0.43}})
        assert cfg.constants.RT == 0.43

    @pytest.mark.parametrize("value", [0, 0.0, -1.0])
    @pytest.mark.parametrize("key", ["rt", "eta", "c0"])
    def test_nonpositive_constant_reports_its_key_path(self, key, value):
        with pytest.raises(ConfigError) as err:
            parse_config({"experiment": "fokker_planck", "constants": {key: value}})
        assert err.value.diagnostics == [f"constants.{key}: expected a number in (0, inf)"]

    def test_ldp_enumeration_modes_default_to_enumerable_sizes(self):
        sanov = parse_config({"experiment": "ldp", "parameters": {"mode": "sanov"}})
        assert sanov.parameters["n_values"] == [20.0, 60.0, 120.0]
        varadhan = parse_config({"experiment": "ldp", "parameters": {"mode": "varadhan"}})
        assert varadhan.parameters["n"] == 120
        given = {"mode": "sanov", "n_values": [10, 30]}
        assert parse_config({"experiment": "ldp", "parameters": given}).parameters[
            "n_values"
        ] == [10.0, 30.0]
        coin = parse_config({"experiment": "ldp"}).parameters["n_values"]
        assert coin == [100.0, 500.0, 2000.0]

    @pytest.mark.parametrize(
        "experiment, parameters, key",
        [("ldp", {}, "n_values"), ("ldp", {"mode": "sanov"}, "mu"), ("jko", {}, "domain")],
        ids=["coin-n_values", "sanov-mu", "jko-domain"],
    )
    def test_a_parsed_default_is_a_copy(self, experiment, parameters, key):
        # appending to a parsed default appended to the record's own list,
        # and every later parse returned the longer list
        obj = {"experiment": experiment, "parameters": parameters}
        record = repr(EXPERIMENTS[experiment])
        default = list(parse_config(obj).parameters[key])
        parse_config(obj).parameters[key].append(7.0)
        assert parse_config(obj).parameters[key] == default
        assert repr(EXPERIMENTS[experiment]) == record

    def test_bool_is_not_a_number(self):
        with pytest.raises(ConfigError):
            parse_config({"experiment": "jko", "parameters": {"time_step": True}})

    def test_string_dt_reports_type_and_path(self):
        with pytest.raises(ConfigError) as err:
            parse_config(
                {"experiment": "phasefield", "parameters": {"dt": "0.01"}}
            )
        assert any(
            "parameters.dt" in d and "number" in d for d in err.value.diagnostics
        )


class TestSeedRange:
    """A seed is an unsigned 64-bit integer however it arrives."""

    @pytest.mark.parametrize("way", ["file", "overrides", "flag"])
    @pytest.mark.parametrize(
        "seed, accepted",
        [(0, True), (2**63, True), (2**64 - 1, True), (-1, False), (2**64, False)],
    )
    def test_seed_range(self, tmp_path, capsys, way, seed, accepted):
        obj = {"experiment": "entropy", "parameters": {"pairs": 5}}
        if way == "file":
            obj["seed"] = seed
        path = write_config(tmp_path, obj)
        out_dir = tmp_path / "out"
        if way == "flag":
            argv = ["run", "--config", str(path), "--out", str(out_dir), "--seed", str(seed)]
            status = main(argv)
            diagnostics = capsys.readouterr().err.splitlines()
        else:
            overrides = {"output_dir": str(out_dir)}
            if way == "overrides":
                overrides["seed"] = seed
            try:
                status, diagnostics = run(load_config(path, overrides=overrides)), []
            except ConfigError as exc:
                status, diagnostics = EXIT_CONFIG, exc.diagnostics
        if accepted:
            assert status == EXIT_OK
            assert json.loads((out_dir / "summary.json").read_text())["seed"] == seed
        else:
            assert status == EXIT_CONFIG
            assert diagnostics == ["seed: must fit in an unsigned 64-bit integer"]
            assert not out_dir.exists()


class TestValidateCommand:
    def test_valid_file(self, tmp_path):
        path = write_config(tmp_path, {"experiment": "entropy"})
        status, diagnostics = validate(path)
        assert status == EXIT_OK
        assert diagnostics == ["ok"]

    def test_unreadable_file(self, tmp_path):
        status, diagnostics = validate(tmp_path / "missing.json")
        assert status == EXIT_CONFIG
        assert any("cannot read" in d for d in diagnostics)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        status, diagnostics = validate(path)
        assert status == EXIT_CONFIG

    def test_cli_validate_exit_codes(self, tmp_path, capsys):
        good = write_config(tmp_path, {"experiment": "entropy"})
        assert main(["validate", "--config", str(good)]) == EXIT_OK
        bad = write_config(tmp_path, {"experiment": "entropy", "bogus": 1}, "bad.json")
        assert main(["validate", "--config", str(bad)]) == EXIT_CONFIG
        capsys.readouterr()

    def test_removed_constant_g_exits_2(self, tmp_path, capsys):
        # g was a constant that no computation read
        path = write_config(tmp_path, {"experiment": "entropy", "constants": {"g": 9.8}})
        assert validate(path) == (EXIT_CONFIG, ["constants.g: unknown key"])
        assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
        capsys.readouterr()

    @pytest.mark.parametrize("key", ["T", "R", "k", "N_A"])
    def test_removed_constants_exit_2(self, tmp_path, capsys, key):
        # the models read RT, eta and c0 only, and RT is given as rt
        path = write_config(tmp_path, {"experiment": "fokker_planck", "constants": {key: 300.0}})
        assert validate(path) == (EXIT_CONFIG, [f"constants.{key}: unknown key"])
        assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
        capsys.readouterr()

    @pytest.mark.parametrize(
        "obj, key_path",
        [
            (
                {"experiment": "jko", "parameters": {"time_step": float("nan")}},
                "parameters.time_step",
            ),
            (
                {"experiment": "multicomponent", "parameters": {"dt": float("inf")}},
                "parameters.dt",
            ),
            (
                {"experiment": "jko", "parameters": {"domain": [float("nan"), 6.0]}},
                "parameters.domain[0]",
            ),
            ({"experiment": "fokker_planck", "constants": {"rt": float("-inf")}}, "constants.rt"),
            (
                {"experiment": "fokker_planck", "parameters": {"t_end": 10**400}},
                "parameters.t_end",
            ),
        ],
        ids=["float-nan", "float-inf", "number-list-nan", "constant-inf", "int-overflow"],
    )
    def test_non_finite_number_exits_2_with_key_path(self, tmp_path, obj, key_path):
        path = write_config(tmp_path, obj)
        status, diagnostics = validate(path)
        assert status == EXIT_CONFIG
        assert f"{key_path}: expected a finite number" in diagnostics

    @pytest.mark.parametrize(
        "experiment, parameters, key_path",
        [
            ("jko", {"cells": -5}, "parameters.cells"),
            ("jko", {"domain": [1.0]}, "parameters.domain"),
            ("jko", {"domain": [5.0, -5.0]}, "parameters.domain"),
            ("particles", {"n": 0}, "parameters.n"),
            ("ldp", {"n_values": []}, "parameters.n_values"),
            ("phasefield", {"model": "bogus"}, "parameters.model"),
            ("phasefield", {"cells": 3}, "parameters.cells"),
            ("multicomponent", {"steps": -1}, "parameters.steps"),
            ("multicomponent", {"mode": "both_ways"}, "parameters.mode"),
            ("fokker_planck", {"potential": "cubic"}, "parameters.potential"),
            ("jko", {"cells": 10**21}, "parameters.cells"),
            ("phasefield", {"dt": -0.04}, "parameters.dt"),
            ("jko", {"time_step": -0.001}, "parameters.time_step"),
            ("multicomponent", {"alpha": [2.0]}, "parameters.alpha"),
            ("reversibility", {"mobility": [1.0]}, "parameters.mobility"),
            ("ldp", {"n_values": [0]}, "parameters.n_values"),
            ("ldp", {"n_values": [1e6]}, "parameters.n_values"),
            ("ldp", {"a": 0.4}, "parameters.a"),
            ("ldp", {"mode": "sanov", "mu": []}, "parameters.mu"),
            ("multicomponent", {"eta": [1.0, 0.0]}, "parameters.eta"),
            ("reversibility", {"mobility": [1.0, -2.0]}, "parameters.mobility"),
            ("reversibility", {"kT": 0.0}, "parameters.kT"),
            ("fokker_planck", {"t_end": 0.0}, "parameters.t_end"),
            ("particles", {"kT": -1.0}, "parameters.kT"),
            ("ldp", {"mode": "sanov", "n_values": [100, 500, 2000]}, "parameters.n_values[1]"),
            ("ldp", {"mode": "varadhan", "n": 2000}, "parameters.n"),
            ("ldp", {"mode": "sanov", "mu": [0.5, 0.6], "n_values": [20]}, "parameters.mu"),
            (
                "ldp",
                {"mode": "varadhan", "tilt": [0.0, 1.0, 2.0], "n": 20},
                "parameters.tilt",
            ),
            (
                "ldp",
                {"mode": "sanov", "constraint_coeffs": [1.0], "n_values": [20]},
                "parameters.constraint_coeffs",
            ),
            ("fokker_planck", {"t_end": 0.01}, "parameters.t_end"),
            ("jko", {"steps": 0}, "parameters.steps"),
            ("reversibility", {"steps": 0}, "parameters.steps"),
            ("ldp", {"mode": "sanov", "constraint_bound": 2.0}, "parameters.constraint_bound"),
            (
                "fokker_planck",
                {"initial_csv": "/nonexistent/initial.csv"},
                "parameters.initial_csv",
            ),
            ("particles", {"compare_pde": False}, "parameters.compare_pde"),
            ("multicomponent", {"amplitude": 0.3}, "parameters.amplitude"),
            ("multicomponent", {"amplitude": -0.3}, "parameters.amplitude"),
            ("particles", {"t_end": 0.0009, "dt": 0.002}, "parameters.t_end"),
            ("fokker_planck", {"t_end": 1e308, "dt": 1e-10}, "parameters.t_end"),
            ("particles", {"t_end": 1e308, "dt": 1e-10}, "parameters.t_end"),
            ("fokker_planck", {"t_end": 1e10, "dt": 1e-10}, "parameters.t_end"),
            ("particles", {"t_end": 1e10, "dt": 1e-10}, "parameters.t_end"),
            ("jko", {"sigma0_sq": 1e-12}, "parameters.sigma0_sq"),
            ("jko", {"domain": [-1e6, 1e6]}, "parameters.sigma0_sq"),
        ],
        ids=[
            "negative-cells",
            "one-number-domain",
            "descending-domain",
            "no-particles",
            "empty-n-values",
            "unknown-model",
            "too-few-phase-field-cells",
            "negative-steps",
            "unknown-mode",
            "unknown-potential",
            "beyond-int64",
            "negative-dt",
            "negative-time-step",
            "one-molar-volume",
            "one-mobility",
            "zero-sample-size",
            "sample-size-beyond-1e5",
            "threshold-below-half",
            "empty-reference-law",
            "zero-friction",
            "negative-mobility",
            "zero-temperature",
            "zero-end-time",
            "negative-kT",
            "sanov-beyond-enumeration",
            "varadhan-beyond-enumeration",
            "law-not-summing-to-one",
            "tilt-length",
            "constraint-length",
            "fokker-planck-zero-steps",
            "jko-zero-steps",
            "reversibility-zero-steps",
            "sanov-empty-constraint",
            "missing-initial-csv",
            "particles-compare-pde",
            "multicomponent-negative-species-1",
            "multicomponent-negative-species-2",
            "particles-zero-steps",
            "fokker-planck-uncountable-steps",
            "particles-uncountable-steps",
            "fokker-planck-unindexable-steps",
            "particles-unindexable-steps",
            "jko-start-narrower-than-a-cell",
            "jko-start-far-from-every-cell",
        ],
    )
    def test_unrunnable_config_exits_2_with_key_path(
        self, tmp_path, capsys, experiment, parameters, key_path
    ):
        path = write_config(tmp_path, {"experiment": experiment, "parameters": parameters})
        status, diagnostics = validate(path)
        assert status == EXIT_CONFIG
        assert [d for d in diagnostics if d.startswith(f"{key_path}: ")], diagnostics
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out_dir)]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == diagnostics
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "experiment, choice, value, key",
        [
            pytest.param(experiment, name, value, key, id=f"{experiment}-{value}-{key}")
            for experiment, schema in sorted(PARAMETER_SCHEMAS.items())
            for name, field in schema.items()
            if isinstance(field.choices, dict)
            for value, reads in field.choices.items()
            for key in sorted(
                {key for other in field.choices.values() for key in other}
                - set(reads)
                - set(schema)
            )
        ],
    )
    def test_key_that_the_choice_does_not_read_exits_2(
        self, tmp_path, capsys, experiment, choice, value, key
    ):
        # the key as another value of the choice reads it, at its default
        branches = PARAMETER_SCHEMAS[experiment][choice].choices.values()
        default = next(reads[key] for reads in branches if key in reads).default
        obj = {"experiment": experiment, "parameters": {choice: value, key: default}}
        path = write_config(tmp_path, obj)
        diagnostic = f"parameters.{key}: not read with {choice} {value!r}"
        assert validate(path) == (EXIT_CONFIG, [diagnostic])
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out_dir)]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [diagnostic]
        assert not out_dir.exists()

    @pytest.mark.parametrize("key, value", [("cells", 200), ("domain", [0.0, 5.0])])
    def test_initial_csv_rejects_a_grid(self, tmp_path, key, value):
        csv_path = tmp_path / "c0.csv"
        csv_path.write_text("cell_center,value\n0.5,1\n1.5,1\n")
        given = {"initial_csv": str(csv_path)}
        obj = {"experiment": "fokker_planck", "parameters": {**given, key: value}}
        diagnostic = f"parameters.{key}: not read with initial_csv, which gives the grid"
        assert validate(write_config(tmp_path, obj)) == (EXIT_CONFIG, [diagnostic])
        parameters = parse_config({"experiment": "fokker_planck", "parameters": given}).parameters
        assert "cells" not in parameters and "domain" not in parameters

    @pytest.mark.parametrize(
        "experiment, choice, value",
        [
            (experiment, name, value)
            for experiment, schema in sorted(PARAMETER_SCHEMAS.items())
            for name, field in schema.items()
            if isinstance(field.choices, dict)
            for value in field.choices
        ],
    )
    def test_parameters_hold_only_the_keys_read(self, experiment, choice, value):
        schema = PARAMETER_SCHEMAS[experiment]
        cfg = parse_config({"experiment": experiment, "parameters": {choice: value}})
        assert set(cfg.parameters) == set(schema) | set(schema[choice].choices[value])

    @pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
    def test_every_default_config_validates(self, tmp_path, experiment):
        assert validate(write_config(tmp_path, {"experiment": experiment})) == (EXIT_OK, ["ok"])

    @pytest.mark.parametrize(
        "parameters",
        [{"amplitude": 0.25}, {"amplitude": 0.2}, {"alpha": [1, 3], "eta": [1, 5]}],
        ids=["amplitude-0.25", "amplitude-0.2", "skewed-pair"],
    )
    def test_runnable_multicomponent_starts_validate(self, tmp_path, parameters):
        obj = {"experiment": "multicomponent", "parameters": parameters}
        assert validate(write_config(tmp_path, obj)) == (EXIT_OK, ["ok"])

    @pytest.mark.parametrize("mode", PARAMETER_SCHEMAS["ldp"]["mode"].choices)
    def test_validate_and_run_agree_on_ldp_defaults(self, tmp_path, capsys, mode):
        path = write_config(tmp_path, {"experiment": "ldp", "parameters": {"mode": mode}})
        status, _ = validate(path)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == status
        capsys.readouterr()


class TestRunCommand:
    def test_malformed_config_exits_2_without_artifacts(self, tmp_path, capsys):
        path = write_config(tmp_path, {"parameters": {}})
        out_dir = tmp_path / "out"
        status = main(["run", "--config", str(path), "--out", str(out_dir)])
        capsys.readouterr()
        assert status == EXIT_CONFIG
        assert not (out_dir / "result.csv").exists()
        assert not (out_dir / "summary.json").exists()

    @pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
    def test_every_experiment_runs_green(
        self, tmp_path, capsys, experiment, fast_experiment_configs
    ):
        block = fast_experiment_configs[experiment]
        obj = {"experiment": experiment, "seed": 11, **block}
        path = write_config(tmp_path, obj)
        out_dir = tmp_path / experiment
        status = main(["run", "--config", str(path), "--out", str(out_dir)])
        capsys.readouterr()
        assert status == EXIT_OK
        result = (out_dir / "result.csv").read_text()
        assert result.splitlines()[0].count(",") >= 1
        summary = json.loads((out_dir / "summary.json").read_text(), parse_constant=_reject_constant)
        assert summary["experiment"] == experiment
        assert summary["library_version"]
        assert summary["config_hash"]
        assert summary["wall_time_s"] >= 0.0
        assert summary["invariants"]
        assert all(v["passed"] for v in summary["invariants"].values())

    @pytest.mark.parametrize(
        "experiment, parameters",
        [
            pytest.param(experiment, {key: choice} if key else {}, id=f"{experiment}-{choice}")
            for experiment, schema in sorted(PARAMETER_SCHEMAS.items())
            for key in ([k for k in ("mode", "model", "potential") if k in schema] or [None])
            for choice in (schema[key].choices if key else ["default"])
        ],
    )
    def test_every_choice_runs_at_defaults(self, tmp_path, capsys, experiment, parameters):
        path = write_config(tmp_path, {"experiment": experiment, "parameters": parameters})
        assert validate(path) == (EXIT_OK, ["ok"])
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out_dir)]) == EXIT_OK
        capsys.readouterr()
        # strict JSON: no NaN or Infinity among the invariant values
        json.loads((out_dir / "summary.json").read_text(), parse_constant=_reject_constant)

    def test_steep_boltzmann_target_is_finite(self, tmp_path, capsys):
        # exp(-slope x / RT) overflows at slope -1000 unless shifted by its maximum
        obj = {"experiment": "fokker_planck", "parameters": {"slope": -1000}}
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, obj)), "--out", str(out_dir)]) == EXIT_OK
        capsys.readouterr()
        summary = json.loads((out_dir / "summary.json").read_text(), parse_constant=_reject_constant)
        assert 0.0 <= summary["invariants"]["boltzmann_l1"]["value"] <= 1e-3

    @pytest.mark.parametrize("slope", [-1.0, -4.0])
    def test_concave_quadratic_fokker_planck_runs(self, tmp_path, capsys, slope):
        # the uniform start is nearly stationary at the centre, where the log
        # mean has to be accurate for Newton to reach its tolerance
        obj = {"experiment": "fokker_planck", "parameters": {"potential": "quadratic", "slope": slope}}
        path = write_config(tmp_path, obj)
        assert validate(path) == (EXIT_OK, ["ok"])
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out_dir)]) == EXIT_OK
        capsys.readouterr()
        invariants = json.loads((out_dir / "summary.json").read_text())["invariants"]
        assert set(invariants) == {"mass_conserved", "energy_nonincreasing"}
        assert all(inv["passed"] for inv in invariants.values())

    @pytest.mark.parametrize(
        "parameters",
        [{"dt": 2e-4}, {"dt": 1e-2}, {"alpha": [1, 3], "eta": [1, 5], "dt": 1e-2}],
        ids=["dt-2e-4", "dt-1e-2", "skewed-pair-dt-1e-2"],
    )
    def test_multicomponent_runs_past_the_explicit_step_bound(self, tmp_path, capsys, parameters):
        # backward Euler: the explicit march left the positive cone at step
        # 10 of dt 2e-4, after validate had accepted the config
        obj = {"experiment": "multicomponent", "parameters": parameters}
        path = write_config(tmp_path, obj)
        assert validate(path) == (EXIT_OK, ["ok"])
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out_dir)]) == EXIT_OK
        capsys.readouterr()
        invariants = json.loads((out_dir / "summary.json").read_text())["invariants"]
        assert {"global_volume_constraint", "local_energy_nonincreasing"} <= set(invariants)
        assert all(inv["passed"] for inv in invariants.values())

    def test_symmetric_multicomponent_reference_has_the_species_friction(self, tmp_path, capsys):
        # the single-species reference took the friction of the constants
        # block (1), not eta[0], and failed matches_single_species by 1.4e-2
        obj = {"experiment": "multicomponent", "parameters": {"eta": [3, 3]}}
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, obj)), "--out", str(out_dir)]) == EXIT_OK
        capsys.readouterr()
        invariants = json.loads((out_dir / "summary.json").read_text())["invariants"]
        assert invariants["matches_single_species"]["value"] <= 1e-6

    @pytest.mark.parametrize(
        "parameters",
        [
            {"cells": 128},
            {"dt": 0.2},
            {"model": "allen_cahn", "cells": 256},
            {"cells": 256, "mobility": 1e4},
        ],
        ids=["cells-128", "dt-0.2", "allen_cahn-cells-256", "cells-256-mobility-1e4"],
    )
    def test_phasefield_has_no_step_bound(self, tmp_path, capsys, parameters):
        # grids and steps beyond the explicit bounds h^2/2m and h^4/8m; the last
        # one is stiff (dt m / h^4 = 2.6e6)
        path = write_config(tmp_path, {"experiment": "phasefield", "parameters": parameters})
        assert validate(path) == (EXIT_OK, ["ok"])
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out_dir)]) == EXIT_OK
        capsys.readouterr()
        invariants = json.loads((out_dir / "summary.json").read_text())["invariants"]
        expected = {"energy_nonincreasing"}
        if parameters.get("model", "cahn_hilliard") == "cahn_hilliard":
            expected.add("mean_conserved")
        assert set(invariants) == expected
        assert all(inv["passed"] for inv in invariants.values())

    def test_large_energy_descends_within_rounding(self, tmp_path, capsys):
        # E(T) is about 3e4, so its rounding alone exceeds an absolute 1e-12
        path = write_config(
            tmp_path, {"experiment": "phasefield", "parameters": {"amplitude": 100.0}}
        )
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out_dir)]) == EXIT_OK
        capsys.readouterr()
        invariants = json.loads((out_dir / "summary.json").read_text())["invariants"]
        assert invariants["energy_nonincreasing"]["passed"]

    @pytest.mark.parametrize(
        "energies, passed",
        [
            ([10.0, 10.0 + 1e-9, 9.0], False),
            ([30440.0, 30440.0 + 1.8e-11, 30000.0], True),
            ([0.5, 0.5 + 2e-12], False),
        ],
    )
    def test_descent_bound_is_relative_to_the_energy(self, energies, passed):
        traj = GridTrajectory(
            np.array([0]), [None], np.asarray(energies), np.ones(len(energies)), 1.0
        )
        out = ExperimentOutput()
        out.check_descent("energy_nonincreasing", traj)
        assert out.invariants["energy_nonincreasing"].passed is passed

    @pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
    def test_reruns_are_byte_identical(
        self, tmp_path, capsys, experiment, fast_experiment_configs
    ):
        block = fast_experiment_configs[experiment]
        obj = {"experiment": experiment, "seed": 3, **block}
        path = write_config(tmp_path, obj)
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert main(["run", "--config", str(path), "--out", str(first)]) == EXIT_OK
        assert main(["run", "--config", str(path), "--out", str(second)]) == EXIT_OK
        capsys.readouterr()
        assert (first / "result.csv").read_bytes() == (second / "result.csv").read_bytes()

    def test_different_seed_changes_stochastic_results(self, tmp_path, capsys):
        obj = {
            "experiment": "particles",
            "parameters": {"n": 200, "t_end": 0.1, "cells": 30},
        }
        path = write_config(tmp_path, obj)
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["run", "--config", str(path), "--out", str(a), "--seed", "1"]) == EXIT_OK
        assert main(["run", "--config", str(path), "--out", str(b), "--seed", "2"]) == EXIT_OK
        capsys.readouterr()
        assert (a / "result.csv").read_bytes() != (b / "result.csv").read_bytes()

    def test_runtime_error_exits_3(self, tmp_path, capsys):
        # a valid config the model cannot run: beyond the brute-force oracle
        obj = {"experiment": "transport", "parameters": {"n_atoms": 10}}
        path = write_config(tmp_path, obj)
        out_dir = tmp_path / "out"
        status = main(["run", "--config", str(path), "--out", str(out_dir)])
        capsys.readouterr()
        assert status == 3
        summary = json.loads((out_dir / "summary.json").read_text())
        assert "error" in summary

    def test_vacuum_initial_csv_exits_3(self, tmp_path, capsys):
        # a readable start with an empty cell passes validate; the implicit
        # solve needs a strictly positive start
        csv_path = tmp_path / "c0.csv"
        csv_path.write_text("cell_center,value\n0.5,0\n1.5,1\n2.5,1\n")
        obj = {"experiment": "fokker_planck", "parameters": {"initial_csv": str(csv_path)}}
        path = write_config(tmp_path, obj)
        assert validate(path) == (EXIT_OK, ["ok"])
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out_dir)]) == 3
        capsys.readouterr()
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["error"].startswith("SingularWeightError")

    @pytest.mark.parametrize("key", ["kT", "mobility"])
    def test_particles_without_diffusion_skip_the_pde_check(self, tmp_path, capsys, key):
        # the reference solve has RT = kT and friction 1 / mobility, so it
        # runs only where both are positive
        path = write_config(tmp_path, {"experiment": "particles", "parameters": {key: 0.0}})
        assert validate(path) == (EXIT_OK, ["ok"])
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out_dir)]) == EXIT_OK
        capsys.readouterr()
        invariants = json.loads((out_dir / "summary.json").read_text())["invariants"]
        assert "w2_to_pde_small" not in invariants
        assert all(inv["passed"] for inv in invariants.values())

    def test_particles_pde_check_uses_the_ensemble_generator(self, tmp_path, capsys):
        # at kT = 0.1 drift dominates; the reference solve must use RT = kT
        obj = {"experiment": "particles", "parameters": {"kT": 0.1}}
        path = write_config(tmp_path, obj)
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out_dir)]) == EXIT_OK
        capsys.readouterr()
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["invariants"]["w2_to_pde_small"]["passed"]
        assert summary["invariants"]["particles_in_domain"]["value"] == 0.0

    def test_output_write_error_exits_3_with_summary(self, tmp_path, capsys):
        # a directory where result.csv should go makes the write fail
        path = write_config(tmp_path, {"experiment": "entropy", "parameters": {"pairs": 5}})
        out_dir = tmp_path / "out"
        (out_dir / "result.csv").mkdir(parents=True)
        status = main(["run", "--config", str(path), "--out", str(out_dir)])
        capsys.readouterr()
        assert status == 3
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["status"] == 3
        assert summary["error"].startswith("IsADirectoryError")
        assert summary["invariants"]

    def test_invariant_failure_exits_4(self, tmp_path, capsys):
        # 8 JKO steps of 1e-3 cannot reach the variance target computed for
        # them unless the scheme works; force failure with a huge sigma0
        # mismatch via an absurdly coarse grid
        obj = {
            "experiment": "jko",
            "parameters": {"cells": 8, "domain": [-20.0, 20.0], "steps": 2},
        }
        path = write_config(tmp_path, obj)
        out_dir = tmp_path / "out"
        status = main(["run", "--config", str(path), "--out", str(out_dir)])
        capsys.readouterr()
        summary = json.loads((out_dir / "summary.json").read_text())
        assert status == EXIT_INVARIANT
        assert not all(v["passed"] for v in summary["invariants"].values())

    @pytest.mark.parametrize(
        "parameters",
        [{"stiffness": -5.0}, {"kT": 1000.0}, {"domain": [-1.0, 1.0]}],
        ids=["repulsive", "hot", "narrow"],
    )
    def test_particles_outside_the_histogram_exit_4(self, tmp_path, capsys, parameters):
        # validate accepts these; the particles leave [a, b], which used to
        # raise in empirical_density (exit 3, no result.csv)
        path = write_config(tmp_path, {"experiment": "particles", "parameters": parameters})
        assert main(["validate", "--config", str(path)]) == EXIT_OK
        out_dir = tmp_path / "out"
        status = main(["run", "--config", str(path), "--out", str(out_dir)])
        capsys.readouterr()
        assert status == EXIT_INVARIANT
        rows = (out_dir / "result.csv").read_text().splitlines()
        assert rows[0] == "particle_id,x" and len(rows) == 1 + 1000
        summary = json.loads((out_dir / "summary.json").read_text())
        check = summary["invariants"]["particles_in_domain"]
        assert not check["passed"] and 1e-3 < check["value"] <= 1.0
        assert "histogram_mass_one" not in summary["invariants"]
        assert "error" not in summary

    def test_seventeen_digit_floats(self, tmp_path, capsys):
        obj = {"experiment": "ldp", "parameters": {"n_values": [50, 100, 200]}}
        path = write_config(tmp_path, obj)
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out_dir)]) == EXIT_OK
        capsys.readouterr()
        body = (out_dir / "result.csv").read_text().splitlines()[1]
        tail_field = body.split(",")[1]
        assert len(tail_field.replace(".", "").replace("-", "").lstrip("0")) >= 16


def entropy_reference(seed, pairs, alphabet):
    """The entropy experiment one pair at a time, through the scalar
    relative_entropy, total_variation and push_forward, on the same draws."""
    rng = np.random.default_rng(seed)
    atoms = np.arange(alphabet)[:, None].astype(float)
    rows = []
    violations = dict.fromkeys(("nonneg", "ckp", "push", "dpi"), 0)
    for _ in range(pairs):
        mu_w = rng.random(alphabet) + 1e-3
        mu_w /= mu_w.sum()
        nu_w = rng.random(alphabet) + 1e-3
        nu_w /= nu_w.sum()
        mu, nu = DiscreteMeasure(atoms, mu_w), DiscreteMeasure(atoms, nu_w)
        h, tv = relative_entropy(mu, nu), total_variation(mu, nu)
        slack = h - 2.0 * tv * tv
        violations["nonneg"] += h < 0.0
        violations["ckp"] += slack < -1e-15
        shift = float(rng.normal())
        injective = lambda x: 2.0 * x + shift
        violations["push"] += relative_entropy(
            push_forward(mu, injective), push_forward(nu, injective)
        ) != h
        merge = rng.integers(0, max(2, alphabet - 2), size=alphabet)
        coarse = lambda x: merge[x[:, 0].astype(int)].astype(float)
        violations["dpi"] += relative_entropy(
            push_forward(mu, coarse), push_forward(nu, coarse)
        ) > h + 1e-12
        rows.append((h, tv, slack))
    return rows, violations


class TestEntropyExperiment:
    def run_entropy(self, tmp_path, parameters, seed=7):
        out_dir = tmp_path / "out"
        cfg = parse_config(
            {"experiment": "entropy", "parameters": parameters, "seed": seed,
             "output_dir": str(out_dir)}
        )
        status = run(cfg)
        with open(out_dir / "result.csv", newline="") as fh:
            table = list(csv.reader(fh))
        summary = json.loads((out_dir / "summary.json").read_text())
        invariants = {k: v["value"] for k, v in summary["invariants"].items()}
        return status, table, invariants

    @pytest.mark.parametrize("alphabet", [6, 40])
    def test_batch_equals_the_pair_by_pair_reference_bitwise(self, tmp_path, alphabet):
        pairs, seed = 120, 2**62 + 7
        status, table, invariants = self.run_entropy(
            tmp_path, {"pairs": pairs, "alphabet": alphabet}, seed
        )
        assert status == EXIT_OK
        assert table[0] == ["pair", "entropy", "tv", "ckp_slack"]
        # 17 significant digits read back bitwise
        batch = [tuple(float(v) for v in row[1:]) for row in table[1:]]
        reference, violations = entropy_reference(seed, pairs, alphabet)
        assert batch == reference
        assert [int(row[0]) for row in table[1:]] == list(range(pairs))
        assert invariants == {
            "entropy_nonnegative": violations["nonneg"],
            "ckp_inequality": violations["ckp"],
            "pushforward_invariance_exact": violations["push"],
            "data_processing_inequality": violations["dpi"],
        }

    @pytest.mark.parametrize("parameters, rows", [({"pairs": 0}, 0), ({"alphabet": 1}, 1000)])
    def test_degenerate_sizes_run(self, tmp_path, parameters, rows):
        status, table, invariants = self.run_entropy(tmp_path, parameters)
        assert status == EXIT_OK
        assert table[0] == ["pair", "entropy", "tv", "ckp_slack"]
        assert len(table) == 1 + rows
        assert set(invariants.values()) == {0.0}

    def test_invariance_check_runs_through_push_forward(self, tmp_path, monkeypatch):
        # a push-forward that reverses its weights breaks the exact invariance
        real = measures.push_forward

        def reversing(mu, mapping):
            image = real(mu, mapping)
            return DiscreteMeasure(image.atoms, image.weights[::-1])

        monkeypatch.setattr(measures, "push_forward", reversing)
        status, _, invariants = self.run_entropy(tmp_path, {"pairs": 50})
        assert status == EXIT_INVARIANT
        assert invariants["pushforward_invariance_exact"] > 0


class TestArtifacts:
    def test_transport_json_and_particle_metadata(self, tmp_path, capsys):
        obj = {"experiment": "transport", "parameters": {"n_atoms": 4, "instances": 3}}
        out_dir = tmp_path / "transport"
        path = write_config(tmp_path, obj)
        assert main(["run", "--config", str(path), "--out", str(out_dir)]) == EXIT_OK
        records = json.loads((out_dir / "transport.json").read_text())
        assert len(records) == 3 and records[0]["n"] == 4

        obj = {
            "experiment": "particles",
            "parameters": {"n": 100, "t_end": 0.1, "cells": 20},
            "seed": 5,
        }
        out_dir = tmp_path / "particles"
        path = write_config(tmp_path, obj, "p.json")
        assert main(["run", "--config", str(path), "--out", str(out_dir)]) == EXIT_OK
        meta = json.loads((out_dir / "metadata.json").read_text())
        assert meta["seed"] == 5 and meta["n"] == 100
        capsys.readouterr()

    def test_jko_diagnostics_artifact(self, tmp_path, capsys):
        obj = {"experiment": "jko", "parameters": {"cells": 100, "steps": 5}}
        out_dir = tmp_path / "jko"
        path = write_config(tmp_path, obj)
        assert main(["run", "--config", str(path), "--out", str(out_dir)]) == EXIT_OK
        diag = json.loads((out_dir / "jko_diagnostics.json").read_text())
        assert len(diag) == 5
        assert all(d["grad_norm"] <= 1e-9 for d in diag)
        capsys.readouterr()

    def test_fokker_planck_initial_from_csv(self, tmp_path, capsys):
        import numpy as np

        from gradflow.measures import GridDensity1D, write_grid_csv

        grid = GridDensity1D(0.0, 5.0, np.ones(50))
        c0 = grid.with_values(np.exp(-grid.centers)).normalized()
        csv_path = tmp_path / "c0.csv"
        write_grid_csv(c0, csv_path)
        obj = {
            "experiment": "fokker_planck",
            "parameters": {
                "initial_csv": str(csv_path),
                "t_end": 1.0,
                "check_boltzmann": True,
            },
        }
        out_dir = tmp_path / "fp"
        path = write_config(tmp_path, obj)
        assert main(["run", "--config", str(path), "--out", str(out_dir)]) == EXIT_OK
        summary = json.loads((out_dir / "summary.json").read_text())
        # the Boltzmann start stays put, so the L1 gap is tiny immediately
        assert summary["invariants"]["boltzmann_l1"]["value"] <= 1e-6
        capsys.readouterr()


class TestSpecExample:
    def test_default_jko_reports_variance_near_1p2(self, tmp_path, capsys):
        obj = {"experiment": "jko"}
        path = write_config(tmp_path, obj)
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out_dir)]) == EXIT_OK
        summary = json.loads((out_dir / "summary.json").read_text())
        assert abs(summary["variance_final"] - 1.2) <= 0.024
        capsys.readouterr()


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        import shutil
        import subprocess

        exe = shutil.which("gradflow")
        if exe is None:
            pytest.skip("console script not on PATH")
        cfg = write_config(tmp_path, {"experiment": "entropy", "parameters": {"pairs": 5}})
        out_dir = tmp_path / "out"
        proc = subprocess.run(
            [exe, "run", "--config", str(cfg), "--out", str(out_dir)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out_dir / "summary.json").exists()
        bad = subprocess.run(
            [exe, "validate", "--config", str(tmp_path / "absent.json")],
            capture_output=True,
            text=True,
        )
        assert bad.returncode == EXIT_CONFIG


class TestConfigHash:
    def test_hash_depends_on_content(self, tmp_path):
        cfg_a = parse_config({"experiment": "entropy", "seed": 1})
        cfg_b = parse_config({"experiment": "entropy", "seed": 2})
        assert cfg_a.config_hash() != cfg_b.config_hash()
        cfg_c = parse_config({"experiment": "entropy", "seed": 1})
        assert cfg_a.config_hash() == cfg_c.config_hash()
        cfg_d = parse_config({"experiment": "entropy", "seed": 1, "parameters": {"pairs": 7}})
        assert cfg_a.config_hash() != cfg_d.config_hash()

    def test_hash_ignores_output_dir(self, tmp_path):
        obj = {"experiment": "entropy", "seed": 1, "output_dir": "a"}
        cfg_a = parse_config(obj)
        cfg_b = parse_config(dict(obj, output_dir="b"))
        cfg_c = parse_config(obj, overrides={"output_dir": str(tmp_path / "c")})
        assert cfg_a.config_hash() == cfg_b.config_hash() == cfg_c.config_hash()

    def test_hash_same_when_defaults_spelled_out(self):
        for experiment, choice in (("fokker_planck", "potential"), ("ldp", "mode")):
            schema = PARAMETER_SCHEMAS[experiment]
            # the block's fields and those that the default choice reads
            reads = {**schema, **schema[choice].choices[schema[choice].default]}
            implicit = parse_config({"experiment": experiment})
            explicit = parse_config(
                {
                    "experiment": experiment,
                    "parameters": {key: field.default for key, field in reads.items()},
                    "constants": {"rt": 1.0} if experiment == "fokker_planck" else {},
                    "seed": 0,
                }
            )
            assert implicit.config_hash() == explicit.config_hash()
        ints = parse_config({"experiment": "ldp", "parameters": {"n_values": [100, 500, 2000]}})
        assert ints.config_hash() == parse_config({"experiment": "ldp"}).config_hash()

    @pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
    def test_hash_covers_the_seed_only_where_it_is_drawn(
        self, tmp_path, capsys, experiment, fast_experiment_configs
    ):
        # a seeded run writes another result.csv under another hash for
        # another seed; any other run writes one file under one hash
        obj = {"experiment": experiment, **fast_experiment_configs[experiment]}
        path = write_config(tmp_path, obj)
        hashes, results = set(), set()
        for seed in ("0", "7"):
            hashes.add(parse_config(obj, overrides={"seed": int(seed)}).config_hash())
            out_dir = tmp_path / seed
            argv = ["run", "--config", str(path), "--out", str(out_dir), "--seed", seed]
            assert main(argv) == EXIT_OK
            results.add((out_dir / "result.csv").read_bytes())
        capsys.readouterr()
        distinct = 2 if EXPERIMENTS[experiment].seeded else 1
        assert len(hashes) == len(results) == distinct

    def test_hash_covers_the_initial_csv_bytes_not_its_path(self, tmp_path):
        grid = measures.GridDensity1D(0.0, 5.0, np.ones(20))

        def config_hash(path, values):
            if values is not None:
                measures.write_grid_csv(grid.with_values(values).normalized(), path)
            obj = {"experiment": "fokker_planck", "parameters": {"initial_csv": str(path)}}
            return parse_config(obj).config_hash()

        first = config_hash(tmp_path / "a.csv", np.exp(-grid.centers))
        assert config_hash(tmp_path / "b.csv", np.exp(-grid.centers)) == first
        assert config_hash(tmp_path / "a.csv", None) == first
        assert config_hash(tmp_path / "a.csv", np.exp(-2 * grid.centers)) != first

    def test_removed_initial_csv_still_writes_the_summary(self, tmp_path):
        csv_path = tmp_path / "c0.csv"
        csv_path.write_text("cell_center,value\n0.5,1\n1.5,1\n")
        parameters = {"initial_csv": str(csv_path), "t_end": 1.0}
        obj = {"experiment": "fokker_planck", "parameters": parameters}
        cfg = parse_config(obj, overrides={"output_dir": str(tmp_path / "out")})
        csv_path.unlink()
        assert run(cfg) == 3
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["config_hash"] == cfg.config_hash()
        assert summary["error"].startswith("FileNotFoundError")

    @pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
    def test_hash_covers_the_constants_only_where_they_are_read(self, tmp_path, experiment):
        # the hash covers each constant that the record reads; a config that
        # gives any other constant is rejected at its key
        default = parse_config({"experiment": experiment}).config_hash()
        for key in ("rt", "eta", "c0"):
            other = {"experiment": experiment, "constants": {key: 2.0}}
            if key in EXPERIMENTS[experiment].constants:
                assert parse_config(other).config_hash() != default
            else:
                status, diagnostics = validate(write_config(tmp_path, other))
                assert (status, diagnostics) == (EXIT_CONFIG, [f"constants.{key}: unknown key"])
