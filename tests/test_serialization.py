"""Round-trip and format checks for the file interfaces the modules expose."""

import json
import math

import numpy as np
import pytest

from gradflow.measures import GridDensity1D, PhysicalConstants
from gradflow.gradient_flow import (
    EnergyFunctional,
    FlowProblem,
    QuadraticDissipation,
    edi_residual,
    jko_evolve,
    local_step,
    write_jko_diagnostics_json,
    write_trajectory_csv,
)
from gradflow.models import fokker_planck_solve, write_model_csv
from gradflow.particles import (
    GENERATOR_VERSION,
    FiniteLdpProblem,
    ParticleEnsemble,
    varadhan_tilt,
    write_ensemble_metadata,
    write_ldp_table_csv,
    write_snapshot_csv,
)
from gradflow.transport import (
    transport_plan_record,
    w2_atomic,
    write_path_action_csv,
    write_transport_json,
)

RT1 = PhysicalConstants.with_rt(1.0)


def gaussian(cells=100, a=-5.0, b=5.0):
    grid = GridDensity1D(a, b, np.ones(cells))
    return grid.with_values(np.exp(-grid.centers**2 / 2)).normalized()


class TestTransportSerialization:
    def test_plan_record_fields(self):
        plan = w2_atomic([0.0, 1.0], [1.0, 0.0])
        record = transport_plan_record(plan)
        assert record == {"n": 2, "cost": 0.0, "permutation": [1, 0]}

    def test_transport_json(self, tmp_path):
        plans = [w2_atomic([0.0, 1.0], [0.2, 1.2]) for _ in range(3)]
        path = tmp_path / "plans.json"
        write_transport_json(plans, path)
        back = json.loads(path.read_text())
        assert len(back) == 3
        assert back[0]["n"] == 2

    def test_path_action_csv_matches_action(self, tmp_path):
        steps = 10
        path = [gaussian() for _ in range(steps + 1)]
        for k, rho in enumerate(path):
            shifted = np.roll(rho.values, k)
            path[k] = rho.with_values(shifted).normalized()
        out = tmp_path / "action.csv"
        total = write_path_action_csv(path, 0.1, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "step,time,local_norm_sq"
        assert len(lines) == steps + 1
        recomputed = sum(float(line.split(",")[2]) for line in lines[1:]) * 0.1
        assert recomputed == pytest.approx(total, rel=1e-12)


class TestTrajectoryCsv:
    def test_columns_and_partial_residual(self, tmp_path):
        problem = FlowProblem(
            EnergyFunctional.entropy(), QuadraticDissipation("wasserstein")
        )
        dt = 1e-4
        states = [gaussian(cells=80)]
        for _ in range(20):
            states.append(local_step(problem, states[-1], dt))
        out = tmp_path / "traj.csv"
        write_trajectory_csv(problem, states, dt, out)
        lines = out.read_text().splitlines()
        assert (
            lines[0]
            == "step,time,energy,dissipation_primal,dissipation_dual,edi_partial"
        )
        final_partial = float(lines[-1].split(",")[-1])
        assert final_partial == pytest.approx(
            edi_residual(problem, states, dt), rel=1e-10, abs=1e-14
        )

    def test_jko_diagnostics_json(self, tmp_path):
        _, infos = jko_evolve(gaussian(cells=60), 1e-3, 3, EnergyFunctional.entropy())
        out = tmp_path / "diag.json"
        write_jko_diagnostics_json(infos, out)
        records = json.loads(out.read_text())
        assert len(records) == 3
        assert set(records[0]) == {"iters", "grad_norm", "w2_sq", "energy"}
        assert records[0]["grad_norm"] <= 1e-9


class TestModelCsv:
    def test_fokker_planck_stream(self, tmp_path):
        c0 = gaussian(cells=64, a=-4.0, b=4.0)
        dt = 0.5 * c0.h**2 / 2
        traj = fokker_planck_solve(c0, RT1, None, 0.02, dt)
        out = tmp_path / "fp.csv"
        write_model_csv(traj, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "step,time,energy,mass"
        assert len(lines) == traj.energies.size + 1
        masses = [float(line.split(",")[3]) for line in lines[1:]]
        assert max(abs(m - masses[0]) for m in masses) <= 1e-12

    def test_multicomponent_stream_includes_constraint(self, tmp_path):
        from gradflow.models import MultiSpeciesState, multicomponent_evolve

        grid = GridDensity1D(0.0, 1.0, np.ones(32))
        c1 = 0.25 + 0.05 * np.sin(2 * math.pi * grid.centers)
        state = MultiSpeciesState(
            0.0,
            1.0,
            np.stack([c1, 0.5 - c1]),
            np.array([2.0, 2.0]),
            np.array([1.0, 1.0]),
        )
        traj = multicomponent_evolve(state, RT1, 1e-5, 20, mode="local")
        out = tmp_path / "mc.csv"
        write_model_csv(traj, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "step,time,energy,mass,constraint_max_violation"
        violations = [float(line.split(",")[4]) for line in lines[1:]]
        assert max(violations) <= 1e-8


class TestParticleSerialization:
    def test_snapshot_csv(self, tmp_path):
        rng = np.random.default_rng(0)
        out = tmp_path / "snap.csv"
        write_snapshot_csv(rng.normal(size=(5, 1)), out)
        lines = out.read_text().splitlines()
        assert lines[0] == "particle_id,x"
        assert len(lines) == 6

    def test_metadata_json(self, tmp_path):
        ens = ParticleEnsemble(positions=np.zeros((3, 1)), seed=17)
        out = tmp_path / "meta.json"
        write_ensemble_metadata(ens, 1e-2, 1.0, out)
        meta = json.loads(out.read_text())
        assert meta["seed"] == 17
        assert meta["n"] == 3
        assert meta["generator_version"] == GENERATOR_VERSION
        assert meta["A"] == [[1.0]]

    def test_ldp_table_csv(self, tmp_path):
        table = varadhan_tilt(
            FiniteLdpProblem(mu=np.array([0.5, 0.5]), n=10, tilt=np.array([0.0, 0.5]))
        )
        out = tmp_path / "ldp.csv"
        write_ldp_table_csv(table, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "type_0,type_1,exact_rate,limit_rate"
        assert len(lines) == table.types.shape[0] + 1


class TestFokkerPlanckEdiInvariant:
    def test_edi_residual_first_order_on_fp_trajectory(self):
        # the drift-diffusion trajectory, viewed through the wasserstein
        # dissipation, satisfies the EDI at first order in dt
        V = lambda x: 0.4 * x**2
        energy = EnergyFunctional.grid_free_energy(rt=1.0, potential=V)
        problem = FlowProblem(energy, QuadraticDissipation("wasserstein"))
        grid = GridDensity1D(-5.0, 5.0, np.ones(160))
        c0 = grid.with_values(np.exp(-grid.centers**2 / 1.5)).normalized()

        def residual(dt_frac):
            dt = dt_frac * grid.h**2 / 2
            traj = fokker_planck_solve(c0, RT1, V, 0.04, dt, store_every=1)
            return dt, edi_residual(problem, traj.snapshots, dt)

        dt_full, res_full = residual(0.8)
        dt_half, res_half = residual(0.4)
        assert res_full > res_half > 0.0
        order = math.log(res_full / res_half) / math.log(dt_full / dt_half)
        assert order >= 0.8
