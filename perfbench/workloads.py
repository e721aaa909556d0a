"""The benchmark workloads.

A workload turns the seed into inputs, then parses and builds everything one
pass needs (set-up), and returns the pass as a list of operations.  An
operation returns ``(gates, info)``: ``gates`` maps a check name to
``(passed, value)``, ``info`` holds values recorded but not checked.  An
operation fails when it raises or any gate fails.

Why these three (see NOTES.md for the layer-to-metric mapping):

* ``fp_relax`` -- one long explicit Fokker-Planck solve.  Per-call numpy
  overhead in ``models`` and ``_grid`` is nearly all of its time; every other
  layer is idle.
* ``cli_suite`` -- the other eight ``gradflow run`` experiments: many short
  solves on small arrays through every layer, none above half the time.
* ``mean_field`` -- dense O(n^2) interaction with large arrays and few calls:
  rebuilt n x n kernels, not call counts, set its time.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CLI_SUITE = (
    "entropy",
    "transport",
    "jko",
    "multicomponent",
    "phasefield",
    "particles",
    "ldp",
    "reversibility",
)
# parameter overrides for the self-test size; the full size is the default config
TINY_PARAMETERS = {
    "entropy": {"pairs": 50},
    "transport": {"instances": 5},
    "jko": {"cells": 100, "steps": 10},
    "multicomponent": {"steps": 100},
    "phasefield": {"steps": 500},
    "particles": {"n": 200},
    "ldp": {},
    "reversibility": {"cells": 40, "steps": 20},
}
BOLTZMANN_L1_TARGET = 1e-3  # acceptance criterion 07


@dataclass(frozen=True)
class Context:
    seed: int
    tiny: bool
    inject_failure: bool
    workdir: Path


def _rng(ctx: Context, stream: int) -> np.random.Generator:
    return np.random.default_rng([ctx.seed, stream])


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _load_config(ctx: Context, name: str, obj: dict):
    """Write a generated config and parse it the way ``gradflow run`` does."""
    from gradflow import cli

    path = ctx.workdir / "configs" / f"{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    obj = dict(obj, output_dir=str(ctx.workdir / "out" / name))
    path.write_text(json.dumps(obj, indent=2))
    return cli.load_config(path)


def _cli_op(cfg, extra_gates=None):
    """One ``gradflow run``: exit status, every invariant in summary.json."""
    from gradflow import cli

    def op():
        status = cli.run(cfg)
        summary = json.loads((cfg.output_dir / "summary.json").read_text())
        gates = {"exit_status": (status == 0, status)}
        for name, inv in summary["invariants"].items():
            gates[name] = (inv["passed"], inv["value"])
        if extra_gates is not None:
            gates.update(extra_gates(summary))
        info = {"error": summary["error"]} if "error" in summary else {}
        result = cfg.output_dir / "result.csv"
        if result.exists():
            info["result_sha256"] = _sha256(result)
        return gates, info

    return op


def fp_relax(ctx: Context):
    """Criterion-07 Fokker-Planck relaxation, V = x on [0, 5], explicit, dt = 0.9 CFL.

    Run to t_end = 12: the 1e-3 L1 target is first met near t = 11.1, and the
    default t_end = 50 over-solves by a factor of four.  The seed perturbs the
    uniform start by a few smooth cosine modes.
    """
    from gradflow import measures

    cells, length = (40 if ctx.tiny else 200), 5.0
    rng = _rng(ctx, 0)
    x = (np.arange(cells) + 0.5) * (length / cells)
    k = np.arange(1, 5)
    amplitude = 0.1 * rng.uniform(-1.0, 1.0, size=k.size) / k
    phase = rng.uniform(0.0, 2.0 * math.pi, size=k.size)
    values = 1.0 + (amplitude[:, None] * np.cos(k[:, None] * math.pi * x / length
                                                 + phase[:, None])).sum(axis=0)
    values /= values.sum() * (length / cells)
    initial = ctx.workdir / "initial.csv"
    initial.parent.mkdir(parents=True, exist_ok=True)
    measures.write_grid_csv(measures.GridDensity1D(0.0, length, values), initial)
    cfg = _load_config(ctx, "fokker_planck", {
        "experiment": "fokker_planck",
        "parameters": {
            "t_end": 1.0 if ctx.inject_failure else 12.0,
            "initial_csv": str(initial),
        },
        "seed": ctx.seed,
    })

    def boltzmann_target(summary):
        l1 = summary["invariants"].get("boltzmann_l1", {}).get("value")
        return {"boltzmann_l1<=1e-3": (l1 is not None and l1 <= BOLTZMANN_L1_TARGET, l1)}

    return [("fokker_planck", _cli_op(cfg, boltzmann_target))]


def cli_suite(ctx: Context):
    """The eight other experiments at default config, one seed each."""
    seeds = _rng(ctx, 1).integers(0, 2**63, size=len(CLI_SUITE))
    ops = []
    for name, seed in zip(CLI_SUITE, seeds):
        params = dict(TINY_PARAMETERS[name]) if ctx.tiny else {}
        if ctx.inject_failure and name == "transport":
            params["n_atoms"] = 10  # beyond the brute-force oracle: the run exits 3
        cfg = _load_config(ctx, name, {
            "experiment": name, "parameters": params, "seed": int(seed),
        })
        ops.append((name, _cli_op(cfg)))
    return ops


def mean_field(ctx: Context):
    """Interacting particles against their aggregation-diffusion limit.

    Quadratic background V = x^2/2 and the attractive Gaussian pair kernel
    W(r) = -exp(-r^2 / (2 l^2)), l = 1/2, at kT = mobility = 1.  The particles
    start as a seeded Gaussian sample; the grid flow starts from the same
    Gaussian.  With this weak attraction the free energy stays convex on the
    states reached, so the EDI residual of any sampled curve is nonnegative.
    """
    from gradflow import gradient_flow, particles, transport
    from gradflow.measures import GridDensity1D, PhysicalConstants

    if ctx.tiny:
        n, em_steps, cells, flow_steps, stride, t_end = 200, 10, 100, 10, 2, 0.04
    else:
        n, em_steps, cells, flow_steps, stride, t_end = 1000, 50, 400, 550, 11, 0.2
    domain = (-6.0, 6.0)
    ell = 0.5

    def vb(x):
        return 0.5 * x * x

    def grad_vb(x):
        return x

    def w(r):
        return -np.exp(-r * r / (2 * ell * ell))

    def grad_w(r):
        return r / (ell * ell) * np.exp(-r * r / (2 * ell * ell))

    rng = _rng(ctx, 2)
    mean, width = rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.0)
    positions = rng.normal(mean, width, size=n)
    ensemble = particles.ParticleEnsemble(
        positions=positions[:, None],
        seed=int(rng.integers(0, 2**63)),
        grad_background=grad_vb,
        grad_interaction=grad_w,
    )
    grid = GridDensity1D(*domain, np.ones(cells))
    rho0 = grid.with_values(np.exp(-0.5 * ((grid.centers - mean) / width) ** 2)).normalized()
    energy = gradient_flow.EnergyFunctional.grid_free_energy(rt=1.0, potential=vb, interaction=w)
    problem = gradient_flow.FlowProblem(energy, gradient_flow.QuadraticDissipation("wasserstein"))
    constants = PhysicalConstants.with_rt(1.0)
    dt = t_end / flow_steps
    if dt > 0.9 * grid.h**2 / 2.0:
        raise ValueError("mean_field flow step exceeds 0.9 of the diffusive CFL bound")
    w2_bound = 10.0 / math.sqrt(n) * (1e-9 if ctx.inject_failure else 1.0)
    state = {}

    def em():
        _, traj = particles.euler_maruyama(ensemble, t_end / em_steps, t_end, store_every=em_steps)
        final = traj[-1][:, 0]
        state["hist"] = particles.empirical_density(final, domain, cells)
        return {"positions_finite": (bool(np.isfinite(traj).all()), None)}, {}

    def flow():
        cur, states = rho0, [rho0]
        for k in range(1, flow_steps + 1):
            cur = gradient_flow.local_step(problem, cur, dt)
            if k % stride == 0:
                states.append(cur)
        state["states"] = states
        masses = np.array([s.mass() for s in states])
        energies = np.array([energy.value(s) for s in states])
        drift = float(np.abs(masses - masses[0]).max())
        rise = float(np.diff(energies).max())
        return {
            "mass_drift<=1e-10": (drift <= 1e-10, drift),
            "energy_nonincreasing": (rise <= 1e-12, rise),
        }, {}

    def edi():
        states = state["states"]
        residual = gradient_flow.edi_residual(problem, states, dt * stride)
        rate = particles.rate_functional(states, dt * stride, constants, Vb=vb, Vi=w)
        return {
            "edi_residual>=0": (residual >= 0.0, residual),
            "rate_functional_finite": (math.isfinite(rate), rate),
        }, {}

    def w2():
        dist = transport.w2_grid_1d(state["hist"], state["states"][-1])
        return {"w2<=10/sqrt(n)": (dist <= w2_bound, dist)}, {}

    return [("euler_maruyama", em), ("flow", flow), ("edi", edi), ("w2", w2)]


WORKLOADS = {"fp_relax": fp_relax, "cli_suite": cli_suite, "mean_field": mean_field}
