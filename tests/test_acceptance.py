"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints one `[criterion NN] PASS/FAIL` line with the measured
values, so `pytest -s tests/test_acceptance.py` doubles as the acceptance
report.  Runtime budgets are asserted where the criterion states one.
"""

import json
import math
import time

import numpy as np
import pytest

from gradflow.measures import (
    DiscreteMeasure,
    GridDensity1D,
    PhysicalConstants,
    push_forward,
    relative_entropy,
    total_variation,
)
from gradflow.gradient_flow import (
    EnergyFunctional,
    FlowProblem,
    QuadraticDissipation,
    edi_residual,
    jko_evolve,
    local_step,
)
from gradflow.models import (
    MultiSpeciesState,
    PhaseFieldState,
    allen_cahn_solve,
    cahn_hilliard_solve,
    fokker_planck_solve,
    multicomponent_evolve,
)
from gradflow.particles import (
    FiniteLdpProblem,
    HalfSpace,
    ParticleEnsemble,
    coin_rate,
    coin_tail_exact,
    empirical_density,
    euler_maruyama,
    reversibility_check,
    sanov_exact,
    varadhan_tilt,
)
from gradflow.transport import quantiles, w2_atomic, w2_atomic_bruteforce, w2_grid_1d
from gradflow import cli

RT1 = PhysicalConstants.with_rt(1.0)


def report(number: int, passed: bool, detail: str) -> None:
    print(f"[criterion {number:02d}] {'PASS' if passed else 'FAIL'} - {detail}")


def gaussian(grid: GridDensity1D, var: float = 1.0, mean: float = 0.0) -> GridDensity1D:
    vals = np.exp(-((grid.centers - mean) ** 2) / (2 * var))
    return grid.with_values(vals).normalized()


def test_criterion_01_assignment_oracle():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for n in range(2, 9):
        for _ in range(200):
            d = int(rng.integers(1, 4))
            x = rng.normal(size=(n, d))
            y = rng.normal(size=(n, d))
            worst = max(worst, abs(w2_atomic(x, y).cost - w2_atomic_bruteforce(x, y).cost))
    wall = time.perf_counter() - start
    ok = worst <= 1e-12 and wall < 10.0
    report(1, ok, f"max |cost delta| = {worst:.2e} over 1400 instances, {wall:.1f}s")
    assert worst <= 1e-12
    assert wall < 10.0


def test_criterion_02_point_mass_distance_exact():
    rng = np.random.default_rng(7)
    failures = 0
    for _ in range(100):
        d = int(rng.integers(1, 4))
        x = rng.normal(size=(1, d))
        y = rng.normal(size=(1, d))
        w2 = w2_atomic(x, y).distance
        euclid = float(np.sqrt(np.sum((x[0] - y[0]) ** 2)))
        if w2 != euclid:
            failures += 1
    report(2, failures == 0, f"{failures} of 100 pairs differ from |x-y|")
    assert failures == 0


def test_criterion_03_entropy_suite():
    rng = np.random.default_rng(99)
    violations = {"nonneg": 0, "zero_iff": 0, "ckp": 0, "push": 0, "dpi": 0}
    for _ in range(1000):
        size = int(rng.integers(2, 9))
        atoms = np.arange(size)[:, None].astype(float)
        mu_w = rng.random(size) + 1e-3
        mu_w /= mu_w.sum()
        nu_w = rng.random(size) + 1e-3
        nu_w /= nu_w.sum()
        mu = DiscreteMeasure(atoms, mu_w)
        nu = DiscreteMeasure(atoms, nu_w)
        h = relative_entropy(mu, nu)
        if h < 0:
            violations["nonneg"] += 1
        if h == 0 and not np.array_equal(mu_w, nu_w):
            violations["zero_iff"] += 1
        if relative_entropy(mu, mu) != 0:
            violations["zero_iff"] += 1
        if 2 * total_variation(mu, nu) ** 2 > h:
            violations["ckp"] += 1
        shift = float(rng.normal())
        inj = lambda x: 3.0 * x + shift
        if relative_entropy(push_forward(mu, inj), push_forward(nu, inj)) != h:
            violations["push"] += 1
        merge = rng.integers(0, max(2, size - 1), size=size)
        coarse = lambda x: merge[x[:, 0].astype(int)].astype(float)
        if (
            relative_entropy(push_forward(mu, coarse), push_forward(nu, coarse))
            > h + 1e-12
        ):
            violations["dpi"] += 1
    total = sum(violations.values())
    report(3, total == 0, f"violations by kind: {violations}")
    assert total == 0


def test_criterion_04_coin_ldp():
    start = time.perf_counter()
    reference = 0.020136
    errors = [abs(coin_tail_exact(n, 0.6) - coin_rate(0.6)) for n in (100, 500, 2000)]
    final_gap = abs(coin_tail_exact(2000, 0.6) - reference)
    wall = time.perf_counter() - start
    ok = final_gap <= 0.01 and errors[0] > errors[1] > errors[2] and wall < 1.0
    report(
        4,
        ok,
        f"|tail(2000) - 0.020136| = {final_gap:.4f}, errors {['%.4f' % e for e in errors]}, {wall:.2f}s",
    )
    assert final_gap <= 0.01
    assert errors[0] > errors[1] > errors[2]
    assert wall < 1.0


def test_criterion_05_sanov_varadhan():
    start = time.perf_counter()
    mu = np.full(3, 1.0 / 3.0)
    constraint = HalfSpace(np.array([1.0, 0.0, 0.0]), 0.6)
    gaps = []
    for n in (30, 60, 120):
        res = sanov_exact(FiniteLdpProblem(mu=mu, n=n), constraint)
        gaps.append(abs(res.exact_rate - res.entropy_infimum))
    # tilted case: the tilted type law is the multinomial of the tilted
    # reference, so the same enumeration applies with mu exp(-F)
    tilt = np.array([0.0, 0.4, 0.8])
    tilted_mu = mu * np.exp(-tilt)
    tilted_mu /= tilted_mu.sum()
    tilted_gaps = []
    for n in (30, 60, 120):
        res = sanov_exact(FiniteLdpProblem(mu=tilted_mu, n=n), constraint)
        tilted_gaps.append(abs(res.exact_rate - res.entropy_infimum))
    # spot check against the tilt table normalization at n = 120
    table = varadhan_tilt(FiniteLdpProblem(mu=mu, n=120, tilt=tilt))
    table_gap = float(np.min(table.exact_rate))
    wall = time.perf_counter() - start
    ok = (
        gaps[-1] <= 0.05
        and tilted_gaps[-1] <= 0.05
        and gaps[0] > gaps[1] > gaps[2]
        and tilted_gaps[0] > tilted_gaps[1] > tilted_gaps[2]
        and wall < 30.0
    )
    report(
        5,
        ok,
        f"sanov gaps {['%.4f' % g for g in gaps]}, tilted {['%.4f' % g for g in tilted_gaps]}, "
        f"table min {table_gap:.4f}, {wall:.1f}s",
    )
    assert gaps[-1] <= 0.05 and tilted_gaps[-1] <= 0.05
    assert gaps[0] > gaps[1] > gaps[2]
    assert tilted_gaps[0] > tilted_gaps[1] > tilted_gaps[2]
    assert wall < 30.0


def test_criterion_06_jko_heat_flow():
    start = time.perf_counter()
    grid = GridDensity1D(-6.0, 6.0, np.ones(400))
    rho = gaussian(grid, var=1.0)
    energy = EnergyFunctional.entropy()
    traj, _ = jko_evolve(rho, 1e-3, 100, energy)
    grid_energies = traj.energies
    rho = traj.final
    mean = rho.h * np.sum(rho.values * rho.centers)
    variance = float(rho.h * np.sum(rho.values * (rho.centers - mean) ** 2))
    increases = max(b - a for a, b in zip(grid_energies[:-1], grid_energies[1:]))
    wall = time.perf_counter() - start
    ok = abs(variance - 1.2) <= 0.024 and increases <= 0.0 and wall < 60.0
    report(
        6,
        ok,
        f"final variance {variance:.4f} (target 1.2 +- 0.024), max energy step {increases:.2e}, {wall:.1f}s",
    )
    assert abs(variance - 1.2) <= 0.024
    assert increases <= 0.0
    assert wall < 60.0


def test_criterion_07_boltzmann_stationarity():
    start = time.perf_counter()
    grid = GridDensity1D(0.0, 5.0, np.ones(200))
    c0 = grid.with_values(np.full(200, 0.2))
    dt = 0.9 * grid.h**2 / 2.0
    traj = fokker_planck_solve(c0, RT1, lambda x: x, 50.0, dt, store_every=10**6)
    target = np.exp(-grid.centers)
    target *= c0.mass() / (grid.h * target.sum())
    l1 = float(grid.h * np.abs(traj.final.values - target).sum())
    wall = time.perf_counter() - start
    ok = l1 <= 1e-3 and wall < 30.0
    report(7, ok, f"L1 distance to exp(-x) profile = {l1:.2e}, {wall:.1f}s")
    assert l1 <= 1e-3
    assert wall < 30.0


def test_criterion_08_edi_first_order_and_reversal():
    problem = FlowProblem(EnergyFunctional.entropy(), QuadraticDissipation("wasserstein"))
    grid = GridDensity1D(-5.0, 5.0, np.ones(200))

    def heat_trajectory(dt, steps):
        states = [gaussian(grid, var=1.0)]
        for _ in range(steps):
            states.append(local_step(problem, states[-1], dt))
        return states

    res_dt = edi_residual(problem, heat_trajectory(2e-4, 100), 2e-4)
    res_half = edi_residual(problem, heat_trajectory(1e-4, 200), 1e-4)
    ratio = res_dt / res_half
    forward_states = heat_trajectory(2e-4, 100)
    forward = edi_residual(problem, forward_states, 2e-4)
    reversed_res = edi_residual(problem, forward_states[::-1], 2e-4)
    ok = 1.7 <= ratio <= 2.3 and reversed_res > 10 * forward
    report(
        8,
        ok,
        f"residual ratio {ratio:.2f} (want [1.7, 2.3]), reversed/forward = {reversed_res / forward:.0f}x",
    )
    assert 1.7 <= ratio <= 2.3
    assert reversed_res > 10 * forward


def test_criterion_09_multicomponent():
    cells = 64
    grid = GridDensity1D(0.0, 1.0, np.ones(cells))
    alpha = np.array([2.0, 2.0])
    profile = 0.25 + 0.08 * np.sin(2 * math.pi * grid.centers)
    state = MultiSpeciesState(
        0.0,
        1.0,
        np.stack([profile, (1.0 - alpha[0] * profile) / alpha[1]]),
        alpha,
        np.array([1.0, 1.0]),
    )
    dt, steps = 1e-5, 1000
    worst_constraint = 0.0
    finals = {}
    for mode in ("global", "local"):
        traj = multicomponent_evolve(state, RT1, dt, steps, mode=mode)
        worst_constraint = max(
            worst_constraint, float(traj.extra["constraint_max_violation"].max())
        )
        finals[mode] = traj.final
    single = fokker_planck_solve(grid.with_values(profile), RT1, None, dt * steps, dt)
    gap = float(np.abs(finals["global"].concentrations[0] - single.final.values).max())
    ok = gap <= 1e-6 and worst_constraint <= 1e-8
    report(
        9,
        ok,
        f"L_inf vs single species = {gap:.2e}, worst constraint violation {worst_constraint:.2e}",
    )
    assert gap <= 1e-6
    assert worst_constraint <= 1e-8


def test_criterion_10_phase_field():
    rng = np.random.default_rng(31)
    ac_state = PhaseFieldState(0.0, 32.0, 0.4 * rng.normal(size=64))
    ac = allen_cahn_solve(ac_state, 1.0, 100.0, 0.02, store_every=10**6)
    ch_state = PhaseFieldState(0.0, 64.0, 0.05 * rng.normal(size=64))
    ch = cahn_hilliard_solve(ch_state, 1.0, 400.0, 0.04, store_every=10**6)
    ch_steps = ch.energies.size - 1
    mean_drift = float(np.abs(ch.extra["mean"] - ch.extra["mean"][0]).max())
    # monotone up to the fp resolution of the energy values themselves
    fp_resolution = 1e-14
    ok = (
        ac.max_energy_increase() <= fp_resolution
        and ch.max_energy_increase() <= fp_resolution
        and mean_drift <= 1e-12
        and ch_steps >= 10_000
    )
    report(
        10,
        ok,
        f"AC max energy step {ac.max_energy_increase():.2e}, CH max {ch.max_energy_increase():.2e}, "
        f"CH mean drift {mean_drift:.2e} over {ch_steps} steps",
    )
    assert ac.max_energy_increase() <= fp_resolution
    assert ch.max_energy_increase() <= fp_resolution
    assert mean_drift <= 1e-12
    assert ch_steps >= 10_000


def test_criterion_11_sde_to_pde_convergence():
    start = time.perf_counter()
    grid = GridDensity1D(-6.0, 6.0, np.ones(800))
    rho0 = gaussian(grid, var=0.25)
    kT, mobility = 1.0, 1.0
    sigma = math.sqrt(kT * mobility)
    T, dt = 0.5, 2e-3
    pde = fokker_planck_solve(
        rho0, RT1, lambda x: 0.5 * x**2, T, 0.9 * grid.h**2 / 2.0, store_every=10**6
    )
    medians = []
    for n in (100, 1000, 10000):
        start_positions = quantiles(rho0, (np.arange(n) + 0.5) / n)[:, None]
        distances = []
        for seed in range(10):
            ens = ParticleEnsemble(
                positions=start_positions,
                seed=seed,
                grad_background=lambda x: x,
                A=mobility,
                sigma=sigma,
            )
            _, traj = euler_maruyama(ens, dt, T, store_every=10**6)
            hist = empirical_density(traj[-1][:, 0], (-6.0, 6.0), 800)
            distances.append(w2_grid_1d(hist, pde.final))
        medians.append(float(np.median(distances)))
    wall = time.perf_counter() - start
    ok = medians[0] > medians[1] > medians[2] and wall < 300.0
    report(
        11,
        ok,
        f"median W2 by n: {['%.4f' % m for m in medians]} (strictly decreasing), {wall:.0f}s",
    )
    assert medians[0] > medians[1] > medians[2]
    assert wall < 300.0


def test_criterion_12_reversibility():
    grid = GridDensity1D(-3.0, 3.0, np.ones(80))
    x = grid.centers

    def bump(c, w):
        return np.exp(-((x - c) ** 2) / (2 * w**2)) + 0.05

    start = np.stack([bump(-0.8, 0.5), bump(0.6, 0.7)])
    end = np.stack([bump(0.7, 0.8), bump(-0.5, 0.6)])
    ts = np.linspace(0.0, 1.0, 61)
    path1 = np.array([(1 - t) * start + t * end for t in ts])

    def detour(t):
        t0, t1 = min(1.0, 2 * t), max(0.0, 2 * t - 1)
        snap = start.copy()
        snap[0] = (1 - t0) * start[0] + t0 * end[0]
        snap[1] = (1 - t1) * start[1] + t1 * end[1]
        return snap

    path2 = np.array([detour(t) for t in ts])
    coupling = lambda r: np.exp(-(r**2))
    A = np.array([1.0, 2.0])
    kT = 1.3
    c1p, c2p = reversibility_check(
        A, np.sqrt(kT * A), path1, path2, domain=(-3.0, 3.0), coupling=coupling
    )
    c1n, c2n = reversibility_check(
        np.array([1.0, 1.0]),
        np.array([1.0, math.sqrt(2.0)]),
        path1,
        path2,
        domain=(-3.0, 3.0),
        coupling=coupling,
    )
    agree = abs(c1p - c2p)
    differ = abs(c1n - c2n)
    ok = agree <= 1e-6 and differ > 1e-3
    report(12, ok, f"proportional gap {agree:.2e}, non-proportional gap {differ:.2e}")
    assert agree <= 1e-6
    assert differ > 1e-3


def test_criterion_13_determinism(tmp_path, fast_experiment_configs):
    mismatches = []
    for experiment, block in fast_experiment_configs.items():
        obj = {"experiment": experiment, "seed": 42, **block}
        cfg_path = tmp_path / f"{experiment}.json"
        cfg_path.write_text(json.dumps(obj))
        outs = []
        for run_dir in ("run_a", "run_b"):
            out = tmp_path / experiment / run_dir
            status = cli.main(
                ["run", "--config", str(cfg_path), "--out", str(out)]
            )
            assert status == 0, f"{experiment} failed with status {status}"
            outs.append((out / "result.csv").read_bytes())
        if outs[0] != outs[1]:
            mismatches.append(experiment)
    ok = not mismatches
    report(13, ok, f"byte-identical reruns for all 9 experiments; mismatches: {mismatches}")
    assert not mismatches
