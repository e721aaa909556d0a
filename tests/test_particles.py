import math

import numpy as np
import pytest
from scipy.stats import chisquare, norm

from gradflow import particles
from gradflow.gradient_flow import QuadraticDissipation
from gradflow.measures import GridDensity1D, PhysicalConstants
from gradflow.models import fokker_planck_solve
from gradflow.particles import (
    PAIR_BLOCK_ELEMENTS,
    BlowUpError,
    FiniteLdpProblem,
    HalfSpace,
    ParticleEnsemble,
    coin_rate,
    coin_tail_exact,
    empirical_density,
    euler_maruyama,
    log_degeneracy,
    rate_functional,
    reversibility_check,
    sanov_exact,
    schilder_action,
    varadhan_tilt,
)
from gradflow.transport import w2_atomic

RT1 = PhysicalConstants.with_rt(1.0)


class TestEulerMaruyama:
    def test_noiseless_quadratic_well_decays_exponentially(self):
        k = 1.5
        ens = ParticleEnsemble(
            positions=np.array([[1.0], [2.0]]),
            seed=1,
            grad_background=lambda x: k * x,
            sigma=0.0,
        )
        dt, T = 1e-4, 1.0
        _, traj = euler_maruyama(ens, dt, T, store_every=10**9)
        expected = ens.positions * math.exp(-k * T)
        assert np.abs(traj[-1] - expected).max() <= 5 * dt

    def test_pure_brownian_variance(self):
        n, T, dt = 20_000, 1.0, 1e-2
        ens = ParticleEnsemble(positions=np.zeros((n, 1)), seed=7)
        _, traj = euler_maruyama(ens, dt, T, store_every=10**9)
        sample_var = float(np.var(traj[-1]))
        assert abs(sample_var - 2 * T) <= 2 * T * 5 / math.sqrt(n)

    def test_single_particle_boltzmann_histogram(self):
        # ergodic average of one OU particle against exp(-x^2/2)/Z,
        # thinned far beyond the unit correlation time
        ens = ParticleEnsemble(
            positions=np.zeros((1, 1)),
            seed=123,
            grad_background=lambda x: x,
        )
        dt, T = 2e-2, 2000.0
        _, traj = euler_maruyama(ens, dt, T, store_every=100)
        samples = traj[201:, 0, 0]
        edges = norm.ppf(np.linspace(0.02, 0.98, 13), scale=1.0)
        counts, _ = np.histogram(samples, bins=edges)
        cell_probs = np.diff(norm.cdf(edges))
        expected = cell_probs / cell_probs.sum() * counts.sum()
        stat, p_value = chisquare(counts, expected)
        assert p_value > 1e-3

    def test_seeded_determinism_is_bitwise(self):
        ens = ParticleEnsemble(
            positions=np.linspace(-1, 1, 50)[:, None],
            seed=99,
            grad_background=lambda x: x**3,
            grad_interaction=lambda d: 0.1 * d,
        )
        _, run1 = euler_maruyama(ens, 1e-2, 0.5)
        _, run2 = euler_maruyama(ens, 1e-2, 0.5)
        assert np.array_equal(run1, run2)

    @pytest.mark.parametrize("n, dim", [(1000, 1), (777, 2)])
    def test_blocked_pair_drift_is_bitwise_one_block(self, n, dim):
        # several row blocks, the last one short
        rows = PAIR_BLOCK_ELEMENTS // (n * dim)
        assert 1 <= rows < n and n % rows != 0

        def grad_w(d):
            return d * np.exp(-np.sum(d * d, axis=-1, keepdims=True))

        def grad_vb(x):
            return x

        ens = ParticleEnsemble(
            positions=np.random.default_rng(n).normal(size=(n, dim)),
            seed=21,
            grad_background=grad_vb,
            grad_interaction=grad_w,
        )
        dt, steps = 1e-2, 3
        _, traj = euler_maruyama(ens, dt, steps * dt)

        rng = np.random.Generator(np.random.Philox(ens.seed))
        pos = ens.positions.copy()
        expected = [pos.copy()]
        for _ in range(steps):
            drift = np.zeros_like(pos)
            drift += grad_vb(pos)
            drift += grad_w(pos[:, None, :] - pos[None, :, :]).sum(axis=1) / n
            xi = rng.standard_normal(pos.shape)
            pos = pos - (drift @ ens.A.T) * dt + math.sqrt(2 * dt) * (xi @ ens.sigma.T)
            expected.append(pos.copy())
        assert np.array_equal(traj, np.asarray(expected))

    @pytest.mark.parametrize("n, dim", [(1000, 1), (4000, 1), (777, 2)])
    def test_pair_blocks_stay_below_the_mmap_threshold(self, n, dim):
        # glibc maps allocations of 128 KiB and more afresh and unmaps them
        # on free; pair blocks below it are reused from the heap
        largest = 0

        def grad_w(d):
            nonlocal largest
            largest = max(largest, d.nbytes)
            return 0.1 * d

        ens = ParticleEnsemble(
            positions=np.random.default_rng(n).normal(size=(n, dim)),
            seed=4,
            grad_interaction=grad_w,
        )
        euler_maruyama(ens, 1e-2, 2e-2)
        assert 0 < largest < 128 * 1024

    @pytest.mark.parametrize("n, dim", [(1000, 1), (777, 2)])
    def test_pair_drift_is_bitwise_the_same_for_every_block_budget(self, n, dim, monkeypatch):
        def grad_w(d):
            return d * np.exp(-np.sum(d * d, axis=-1, keepdims=True))

        pos = np.random.default_rng(n).normal(size=(n, dim))
        drifts = []
        for budget in (1, 2**13, PAIR_BLOCK_ELEMENTS, 2**16, n * n * dim):
            monkeypatch.setattr(particles, "PAIR_BLOCK_ELEMENTS", budget)
            drifts.append(particles._interaction_drift(pos, grad_w))
        for drift in drifts[1:]:
            assert np.array_equal(drift, drifts[0])

    @pytest.mark.parametrize("store_every", [0, -2])
    def test_store_every_below_one_rejected(self, store_every):
        ens = ParticleEnsemble(positions=np.zeros((3, 1)), seed=0)
        with pytest.raises(ValueError, match="store_every"):
            euler_maruyama(ens, 0.1, 1.0, store_every=store_every)

    def test_blowup_reports_step(self):
        ens = ParticleEnsemble(
            positions=np.array([[2.0]]),
            seed=3,
            grad_background=lambda x: -(x**5),
            sigma=0.0,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BlowUpError):
                euler_maruyama(ens, 0.5, 10.0)

    def test_asymmetric_mobility_rejected(self):
        with pytest.raises(ValueError):
            ParticleEnsemble(
                positions=np.zeros((2, 2)),
                seed=0,
                A=np.array([[1.0, 0.5], [0.0, 1.0]]),
            )


class TestEmpiricalDensity:
    def test_point_mass_spike(self):
        grid = GridDensity1D(0.0, 1.0, np.ones(10))
        center = grid.centers[4]
        rho = empirical_density(np.full(50, center), (0.0, 1.0), 10)
        assert rho.values[4] == pytest.approx(1.0 / rho.h)
        assert rho.mass() == pytest.approx(1.0, abs=1e-12)

    def test_uniform_sample_concentration(self):
        rng = np.random.default_rng(17)
        n, cells = 100_000, 50
        rho = empirical_density(rng.random(n), (0.0, 1.0), cells)
        h = 1.0 / cells
        bound = 5 * math.sqrt(math.log(n) / (n * h))
        assert np.abs(rho.values - 1.0).max() <= bound

    def test_mass_is_one_to_machine(self):
        rng = np.random.default_rng(5)
        rho = empirical_density(rng.normal(size=1000), (-6.0, 6.0), 64)
        assert abs(rho.mass() - 1.0) <= 1e-12

    def test_excessive_loss_raises(self):
        with pytest.raises(ValueError):
            empirical_density(np.array([0.5, 0.5, 7.0]), (0.0, 1.0), 8)


def smooth_density(grid, center=0.0, width=1.0):
    vals = np.exp(-((grid.centers - center) ** 2) / (2 * width**2)) + 1e-4
    return grid.with_values(vals).normalized()


class TestRateFunctional:
    def test_solver_path_has_negligible_rate(self):
        grid = GridDensity1D(-4.0, 4.0, np.ones(160))
        c0 = smooth_density(grid, width=0.8)
        dt = 0.8 * grid.h**2 / 2
        traj = fokker_planck_solve(c0, RT1, lambda x: 0.5 * x**2, 0.05, dt, store_every=1)
        value = rate_functional(traj.snapshots, dt, RT1, Vb=lambda x: 0.5 * x**2)
        assert 0.0 <= value <= 1e-12

    def test_continuum_solution_rate_vanishes_first_order(self):
        # sampled heat kernels are not discrete solutions; their rate decays
        # with resolution
        def rate_at(cells):
            grid = GridDensity1D(-6.0, 6.0, np.ones(cells))
            dt = 0.5 * grid.h**2 / 2
            t0 = 0.3
            steps = 40
            path = [
                grid.with_values(
                    np.exp(-grid.centers**2 / (4 * (t0 + k * dt)))
                    / math.sqrt(4 * math.pi * (t0 + k * dt))
                ).normalized()
                for k in range(steps + 1)
            ]
            return rate_functional(path, dt, RT1)

        coarse, fine = rate_at(100), rate_at(200)
        assert coarse > fine > 0.0
        assert coarse / fine >= 1.7

    def test_translation_costs_the_same_in_every_segment(self):
        # the Gaussian's tail falls to 1e-32 at the right end: a segment's
        # mass rounding, spread over the tail as a mean, made some segments
        # cost 13 times the others
        grid = GridDensity1D(-8.0, 12.0, np.ones(1000))
        path = [
            grid.with_values(np.exp(-((grid.centers - 5e-4 * k) ** 2) / 2)).normalized()
            for k in range(31)
        ]
        costs = [rate_functional(path[k : k + 2], 1e-3, RT1) for k in range(30)]
        assert max(costs) == pytest.approx(min(costs), rel=1e-9)

    def test_stationary_boltzmann_path(self):
        grid = GridDensity1D(-4.0, 4.0, np.ones(120))
        V = lambda x: 0.5 * x**2
        rho = grid.with_values(np.exp(-V(grid.centers))).normalized()
        value = rate_functional([rho] * 30, 1e-3, RT1, Vb=V)
        assert 0.0 <= value <= 1e-8

    def test_fdt_decomposition_termwise(self):
        # 2I = F(T) - F(0) + (1/2) int [ ||rho_dot||^2 + ||DF||^2 ] along any
        # path.  The rate functional, the kinetic and the forcing terms share
        # the log-mean mobility, so the gap is the time discretization alone
        # and halves with dt.
        W = QuadraticDissipation("wasserstein")

        grid = GridDensity1D(-5.0, 5.0, np.ones(400))
        V = lambda x: 0.4 * x**2

        def free_energy(rho):
            v = rho.values
            pos = v > 0
            return float(
                rho.h * np.sum(v[pos] * np.log(v[pos]))
                + rho.h * np.sum(v * V(rho.centers))
            )

        def relative_gap(dt, steps):
            # a generic smooth non-solution path: widening Gaussian with a drifted mean
            path = []
            for k in range(steps + 1):
                t = k * dt
                path.append(
                    grid.with_values(
                        np.exp(-((grid.centers - 0.3 * t) ** 2) / (2 * (0.7 + 0.5 * t)))
                    ).normalized()
                )
            rate = rate_functional(path, dt, RT1, Vb=V)
            kinetic = 0.0
            forcing = 0.0
            for prev, cur in zip(path[:-1], path[1:]):
                rho_dot = (cur.values - prev.values) / dt
                kinetic += 2.0 * W.psi(prev, rho_dot - rho_dot.mean()) * dt  # RT/eta = 1
                df = np.log(prev.values) + 1.0 + V(prev.centers)
                forcing += 2.0 * W.psi_star(prev, df) * dt
            lhs = 2 * rate
            rhs = free_energy(path[-1]) - free_energy(path[0]) + 0.5 * (kinetic + forcing)
            assert lhs == pytest.approx(rhs, rel=2e-2)
            return abs(lhs - rhs) / abs(rhs)

        ratio = relative_gap(2e-4, 400) / relative_gap(1e-4, 800)
        assert 1.8 <= ratio <= 2.2

    def test_reversed_path_pays_the_free_energy_drop(self):
        grid = GridDensity1D(-4.0, 4.0, np.ones(200))
        c0 = smooth_density(grid, width=0.6)
        dt = 0.5 * grid.h**2 / 2
        traj = fokker_planck_solve(c0, RT1, None, 0.1, dt, store_every=1)
        snaps = traj.snapshots
        fwd = rate_functional(snaps, dt, RT1)
        rev = rate_functional(snaps[::-1], dt, RT1)
        drop = traj.energies[0] - traj.energies[-1]
        assert rev > 100 * max(fwd, 1e-15)
        assert rev == pytest.approx(drop, rel=5e-2)


class TestReversibility:
    @staticmethod
    def make_paths(cells=80, steps=60):
        grid = GridDensity1D(-3.0, 3.0, np.ones(cells))
        x = grid.centers

        def bump(c, w):
            return np.exp(-((x - c) ** 2) / (2 * w**2)) + 0.05

        start = np.stack([bump(-0.8, 0.5), bump(0.6, 0.7)])
        end = np.stack([bump(0.7, 0.8), bump(-0.5, 0.6)])

        def straight(t):
            return (1 - t) * start + t * end

        def detour(t):
            # move field 0 first, then field 1
            t0, t1 = min(1.0, 2 * t), max(0.0, 2 * t - 1)
            out = straight(0.0).copy()
            out[0] = (1 - t0) * start[0] + t0 * end[0]
            out[1] = (1 - t1) * start[1] + t1 * end[1]
            return out

        ts = np.linspace(0.0, 1.0, steps + 1)
        path1 = np.array([straight(t) for t in ts])
        path2 = np.array([detour(t) for t in ts])
        return path1, path2

    def test_proportional_noise_gives_path_independence(self):
        path1, path2 = self.make_paths()
        kT = 1.3
        A = np.array([1.0, 2.0])
        sigma = np.sqrt(kT * A)
        c1, c2 = reversibility_check(
            A,
            sigma,
            path1,
            path2,
            domain=(-3.0, 3.0),
            background=lambda x: 0.3 * x**2,
            coupling=lambda r: np.exp(-(r**2)),
        )
        assert abs(c1 - c2) <= 1e-6

    def test_nonproportional_noise_breaks_exactness(self):
        path1, path2 = self.make_paths()
        A = np.array([1.0, 1.0])
        sigma = np.array([1.0, math.sqrt(2.0)])  # sigma sigma^T = diag(1, 2)
        c1, c2 = reversibility_check(
            A,
            sigma,
            path1,
            path2,
            domain=(-3.0, 3.0),
            coupling=lambda r: np.exp(-(r**2)),
        )
        assert abs(c1 - c2) > 1e-3

    @pytest.mark.parametrize("domain", [(3.0, -3.0), (-3.0, math.inf)])
    def test_domain_must_be_finite_with_b_above_a(self, domain):
        path1, path2 = self.make_paths(steps=4)
        with pytest.raises(ValueError, match="domain"):
            reversibility_check(np.ones(2), np.ones(2), path1, path2, domain=domain)

    def test_constant_path_has_zero_cross_term(self):
        path1, _ = self.make_paths(steps=4)
        frozen = np.repeat(path1[:1], 5, axis=0)
        c1, c2 = reversibility_check(
            np.array([1.0, 1.0]),
            np.array([1.0, 1.0]),
            frozen,
            frozen,
            domain=(-3.0, 3.0),
        )
        assert c1 == 0.0 and c2 == 0.0


class TestCoinLdp:
    def test_rate_minimum_and_endpoint(self):
        assert coin_rate(0.5) == 0.0
        assert coin_rate(1.0) == pytest.approx(math.log(2.0), rel=1e-15)
        assert coin_rate(-0.1) == math.inf

    def test_rate_at_point_six(self):
        expected = 0.6 * math.log(0.6) + 0.4 * math.log(0.4) + math.log(2.0)
        assert coin_rate(0.6) == pytest.approx(expected, abs=1e-15)
        assert coin_rate(0.6) == pytest.approx(0.020136, abs=1e-6)

    def test_single_toss(self):
        assert coin_tail_exact(1, 1.0) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_convergence_to_rate(self):
        errors = [abs(coin_tail_exact(n, 0.6) - coin_rate(0.6)) for n in (100, 500, 2000)]
        assert errors[-1] <= 0.01
        assert errors[0] > errors[1] > errors[2]

    def test_type_counting_lower_bound(self):
        for n in (10, 100, 1000, 10_000):
            for a in (0.5, 0.6, 0.75, 0.9, 1.0):
                assert coin_tail_exact(n, a) >= coin_rate(a) - math.log(n + 1) / n

    @staticmethod
    def tail_reference(mpmath, n, a):
        """-(1/n) log P(S_n >= a n) at 40 digits: the first binomial of the
        tail by log-gamma, the rest by the ratio (n - j) / (j + 1)."""
        with mpmath.workdps(40):
            k = math.ceil(a * n - 1e-9)
            log_first = mpmath.loggamma(n + 1) - mpmath.loggamma(k + 1) - mpmath.loggamma(n - k + 1)
            total = term = mpmath.mpf(1)
            for j in range(k, n):
                term *= mpmath.mpf(n - j) / (j + 1)
                total += term
                if term < total * mpmath.mpf(10) ** -45:  # ratios <= 2/3 from here on
                    break
            return float(-(log_first + mpmath.log(total) - n * mpmath.log(2)) / n)

    @pytest.mark.parametrize("n", [10, 100, 500, 2000, 10_000, 100_000])
    def test_matches_high_precision(self, n):
        mpmath = pytest.importorskip("mpmath")
        for a in (0.6, 0.9):
            reference = self.tail_reference(mpmath, n, a)
            assert abs(coin_tail_exact(n, a) - reference) <= 1e-12 * reference


class TestLogSpaceHelpers:
    def test_log_factorials_are_lgamma(self):
        table = particles._log_factorials(30)
        assert table.shape == (31,)
        assert table.tolist() == [math.lgamma(k + 1) for k in range(31)]
        assert table[20] == pytest.approx(math.log(math.factorial(20)), rel=1e-15)

    @pytest.mark.parametrize(
        "values",
        [
            [-math.inf, -math.inf],
            [math.inf, 1.0],
            [math.inf, -math.inf],
            [math.nan, 1.0],
            [math.inf, math.nan],
            [-math.inf, 0.5],
        ],
        ids=["all-neg-inf", "pos-inf", "pos-and-neg-inf", "nan", "pos-inf-and-nan", "one-finite"],
    )
    def test_logsumexp_special_values_match_scipy(self, values):
        from scipy.special import logsumexp

        values = np.array(values)
        got, expected = particles._logsumexp(values), float(logsumexp(values))
        assert got == expected or (math.isnan(got) and math.isnan(expected))

    def test_logsumexp_finite(self):
        from scipy.special import logsumexp

        values = np.random.default_rng(5).normal(scale=300.0, size=1000)
        assert particles._logsumexp(values) == pytest.approx(float(logsumexp(values)), rel=1e-15)


class TestSanov:
    def test_whole_simplex(self):
        problem = FiniteLdpProblem(mu=np.array([0.2, 0.3, 0.5]), n=40)
        res = sanov_exact(problem)
        assert res.exact_rate == pytest.approx(0.0, abs=1e-12)
        assert res.entropy_infimum == 0.0

    def test_two_states_reduce_to_coin(self):
        n, a = 60, 0.7
        problem = FiniteLdpProblem(mu=np.array([0.5, 0.5]), n=n)
        res = sanov_exact(problem, HalfSpace(np.array([1.0, 0.0]), a))
        assert abs(res.exact_rate - coin_tail_exact(n, a)) <= 1e-12

    def test_three_state_convergence(self):
        mu = np.full(3, 1.0 / 3.0)
        constraint = HalfSpace(np.array([1.0, 0.0, 0.0]), 0.6)
        errors = []
        for n in (30, 60, 120):
            res = sanov_exact(FiniteLdpProblem(mu=mu, n=n), constraint)
            errors.append(abs(res.exact_rate - res.entropy_infimum))
        assert errors[-1] <= 0.05
        assert errors[0] > errors[1] > errors[2]

    def test_entropy_infimum_matches_direct_search(self):
        # oracle: dense 2-simplex scan
        mu = np.array([0.5, 0.3, 0.2])
        constraint = HalfSpace(np.array([1.0, 0.0, 0.0]), 0.7)
        res = sanov_exact(FiniteLdpProblem(mu=mu, n=10), constraint)
        best = math.inf
        grid = np.linspace(0, 1, 401)
        for r1 in grid[grid >= 0.7]:
            for r2 in np.linspace(0, 1 - r1, 201):
                rho = np.array([r1, r2, 1 - r1 - r2])
                pos = rho > 0
                best = min(best, float(np.sum(rho[pos] * np.log(rho[pos] / mu[pos]))))
        assert res.entropy_infimum == pytest.approx(best, abs=1e-4)

    def test_infeasible_set(self):
        problem = FiniteLdpProblem(mu=np.array([0.5, 0.5]), n=20)
        res = sanov_exact(problem, HalfSpace(np.array([1.0, 0.0]), 1.5))
        assert res.exact_rate == math.inf
        assert res.entropy_infimum == math.inf

    def test_enumeration_guard(self):
        with pytest.raises(ValueError):
            sanov_exact(FiniteLdpProblem(mu=np.full(6, 1 / 6), n=10))

    @pytest.mark.parametrize(
        "mu, coeffs, bound, minimizer",
        [
            ([0.5, 0.5], [1.0, 0.0], np.nextafter(1.0, 2.0), [1.0, 0.0]),
            ([0.2, 0.3, 0.5], [2.0, 2.0, 0.0], np.nextafter(2.0, 3.0), [0.4, 0.6, 0.0]),
        ],
        ids=["coin-vertex", "face-of-two-letters"],
    )
    def test_bound_reached_only_in_the_limit_gives_the_vertex(self, mu, coeffs, bound, minimizer):
        # a bound one ulp above max(coeffs), inside the feasibility slack: no
        # finite tilt reaches it, and the infimum is the law conditioned on
        # the letters where the coefficients are largest
        mu = np.array(mu)
        h, rho = particles._entropy_infimum_halfspace(mu, HalfSpace(np.array(coeffs), bound))
        assert h == pytest.approx(math.log(2.0), rel=1e-15)
        np.testing.assert_allclose(rho, minimizer, rtol=1e-15, atol=0.0)

    def test_vertex_infimum_is_the_exact_rate(self):
        # only the type (n, 0) lies in the half-space: P = 2^-n exactly
        constraint = HalfSpace(np.array([1.0, 0.0]), np.nextafter(1.0, 2.0))
        res = sanov_exact(FiniteLdpProblem(mu=np.array([0.5, 0.5]), n=10), constraint)
        assert res.exact_rate == pytest.approx(math.log(2.0), rel=1e-15)
        assert res.entropy_infimum == pytest.approx(math.log(2.0), rel=1e-15)


class TestVaradhan:
    def test_zero_tilt_reduces_to_sanov_rates(self):
        mu = np.array([0.25, 0.75])
        problem = FiniteLdpProblem(mu=mu, n=30, tilt=np.zeros(2))
        table = varadhan_tilt(problem)
        plain = varadhan_tilt(FiniteLdpProblem(mu=mu, n=30))
        assert np.allclose(table.exact_rate, plain.exact_rate, atol=1e-14)

    def test_tilted_minimizer_matches_boltzmann(self):
        mu = np.array([0.5, 0.5])
        F = np.array([0.0, 1.0])
        table = varadhan_tilt(FiniteLdpProblem(mu=mu, n=120, tilt=F))
        target = mu * np.exp(-F)
        target /= target.sum()
        assert np.abs(table.argmin_exact() - target).max() <= 0.05
        limit_argmin = table.types[int(np.argmin(table.limit_rate))] / table.n
        assert np.abs(limit_argmin - target).max() <= 0.05

    def test_limit_rate_nonnegative_with_zero_minimum(self):
        problem = FiniteLdpProblem(
            mu=np.array([0.3, 0.3, 0.4]), n=60, tilt=np.array([0.2, -0.1, 0.5])
        )
        table = varadhan_tilt(problem)
        assert table.limit_rate.min() >= -1e-12
        assert table.limit_rate.min() <= 1e-2  # attained up to type rounding
        assert table.exact_rate.min() >= 0.0

    def test_exact_converges_to_limit(self):
        mu = np.array([0.4, 0.6])
        F = np.array([0.3, -0.2])
        gaps = []
        for n in (20, 60, 120):
            table = varadhan_tilt(FiniteLdpProblem(mu=mu, n=n, tilt=F))
            interior = (table.types > 0).all(axis=1)
            gaps.append(np.abs(table.exact_rate - table.limit_rate)[interior].max())
        assert gaps[0] > gaps[1] > gaps[2]


class TestDegeneracy:
    def test_single_cell(self):
        exact, _ = log_degeneracy([7])
        assert exact == 0.0

    def test_two_by_two(self):
        exact, approx = log_degeneracy([2, 2])
        assert exact == pytest.approx(math.log(6.0), rel=1e-12)
        assert approx == pytest.approx(4 * math.log(2.0), rel=1e-12)

    def test_stirling_gap_shrinks_relatively(self):
        gaps = []
        for N in (4, 40, 400):
            exact, approx = log_degeneracy([N // 2, N // 2])
            gaps.append((approx - exact) / N)
        assert gaps[0] > gaps[1] > gaps[2] > 0

    @pytest.mark.parametrize("k", [[1.5, 2.5], [2, 0.5], [math.nan, 1], [math.inf, 1]])
    def test_non_integer_occupations_rejected(self, k):
        # [1.5, 2.5] was truncated to [1, 2]
        with pytest.raises(ValueError, match="integers"):
            log_degeneracy(k)


class TestSchilder:
    def test_constant_path(self):
        assert schilder_action(np.zeros(11), 0.1) == 0.0

    def test_straight_line(self):
        d, tau, steps = 1.7, 2.0, 400
        path = np.linspace(0.0, d, steps + 1)
        assert schilder_action(path, tau / steps) == pytest.approx(
            d * d / (4 * tau), rel=1e-12
        )

    def test_atomic_transport_attains_wasserstein_bound(self):
        rng = np.random.default_rng(8)
        n, tau, steps = 6, 1.5, 200
        x = np.sort(rng.normal(size=n))
        y = np.sort(rng.normal(size=n) + 0.8)
        line = x[:, None] + (y - x)[:, None] * np.linspace(0, 1, steps + 1)[None, :]
        action = schilder_action(line[:, :, None], tau / steps)
        w2_sq = w2_atomic(x, y).cost
        assert action == pytest.approx(n * w2_sq / (4 * tau), rel=1e-10)
        wobble = line + np.sin(np.pi * np.linspace(0, 1, steps + 1))[None, :]
        assert schilder_action(wobble[:, :, None], tau / steps) >= action
