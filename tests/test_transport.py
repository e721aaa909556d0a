import math

import numpy as np
import pytest

from gradflow.gradient_flow import QuadraticDissipation, path_action
from gradflow.measures import GridDensity1D
from gradflow.transport import (
    SingularWeightError,
    TransportPlan,
    atomic_path_action,
    w2_atomic,
    w2_atomic_bruteforce,
    w2_grid_1d,
)

# the local Wasserstein metric of grid densities: psi is half the squared
# (-1, rho) norm of a rate, psi_star half the squared dual norm of a potential
W = QuadraticDissipation("wasserstein")


def gaussian_grid(mean=0.0, var=1.0, a=-8.0, b=8.0, cells=400):
    x = GridDensity1D(a, b, np.ones(cells)).centers
    values = np.exp(-((x - mean) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)
    return GridDensity1D(a, b, values).normalized()


class TestAtomicBruteforce:
    def test_single_pair_distance(self):
        a, b = 0.3, -1.2
        plan = w2_atomic_bruteforce([a], [b])
        assert plan.cost == (a - b) ** 2
        assert plan.distance == abs(a - b)

    def test_identical_clouds(self):
        x = np.array([0.0, 1.0, 2.0])
        plan = w2_atomic_bruteforce(x, x)
        assert plan.cost == 0.0

    def test_swap(self):
        plan = w2_atomic_bruteforce([0.0, 1.0], [1.0, 0.0])
        assert plan.cost == 0.0
        assert plan.permutation.tolist() == [1, 0]

    def test_size_guard(self):
        x = np.arange(10.0)
        with pytest.raises(ValueError):
            w2_atomic_bruteforce(x, x)


class TestAtomicAssignment:
    def test_monotone_matching(self):
        plan = w2_atomic([0.0, 1.0, 2.0], [0.1, 1.1, 2.1])
        assert plan.cost == pytest.approx(0.01, abs=1e-14)
        assert plan.permutation.tolist() == [0, 1, 2]

    def test_shuffled_copy_costs_zero(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(6, 2))
        y = x[rng.permutation(6)]
        assert w2_atomic(x, y).cost == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_bruteforce(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(50):
            d = int(rng.integers(1, 4))
            x = rng.normal(size=(n, d))
            y = rng.normal(size=(n, d))
            assert abs(w2_atomic(x, y).cost - w2_atomic_bruteforce(x, y).cost) <= 1e-12

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            x, y, z = (rng.normal(size=(n, 2)) for _ in range(3))
            dxy = w2_atomic(x, y).distance
            dyx = w2_atomic(y, x).distance
            dxz = w2_atomic(x, z).distance
            dzy = w2_atomic(z, y).distance
            assert dxy == pytest.approx(dyx, abs=1e-9)
            assert dxy <= dxz + dzy + 1e-9

    def test_plan_validates_permutation(self):
        with pytest.raises(ValueError):
            TransportPlan(np.array([0, 0]), 1.0)


class TestMonotoneCoupling:
    """In 1D `w2_atomic` is the sorted coupling, not the assignment solver."""

    @staticmethod
    def assignment(x, y):
        from scipy.optimize import linear_sum_assignment

        cost = (x[:, None] - y[None, :]) ** 2
        rows, cols = linear_sum_assignment(cost)
        return cols[np.argsort(rows)], cost[rows, cols].sum() / x.size

    def test_tie_free_equals_assignment_solver(self):
        rng = np.random.default_rng(19)
        for _ in range(2000):
            n = int(rng.integers(1, 40))
            x, y = rng.normal(size=n), rng.normal(size=n) * rng.uniform(0.1, 10.0)
            perm, cost = self.assignment(x, y)
            plan = w2_atomic(x, y)
            assert plan.permutation.tolist() == perm.tolist()
            assert plan.cost == cost  # bitwise

    def test_ties_reach_the_optimal_cost(self):
        rng = np.random.default_rng(20)
        for _ in range(500):
            n = int(rng.integers(2, 8))
            # a few integer levels: most draws repeat a point on either side
            x = rng.integers(-2, 3, size=n) * 0.7
            y = rng.integers(-2, 3, size=n) * 1.3
            plan = w2_atomic(x, y)
            for cost in (self.assignment(x, y)[1], w2_atomic_bruteforce(x, y).cost):
                assert abs(plan.cost - cost) <= 1e-15 * max(cost, 1e-300)

    def test_stable_order_for_equal_points(self):
        plan = w2_atomic([1.0, 0.0, 1.0, 0.0], [5.0, 5.0, -5.0, -5.0])
        assert plan.permutation.tolist() == [0, 2, 1, 3]

    @pytest.mark.parametrize("d", [2, 3])
    def test_higher_dimensions_match_bruteforce(self, d):
        rng = np.random.default_rng(30 + d)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            x, y = rng.normal(size=(n, d)), rng.normal(size=(n, d))
            fast, brute = w2_atomic(x, y), w2_atomic_bruteforce(x, y)
            assert abs(fast.cost - brute.cost) <= 1e-12
            assert fast.permutation.tolist() == brute.permutation.tolist()


class TestGridW2:
    def test_identical(self):
        rho = gaussian_grid()
        assert w2_grid_1d(rho, rho) == 0.0

    def test_translation(self):
        rho = gaussian_grid(cells=800)
        shift_cells = 50
        d = shift_cells * rho.h
        shifted = rho.with_values(np.roll(rho.values, shift_cells)).normalized()
        assert w2_grid_1d(rho, shifted) == pytest.approx(d, abs=1e-3)

    def test_narrow_bumps_recover_atomic_distance(self):
        cells = 2000
        grid = GridDensity1D(-1.0, 2.0, np.ones(cells))
        width = 4 * grid.h
        x = grid.centers

        def bump(center):
            vals = np.where(np.abs(x - center) <= width / 2, 1.0, 0.0)
            return GridDensity1D(-1.0, 2.0, vals).normalized()

        dist = w2_grid_1d(bump(0.0), bump(1.0))
        assert abs(dist - 1.0) <= 2 * width

    def test_unequal_mass_rejected(self):
        rho = gaussian_grid()
        with pytest.raises(ValueError):
            w2_grid_1d(rho, rho.with_values(2 * rho.values))

    def test_mass_rescaling(self):
        # W2 scales as sqrt(mass) between scaled copies of the same pair
        rho = gaussian_grid(cells=200)
        nu = gaussian_grid(mean=0.5, cells=200)
        base = w2_grid_1d(rho, nu)
        scaled = w2_grid_1d(
            rho.with_values(4 * rho.values), nu.with_values(4 * nu.values)
        )
        assert scaled == pytest.approx(2 * base, rel=1e-12)

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(77)
        grid = GridDensity1D(-4.0, 4.0, np.ones(150))

        def random_density():
            center = rng.uniform(-1.5, 1.5)
            width = rng.uniform(0.4, 1.2)
            vals = np.exp(-((grid.centers - center) ** 2) / (2 * width**2)) + 0.01
            return grid.with_values(vals).normalized()

        for _ in range(20):
            a, b, c = random_density(), random_density(), random_density()
            dab, dba = w2_grid_1d(a, b), w2_grid_1d(b, a)
            assert dab == pytest.approx(dba, rel=1e-12)
            assert dab <= w2_grid_1d(a, c) + w2_grid_1d(c, b) + 1e-9

    def test_consistent_with_atomic_for_bumps(self):
        cells = 4000
        grid = GridDensity1D(-1.0, 2.0, np.ones(cells))
        width = 4 * grid.h
        x = grid.centers

        def two_bumps(c1, c2):
            vals = np.where(np.abs(x - c1) <= width / 2, 1.0, 0.0) + np.where(
                np.abs(x - c2) <= width / 2, 1.0, 0.0
            )
            return GridDensity1D(-1.0, 2.0, vals).normalized()

        atomic = w2_atomic([0.0, 1.0], [0.25, 1.5]).distance
        gridded = w2_grid_1d(two_bumps(0.0, 1.0), two_bumps(0.25, 1.5))
        assert abs(gridded - atomic) <= 2 * width


class TestLocalNorm:
    def test_zero_rate(self):
        rho = GridDensity1D(0.0, 1.0, np.ones(64))
        assert W.psi(rho, np.zeros(64)) == 0.0

    def test_uniform_density_constant_velocity(self):
        # s = -(rho v)' for v = 1 at every interior interface; the only
        # nonzero divergence sits in the boundary cells.
        n = 200
        rho = GridDensity1D(0.0, 1.0, np.ones(n))
        h = rho.h
        flux = np.ones(n - 1)
        s = np.zeros(n)
        s[0] = -flux[0] / h
        s[-1] = flux[-1] / h
        # int rho v^2 = 1, up to the one-cell boundary correction
        assert 2.0 * W.psi(rho, s) == pytest.approx(1.0, abs=2 * h)

    def test_duality_bracket_exact(self):
        # s = K(rho) xi closes the bracket 2 psi(s) = 2 psi*(xi) = <xi, s>
        rng = np.random.default_rng(8)
        for _ in range(25):
            n = int(rng.integers(8, 100))
            rho = GridDensity1D(0.0, 2.0, rng.random(n) + 0.2)
            xi = rng.normal(size=n)
            s = W.apply_mobility(rho, xi)
            norm_sq = 2.0 * W.psi(rho, s)
            assert norm_sq == pytest.approx(2.0 * W.psi_star(rho, xi), rel=1e-13)
            assert norm_sq == pytest.approx(W.pairing(rho, xi, s), rel=1e-13)
            assert norm_sq >= 0.0

    def test_vacuum_cell_raises(self):
        rho = GridDensity1D(0.0, 1.0, np.r_[0.0, np.ones(7)])
        with pytest.raises(SingularWeightError):
            W.psi(rho, np.zeros(8))

    def test_nonzero_mean_rate_rejected(self):
        rho = GridDensity1D(0.0, 1.0, np.ones(8))
        with pytest.raises(ValueError):
            W.psi(rho, np.ones(8))


class TestDualNorm:
    def test_constant_potential(self):
        rho = gaussian_grid(cells=100)
        assert W.psi_star(rho, np.full(100, 3.7)) == 0.0

    def test_linear_potential_uniform_density(self):
        # int |grad xi|^2 drho = 1 for xi = x, rho = 1 on [0,1]; the discrete
        # interior-interface quadrature covers (n-1)/n of the domain exactly.
        n = 500
        rho = GridDensity1D(0.0, 1.0, np.ones(n))
        val = 2.0 * W.psi_star(rho, rho.centers)
        assert val == pytest.approx(1.0 - rho.h, abs=1e-12)

    def test_linear_in_density(self):
        rng = np.random.default_rng(5)
        rho = GridDensity1D(0.0, 1.0, rng.random(40) + 0.5)
        xi = rng.normal(size=40)
        assert W.psi_star(rho.with_values(2 * rho.values), xi) == pytest.approx(
            2 * W.psi_star(rho, xi), rel=1e-14
        )


class TestPathAction:
    def test_constant_path(self):
        rho = gaussian_grid(cells=100)
        assert path_action([rho, rho, rho], 0.1) == 0.0

    def test_lower_bounds_w2(self):
        # action of any discrete path >= squared endpoint distance - O(dt+h)
        rng = np.random.default_rng(3)
        steps = 20
        rho0 = gaussian_grid(mean=-0.5, var=0.8, cells=300)
        rho1 = gaussian_grid(mean=0.7, var=1.3, cells=300)
        path = []
        for k in range(steps + 1):
            t = k / steps
            vals = (1 - t) * rho0.values + t * rho1.values
            bumpy = vals * (1 + 0.05 * math.sin(3 * t) * np.cos(rho0.centers))
            path.append(GridDensity1D(rho0.a, rho0.b, bumpy).normalized())
        path[0], path[-1] = rho0, rho1
        action = path_action(path, 1.0 / steps)
        w2 = w2_grid_1d(rho0, rho1)
        assert action >= w2**2 - 0.05 * w2**2

    def test_translating_gaussian_action_approaches_displacement(self):
        # constant-speed translation by d over unit time: action -> d^2
        d = 0.8
        steps = 40
        cells = 800
        path = [
            gaussian_grid(mean=d * k / steps, a=-8.0, b=8.0 + d, cells=cells)
            for k in range(steps + 1)
        ]
        action = path_action(path, 1.0 / steps)
        assert action == pytest.approx(d * d, rel=0.02)

    def test_action_sums_the_midpoint_norms(self):
        path = [gaussian_grid(mean=0.1 * k, cells=120) for k in range(6)]
        expected = 0.0
        for prev, cur in zip(path[:-1], path[1:]):
            mid = prev.with_values(0.5 * (prev.values + cur.values))
            rate = (cur.values - prev.values) / 0.2
            rate = rate - rate.sum() / mid.values.sum() * mid.values
            expected += 2.0 * W.psi(mid, rate) * 0.2
        assert path_action(path, 0.2) == expected

    def test_translation_costs_the_same_in_every_segment(self):
        # the Gaussian's tail falls to 1e-32 at the right end: a segment's
        # mass rounding, spread over the tail as a mean, cost 8% there
        grid = GridDensity1D(-8.0, 12.0, np.ones(1000))
        path = [
            grid.with_values(np.exp(-((grid.centers - 0.05 * k) ** 2) / 2)).normalized()
            for k in range(61)
        ]
        costs = [path_action(path[k : k + 2], 1.0) for k in range(0, 60, 6)]
        assert max(costs) == pytest.approx(min(costs), rel=1e-10)

    def test_masses_within_the_match_tolerance_accepted(self):
        # masses 5e-11 apart pass the equal-mass check; divided by dt, that
        # mismatch is a mass rate psi would reject, so it is taken out
        grid = GridDensity1D(0.0, 1.0, np.ones(100))
        rho = grid.with_values(1.0 + 0.3 * np.sin(2 * np.pi * grid.centers)).normalized()
        action = path_action([rho, rho.with_values(rho.values * (1.0 + 5e-11))], 0.01)
        assert 0.0 <= action <= 1e-15

    def test_unequal_masses_and_bad_step_rejected(self):
        rho = gaussian_grid(cells=50)
        heavier = rho.with_values(2.0 * rho.values)
        empty = rho.with_values(np.zeros(50))
        for call in (
            lambda: path_action([rho, heavier], 0.1),
            lambda: path_action([empty, empty], 0.1),
            lambda: path_action([rho], 0.0),
        ):
            with pytest.raises(ValueError):
                call()


class TestAtomicPathAction:
    def test_stationary(self):
        traj = np.zeros((5, 11))
        assert atomic_path_action(traj, 0.1) == 0.0

    def test_straight_line_unit_speed(self):
        tau, steps = 2.5, 1000
        t = np.linspace(0.0, tau, steps + 1)
        assert atomic_path_action(t[None, :], tau / steps) == pytest.approx(tau, rel=1e-12)

    def test_straight_transport_attains_w2_bound(self):
        rng = np.random.default_rng(9)
        n, tau, steps = 5, 2.0, 64
        x = np.sort(rng.normal(size=n))
        y = np.sort(rng.normal(size=n) + 1.0)
        dt = tau / steps
        line = x[:, None] + (y - x)[:, None] * np.linspace(0, 1, steps + 1)[None, :]
        action = atomic_path_action(line, dt)
        w2_sq = w2_atomic(x, y).cost
        assert action == pytest.approx(w2_sq / tau, rel=1e-10)
        # any perturbed path sharing its endpoints costs at least as much
        wobble = line + 0.3 * np.sin(np.pi * np.linspace(0, 1, steps + 1))[None, :]
        assert atomic_path_action(wobble, dt) >= action
