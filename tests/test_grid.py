import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradflow._grid import logarithmic_interface_mean, logarithmic_mean_partials, pair_potential
from gradflow.measures import GridDensity1D


def dense_pair_potential(values, centers, h, W) -> np.ndarray:
    return h * W(centers[:, None] - centers[None, :]) @ values


def gaussian_kernel(r):
    return -np.exp(-r * r / 0.5)


def skewed_kernel(r):
    # not even: W(r) != W(-r)
    return np.exp(-(r - 0.3) ** 2) + 0.5 * r


class TestPairPotential:
    @pytest.mark.parametrize("W", [gaussian_kernel, skewed_kernel])
    def test_matches_dense_kernel(self, W):
        grid = GridDensity1D(-6.0, 6.0, np.ones(400))
        rho = grid.with_values(np.exp(-0.5 * (grid.centers - 0.3) ** 2)).normalized()
        expected = dense_pair_potential(rho.values, rho.centers, rho.h, W)
        got = pair_potential(rho.values, rho.h, W)
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    @settings(max_examples=60, deadline=None)
    @given(
        cells=st.integers(1, 300),
        a=st.floats(-10.0, 10.0),
        width=st.floats(0.1, 20.0),
        seed=st.integers(0, 2**32 - 1),
        even=st.booleans(),
    )
    def test_random_grids_match_dense_kernel(self, cells, a, width, seed, even):
        W = gaussian_kernel if even else skewed_kernel
        values = np.random.default_rng(seed).uniform(0.01, 5.0, cells)
        h = width / cells
        centers = a + (np.arange(cells) + 0.5) * h
        expected = dense_pair_potential(values, centers, h, W)
        got = pair_potential(values, h, W)
        # rounding scale of the sum, which may cancel for the non-even kernel
        scale = h * np.abs(W(centers[:, None] - centers[None, :])) @ values
        assert np.all(np.abs(got - expected) <= 1e-13 * scale)

    def test_scalar_kernel_rejected(self):
        with pytest.raises(ValueError, match="one value per offset"):
            pair_potential(np.ones(10), 0.1, lambda r: 1.0)


def stable_log_mean(a, b):
    """(b - a) / log(b / a) through log1p: a few ulp even for near-equal pairs."""
    return (b - a) / np.log1p((b - a) / a) if a != b else a


class TestLogarithmicMean:
    def test_relative_error_against_log1p(self):
        # u = (b - a) / (a + b) on both sides of the LOG_MEAN_NEAR switch,
        # near which log b - log a cancels
        worst = 0.0
        for a in np.logspace(-8.0, 8.0, 33):
            for u in np.logspace(-15.0, -2.0, 131):
                b = a * (1.0 + u) / (1.0 - u)
                got = logarithmic_interface_mean(np.array([a, b]))[0]
                worst = max(worst, abs(got - stable_log_mean(a, b)) / stable_log_mean(a, b))
        assert worst <= 1e-9


class TestLogarithmicMeanPartials:
    # pairs far apart, near-equal on either side of the 1e-5 (a + b) switch
    # to the first-order limits, and equal
    @pytest.mark.parametrize(
        "a, b",
        [(1.0, 1.5), (2.0, 0.7), (0.03, 4.0), (1.0, 1.0 + 3e-5), (0.7, 0.7 * (1 + 1.5e-5)),
         (1.0, 1.0 + 3e-6), (0.7, 0.7 * (1 + 1.5e-6)), (2.0, 2.0 * (1 - 1.9e-6)),
         (1.3, 1.3 * (1 + 1e-9)), (0.5, 0.5)],
    )
    def test_match_central_differences(self, a, b):
        d_left, d_right = logarithmic_mean_partials(np.array([a, b]))
        eps = 1e-5
        fd_left = (stable_log_mean(a * (1 + eps), b) - stable_log_mean(a * (1 - eps), b)) / (
            2 * eps * a
        )
        fd_right = (stable_log_mean(a, b * (1 + eps)) - stable_log_mean(a, b * (1 - eps))) / (
            2 * eps * b
        )
        assert d_left[0] == pytest.approx(fd_left, rel=1e-9, abs=0)
        assert d_right[0] == pytest.approx(fd_right, rel=1e-9, abs=0)

    def test_relative_error_against_mpmath(self):
        # u = (b - a) / (a + b) on both sides of the LOG_MEAN_NEAR switch, b
        # above and below a; the quotient (L/a - 1) / (log b - log a) erred
        # by up to 1e-5 just above the switch
        mpmath = pytest.importorskip("mpmath")
        worst = 0.0
        with mpmath.workdps(40):
            for a in np.logspace(-8.0, 8.0, 17):
                for u in np.logspace(-15.0, -2.0, 53):
                    for b in (a * (1.0 + u) / (1.0 - u), a * (1.0 - u) / (1.0 + u)):
                        got = logarithmic_mean_partials(np.array([a, b]))[:, 0]
                        x, y = mpmath.mpf(a), mpmath.mpf(b)
                        dlog = mpmath.log(y) - mpmath.log(x)
                        mean = (y - x) / dlog
                        exact = ((mean / x - 1) / dlog, (1 - mean / y) / dlog)
                        for value, reference in zip(got, exact):
                            worst = max(worst, float(abs((value - reference) / reference)))
        assert worst <= 1e-9

    def test_taken_along_the_last_axis(self):
        rows = np.random.default_rng(3).uniform(0.01, 5.0, (3, 20))
        stacked = logarithmic_mean_partials(rows)
        assert stacked.shape == (2, 3, 19)
        for i, row in enumerate(rows):
            assert np.array_equal(stacked[:, i], logarithmic_mean_partials(row))
