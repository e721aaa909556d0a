import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from gradflow._grid import (
    _LOG_MEAN_APART,
    LOG_MEAN_NEAR,
    logarithmic_interface_mean,
    logarithmic_mean_partials,
    pair_potential,
)
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


def masked_log_mean(values, *, logs=None, out=None):
    """The log mean with its fix-ups applied on every input, as the kernel
    formed it before it looked for inputs that need none: the oracle of
    TestFixUpsRunWhereNeeded."""
    a = values[..., :-1]
    b = values[..., 1:]
    diff = b - a
    with np.errstate(divide="ignore", invalid="ignore"):
        if logs is None:
            logs = np.log(values)
        quotient = diff / (logs[..., 1:] - logs[..., :-1])
    total = a + b
    out = np.multiply(total, 0.5, out)
    use = abs(diff) > LOG_MEAN_NEAR * total
    use &= np.isfinite(quotient)
    np.copyto(out, quotient, where=use)
    zero = values == 0.0
    out[zero[..., 1:] | zero[..., :-1]] = 0.0
    return out


def masked_partials(values):
    """The log-mean partials under np.errstate on every input, each fix-up
    looked for on every input: the other oracle of TestFixUpsRunWhereNeeded."""
    a = values[..., :-1]
    b = values[..., 1:]
    diff = b - a
    r = diff / a
    q = b / a
    out = np.empty((2,) + diff.shape)
    d_left, d_right = out
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.log1p(r)
        far = q < 0.5
        if far.any():
            np.log(q, out=d, where=far)
        d_sq = d * d
        np.subtract(r, d, out=d_left)
        d_left /= d_sq
        np.multiply(q, d, out=d_right)
        d_right -= r
        d_sq *= q
        d_right /= d_sq
    total = a + b
    near = abs(diff) <= LOG_MEAN_NEAR * total
    if near.any():
        t = diff / (3.0 * total)
        np.copyto(d_left, 0.5 + t, where=near)
        np.copyto(d_right, 0.5 - t, where=near)
    return out


def recorded(f, *args, **kwargs):
    """f's result and the warnings it gave, in order, with every warning shown."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = f(*args, **kwargs)
    return result, [(w.category, str(w.message)) for w in caught]


def assert_as_oracle(values):
    """Values, dtype, shape and warnings of both kernels, the log mean also
    with logs= and out=, equal to the masked formulas' to the bit."""
    for kernel, oracle in (
        (logarithmic_interface_mean, masked_log_mean),
        (logarithmic_mean_partials, masked_partials),
    ):
        (got, got_warned), (want, want_warned) = recorded(kernel, values), recorded(oracle, values)
        assert got_warned == want_warned
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(values)
    out, want_out = np.empty(values[..., 1:].shape), np.empty(values[..., 1:].shape)
    got, got_warned = recorded(logarithmic_interface_mean, values, logs=logs, out=out)
    want, want_warned = recorded(masked_log_mean, values, logs=logs, out=want_out)
    assert got is out and got_warned == want_warned
    assert got.tobytes() == want.tobytes()


SPECIAL = (
    0.0, -0.0, -1.0, -2.5, np.inf, -np.inf, np.nan, 5e-324, 1e-310,
    2.2250738585072014e-308, 0.5, 1.0, 2.0, 7.5, 1.7e308,
)


def stepped(x, steps=3):
    """x and its float neighbours up to ``steps`` ulps either way."""
    out = [x]
    for direction in (np.inf, -np.inf):
        y = x
        for _ in range(steps):
            y = np.nextafter(y, direction)
            out.append(y)
    return out


class TestFixUpsRunWhereNeeded:
    # the kernels skip the errstate context and each fix-up where no input
    # needs them; oracle: the formulas that always run them.  Warnings
    # (under numpy's default error handling) are compared in order.
    @pytest.mark.parametrize("x", SPECIAL)
    def test_special_values(self, x):
        assert_as_oracle(np.array([x]))
        for y in SPECIAL:
            assert_as_oracle(np.array([x, y]))
            assert_as_oracle(np.array([0.7, x, 1.3, y, y, 0.9]))
            assert_as_oracle(np.array([[0.7, 0.8, 0.9, 1.0], [1.0, x, y, 1.2]]))

    @pytest.mark.parametrize("a", [5e-324, 1e-315, 1e-300, 3e-5, 0.3, 1.0, 7.0, 1e300, 1.7e308])
    def test_pairs_at_the_switches(self, a):
        # either side of |b - a| = LOG_MEAN_NEAR (a + b), of the log
        # difference and the relative difference _LOG_MEAN_APART and of the
        # relative difference 0.4 beyond which the kernels look for fix-ups,
        # above and below a; q = b / a either side of 1/2
        u, apart = LOG_MEAN_NEAR, _LOG_MEAN_APART
        targets = [a * (1 + u) / (1 - u), a * (1 - u) / (1 + u), a * np.exp(apart), a * np.exp(-apart),
                   a * (1 + apart), a * (1 - apart), 1.4 * a, 0.6 * a, 0.5 * a, 2.0 * a, a]
        for target in targets:
            for b in stepped(target):
                assert_as_oracle(np.array([a, b]))
                assert_as_oracle(np.array([b, a]))

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=5e-324, max_value=1.7e308), min_size=2, max_size=30
        ).map(np.array)
    )
    def test_random_positive_fields(self, values):
        assert_as_oracle(values)

    @settings(max_examples=200, deadline=None)
    @given(
        start=st.floats(min_value=1e-200, max_value=1e200),
        factors=st.lists(
            st.one_of(
                st.floats(min_value=0.5, max_value=2.0),
                st.sampled_from([1.0, 1 + 1e-6, 1 - 2e-5, 1 + 2.6e-5, 1 - 2.6e-5]),
            ),
            min_size=1,
            max_size=40,
        ),
    )
    def test_random_smooth_fields(self, start, factors):
        # neighbours within a factor of 2: mostly the inputs without fix-ups
        assert_as_oracle(start * np.cumprod(np.r_[1.0, factors]))

    @settings(max_examples=100, deadline=None)
    @given(
        values=hnp.arrays(
            float,
            st.tuples(st.integers(1, 4), st.integers(1, 12)),
            elements=st.floats(min_value=0.3, max_value=3.0),
        )
    )
    def test_random_species_arrays(self, values):
        assert_as_oracle(values)
