import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradflow._grid import pair_potential
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
