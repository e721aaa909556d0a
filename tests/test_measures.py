import dataclasses
import math

import numpy as np
import pytest

from gradflow.measures import (
    DiscreteMeasure,
    GridDensity1D,
    PhysicalConstants,
    relative_entropy,
    total_variation,
    push_forward,
    read_grid_csv,
    write_grid_csv,
    write_table,
)
from gradflow.measures import _cell


def measure_on_line(weights):
    weights = np.asarray(weights, dtype=float)
    return DiscreteMeasure(np.arange(len(weights))[:, None], weights)


def random_probability_pair(rng, size, positive_nu=True):
    mu = rng.random(size) + 1e-3
    mu /= mu.sum()
    nu = rng.random(size) + (1e-3 if positive_nu else 0.0)
    nu /= nu.sum()
    return measure_on_line(mu), measure_on_line(nu)


class TestRelativeEntropy:
    def test_identity_is_zero(self):
        mu = measure_on_line([0.5, 0.5])
        assert relative_entropy(mu, mu) == 0.0

    def test_point_mass_vs_uniform(self):
        # direct evaluation: 1 * log(1 / 0.5) = log 2
        mu = measure_on_line([1.0, 0.0])
        nu = measure_on_line([0.5, 0.5])
        assert relative_entropy(mu, nu) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_not_absolutely_continuous(self):
        mu = measure_on_line([0.5, 0.5])
        nu = measure_on_line([1.0, 0.0])
        assert relative_entropy(mu, nu) == math.inf

    def test_mismatched_support_raises(self):
        with pytest.raises(ValueError):
            relative_entropy(measure_on_line([1.0]), measure_on_line([0.5, 0.5]))

    @pytest.mark.parametrize("distance", [relative_entropy, total_variation])
    def test_same_atom_count_in_another_dimension_raises(self, distance):
        # two atoms on the line and two in the plane are not one support
        mu = DiscreteMeasure(np.zeros((2, 1)), [0.5, 0.5])
        nu = DiscreteMeasure(np.arange(4.0).reshape(2, 2), [0.5, 0.5])
        for pair in ((mu, nu), (nu, mu)):
            with pytest.raises(ValueError, match="one atom indexing"):
                distance(*pair)

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            mu, nu = random_probability_pair(rng, rng.integers(2, 8))
            h = relative_entropy(mu, nu)
            assert h >= 0.0
            if h == 0.0:
                assert np.allclose(mu.weights, nu.weights)
        mu, _ = random_probability_pair(rng, 5)
        assert relative_entropy(mu, mu) == 0.0

    def test_ckp_inequality(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            mu, nu = random_probability_pair(rng, rng.integers(2, 8))
            tv = total_variation(mu, nu)
            assert 2.0 * tv * tv <= relative_entropy(mu, nu) + 1e-15

    def test_injective_pushforward_invariance_exact(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            mu, nu = random_probability_pair(rng, rng.integers(2, 8))
            shift = rng.normal()
            f = lambda x: 2.0 * x + shift
            assert relative_entropy(push_forward(mu, f), push_forward(nu, f)) == relative_entropy(mu, nu)

    def test_data_processing_inequality(self):
        # non-injective maps can only lose information
        rng = np.random.default_rng(17)
        for _ in range(500):
            size = int(rng.integers(3, 8))
            mu, nu = random_probability_pair(rng, size)
            targets = rng.integers(0, 2, size=size)
            f = lambda x: targets[x[:, 0].astype(int)].astype(float)
            h_pushed = relative_entropy(push_forward(mu, f), push_forward(nu, f))
            assert h_pushed <= relative_entropy(mu, nu) + 1e-12

    def test_grid_densities(self):
        rho = GridDensity1D(0.0, 1.0, np.full(10, 1.0))
        sigma = GridDensity1D(0.0, 1.0, np.linspace(0.5, 1.5, 10))
        sigma = sigma.normalized()
        assert relative_entropy(rho, rho) == 0.0
        assert relative_entropy(rho, sigma) > 0.0
        hole = GridDensity1D(0.0, 1.0, np.r_[np.zeros(1), np.full(9, 10.0 / 9)])
        assert relative_entropy(rho, hole) == math.inf


class TestTotalVariation:
    def test_equal_measures(self):
        mu = measure_on_line([0.3, 0.7])
        assert total_variation(mu, mu) == 0.0

    def test_half(self):
        assert total_variation(
            measure_on_line([1.0, 0.0]), measure_on_line([0.5, 0.5])
        ) == pytest.approx(0.5)

    def test_asymmetric_pair(self):
        assert total_variation(
            measure_on_line([0.7, 0.3]), measure_on_line([0.3, 0.7])
        ) == pytest.approx(0.4)

    def test_unequal_mass_raises(self):
        with pytest.raises(ValueError):
            total_variation(measure_on_line([1.0, 0.0]), measure_on_line([0.5, 0.6]))

    def test_mass_tolerance_is_relative(self):
        # the same 1,000 weights in another order: the two sums of a mass
        # near 1e5 differ by rounding alone
        w = np.random.default_rng(0).uniform(0.0, 206.0, 1000)
        mu, nu = measure_on_line(w), measure_on_line(np.sort(w))
        assert 0.0 < abs(mu.mass() - nu.mass()) < 1e-10 * mu.mass()
        assert total_variation(mu, nu) == 0.5 * np.abs(w - np.sort(w)).sum()
        with pytest.raises(ValueError, match="equal masses"):
            total_variation(mu, measure_on_line(np.sort(w) * (1.0 + 1e-6)))


class TestPushForward:
    def test_identity(self):
        mu = measure_on_line([0.5, 0.5])
        out = push_forward(mu, lambda x: x)
        assert np.array_equal(out.atoms, mu.atoms)
        assert np.array_equal(out.weights, mu.weights)

    def test_translation(self):
        mu = measure_on_line([0.5, 0.5])
        out = push_forward(mu, lambda x: x + 1.0)
        assert np.array_equal(out.atoms.ravel(), [1.0, 2.0])
        assert np.array_equal(out.weights, [0.5, 0.5])

    def test_collision_merges_weights(self):
        mu = measure_on_line([0.5, 0.5])
        out = push_forward(mu, lambda x: np.zeros_like(x))
        assert len(out) == 1
        assert out.mass() == pytest.approx(1.0)

    def test_plane_to_line_matches_per_atom_merge_bitwise(self):
        # the map is called once on the (n, 2) atoms; the result equals the
        # per-atom definition: images in order of first occurrence, merged
        # weights summed in atom order
        rng = np.random.default_rng(23)
        atoms = rng.integers(0, 4, size=(40, 2)).astype(float)
        mu = DiscreteMeasure(atoms, rng.random(40) * 10.0 ** rng.integers(-8, 3, size=40))
        f = lambda x: np.abs(x[:, 0] - x[:, 1]) + 0.25
        out = push_forward(mu, f)
        order, oracle_atoms, oracle_weights = {}, [], []
        for x, w in zip(atoms, mu.weights):
            img = np.atleast_1d(np.abs(x[0] - x[1]) + 0.25)
            key = tuple(img.tolist())
            if key in order:
                oracle_weights[order[key]] += w
            else:
                order[key] = len(oracle_atoms)
                oracle_atoms.append(img)
                oracle_weights.append(float(w))
        assert len(out) == 4 and out.atoms.shape[1] == 1
        assert out.atoms.tobytes() == np.array(oracle_atoms).tobytes()
        assert out.weights.tobytes() == np.array(oracle_weights).tobytes()

    def test_signed_zeros_are_one_image_kept_as_first_seen(self):
        # exact coordinate equality merges -0.0 with 0.0; the merged atom is
        # the first occurrence, bit for bit
        mu = DiscreteMeasure([[-0.0, 1.0], [0.0, 1.0], [2.0, 0.0], [0.0, 1.0]], np.full(4, 0.25))
        out = push_forward(mu, lambda x: x)
        assert out.atoms.tobytes() == np.array([[-0.0, 1.0], [2.0, 0.0]]).tobytes()
        assert np.array_equal(out.weights, [0.75, 0.25])

    def test_map_to_a_point_of_r0_merges_everything(self):
        out = push_forward(measure_on_line([0.25, 0.25, 0.5]), lambda x: np.empty((len(x), 0)))
        assert out.atoms.shape == (1, 0)
        assert np.array_equal(out.weights, [1.0])

    def test_map_gets_the_whole_atom_array_once(self):
        mu = DiscreteMeasure(np.arange(6.0).reshape(3, 2), [0.2, 0.3, 0.5])
        calls = []
        out = push_forward(mu, lambda x: calls.append(x.shape) or x[:, ::-1])
        assert calls == [(3, 2)]
        assert np.array_equal(out.atoms, [[1.0, 0.0], [3.0, 2.0], [5.0, 4.0]])

    @pytest.mark.parametrize(
        "f", [lambda x: x[:-1], lambda x: np.zeros(1), lambda x: 0.0, lambda x: x[:, :, None]],
    )
    def test_map_with_wrong_rows_raises(self, f):
        with pytest.raises(ValueError, match="image rows"):
            push_forward(measure_on_line([0.25, 0.25, 0.5]), f)


class TestEmpirical:
    """An empirical measure (1/n) sum of deltas is the push-forward of n
    atoms of weight 1/n under the identity, which merges repeated points."""

    def test_repeated_points_in_the_plane_merge_in_order(self):
        atoms = [[1.0, 2.0], [0.0, 0.0], [1.0, 2.0], [1.0, 2.0]]
        mu = push_forward(DiscreteMeasure(atoms, np.full(4, 0.25)), lambda x: x)
        assert np.array_equal(mu.atoms, [[1.0, 2.0], [0.0, 0.0]])
        assert np.array_equal(mu.weights, [0.25 + 0.25 + 0.25, 0.25])


class TestInvariants:
    def test_weights_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(np.zeros((1, 1)), np.array([-0.1]))

    @pytest.mark.parametrize(
        "atoms, weights, message",
        [
            (np.zeros((2, 1)), [0.5, -0.0 - 1e-300], "nonnegative"),
            (np.zeros((2, 1)), [0.5, math.nan], "finite"),
            (np.zeros((2, 1)), [0.5, math.inf], "finite"),
            ([[0.0, 1.0], [math.inf, 0.0]], [0.5, 0.5], "finite"),
            ([[0.0], [-math.inf]], [0.5, 0.5], "finite"),
            (np.zeros((3, 1)), [0.5, 0.5], "3 atoms but 2 weights"),
            (np.zeros((2, 1, 1)), [0.5, 0.5], r"\(n, d\)"),
        ],
    )
    def test_malformed_discrete_measure_raises(self, atoms, weights, message):
        with pytest.raises(ValueError, match=message):
            DiscreteMeasure(atoms, weights)

    def test_constants_are_what_the_models_read(self):
        assert [f.name for f in dataclasses.fields(PhysicalConstants)] == ["RT", "eta", "c0"]
        assert PhysicalConstants() == PhysicalConstants(RT=1.0, eta=1.0, c0=1.0)

    def test_with_rt_keeps_rt_exactly(self):
        # kept, not recomputed: R * (rt / R) differs from rt by an ulp for 33 of these
        assert PhysicalConstants.with_rt(0.43).RT == 0.43
        for i in range(1, 1001):
            rt = i / 100
            assert PhysicalConstants.with_rt(rt, eta=2.0).RT == rt

    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0])
    @pytest.mark.parametrize("name", ["RT", "eta", "c0"])
    def test_constants_must_be_finite_and_positive(self, name, value):
        with pytest.raises(ValueError, match=f"constant {name} must be finite and strictly positive"):
            PhysicalConstants(**{name: value})

    def test_grid_density_rejects_negative(self):
        with pytest.raises(ValueError):
            GridDensity1D(0.0, 1.0, np.array([1.0, -0.5]))

    def test_measures_are_immutable(self):
        mu = measure_on_line([0.5, 0.5])
        with pytest.raises(ValueError):
            mu.weights[0] = 1.0


class TestCsvRoundTrip:
    def test_grid(self, tmp_path):
        rho = GridDensity1D(-1.0, 3.0, np.linspace(0.0, 2.0, 11))
        path = tmp_path / "rho.csv"
        write_grid_csv(rho, path)
        back = read_grid_csv(path)
        assert back.a == pytest.approx(rho.a, abs=1e-14)
        assert back.b == pytest.approx(rho.b, abs=1e-14)
        assert np.array_equal(back.values, rho.values)

    def test_crlf_files_still_load(self, tmp_path):
        # earlier versions wrote this format through csv.writer, whose lines
        # end in CRLF
        rho = GridDensity1D(0.0, 5.0, np.random.default_rng(8).random(9))
        path = tmp_path / "rho.csv"
        write_grid_csv(rho, path)
        crlf = path.read_bytes().replace(b"\n", b"\r\n")
        assert crlf.count(b"\r\n") == len(crlf.splitlines())
        path.write_bytes(crlf)
        back = read_grid_csv(path)
        assert np.array_equal(back.values, rho.values)
        assert back.b == pytest.approx(rho.b, abs=1e-14)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "cell_center,value\n",
            "cell_center,value\n0.5,1,2\n1.5,1,3\n",
            "a,b\n0.5,1\n1.5,1\n",
            "cell_center,value\n0.5,x\n1.5,1\n",
        ],
        ids=["empty", "header-only", "rows-wider-than-header", "wrong-header", "not-a-number"],
    )
    def test_malformed_grid_csv_raises_value_error(self, tmp_path, text):
        # the runner's validate reports a ValueError at parameters.initial_csv
        path = tmp_path / "rho.csv"
        path.write_text(text)
        with pytest.raises(ValueError):
            read_grid_csv(path)


class TestWriteTable:
    @pytest.mark.parametrize(
        "cell, text",
        [
            (True, "true"),
            (np.bool_(False), "false"),
            (np.int64(-42), "-42"),
            (7, "7"),
            (np.float64(0.1), "0.10000000000000001"),
            (1.0 / 3.0, "0.33333333333333331"),
            (np.float64(1e-300) / 3.0, "3.3333333333333334e-301"),
            ("global", "global"),
        ],
        ids=["bool", "numpy-bool", "int64", "int", "float64", "float", "tiny-float64", "str"],
    )
    def test_cell_format(self, tmp_path, cell, text):
        path = tmp_path / "table.csv"
        write_table(path, ["label", "value"], [("row", cell), ("again", cell)])
        assert path.read_bytes() == f"label,value\nrow,{text}\nagain,{text}\n".encode()
        if isinstance(cell, (float, np.floating)):
            assert float(text) == cell

    def test_rows_match_the_cell_format(self, tmp_path):
        # rows of integers and floats alone take one template per tuple of
        # types, any other row the cell format; columns change type from row
        # to row
        floats = [np.float64(x) for x in (math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 0.1)]
        floats += [np.float32(0.1), np.float32(-math.inf), np.float32(math.nan), 1.0 / 3.0, -0.0, 1e308]
        ints = [0, -7, 2**63 + 5, -(2**70), np.int64(-42), np.int64(2**62), np.int32(9), np.uint64(2**64 - 1)]
        others = [True, False, np.bool_(True), np.bool_(False), "global", None]
        cells = floats + ints + others
        rng = np.random.default_rng(4)
        rows = [
            tuple(cells[i] for i in rng.integers(len(cells), size=size))
            for size in rng.integers(0, 6, 519)
        ]
        rows += [(1, 0.5), (1, 2), (True, 2), (1, np.bool_(False)), (1, "x"), (1, None), (1, 0.5), ()]
        rows += [[np.int64(3), np.float32(2.5)], np.array([1.5, -0.0, math.inf])]
        path = tmp_path / "table.csv"
        write_table(path, ["a", "b"], rows)
        expected = "a,b\n" + "".join(",".join(_cell(v) for v in row) + "\n" for row in rows)
        assert path.read_bytes() == expected.encode()
