"""Discrete and gridded measures, entropies, and distances between them.

Two carriers are used everywhere in this package: :class:`DiscreteMeasure`
(weighted atoms in R^d, e.g. empirical measures and finite-alphabet laws)
and :class:`GridDensity1D` (a nonnegative density on a uniform 1D grid).
Every grid state of the package, the density here and the phase fields and
species of :mod:`gradflow.models`, is a :class:`UniformGrid`: the one place
the grid's geometry and domain check are written, and where its constructor
and ``with_values`` (which shares the grid) admit a read-only copy of values
that pass the subclass's rule.
Both are immutable after construction; every operation here is a pure
function, so concurrent read access is safe.

This module also holds the one output format of the package, which the
runner (:mod:`gradflow.cli`) writes every file through; no numerics module
writes files.  The format is :func:`write_table` (CSV with a header row,
LF line ends, floats at 17 significant digits, so they read back bitwise)
and :func:`write_json` (indent 2, sorted keys, trailing newline).  The
grid CSV of :func:`write_grid_csv` is the one file format read back
(:func:`read_grid_csv`, the Fokker-Planck runner's ``initial_csv``).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "UniformGrid",
    "DiscreteMeasure",
    "GridDensity1D",
    "PhysicalConstants",
    "relative_entropy",
    "total_variation",
    "push_forward",
    "write_grid_csv",
    "read_grid_csv",
    "write_table",
    "write_json",
]

# two masses match when they differ by at most MASS_MATCH_TOL max(1, mass)
MASS_MATCH_TOL = 1e-10
# the largest value a numpy array index can hold
_MAX_INDEX = np.iinfo(np.intp).max


def _check_time_step(dt: float, name: str = "dt") -> None:
    """Reject a time step (or end time) that is not positive and finite: an
    infinite dt makes the implicit tolerance infinite and round(T / dt) zero,
    and a NaN one passes a test of dt <= 0."""
    if not 0.0 < dt < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {dt}")


def _step_count(T: float, dt: float, name: str = "T") -> int:
    """The round(T / dt) steps of a march to time T, of which there must be
    at least one: below dt / 2 the march would return its start unmoved.
    T / dt must be a finite number (round() of an infinite one overflows)
    below the largest array index, since a march indexes its series by step."""
    _check_time_step(dt)
    _check_time_step(T, name)
    ratio = T / dt
    if not ratio < _MAX_INDEX:
        raise ValueError(
            f"{name} / dt must be a finite number of steps below {_MAX_INDEX}, got {T} / {dt}"
        )
    steps = round(ratio)
    if steps == 0:
        raise ValueError(f"{name} must be more than dt / 2 = {dt / 2:g} to take a step, got {T}")
    return steps


def _frozen(values) -> np.ndarray:
    """A read-only float copy of values."""
    values = np.array(values, dtype=float)
    values.flags.writeable = False
    return values


@dataclass(frozen=True)
class DiscreteMeasure:
    """Nonnegative measure with finitely many atoms in R^d.

    ``atoms`` has shape (n, d); ``weights`` has shape (n,) with all entries
    >= 0 and a finite sum.
    """

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        # the measure owns read-only copies of both arrays
        atoms = np.atleast_2d(_frozen(self.atoms))
        if atoms.ndim != 2:
            raise ValueError("atoms must be an (n, d) array")
        weights = _frozen(self.weights).reshape(-1)
        if atoms.shape[0] != weights.shape[0]:
            raise ValueError(
                f"{atoms.shape[0]} atoms but {weights.shape[0]} weights"
            )
        if np.any(weights < 0.0):
            raise ValueError("weights must be nonnegative")
        if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(atoms))):
            raise ValueError("atoms and weights must be finite")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return self.atoms.shape[0]

    def mass(self) -> float:
        return float(np.sum(self.weights))


@dataclass(frozen=True)
class UniformGrid:
    """Field(s) ``values`` on a uniform grid over the finite interval [a, b],
    b > a: cells on the last axis, each ``h = (b - a) / cells`` wide.

    The state owns a read-only copy of its values.  A subclass says which
    values it admits by ``_checked``, which the constructor and
    :meth:`with_values` both run."""

    a: float
    b: float
    values: np.ndarray

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("domain ends must be finite")
        if not self.b > self.a:
            raise ValueError("domain must satisfy b > a")
        object.__setattr__(self, "values", self._checked(_frozen(self.values)))

    def _checked(self, values: np.ndarray) -> np.ndarray:
        """The values as this state holds them, or ValueError: any array here."""
        return values

    def _retracted(self, values: np.ndarray) -> np.ndarray:
        """New values moved onto the state space: the identity here."""
        return values

    def with_values(self, values):
        """This state, grid and parameters shared, with a read-only copy of
        new values of the same shape that pass the same rule."""
        values = np.asarray(values, dtype=float)
        if values.shape != self.values.shape:
            raise ValueError(f"expected values of shape {self.values.shape}, got {values.shape}")
        state = object.__new__(type(self))
        state.__dict__.update(self.__dict__, values=self._checked(_frozen(self._retracted(values))))
        return state

    @property
    def cells(self) -> int:
        return self.values.shape[-1]

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.cells

    @property
    def centers(self) -> np.ndarray:
        return self.a + (np.arange(self.cells) + 0.5) * self.h

    @property
    def edges(self) -> np.ndarray:
        return self.a + np.arange(self.cells + 1) * self.h


class GridDensity1D(UniformGrid):
    """Density on a uniform grid of ``cells`` >= 2 cells over [a, b], finite
    and nonnegative.

    ``values[i]`` is the density (mass per length) on cell i; the cell mass
    is ``h * values[i]``.
    """

    def _checked(self, values: np.ndarray) -> np.ndarray:
        values = values.reshape(-1)
        if values.size < 2:
            raise ValueError("need at least 2 cells")
        # false on NaN and on +-inf; -0.0 passes
        if not (values.min() >= 0.0 and values.max() < math.inf):
            raise ValueError("density values must be finite and nonnegative")
        return values

    def mass(self) -> float:
        return float(self.h * self.values.sum())

    def normalized(self) -> "GridDensity1D":
        """Rescale to unit mass."""
        m = self.mass()
        if m <= 0.0:
            raise ValueError("cannot normalize a zero-mass density")
        return self.with_values(self.values / m)


@dataclass(frozen=True)
class PhysicalConstants:
    """The constants the free energies and dissipations read, each finite and
    strictly positive: RT of the entropy RT int c log(c / c0), R*T per mole
    or kT per particle; the friction eta; the reference concentration c0."""

    RT: float = 1.0
    eta: float = 1.0
    c0: float = 1.0

    def __post_init__(self):
        for name in ("RT", "eta", "c0"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"constant {name} must be finite and strictly positive")

    @classmethod
    def with_rt(cls, rt: float, **kwargs) -> "PhysicalConstants":
        """Constants with RT = rt, kept exactly."""
        return cls(RT=rt, **kwargs)


def _check_shared_support(mu: DiscreteMeasure, nu: DiscreteMeasure) -> None:
    if mu.atoms.shape != nu.atoms.shape:
        raise ValueError("measures must share one atom indexing in one dimension")
    if not np.all(mu.atoms == nu.atoms):
        raise ValueError("measures must be supported on the same atom list")


def _relative_entropy_weights(mu_w: np.ndarray, nu_w: np.ndarray, scale: float):
    """``scale`` times sum nu f log f, f = mu / nu, over the last axis of the
    weights: a float for one measure, one value per row for a (rows, atoms)
    stack.  A row is +inf where mu charges an atom nu does not; 0 log 0
    counts as 0.

    The sum is formed as sum (mu log f - (mu - nu)) + (mu(X) - nu(X)).
    Each term mu log f - (mu - nu) = nu ((1 + d) log1p(d) - d), d = f - 1,
    is >= 0 and about nu d^2 / 2; with log f = log1p(d) near f = 1, where
    mu - nu is exact and d rounds once, it keeps its relative accuracy as
    d -> 0.  The terms nu f log f, with f rounded before the log, are of
    size nu d there and cancel to a sum of size d^2.  The mass difference
    is that of the two summed masses: two laws normalized in floating point
    whose masses sum to the same number add none, where a sum of the mu - nu
    would add the rounding left by their normalizations.
    """
    charged = mu_w > 0.0
    lost = np.any(charged & (nu_w == 0.0), axis=-1)
    # an atom nu does not charge gets d = 0, or d = mu in a row that is +inf
    nu_c = np.where(nu_w > 0.0, nu_w, 1.0)
    d = (mu_w - nu_w) / nu_c
    near = np.abs(d) < 0.5
    # far from f = 1, log f is log(f): 1 + d would round away an f below
    # 1e-16; log 1 stands in where mu has no mass, so 0 log 0 counts as 0
    log_f = np.where(
        near,
        np.log1p(np.where(near, d, 0.0)),
        np.log(np.where(near | ~charged, 1.0, mu_w / nu_c)),
    )
    terms = mu_w * log_f - (mu_w - nu_w)
    h = scale * (np.sum(terms, axis=-1) + (np.sum(mu_w, axis=-1) - np.sum(nu_w, axis=-1)))
    h = np.where(lost, math.inf, h)
    return float(h) if h.ndim == 0 else h


def relative_entropy(mu, nu) -> float:
    """Relative entropy H(mu | nu) = sum f log f dnu with f = dmu/dnu.

    Both arguments must be the same carrier type: two DiscreteMeasure over
    one support list (paired by index) or two GridDensity1D on the same
    grid (absolute continuity checked cellwise).  Returns +inf when mu puts
    mass where nu has none; 0 log 0 counts as 0.
    """
    if isinstance(mu, DiscreteMeasure) and isinstance(nu, DiscreteMeasure):
        _check_shared_support(mu, nu)
        return _relative_entropy_weights(mu.weights, nu.weights, 1.0)
    if isinstance(mu, GridDensity1D) and isinstance(nu, GridDensity1D):
        if mu.cells != nu.cells or (mu.a, mu.b) != (nu.a, nu.b):
            raise ValueError("grid densities must live on the same grid")
        return _relative_entropy_weights(mu.values, nu.values, mu.h)
    raise TypeError("relative_entropy expects two measures of the same kind")


def _total_variation_weights(mu_w: np.ndarray, nu_w: np.ndarray):
    """(1/2) sum |mu - nu| over the last axis: one value per row of a stack."""
    return 0.5 * np.sum(np.abs(mu_w - nu_w), axis=-1)


def total_variation(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Total variation (1/2) sum |mu_i - nu_i| between equal-mass measures.

    The 1/2-L1 normalization is the one for which the Pinsker-type bound
    2 TV^2 <= H holds.
    """
    _check_shared_support(mu, nu)
    m0 = mu.mass()
    if abs(m0 - nu.mass()) > MASS_MATCH_TOL * max(1.0, m0):
        raise ValueError("total variation requires equal masses")
    return float(_total_variation_weights(mu.weights, nu.weights))


def push_forward(mu: DiscreteMeasure, mapping) -> DiscreteMeasure:
    """Push-forward of mu under a point map; colliding images merge weights.

    ``mapping`` is called once, on the whole (n, d) array of atoms (read
    only), and returns the (n, d') array of their images, or (n,) images in
    R^1.  Any other number of rows raises ValueError.  Merging uses exact
    coordinate equality only (round beforehand if fuzzy merging is wanted);
    first occurrence fixes the output ordering, and each merged weight is
    summed in atom order.
    """
    n = len(mu)
    images = np.asarray(mapping(mu.atoms), dtype=float)
    if images.ndim == 1:
        images = images[:, None]
    if images.ndim != 2 or images.shape[0] != n:
        raise ValueError(f"a map of {n} atoms must return {n} image rows, got shape {images.shape}")
    # a stable sort brings equal rows together, each run of them in atom
    # order: a run is one image, and its first atom the first occurrence
    order = np.lexsort(images.T[::-1]) if images.shape[1] else np.arange(n)
    ranked = images[order]
    starts = np.ones(n, dtype=bool)
    starts[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    if np.all(starts):
        return DiscreteMeasure(images, mu.weights)
    first = order[starts]
    seen = np.sort(first)
    # label each image by the rank of its first occurrence; bincount adds
    # each label's weights left to right from 0, the sums of a += loop over
    # the atoms bit for bit
    labels = np.empty(n, dtype=np.intp)
    labels[order] = np.searchsorted(seen, first)[np.cumsum(starts) - 1]
    return DiscreteMeasure(images[seen], np.bincount(labels, weights=mu.weights))


# -- the one output format ----------------------------------------------------


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _row_template(kinds: tuple):
    """The ``%`` template of a row whose cells have the types ``kinds``,
    ``%d`` for an integer and ``%.17g`` for a float, which format each cell
    as :func:`_cell` does; None when some cell is a bool or of another
    type."""
    formats = []
    for kind in kinds:
        if issubclass(kind, (bool, np.bool_)):
            return None
        if issubclass(kind, (int, np.integer)):
            formats.append("%d")
        elif issubclass(kind, (float, np.floating)):
            formats.append("%.17g")
        else:
            return None
    return ",".join(formats) + "\n"


def write_table(path, header, rows) -> None:
    """CSV with a header row and LF line ends; floats to 17 significant
    digits (they read back bitwise), integers as integers, bools as
    ``true``/``false``, anything else through ``str``.

    A row of integers and floats alone is formatted by one ``%`` template,
    made once per tuple of cell types; any other row cell by cell."""
    templates = {}
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            row = tuple(row)
            kinds = tuple(map(type, row))
            template = templates.get(kinds, False)
            if template is False:
                template = templates[kinds] = _row_template(kinds)
            fh.write(template % row if template else ",".join(map(_cell, row)) + "\n")


def write_json(path, obj) -> None:
    """JSON with indent 2, sorted keys and a trailing newline; values JSON
    cannot hold are written through ``str``."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def write_grid_csv(rho: GridDensity1D, path) -> None:
    """Write columns cell_center,value with a header row."""
    write_table(path, ["cell_center", "value"], np.column_stack([rho.centers, rho.values]))


def read_grid_csv(path) -> GridDensity1D:
    """Read the columns cell_center,value; LF and CRLF line ends both load."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError("empty file, expected a header row")
        if header != ["cell_center", "value"]:
            raise ValueError(f"unexpected header {header!r} for a grid density")
        rows = [[float(c) for c in row] for row in reader if row]
    data = np.asarray(rows, dtype=float).reshape(len(rows), 2)
    centers, values = data[:, 0], data[:, 1]
    if centers.size < 2:
        raise ValueError("need at least 2 cells")
    h = centers[1] - centers[0]
    if not np.allclose(np.diff(centers), h, rtol=1e-9, atol=1e-12):
        raise ValueError("cell centers must be uniformly spaced")
    return GridDensity1D(centers[0] - h / 2, centers[-1] + h / 2, values)
