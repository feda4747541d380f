"""Finite sets of times in [0, 1], and intervals of [0, 1].

A ``TimeGrid`` is any strictly increasing times in [0, 1]: ``make_grid``'s
uniform grids span [0, 1], and a window's points or the set T of a
finite-dimensional law are grids too. Paths are represented by their
values on a grid; interval endpoints must be grid points. A block of eta
paths is a ``RowExtremes``: its rows, with their per-row extremes over
grid slices computed once for all the events that read them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, OffGridError
from .streams import _is_count

# Times this close to a grid point count as on-grid: user-supplied decimals
# rarely equal the binary double of i/(n-1) bit for bit.
GRID_TOL = 1e-9


def _frozen_array(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TimeGrid:
    """At least one strictly increasing time point, each in [0, 1]."""

    points: np.ndarray

    def __post_init__(self):
        pts = _frozen_array(self.points)
        if pts.ndim != 1 or pts.size < 1:
            raise InvalidArgumentError("grid needs at least 1 point")
        if not np.all(np.diff(pts) > 0):
            raise InvalidArgumentError("grid points must be strictly increasing")
        if not (0.0 <= pts[0] and pts[-1] <= 1.0):  # refuses a lone NaN too
            raise InvalidArgumentError("grid points must lie in [0, 1]")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return int(self.points.size)

    def index_of(self, t: float) -> int:
        """Index of the grid point equal to ``t`` within ``GRID_TOL``; NaN
        is on no grid."""
        i = int(np.argmin(np.abs(self.points - t)))
        if not abs(self.points[i] - t) <= GRID_TOL:
            raise OffGridError(
                f"time {float(t)!r} is not on the grid of {len(self)} points"
            )
        return i

    def nearest_index(self, t: float) -> int:
        """Index of the grid point nearest ``t``; NaN or inf is near none."""
        if not np.isfinite(t):
            raise OffGridError(f"time {float(t)!r} is near no grid point")
        return int(np.argmin(np.abs(self.points - t)))

    def slice_of(self, interval: Interval) -> slice:
        """Index slice covering ``interval``; endpoints must be on-grid."""
        lo, hi = self.index_of(interval.lo), self.index_of(interval.hi)
        return slice(lo, hi + 1)


def make_grid(n: int) -> TimeGrid:
    """Uniform grid of ``n`` points including both endpoints of [0, 1]; ``n``
    is an integer (not a bool)."""
    if not _is_count(n):
        raise InvalidArgumentError(f"grid size must be an integer, got {n!r}")
    if n < 2:
        raise InvalidArgumentError(f"grid needs at least 2 points, got {n}")
    return TimeGrid(np.arange(n) / (n - 1))


@dataclass(frozen=True)
class Interval:
    """Subinterval of [0, 1] with positive length."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 <= self.lo < self.hi <= 1.0):
            raise InvalidArgumentError(
                f"need 0 <= lo < hi <= 1, got [{self.lo}, {self.hi}]"
            )


class RowExtremes:
    """The eta block type: a (rows, grid) array ``paths`` with its per-row
    min and max over grid slices, each computed at most once and dropped
    with this object; ``msp_path_blocks`` yields every block as one.

    Indexing reads the rows (``ext[:, cols]``). The class lives here, in a
    module of data types, so that perfbench's tracer charges an extreme to
    the layer of the event that first asks for it.
    """

    __slots__ = ("paths", "_seen")

    def __init__(self, paths: np.ndarray):
        self.paths = paths
        self._seen = {}

    def __getitem__(self, key):
        return self.paths[key]

    def row_min(self, sl: slice = slice(None)) -> np.ndarray:
        """Per row, the min over the columns ``sl``."""
        return self._extreme("min", sl)

    def row_max(self, sl: slice = slice(None)) -> np.ndarray:
        """Per row, the max over the columns ``sl``."""
        return self._extreme("max", sl)

    def _extreme(self, kind: str, sl: slice) -> np.ndarray:
        key = (kind, *sl.indices(self.paths.shape[1]))
        if key not in self._seen:
            self._seen[key] = getattr(self.paths[:, sl], kind)(axis=1)
        return self._seen[key]
