"""Finite sets of times in [0, 1], and intervals of [0, 1].

A ``TimeGrid`` is any strictly increasing times in [0, 1]: ``make_grid``'s
uniform grids span [0, 1], and a window's points or the set T of a
finite-dimensional law are grids too. Paths are represented by their
values on a grid; interval endpoints must be grid points. Every stream
yields its blocks as ``RowExtremes``: paths as rows gathered by an index,
with per-row extremes computed once for all the events that read them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, OffGridError, is_count

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
    if not is_count(n):
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


#: Bytes of rows a tiled pass works on at a time, so that it stays in cache.
_TILE_BYTES = 1 << 18


def tile_rows(rows: np.ndarray) -> int:
    """Rows of a (rows, grid) array per tile: about ``_TILE_BYTES``, at least one."""
    return max(1, _TILE_BYTES // (rows.itemsize * rows.shape[1]))


class RowExtremes:
    """The block type of every stream: the paths ``rows[index]``, with
    their per-row min and max over grid slices, each computed at most once.

    Eta blocks and built SineBump blocks have ``index = slice(None)``; an
    atom generator's block holds its K shape rows. Statistics, extremes and
    columns (``ext[:, cols]``) are read on ``rows``, then gathered by
    ``index``: the same floats as on the paths, with no atom block built.
    The class lives in this module of data types so that perfbench's
    tracer charges its work to the layer of the event that asks for it.
    """

    __slots__ = ("rows", "index", "_seen")
    __iter__ = None  # no fallback to indexing row by row

    def __init__(self, rows: np.ndarray, index: np.ndarray | slice = slice(None)):
        self.rows = rows
        self.index = index
        self._seen = {}

    def __getitem__(self, key):
        rows, *cols = key if isinstance(key, tuple) else (key,)
        return self.rows[(slice(None), *cols)][self.index][rows]

    def row_min(self, sl: slice = slice(None)) -> np.ndarray:
        """Per path, the min over the columns ``sl``."""
        return self._extreme("min", sl)

    def row_max(self, sl: slice = slice(None)) -> np.ndarray:
        """Per path, the max over the columns ``sl``."""
        return self._extreme("max", sl)

    def rowwise(self, stat) -> np.ndarray:
        """Per path, a row-wise ``stat`` of a (rows, grid) array, evaluated
        on ``rows`` a tile at a time (``tile_rows``), then gathered."""
        step = tile_rows(self.rows)
        tiles = [stat(self.rows[i:i + step]) for i in range(0, len(self.rows), step)]
        return np.concatenate(tiles)[self.index]

    def _extreme(self, kind: str, sl: slice) -> np.ndarray:
        key = (kind, *sl.indices(self.rows.shape[1]))
        if key not in self._seen:
            self._seen[key] = getattr(self.rows[:, sl], kind)(axis=1)[self.index]
        return self._seen[key]
