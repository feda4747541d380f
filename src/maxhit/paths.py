"""Time grids and intervals of [0, 1].

Paths of continuous processes are represented by their values on a finite
grid; interval endpoints must be grid points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OffGridError

# Times this close to a grid point count as on-grid: user-supplied decimals
# rarely equal the binary double of i/(n-1) bit for bit.
GRID_TOL = 1e-9


def _frozen_array(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing time points spanning [0, 1] exactly."""

    points: np.ndarray

    def __post_init__(self):
        pts = _frozen_array(self.points)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("grid needs at least 2 points")
        if not np.all(np.diff(pts) > 0):
            raise ValueError("grid points must be strictly increasing")
        if pts[0] != 0.0 or pts[-1] != 1.0:
            raise ValueError("grid must start at 0 and end at 1")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return int(self.points.size)

    def index_of(self, t: float) -> int:
        """Index of the grid point equal to ``t`` within ``GRID_TOL``."""
        i = int(np.argmin(np.abs(self.points - t)))
        if abs(self.points[i] - t) > GRID_TOL:
            raise OffGridError(
                f"time {float(t)!r} is not on the grid of {len(self)} points"
            )
        return i

    def nearest_index(self, t: float) -> int:
        return int(np.argmin(np.abs(self.points - t)))

    def slice_of(self, interval: Interval) -> slice:
        """Index slice covering ``interval``; endpoints must be on-grid."""
        lo, hi = self.index_of(interval.lo), self.index_of(interval.hi)
        return slice(lo, hi + 1)


@dataclass(frozen=True)
class SubGrid:
    """Grid points of a window of [0, 1]; strictly increasing."""

    points: np.ndarray

    def __post_init__(self):
        pts = _frozen_array(self.points)
        if pts.ndim != 1 or pts.size < 1:
            raise ValueError("empty grid")
        if pts.size > 1 and not np.all(np.diff(pts) > 0):
            raise ValueError("grid points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return int(self.points.size)


def make_grid(n: int) -> TimeGrid:
    """Uniform grid of ``n`` points including both endpoints of [0, 1]."""
    if n < 2:
        raise ValueError(f"grid needs at least 2 points, got {n}")
    return TimeGrid(np.arange(n) / (n - 1))


@dataclass(frozen=True)
class Interval:
    """Subinterval of [0, 1] with positive length."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 <= self.lo < self.hi <= 1.0):
            raise ValueError(f"need 0 <= lo < hi <= 1, got [{self.lo}, {self.hi}]")
