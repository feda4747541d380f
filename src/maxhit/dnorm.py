"""D-norm functionals of nonpositive level functions.

For a level function f <= 0 and a generator Z, the D-norm is
E sup_t |f(t)| Z_t; it interpolates between the sup-norm (complete
dependence, E sup Z = 1) and C times the sup-norm, where C bounds sup Z.
One estimator, ``dnorm_estimates``, streams generator paths in seeded
blocks and gives one estimate per level function, all from one set of
paths ("shared draws"); a single D-norm is a one-function list. Shared
draws turn ordering statements into exact per-draw assertions. The
verification suite's Takahashi check (m = 1 exactly when every D-norm
equals the sup-norm) is one such shared-draw pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .estimates import Estimate, StatMeans, per_path, reduce_blocks
from .generators import GeneratorSpec, shape_blocks
from .paths import Interval, TimeGrid, _frozen_array
from .streams import Seed

@dataclass(frozen=True)
class LevelFunction:
    """Nonpositive function on a grid, somewhere strictly negative."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        vals = _frozen_array(self.values)
        if vals.shape != self.grid.points.shape:
            raise InvalidArgumentError("level function and grid lengths differ")
        if np.any(vals > 0.0):
            raise InvalidArgumentError("level function must be nonpositive everywhere")
        if not np.any(vals < 0.0):
            raise InvalidArgumentError(
                "level function must be strictly negative somewhere"
            )
        if not np.all(np.isfinite(vals)):
            raise InvalidArgumentError("level function values must be finite")
        object.__setattr__(self, "values", vals)

    @staticmethod
    def common_grid(fs: list[LevelFunction]) -> TimeGrid:
        """The grid every function in ``fs`` shares (shared-draw estimators)."""
        grid = fs[0].grid
        for f in fs[1:]:
            if not np.array_equal(f.grid.points, grid.points):
                raise InvalidArgumentError("shared-draw estimates need a common grid")
        return grid

    @staticmethod
    def constant(grid: TimeGrid, level: float) -> LevelFunction:
        return LevelFunction(grid, np.full(len(grid), float(level)))

    @staticmethod
    def indicator_step(
        grid: TimeGrid, interval: Interval, inside: float, outside: float = 0.0
    ) -> LevelFunction:
        """``inside`` on the interval (grid endpoints inclusive), ``outside`` off it."""
        sl = grid.slice_of(interval)
        values = np.full(len(grid), float(outside))
        values[sl] = float(inside)
        return LevelFunction(grid, values)

    @staticmethod
    def piecewise_linear(
        grid: TimeGrid, times: np.ndarray, levels: np.ndarray
    ) -> LevelFunction:
        """Linear interpolation through breakpoints spanning [0, 1]."""
        t = np.asarray(times, dtype=float)
        v = np.asarray(levels, dtype=float)
        if t.size != v.size or t.size < 2:
            raise InvalidArgumentError(
                "need matching times/levels with at least 2 breakpoints"
            )
        if not np.all(np.diff(t) > 0):
            raise InvalidArgumentError("breakpoint times must be strictly increasing")
        if t[0] != 0.0 or t[-1] != 1.0:
            raise InvalidArgumentError("breakpoints must span [0, 1]")
        return LevelFunction(grid, np.interp(grid.points, t, v))


def dnorm_estimates(
    spec: GeneratorSpec, fs: list[LevelFunction], n: int, seed: Seed
) -> list[Estimate]:
    """D-norms of several functions from one shared set of generator paths.

    All functions must share a grid. Per draw, each function sees the same
    Z path, so pointwise dominance |f| <= |g| transfers exactly to the
    estimates.
    """
    if not fs:
        return []
    if n < 2:
        raise InvalidArgumentError("n must be >= 2")
    sups = [
        lambda z, af=np.abs(f.values): np.max(z * af[None, :], axis=1) for f in fs
    ]
    acc = reduce_blocks(shape_blocks(spec, LevelFunction.common_grid(fs), n, seed),
                        StatMeans(*map(per_path, sups)))
    return [acc.estimate(i) for i in range(len(fs))]
