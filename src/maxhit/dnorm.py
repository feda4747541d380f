"""D-norm functionals of nonpositive level functions.

For a level function f <= 0 and a generator Z, the D-norm is
E sup_t |f(t)| Z_t; it interpolates between the sup-norm (complete
dependence, E sup Z = 1) and C times the sup-norm, where C bounds sup Z.
Estimators stream generator paths in seeded blocks; comparative checks
reuse one set of paths across several functions ("shared draws"), which
turns ordering statements into exact per-draw assertions. Takahashi's
criterion (m = 1 exactly when every D-norm equals the sup-norm) is one such
shared-draw pass, and ``takahashi_check`` returns only its verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimates import Z95, Estimate, per_path, stream_means
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
            raise ValueError("level function and grid lengths differ")
        if np.any(vals > 0.0):
            raise ValueError("level function must be nonpositive everywhere")
        if not np.any(vals < 0.0):
            raise ValueError("level function must be strictly negative somewhere")
        if not np.all(np.isfinite(vals)):
            raise ValueError("level function values must be finite")
        object.__setattr__(self, "values", vals)

    @staticmethod
    def common_grid(fs: list[LevelFunction]) -> TimeGrid:
        """The grid every function in ``fs`` shares (shared-draw estimators)."""
        grid = fs[0].grid
        for f in fs[1:]:
            if not np.array_equal(f.grid.points, grid.points):
                raise ValueError("shared-draw estimates need a common grid")
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
            raise ValueError("need matching times/levels with at least 2 breakpoints")
        if not np.all(np.diff(t) > 0):
            raise ValueError("breakpoint times must be strictly increasing")
        if t[0] != 0.0 or t[-1] != 1.0:
            raise ValueError("breakpoints must span [0, 1]")
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
        raise ValueError("n must be >= 2")
    sups = [
        lambda z, af=np.abs(f.values): np.max(z * af[None, :], axis=1) for f in fs
    ]
    acc = stream_means(
        shape_blocks(spec, LevelFunction.common_grid(fs), n, seed),
        *map(per_path, sups),
    )
    return [acc.estimate(i) for i in range(len(fs))]


def dnorm_estimate(
    spec: GeneratorSpec, f: LevelFunction, n: int, seed: Seed
) -> Estimate:
    """Monte Carlo mean of sup |f| Z over ``n`` generator paths."""
    return dnorm_estimates(spec, [f], n, seed)[0]


def survivor_lower_bound(
    spec: GeneratorSpec, f: LevelFunction, n: int, seed: Seed
) -> Estimate:
    """Estimated lower bound 1 - exp(-E inf |f| Z) for P(eta > f everywhere).

    The se is the delta-method exp(-v) se(v) of the mean v = E inf |f| Z;
    the CI is the normal interval of that se.
    """
    absf = np.abs(f.values)
    v = stream_means(
        shape_blocks(spec, f.grid, n, seed),
        per_path(lambda z: np.min(z * absf[None, :], axis=1)),
    ).estimate(0)
    value = 1.0 - math.exp(-v.value)
    se = math.exp(-v.value) * v.se
    return Estimate(value=value, se=se, ci=(value - Z95 * se, value + Z95 * se), n=n)


def takahashi_check(
    spec: GeneratorSpec, probes: list[LevelFunction], n: int, seed: Seed
) -> bool:
    """Decide complete dependence (m = 1) by comparing D-norms with sup-norms.

    True iff every probe satisfies |dnorm - supnorm| <= 3 se + 1e-12, all
    D-norms from one shared set of paths; the absolute term absorbs float
    accumulation in the exact-equality case. Requires at least three probes.
    """
    if len(probes) < 3:
        raise ValueError("need at least 3 probe functions")
    return all(
        abs(est.value - float(np.max(np.abs(f.values)))) <= 3.0 * est.se + 1e-12
        for est, f in zip(dnorm_estimates(spec, probes, n, seed), probes)
    )
