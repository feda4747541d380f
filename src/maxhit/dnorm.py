"""D-norm functionals of nonpositive level functions.

For a level function f <= 0 and a generator Z, the D-norm is
E sup_t |f(t)| Z_t; it interpolates between the sup-norm (complete
dependence, E sup Z = 1) and C times the sup-norm, where C bounds sup Z.
Estimators stream generator paths in seeded blocks; comparative checks
reuse one set of paths across several functions ("shared draws"), which
turns ordering statements into exact per-draw assertions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimates import (
    Z95, Estimate, RunningMean, per_path, seed_echo, stream_means
)
from .generators import GeneratorSpec, shape_blocks
from .paths import Interval, TimeGrid, _frozen_array
from .streams import Seed

SHAPE_TAGS = ("constant", "indicator_step", "piecewise_linear")


@dataclass(frozen=True)
class LevelFunction:
    """Nonpositive function on a grid, somewhere strictly negative.

    ``shape`` records how the values were built (one of SHAPE_TAGS); the
    estimators only ever read ``values``.
    """

    grid: TimeGrid
    values: np.ndarray
    shape: str

    def __post_init__(self):
        vals = _frozen_array(self.values)
        if vals.shape != self.grid.points.shape:
            raise ValueError("level function and grid lengths differ")
        if self.shape not in SHAPE_TAGS:
            raise ValueError(f"unknown shape tag {self.shape!r}")
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
        return LevelFunction(grid, np.full(len(grid), float(level)), "constant")

    @staticmethod
    def indicator_step(
        grid: TimeGrid, interval: Interval, inside: float, outside: float = 0.0
    ) -> LevelFunction:
        """``inside`` on the interval (grid endpoints inclusive), ``outside`` off it."""
        sl = grid.slice_of(interval)
        values = np.full(len(grid), float(outside))
        values[sl] = float(inside)
        return LevelFunction(grid, values, "indicator_step")

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
        return LevelFunction(grid, np.interp(grid.points, t, v), "piecewise_linear")


def _dnorm_pass(
    spec: GeneratorSpec, fs: list[LevelFunction], n: int, seed: Seed, *extra
) -> RunningMean:
    """Means of sup |f| Z for every f, then of each row-wise ``extra``
    statistic, all from one shared set of generator paths."""
    if n < 2:
        raise ValueError("n must be >= 2")
    sups = [
        lambda z, af=np.abs(f.values): np.max(z * af[None, :], axis=1) for f in fs
    ]
    return stream_means(
        shape_blocks(spec, LevelFunction.common_grid(fs), n, seed),
        *map(per_path, (*sups, *extra)),
    )


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
    acc = _dnorm_pass(spec, fs, n, seed)
    return [acc.estimate(i, seed_echo(seed)) for i in range(len(fs))]


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
    return Estimate(value=value, se=se, ci=(value - Z95 * se, value + Z95 * se),
                    n=n, seed=seed_echo(seed))


@dataclass(frozen=True)
class ProbeComparison:
    dnorm: Estimate
    sup_norm: float

    @property
    def gap(self) -> float:
        return self.dnorm.value - self.sup_norm


@dataclass(frozen=True)
class TakahashiReport:
    """Outcome of the complete-dependence criterion m = 1.

    The D-norm equals the sup-norm (for every probe) exactly when the
    generator constant is 1.
    """

    complete_dependence: bool
    m_hat: Estimate
    probes: list[ProbeComparison]


def takahashi_check(
    spec: GeneratorSpec,
    probes: list[LevelFunction],
    n: int,
    seed: Seed,
    atol: float = 1e-12,
) -> TakahashiReport:
    """Decide complete dependence by comparing D-norms with sup-norms.

    True iff every probe satisfies |dnorm - supnorm| <= 3 se + atol; the
    absolute term absorbs float accumulation in the exact-equality case.
    Requires at least three probes.
    """
    if len(probes) < 3:
        raise ValueError("need at least 3 probe functions")
    # sup Z rides along as one more statistic of the same draws; it equals
    # generator_moments' m_hat bit for bit at the same seed
    acc = _dnorm_pass(spec, probes, n, seed, lambda z: z.max(axis=1))
    comps = [
        ProbeComparison(
            dnorm=acc.estimate(i, seed_echo(seed)),
            sup_norm=float(np.max(np.abs(f.values))),
        )
        for i, f in enumerate(probes)
    ]
    ok = all(abs(c.gap) <= 3.0 * c.dnorm.se + atol for c in comps)
    return TakahashiReport(
        complete_dependence=ok,
        m_hat=acc.estimate(len(probes), seed_echo(seed)),
        probes=comps,
    )
