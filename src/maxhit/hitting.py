"""Estimators for level-hitting events of simulated max-stable paths.

A path "hits" level x inside an interval when its grid minimum and maximum
bracket x (intermediate value rule). The estimators stream seeded path
blocks and report Wilson intervals; zero observed hits report the
rule-of-three interval [0, 3/n], the operational form of "probability
zero". h(0) = 0 holds by convention and is never simulated: the level 0
is almost surely not attained.

The paper's events are all "eta hits x in every interval of a list", and
one estimator counts them: ``hitting_curve`` takes a ladder of levels (one
level is a ladder too) and a list of intervals, and gives one estimate per
level from a single pass over the paths. One interval is the plain hitting
probability; ``two_hit_prob`` is the two-hit event at an interior split
time. Every ladder passes one check (``_checked_levels``): finite, negative
and strictly decreasing. ``hitting_bound`` is the paper's bound at one
level. The curve's integral needs no ladder: as eta < 0, it is the mean
range E[max eta - min eta] (Fubini), which ``verify`` reduces directly.

The hit rule has one implementation, ``hit_mask``: it reads a block's
per-row min and max over a grid slice from ``paths.RowExtremes``, which
computes each at most once per block. ``curve_mask`` wraps an array block
once for all its slices and levels; ``verify`` hands one wrapped block to
the events of every check, so they share the extremes. ``curve_event`` is
``hitting_curve``'s per-block event, and ``hit_mask`` and
``down_up_down_mask`` are two more, for callers that count them with an
``estimates.EventCounts`` on a stream of their own or feed one stream's
blocks to many events (``verify``). Each takes a path array or its
``RowExtremes``.

Grid detection can only miss sub-grid excursions, so every frequency here
is biased downward by at most a small discretization allowance (the
verification tolerances budget ``verify.GRID_ALLOWANCE`` = 0.005 at 1001
grid points).
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from .errors import InvalidArgumentError
from .estimates import Estimate, EventCounts, binomial_estimate, reduce_blocks
from .generators import GeneratorSpec
from .msp import msp_path_blocks
from .paths import Interval, RowExtremes, TimeGrid
from .streams import Seed


def hitting_bound(m: float, m_tilde: float, x: float) -> float:
    """Upper bound exp(x m~) - exp(x m) for the hitting probability at x.

    Requires 0 <= m~ <= 1 <= m (the complete-dependence corner m = m~ = 1
    is allowed and gives 0). Clipped at zero.
    """
    if not m >= m_tilde:
        raise InvalidArgumentError(f"need m >= m_tilde, got m={m}, m_tilde={m_tilde}")
    if not 0.0 <= m_tilde <= 1.0:
        raise InvalidArgumentError(f"m_tilde must lie in [0, 1], got {m_tilde}")
    if not m >= 1.0:
        raise InvalidArgumentError(f"m must be >= 1, got {m}")
    if not -math.inf < x <= 0.0:
        raise InvalidArgumentError(f"level must be finite and <= 0, got {x}")
    return max(0.0, math.exp(x * m_tilde) - math.exp(x * m))


def hit_mask(paths, sl: slice, x) -> np.ndarray:
    """Rows of a path block (an array or its ``RowExtremes``) whose grid min
    and max over ``sl`` bracket the level ``x``; for a row of levels, a
    (rows, levels) mask. The package's one hit rule."""
    ext = RowExtremes.of(paths)
    mn, mx = ext.row_min(sl), ext.row_max(sl)
    if np.ndim(x):
        mn, mx = mn[:, None], mx[:, None]
    return (mn <= x) & (x <= mx)


def down_up_down_mask(
    eta, cols: tuple[int, int, int], x0: float
) -> np.ndarray:
    """Rows with eta <= x0 at cols[0] and cols[2] but eta > x0 at cols[1]
    (``eta`` an array or its ``RowExtremes``)."""
    i_lo, i_mid, i_hi = cols
    return (eta[:, i_lo] <= x0) & (eta[:, i_mid] > x0) & (eta[:, i_hi] <= x0)


def _checked_levels(levels) -> np.ndarray:
    """``levels`` as floats: a nonempty, finite, negative, decreasing row."""
    lv = np.asarray(levels, dtype=float)
    if lv.ndim != 1 or lv.size < 1:
        raise InvalidArgumentError("need at least one level")
    if not np.all(np.isfinite(lv)):
        raise InvalidArgumentError("levels must be finite")
    if np.any(lv >= 0.0):
        raise InvalidArgumentError("levels must be strictly negative")
    if np.any(np.diff(lv) >= 0.0):
        raise InvalidArgumentError("levels must be strictly decreasing")
    return lv


def curve_mask(paths, levels: np.ndarray, slices: list[slice]) -> np.ndarray:
    """A (rows, levels) mask of a path block (an array or its
    ``RowExtremes``): per level, the rows that hit it in every slice."""
    ext = RowExtremes.of(paths)
    hit = hit_mask(ext, slices[0], levels)
    for sl in slices[1:]:
        hit &= hit_mask(ext, sl, levels)
    return hit


def curve_event(
    levels: np.ndarray, intervals: list[Interval], grid: TimeGrid
) -> Callable[[np.ndarray], np.ndarray]:
    """The per-block event of ``hitting_curve``: a path block's
    ``curve_mask`` over the intervals' grid slices.

    Intervals may touch at endpoints but must not overlap with positive
    length.
    """
    lv = _checked_levels(levels)
    if not intervals:
        raise InvalidArgumentError("need at least one interval")
    ordered = sorted(intervals, key=lambda iv: iv.lo)
    for prev, nxt in zip(ordered, ordered[1:]):
        if nxt.lo < prev.hi:
            raise InvalidArgumentError(
                f"intervals overlap: [{prev.lo}, {prev.hi}] and [{nxt.lo}, {nxt.hi}]"
            )
    slices = [grid.slice_of(iv) for iv in ordered]
    return lambda eta: curve_mask(eta, lv, slices)


def hitting_curve(
    spec: GeneratorSpec,
    levels: np.ndarray,
    intervals: list[Interval],
    grid: TimeGrid,
    n: int,
    seed: Seed,
) -> list[Estimate]:
    """Per level, the frequency of paths hitting it in every listed interval
    (``curve_event``); all levels share one path corpus."""
    event = curve_event(levels, intervals, grid)
    acc = reduce_blocks(msp_path_blocks(spec, grid, n, seed), EventCounts(event))
    return [binomial_estimate(int(c), n) for c in acc.counts[0]]


def two_hit_prob(
    spec: GeneratorSpec,
    x0: float,
    split: float,
    grid: TimeGrid,
    n: int,
    seed: Seed,
) -> Estimate:
    """Frequency of paths hitting x0 in both [0, t0] and [t0, 1], where the
    interior grid point ``split`` is t0."""
    if grid.index_of(split) in (0, len(grid) - 1):
        raise InvalidArgumentError(
            f"split must be an interior grid point, got {split}")
    halves = [Interval(0.0, split), Interval(split, 1.0)]
    return hitting_curve(spec, [x0], halves, grid, n, seed)[0]
