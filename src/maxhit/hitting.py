"""Estimators for level-hitting events of simulated max-stable paths.

A path "hits" level x inside an interval when its grid minimum and maximum
bracket x (intermediate value rule). The estimators stream seeded path
blocks and report Wilson intervals; zero observed hits report the
rule-of-three interval [0, 3/n], the operational form of "probability
zero". h(0) = 0 holds by convention and is never simulated: the level 0
is almost surely not attained.

The estimators take plain arguments: a level and an interval, an interval
list (``multi_hit_prob``), a split time (``two_hit_prob``) or an ordered
time triple (``down_up_down_prob``). Every level, a single one or a curve's
ladder, passes one check (``_checked_levels``): finite and negative.

Grid detection can only miss sub-grid excursions, so every frequency here
is biased downward by at most a small discretization allowance (the
verification tolerances budget ``verify.GRID_ALLOWANCE`` = 0.005 at 1001
grid points).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dnorm import LevelFunction
from .estimates import Estimate, binomial_estimate, count_events
from .generators import GeneratorSpec, closed_form_m, closed_form_m_tilde
from .msp import msp_path_blocks
from .paths import Interval, TimeGrid
from .streams import Seed


def hitting_bound(m: float, m_tilde: float, x: float) -> float:
    """Upper bound exp(x m~) - exp(x m) for the hitting probability at x.

    Requires 0 <= m~ <= 1 <= m (the complete-dependence corner m = m~ = 1
    is allowed and gives 0). Clipped at zero.
    """
    if m < m_tilde:
        raise ValueError(f"need m >= m_tilde, got m={m}, m_tilde={m_tilde}")
    if not 0.0 <= m_tilde <= 1.0:
        raise ValueError(f"m_tilde must lie in [0, 1], got {m_tilde}")
    if m < 1.0:
        raise ValueError(f"m must be >= 1, got {m}")
    if not -math.inf < x <= 0.0:
        raise ValueError(f"level must be finite and <= 0, got {x}")
    return max(0.0, math.exp(x * m_tilde) - math.exp(x * m))


def hit_mask(eta: np.ndarray, sl: slice, x: float) -> np.ndarray:
    """Rows of a path block whose grid min and max over ``sl`` bracket ``x``."""
    seg = eta[:, sl]
    mn = seg.min(axis=1)
    mx = seg.max(axis=1)
    return (mn <= x) & (x <= mx)


def down_up_down_mask(
    eta: np.ndarray, cols: tuple[int, int, int], x0: float
) -> np.ndarray:
    """Rows with eta <= x0 at cols[0] and cols[2] but eta > x0 at cols[1]."""
    i_lo, i_mid, i_hi = cols
    return (eta[:, i_lo] <= x0) & (eta[:, i_mid] > x0) & (eta[:, i_hi] <= x0)


def hitting_prob(
    spec: GeneratorSpec,
    x: float,
    interval: Interval,
    grid: TimeGrid,
    n: int,
    seed: Seed,
) -> Estimate:
    """Frequency of paths meeting level ``x`` somewhere in ``interval``."""
    return multi_hit_prob(spec, x, [interval], grid, n, seed)


def curve_hit_prob(
    spec: GeneratorSpec, f: LevelFunction, n: int, seed: Seed
) -> Estimate:
    """Frequency of paths meeting the curve f(t) at some time.

    The path meets f when eta - f changes sign or touches zero on the grid.
    """
    (successes,) = count_events(
        msp_path_blocks(spec, f.grid, n, seed),
        lambda eta: hit_mask(eta - f.values[None, :], slice(None), 0.0),
    )
    return binomial_estimate(int(successes), n)


@dataclass(frozen=True)
class HittingCurve:
    """Hitting probabilities over a decreasing ladder of negative levels."""

    levels: np.ndarray
    estimates: list[Estimate]
    upper_bounds: np.ndarray

    def __post_init__(self):
        lv = _checked_levels(self.levels)
        ub = np.asarray(self.upper_bounds, dtype=float)
        if len(self.estimates) != lv.size or ub.shape != lv.shape:
            raise ValueError("levels, estimates, and bounds must align")
        if any(not 0.0 <= e.value <= 1.0 for e in self.estimates):
            raise ValueError("hitting estimates must lie in [0, 1]")
        if not np.all(np.isfinite(ub) & (ub >= 0.0)):
            raise ValueError("upper bounds must be finite and nonnegative")
        object.__setattr__(self, "levels", lv)
        object.__setattr__(self, "upper_bounds", ub)


def _checked_levels(levels) -> np.ndarray:
    """``levels`` as floats: a nonempty, finite, negative, decreasing row."""
    lv = np.asarray(levels, dtype=float)
    if lv.ndim != 1 or lv.size < 1:
        raise ValueError("need at least one level")
    if not np.all(np.isfinite(lv)):
        raise ValueError("levels must be finite")
    if np.any(lv >= 0.0):
        raise ValueError("levels must be strictly negative")
    if np.any(np.diff(lv) >= 0.0):
        raise ValueError("levels must be strictly decreasing")
    return lv


def hitting_curve(
    spec: GeneratorSpec,
    levels: np.ndarray,
    interval: Interval,
    grid: TimeGrid,
    n: int,
    seed: Seed,
) -> HittingCurve:
    """Hitting probability per level, all levels sharing one path corpus.

    The per-level upper bounds use the spec's closed-form m and m~.
    """
    lv = _checked_levels(levels)
    sl = grid.slice_of(interval)

    def levels_hit(eta: np.ndarray) -> np.ndarray:
        # one min and one max per path, broadcast over the levels
        seg = eta[:, sl]
        mn = seg.min(axis=1)
        mx = seg.max(axis=1)
        return (mn[:, None] <= lv[None, :]) & (lv[None, :] <= mx[:, None])

    (counts,) = count_events(msp_path_blocks(spec, grid, n, seed), levels_hit)
    m, m_tilde = closed_form_m(spec), closed_form_m_tilde(spec)
    bounds = np.array([hitting_bound(m, m_tilde, x) for x in lv])
    ests = [binomial_estimate(int(c), n) for c in counts]
    return HittingCurve(levels=lv, estimates=ests, upper_bounds=bounds)


def hitting_integral(
    curve: HittingCurve, m_tilde: float
) -> tuple[float, float]:
    """Trapezoid integral of the curve on [min level, 0] plus a tail bound.

    A node h(0) = 0 is appended. The tail beyond the deepest level is
    bounded by integrating h(x) <= exp(x m~): exp(x_min m~)/m~ for
    m~ > 0, infinite when m~ = 0 (the bound then carries no information
    and callers need model-specific tails).
    """
    if curve.levels.size < 3:
        raise ValueError("need at least 3 levels to integrate")
    if m_tilde < 0.0:
        raise ValueError(f"m_tilde must be >= 0, got {m_tilde}")
    xs = np.append(curve.levels[::-1], 0.0)
    hs = np.append([e.value for e in curve.estimates][::-1], 0.0)
    integral = float(np.sum(0.5 * (hs[1:] + hs[:-1]) * np.diff(xs)))
    x_min = float(curve.levels[-1])
    tail = math.exp(x_min * m_tilde) / m_tilde if m_tilde > 0.0 else math.inf
    return integral, tail


def down_up_down_prob(
    spec: GeneratorSpec,
    x0: float,
    triple: tuple[float, float, float],
    grid: TimeGrid,
    n: int,
    seed: Seed,
) -> Estimate:
    """Frequency of {eta_t' <= x0, eta_t0 > x0, eta_t'' <= x0} for the
    ordered grid times ``triple`` = (t', t0, t'').

    A three-point event: exact on the grid, no discretization allowance.
    """
    _checked_levels([x0])
    if not 0.0 <= triple[0] < triple[1] < triple[2] <= 1.0:
        raise ValueError(f"triple must be strictly ordered, got {triple}")
    cols = tuple(grid.index_of(t) for t in triple)
    (successes,) = count_events(
        msp_path_blocks(spec, grid, n, seed),
        lambda eta: down_up_down_mask(eta, cols, x0),
    )
    return binomial_estimate(int(successes), n)


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
        raise ValueError("split must be an interior grid point")
    halves = [Interval(0.0, split), Interval(split, 1.0)]
    return multi_hit_prob(spec, x0, halves, grid, n, seed)


def multi_hit_prob(
    spec: GeneratorSpec,
    x0: float,
    intervals: list[Interval],
    grid: TimeGrid,
    n: int,
    seed: Seed,
) -> Estimate:
    """Frequency of paths hitting x0 inside every listed interval.

    Intervals may touch at endpoints but must not overlap with positive
    length.
    """
    _checked_levels([x0])
    if not intervals:
        raise ValueError("need at least one interval")
    ordered = sorted(intervals, key=lambda iv: iv.lo)
    for prev, nxt in zip(ordered, ordered[1:]):
        if nxt.lo < prev.hi:
            raise ValueError(
                f"intervals overlap: [{prev.lo}, {prev.hi}] and [{nxt.lo}, {nxt.hi}]"
            )
    slices = [grid.slice_of(iv) for iv in ordered]
    (successes,) = count_events(
        msp_path_blocks(spec, grid, n, seed),
        lambda eta: np.logical_and.reduce([hit_mask(eta, sl, x0) for sl in slices]),
    )
    return binomial_estimate(int(successes), n)
