"""Monte Carlo result containers, interval rules and block reducers.

Probability estimates carry a Wilson 95% score interval, except at the
boundaries: zero observed successes yield the rule-of-three interval
``[0, 3/n]`` (and symmetrically ``[1 - 3/n, 1]`` for n-of-n), which is the
testable form of "this probability is zero" used by the verification suite.

Every estimator streams seeded blocks of paths and reduces each block in
one of two ways: ``count_events`` counts rows whose event mask holds, and
``stream_means`` accumulates per-row statistics into a ``RunningMean``.
Generator paths also come as ``(rows, index)`` shape blocks
(``generators.shape_blocks``); ``per_path`` turns a row-wise statistic into
one on such blocks, so both reducers take them unchanged.

An ``Estimate`` records what was estimated (value, se, CI, n), not how it
was seeded: the caller holds the seed, and the CLI writes it beside the
estimate in its JSON output.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class Estimate:
    """Point estimate with standard error and 95% CI from ``n`` replicas."""

    value: float
    se: float
    ci: tuple[float, float]
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"replication count must be >= 1, got {self.n}")
        if not (self.ci[0] <= self.value <= self.ci[1]):
            raise ValueError(
                f"estimate {self.value} outside its own CI {self.ci}"
            )

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "se": self.se,
            "ci": [self.ci[0], self.ci[1]],
            "n": self.n,
        }


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= successes <= n:
        raise ValueError(f"successes {successes} outside [0, {n}]")
    z = Z95
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n))
    return max(0.0, center - half), min(1.0, center + half)


def rule_of_three(n: int) -> float:
    """95% upper bound for a probability after 0 successes in n trials."""
    return 3.0 / n


def binomial_estimate(successes: int, n: int) -> Estimate:
    """Frequency estimate with Wilson CI (rule-of-three at the boundaries)."""
    p = successes / n
    se = math.sqrt(p * (1.0 - p) / n)
    if successes == 0:
        ci = (0.0, rule_of_three(n))
    elif successes == n:
        ci = (1.0 - rule_of_three(n), 1.0)
    else:
        ci = wilson_interval(successes, n)
    return Estimate(value=p, se=se, ci=ci, n=n)


def mean_estimate_from_sums(total: float, total_sq: float, n: int) -> Estimate:
    """Sample-mean estimate from running sums, normal 95% CI.

    The variance is clipped at zero: for degenerate samples (all values
    identical) cancellation can leave a tiny negative residual.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    mean = total / n
    var = max(0.0, total_sq / n - mean * mean)
    se = math.sqrt(var / n)
    return Estimate(value=mean, se=se, ci=(mean - Z95 * se, mean + Z95 * se), n=n)


class RunningMean:
    """Accumulates sums for one or more statistics over streamed blocks.

    A statistic gives one value per row (a 1-D array per block) or one
    vector per row (a 2-D array, summed per column). Each statistic is
    summed on its own, so summation order (and hence the float result) is
    identical no matter how many statistics share the accumulator.
    """

    def __init__(self, k: int):
        self.k = k
        self.n = 0
        self.total = [0.0] * k
        self.total_sq = [0.0] * k

    def add(self, *columns: np.ndarray) -> None:
        if len(columns) != self.k:
            raise ValueError(f"expected {self.k} statistics, got {len(columns)}")
        rows = columns[0].shape[0]
        for i, col in enumerate(columns):
            c = np.ascontiguousarray(col, dtype=float)
            if c.ndim not in (1, 2) or c.shape[0] != rows:
                raise ValueError("statistics must be arrays with equal row counts")
            self.total[i] = self.total[i] + c.sum(axis=0)
            self.total_sq[i] = self.total_sq[i] + np.square(c).sum(axis=0)
        self.n += rows

    def estimate(self, i: int) -> Estimate:
        return mean_estimate_from_sums(
            float(self.total[i]), float(self.total_sq[i]), self.n
        )


def per_path(stat: Callable) -> Callable:
    """``stat`` on a ``(rows, index)`` shape block: evaluated once per
    distinct row, then gathered to one value per path.

    Exact for a row-wise ``stat`` (each output row depends on its input row
    alone): ``stat(rows)[index]`` equals ``stat(rows[index])``.
    """
    return lambda block: stat(block[0])[block[1]]


def count_events(blocks: Iterable[np.ndarray], *events: Callable) -> list:
    """Per event, the number of rows whose mask is true over all blocks.

    An event maps a block to a boolean mask with one entry per row; a 2-D
    mask of shape (rows, k) counts k events at once, column by column.
    """
    counts = [0] * len(events)
    for block in blocks:
        for i, event in enumerate(events):
            counts[i] = counts[i] + np.count_nonzero(event(block), axis=0)
    return counts


def stream_means(blocks: Iterable[np.ndarray], *stats: Callable) -> RunningMean:
    """Running sums of each statistic (block -> per-row values) over all blocks."""
    acc = RunningMean(k=len(stats))
    for block in blocks:
        acc.add(*(stat(block) for stat in stats))
    return acc
