"""Monte Carlo result containers, interval rules and block reducers.

Probability estimates carry a Wilson 95% score interval, except at the
boundaries: zero observed successes yield the rule-of-three interval
``[0, min(1, 3/n)]`` (``[max(0, 1 - 3/n), 1]`` for n of n), the testable
form of "this probability is zero" used by the verification suite.

Every estimator is one fold, ``reduce_blocks(blocks, acc)``: each block
of a seeded stream goes to a push accumulator, which adds it to its
totals. A block is a ``paths.RowExtremes`` of eta or generator paths.
``EventCounts`` counts the paths whose event mask holds, ``StatMeans``
sums per-path statistics into means, and ``RowStack`` keeps the paths
(``msp_corpus``, and checks that need whole columns: a KS distance sorts
its sample). One stream can feed several accumulators at once
(``verify.run_checks``).

An ``Estimate`` records what was estimated (value, se, CI, n), not how it
was seeded: the caller holds the seed, and the CLI writes it beside the
estimate in its JSON output.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError

Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class Estimate:
    """Point estimate with standard error and 95% CI from ``n`` replicas."""

    value: float
    se: float
    ci: tuple[float, float]
    n: int

    def __post_init__(self):
        # plain Python numbers, so an estimate built from numpy scalars
        # still serializes
        object.__setattr__(self, "n", operator.index(self.n))
        for name in ("value", "se"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "ci", (float(self.ci[0]), float(self.ci[1])))
        if self.n < 1:
            raise InvalidArgumentError(f"replication count must be >= 1, got {self.n}")
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


def _check_trials(successes: int, n: int) -> None:
    """Refuse fewer than one trial, or successes outside [0, n]."""
    if not n >= 1:
        raise InvalidArgumentError(f"n must be >= 1, got {n}")
    if not 0 <= successes <= n:
        raise InvalidArgumentError(f"successes {successes} outside [0, {n}]")


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion."""
    _check_trials(successes, n)
    z = Z95
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n))
    return max(0.0, center - half), min(1.0, center + half)


def rule_of_three(n: int) -> float:
    """95% upper bound min(1, 3/n) on a probability after 0 successes in n >= 1 trials."""
    _check_trials(0, n)
    return min(1.0, 3.0 / n)


def binomial_estimate(successes: int, n: int) -> Estimate:
    """Frequency estimate with Wilson CI (rule-of-three at the boundaries)."""
    _check_trials(successes, n)
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
    _check_trials(0, n)
    mean = total / n
    var = max(0.0, total_sq / n - mean * mean)
    se = math.sqrt(var / n)
    return Estimate(value=mean, se=se, ci=(mean - Z95 * se, mean + Z95 * se), n=n)


class EventCounts:
    """Per event, the number of rows whose mask is true over the blocks fed.

    An event maps a block to a boolean mask with one entry per row; a 2-D
    mask of shape (rows, k) counts k events at once, column by column.
    Calling the accumulator with a block adds that block's counts.
    """

    def __init__(self, *events: Callable):
        self.events = events
        self.counts = [0] * len(events)

    def __call__(self, block: np.ndarray) -> None:
        for i, event in enumerate(self.events):
            self.counts[i] = self.counts[i] + np.count_nonzero(event(block), axis=0)


class StatMeans:
    """Running sums of each statistic over the blocks fed. A statistic maps
    a block to one value per row, or one vector per row (summed per
    column). Each is summed on its own, so the float result does not depend
    on which statistics share the accumulator."""

    def __init__(self, *stats: Callable):
        self.stats = stats
        self.n = 0
        self.total = [0.0] * len(stats)
        self.total_sq = [0.0] * len(stats)

    def __call__(self, block) -> None:
        columns = [stat(block) for stat in self.stats]
        rows = columns[0].shape[0]
        for i, col in enumerate(columns):
            c = np.ascontiguousarray(col, dtype=float)
            if c.ndim not in (1, 2) or c.shape[0] != rows:
                raise InvalidArgumentError("statistics must be arrays with equal row counts")
            self.total[i] = self.total[i] + c.sum(axis=0)
            self.total_sq[i] = self.total_sq[i] + np.square(c).sum(axis=0)
        self.n += rows

    def estimate(self, i: int) -> Estimate:
        """The mean of statistic ``i`` over the rows fed."""
        return mean_estimate_from_sums(
            float(self.total[i]), float(self.total_sq[i]), self.n
        )


class RowStack:
    """The columns ``cols`` (default all) of the blocks fed, each read as
    ``block[:, cols]``, ``n`` rows in all, as one array ``rows``. ``rows``
    is allocated at the first block and stays None if no block is fed."""

    def __init__(self, n: int, cols: list[int] | slice = slice(None)):
        self.n = n
        self.cols = cols
        self.rows = None
        self.filled = 0

    def __call__(self, block) -> None:
        block = block[:, self.cols]
        if self.rows is None:
            self.rows = np.empty((self.n, block.shape[1]))
        end = self.filled + block.shape[0]
        self.rows[self.filled:end] = block
        self.filled = end


def reduce_blocks(blocks: Iterable, acc: Callable) -> Callable:
    """``acc`` after it has been called with every block."""
    # The loop variable keeps each block until the next one exists. Letting
    # it go first made dnorm's SineBump passes (a 33 MB block and a temporary
    # of the same size each) 13-30% slower on a 2-vCPU x86-64 VM, likely as
    # the allocator returns both and faults the next block's pages in again.
    for block in blocks:
        acc(block)
    return acc
