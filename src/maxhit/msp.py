"""Exact simulation of standard max-stable processes on a grid.

A path of the process eta is built from a generator Z by the spectral
construction: with Gamma_1 < Gamma_2 < ... the arrival times of a unit-rate
Poisson process and Z_1, Z_2, ... independent generator paths,

    xi(t) = max_i Z_i(t) / Gamma_i,        eta(t) = -1 / xi(t).

Arrivals are consumed until C / Gamma_i < min_t xi(t), where C bounds
sup Z almost surely; past that point no later arrival can raise xi at any
grid point, so the returned values are exact on the grid (a property the
verification suite asserts bit-for-bit by pushing extra arrivals).

Skip rule: a generator with an atom table (see ``generators``) draws one
of K fixed shapes z_k per arrival. Only a replica's first draw of each
shape is built, divided and max-accumulated; a later draw of z_k is
skipped. Gamma never decreases and IEEE division is correctly rounded,
hence monotone, so fl(z_k / Gamma_later) <= fl(z_k / Gamma_first) <= xi at
every grid point: the skipped maximum would be a no-op, and the output is
bit-for-bit that of building every draw. Every draw is still consumed from
the stream. SineBump has no shapes, so all of its draws are built. A built
row whose largest value does not exceed min xi is not max-accumulated
either: it lies below xi at every grid point, so the maximum would again be
a no-op.

Draw layout per block and round (fixed; see ``streams``): one standard
exponential per still-active replica in ascending replica order, then the
generator's uniform block of shape (active, k) row-major
(``generators.draw_uniforms``).

On the standard scale, P(eta_t <= x) = exp(x) for x <= 0, and
P(eta <= f everywhere) = exp(-E sup |f| Z) for nonpositive f.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .dnorm import LevelFunction
from .errors import BoundTooLooseError
from .estimates import Estimate, binomial_estimate, count_events, seed_echo
from .generators import (
    GeneratorSpec,
    atom_index,
    draw_uniforms,
    generator_bound,
    sample_paths,
    validate_spec,
)
from .paths import SubGrid, TimeGrid
from .streams import Seed, block_streams

DEFAULT_MAX_POINTS = 10**6


class _Live:
    """Per-replica state of the rows of a block still drawing arrivals.

    ``rows`` indexes the block's xi array; ``gamma`` is the latest arrival
    time, ``lo`` the cached min_t xi(t), and bit k of ``seen`` is set once
    shape k has been drawn.
    """

    def __init__(self, count: int):
        self.rows = np.arange(count)
        self.gamma = np.zeros(count)
        self.lo = np.zeros(count)
        self.seen = np.zeros(count, dtype=np.int64)

    def keep(self, mask: np.ndarray) -> None:
        self.rows = self.rows[mask]
        self.gamma = self.gamma[mask]
        self.lo = self.lo[mask]
        self.seen = self.seen[mask]


def _arrival_round(
    spec: GeneratorSpec,
    grid_points: np.ndarray,
    rng: np.random.Generator,
    live: _Live,
    xi: np.ndarray,
    bound: float,
) -> np.ndarray:
    """One arrival for every live replica; ``live`` and ``xi`` are updated
    in place.

    Draws the exponential spacings, then the uniforms. Only rows whose
    shape is new to their replica are built and divided by the new Gamma;
    of those, only rows with a value above min xi are max-accumulated into
    xi. Returns the live rows whose stopping rule C / Gamma < min xi now
    holds.
    """
    gamma = live.gamma
    gamma += rng.standard_exponential(gamma.size)
    u = draw_uniforms(spec, rng, gamma.size)
    shape = atom_index(spec, u)
    if shape is None:
        todo = np.ones(gamma.size, dtype=bool)
    else:
        bit = 1 << shape
        todo = (live.seen & bit) == 0
        live.seen |= bit
    if todo.any():
        z = sample_paths(spec, grid_points, u[todo])
        z /= gamma[todo, None]
        # a row nowhere above min xi leaves xi as it is
        rises = z.max(axis=1) > live.lo[todo]
        if not rises.all():
            z = z[rises]
            todo[todo] = rises
        rows = live.rows[todo]
        np.maximum(xi[rows], z, out=z)
        xi[rows] = z
        live.lo[todo] = z.min(axis=1)
    return bound / gamma < live.lo


def _too_loose(bound: float, live: _Live, arrivals: int) -> BoundTooLooseError:
    """The error for rows still short of their stopping rule."""
    deficit = float((bound / live.gamma - live.lo).max())
    return BoundTooLooseError(deficit=deficit, arrivals=arrivals)


def _spectral_block(
    spec: GeneratorSpec,
    grid_points: np.ndarray,
    rng: np.random.Generator,
    count: int,
    max_points: int,
) -> np.ndarray:
    """xi values for one block of replicas; shape (count, len(grid_points)).

    Rows leave the live set the round their stopping rule fires.
    """
    bound = generator_bound(spec)
    xi = np.zeros((count, grid_points.size))
    live = _Live(count)
    arrivals = 0
    while live.rows.size:
        if arrivals >= max_points:
            raise _too_loose(bound, live, arrivals)
        arrivals += 1
        done = _arrival_round(spec, grid_points, rng, live, xi, bound)
        if done.any():
            live.keep(~done)
    return xi


def msp_path_blocks(
    spec: GeneratorSpec,
    grid: TimeGrid | SubGrid,
    n: int,
    seed: Seed,
    max_points: int = DEFAULT_MAX_POINTS,
) -> Iterator[np.ndarray]:
    """Stream blocks of eta paths as (block, len(grid)) arrays.

    The concatenation over blocks is a deterministic function of
    (seed, n, grid); blocks are independent and may be consumed in any
    order that preserves their association with block indices.
    """
    validate_spec(spec)
    if max_points < 1:
        raise ValueError("max_points must be >= 1")
    for count, rng in block_streams(seed, n):
        xi = _spectral_block(spec, grid.points, rng, count, max_points)
        yield np.divide(-1.0, xi, out=xi)


def msp_corpus(
    spec: GeneratorSpec,
    grid: TimeGrid | SubGrid,
    n: int,
    seed: Seed,
    max_points: int = DEFAULT_MAX_POINTS,
) -> np.ndarray:
    """Materialize ``n`` eta paths as an (n, len(grid)) array."""
    return np.concatenate(
        list(msp_path_blocks(spec, grid, n, seed, max_points)), axis=0
    )


def joint_cdf_estimates(
    spec: GeneratorSpec, fs: list[LevelFunction], n: int, seed: Seed
) -> list[Estimate]:
    """Estimates of P(eta_t <= f(t) at every grid point), one per function,
    all from one shared set of paths on the functions' common grid."""
    counts = count_events(
        msp_path_blocks(spec, LevelFunction.common_grid(fs), n, seed),
        *(lambda eta, fv=f.values: np.all(eta <= fv, axis=1) for f in fs),
    )
    return [binomial_estimate(int(c), n, seed_echo(seed)) for c in counts]


def marginal_gof(
    spec: GeneratorSpec, times: list[float], grid: TimeGrid, n: int, seed: Seed
) -> list[float]:
    """Kolmogorov-Smirnov distances of simulated eta_t against exp(x),
    x <= 0, one per time in ``times``, all from one shared set of paths."""
    if n < 1:
        raise ValueError("n must be >= 1 for a KS distance")
    cols = [grid.index_of(t) for t in times]
    samples = np.concatenate(
        [eta[:, cols] for eta in msp_path_blocks(spec, grid, n, seed)]
    )
    return [ks_distance_neg_exponential(samples[:, j]) for j in range(len(cols))]


def ks_distance_neg_exponential(samples: np.ndarray) -> float:
    """KS distance between a sample (values <= 0) and F(x) = exp(x)."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n == 0:
        raise ValueError("empty sample")
    cdf = np.exp(np.minimum(x, 0.0))
    i = np.arange(1, n + 1)
    d_plus = (i / n - cdf).max()
    d_minus = (cdf - (i - 1) / n).max()
    return float(max(d_plus, d_minus))


def stopping_exactness_violations(
    spec: GeneratorSpec,
    grid: TimeGrid | SubGrid,
    n: int,
    seed: Seed,
    extra: int = 100,
    max_points: int = DEFAULT_MAX_POINTS,
) -> int:
    """Count paths whose grid values change when arrivals continue past the
    stopping rule.

    For each path, xi is snapshotted the round its stopping rule fires;
    at least ``extra`` further arrivals are then consumed for every path
    and the final xi is compared bit-for-bit. The expected count is 0: the
    rule fires only when no later arrival can contribute. Draws the skip
    rule leaves unbuilt (see the module docstring) cannot show up here.
    """
    validate_spec(spec)
    bound = generator_bound(spec)
    violations = 0
    for count, rng in block_streams(seed, n):
        live = _Live(count)
        xi = np.zeros((count, len(grid)))
        snap = np.zeros_like(xi)
        stopped = np.zeros(count, dtype=bool)
        since_stop = np.zeros(count, dtype=int)
        arrivals = 0
        while not (stopped.all() and since_stop.min() >= extra):
            if arrivals >= max_points + extra:
                raise _too_loose(bound, live, arrivals)
            arrivals += 1
            since_stop[stopped] += 1
            newly = ~stopped & _arrival_round(spec, grid.points, rng, live, xi, bound)
            snap[newly] = xi[newly]
            stopped |= newly
        violations += int(np.count_nonzero(np.any(snap != xi, axis=1)))
    return violations
