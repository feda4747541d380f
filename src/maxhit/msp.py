"""Exact simulation of standard max-stable processes on a grid.

A path of the process eta is built from a generator Z by the spectral
construction: with Gamma_1 < Gamma_2 < ... the arrival times of a unit-rate
Poisson process and Z_1, Z_2, ... independent generator paths,

    xi(t) = max_i Z_i(t) / Gamma_i,        eta(t) = -1 / xi(t).

Arrivals are consumed until C / Gamma_i < min_t xi(t), where C bounds
sup Z almost surely; past that point no later arrival can raise xi at any
grid point, so the returned values are exact on the grid (a property the
verification suite asserts bit-for-bit by pushing extra arrivals).

Skip rules: a draw that cannot change xi is never built. Both rules are
decided before the row exists, and both are exact because IEEE division
by Gamma > 0 is correctly rounded, hence monotone, and Gamma never
decreases.

* Row-max pretest: ``generators.path_maxima`` gives each draw's exact grid
  maximum M without building the row (an atom shape's table maximum;
  SineBump's fl(1 + fl(W s*)) at the extreme s* of the same sin array the
  row is built from). Monotone rounding gives max_t fl(z(t) / Gamma) =
  fl(M / Gamma), so a draw with fl(M / Gamma) <= min xi lies at or below
  xi at every grid point and its maximum would be a no-op.
* Seen shapes: a generator with an atom table (see ``generators``) draws
  one of K fixed shapes z_k per arrival. Only a replica's first draw of
  each shape can raise xi, since fl(z_k / Gamma_later) <= fl(z_k /
  Gamma_first) <= xi at every grid point. SineBump has no shapes.

Every draw is still consumed from the stream, so the output is bit for bit
that of building, dividing and max-accumulating every draw. The rows that
remain are built, divided, merged into xi and reduced to their new min xi
in row tiles of about ``_TILE_BYTES``, so each tile's passes run in cache
instead of streaming whole-block temporaries through memory; a row's
values do not depend on its tile, so tiling changes no bit. The path
basis (``generators.path_basis``), the grid rows every path is built
from, is computed once per sampling call.

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
from .estimates import Estimate, binomial_estimate, count_events
from .generators import (
    GeneratorSpec,
    atom_index,
    draw_uniforms,
    generator_bound,
    path_basis,
    path_maxima,
    sample_paths,
    validate_spec,
)
from .paths import SubGrid, TimeGrid
from .streams import Seed, block_streams

DEFAULT_MAX_POINTS = 10**6
#: Bytes of xi an arrival round builds, divides and merges at a time (at
#: least one row), so that a tile's passes stay in cache.
_TILE_BYTES = 1 << 18


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
    basis: np.ndarray,
    rng: np.random.Generator,
    live: _Live,
    xi: np.ndarray,
    bound: float,
) -> np.ndarray:
    """One arrival for every live replica; ``live`` and ``xi`` are updated
    in place.

    Draws the exponential spacings, then the uniforms. A draw is built only
    if its exact row maximum over Gamma exceeds min xi and, for an atom
    generator, its shape is new to its replica; those rows are built,
    divided and max-accumulated into xi tile by tile. Returns the live rows
    whose stopping rule C / Gamma < min xi now holds.
    """
    gamma = live.gamma
    gamma += rng.standard_exponential(gamma.size)
    u = draw_uniforms(spec, rng, gamma.size)
    todo = path_maxima(spec, basis, u) / gamma > live.lo
    shape = atom_index(spec, u)
    if shape is not None:
        bit = 1 << shape
        todo &= (live.seen & bit) == 0
        live.seen |= bit
    todo = np.flatnonzero(todo)
    step = max(1, _TILE_BYTES // (xi.itemsize * xi.shape[1]))
    for start in range(0, todo.size, step):
        tile = todo[start:start + step]
        z = sample_paths(spec, basis, u[tile])
        z /= gamma[tile, None]
        rows = live.rows[tile]
        np.maximum(xi[rows], z, out=z)
        xi[rows] = z
        live.lo[tile] = z.min(axis=1)
    return bound / gamma < live.lo


def _too_loose(bound: float, live: _Live, arrivals: int) -> BoundTooLooseError:
    """The error for rows still short of their stopping rule."""
    deficit = float((bound / live.gamma - live.lo).max())
    return BoundTooLooseError(deficit=deficit, arrivals=arrivals)


def _spectral_block(
    spec: GeneratorSpec,
    basis: np.ndarray,
    rng: np.random.Generator,
    count: int,
    max_points: int,
) -> np.ndarray:
    """xi values for one block of replicas; shape (count, len(grid)).

    Rows leave the live set the round their stopping rule fires.
    """
    bound = generator_bound(spec)
    xi = np.zeros((count, basis.shape[1]))
    live = _Live(count)
    arrivals = 0
    while live.rows.size:
        if arrivals >= max_points:
            raise _too_loose(bound, live, arrivals)
        arrivals += 1
        done = _arrival_round(spec, basis, rng, live, xi, bound)
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
    basis = path_basis(spec, grid.points)
    for count, rng in block_streams(seed, n):
        xi = _spectral_block(spec, basis, rng, count, max_points)
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
    return [binomial_estimate(int(c), n) for c in counts]


def marginal_gof(
    spec: GeneratorSpec, times: list[float], grid: TimeGrid, n: int, seed: Seed
) -> list[float]:
    """Kolmogorov-Smirnov distances of simulated eta_t against exp(x),
    x <= 0, one per time in ``times``, all from one shared set of paths."""
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
) -> int:
    """Count paths whose grid values change when arrivals continue past the
    stopping rule.

    For each path, xi is snapshotted the round its stopping rule fires;
    at least ``extra`` further arrivals are then consumed for every path
    and the final xi is compared bit-for-bit. The expected count is 0: the
    rule fires only when no later arrival can contribute. Draws the skip
    rules leave unbuilt (see the module docstring) cannot show up here.
    """
    validate_spec(spec)
    bound = generator_bound(spec)
    basis = path_basis(spec, grid.points)
    violations = 0
    for count, rng in block_streams(seed, n):
        live = _Live(count)
        xi = np.zeros((count, len(grid)))
        snap = np.zeros_like(xi)
        stopped = np.zeros(count, dtype=bool)
        since_stop = np.zeros(count, dtype=int)
        arrivals = 0
        while not (stopped.all() and since_stop.min() >= extra):
            if arrivals >= DEFAULT_MAX_POINTS + extra:
                raise _too_loose(bound, live, arrivals)
            arrivals += 1
            since_stop[stopped] += 1
            newly = ~stopped & _arrival_round(spec, basis, rng, live, xi, bound)
            snap[newly] = xi[newly]
            stopped |= newly
        violations += int(np.count_nonzero(np.any(snap != xi, axis=1)))
    return violations
