"""Exact simulation of standard max-stable processes on a ``TimeGrid``:
any strictly increasing set of times in [0, 1].

A path of the process eta is built from a generator Z by the spectral
construction: with Gamma_1 < Gamma_2 < ... the arrival times of a unit-rate
Poisson process and Z_1, Z_2, ... independent generator paths,

    xi(t) = max_i Z_i(t) / Gamma_i,        eta(t) = -1 / xi(t).

Arrivals are consumed until C / Gamma_i < min_t xi(t), where C bounds
sup Z almost surely; past that point no later arrival can raise xi at any
grid point, so the returned values are exact on the grid. The
verification suite asserts this bit-for-bit: it runs the shipped loop,
then continues every path from C / min xi for extra arrivals. Both are
block streams (spec, grid, n, seed) -> blocks, folded by
``estimates.reduce_blocks``: ``msp_path_blocks`` yields eta paths, and
``stopping_exactness_violations`` the mask of paths the extra arrivals
change.

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

Round one writes each tile of first arrivals straight into its rows of
xi (``sample_paths(..., out=)``) and divides there: merging into an xi of
+0 would give the same bits, since every generator value is >= 0 and
max(0, z) = z. It writes every row, so xi needs no zero fill, and a
sampling call allocates one xi buffer, for its first block, and reuses
it for every later block. A stream therefore holds one full-size array,
and a block it yields is overwritten by the next.

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

from .errors import BoundTooLooseError, InvalidArgumentError
from .estimates import RowStack, reduce_blocks
from .generators import (
    GeneratorSpec,
    atom_index,
    draw_uniforms,
    generator_bound,
    path_basis,
    path_maxima,
    sample_paths,
)
from .paths import TimeGrid
from .streams import Seed, block_streams

#: Arrivals a block may draw before its stopping rule must have fired;
#: past it the sampler raises ``BoundTooLooseError``.
MAX_ARRIVALS = 10**6
#: Arrivals ``stopping_exactness_violations`` draws past each path's stop.
EXTRA_ARRIVALS = 100
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


def _first_round(
    spec: GeneratorSpec,
    basis: np.ndarray,
    rng: np.random.Generator,
    live: _Live,
    xi: np.ndarray,
    bound: float,
) -> np.ndarray:
    """Every replica's first arrival, written straight into its row of xi.

    Same draws and bits as ``_arrival_round`` on an xi of +0: every
    generator value is >= 0, so max(0, z / Gamma) = z / Gamma, and a row
    that round's pretest would skip has maximum 0, so it is +0 either way.
    Every row of ``xi`` is written, tile by tile, so the buffer may hold
    anything when the round starts.
    """
    gamma = live.gamma
    gamma += rng.standard_exponential(gamma.size)
    u = draw_uniforms(spec, rng, gamma.size)
    shape = atom_index(spec, u)
    if shape is not None:
        live.seen |= 1 << shape
    step = _tile_rows(xi)
    for start in range(0, gamma.size, step):
        tile = slice(start, start + step)
        z = sample_paths(spec, basis, u[tile], out=xi[tile])
        z /= gamma[tile, None]
        live.lo[tile] = z.min(axis=1)
    return bound / gamma < live.lo


def _tile_rows(xi: np.ndarray) -> int:
    """Rows of xi per tile: about ``_TILE_BYTES``, at least one."""
    return max(1, _TILE_BYTES // (xi.itemsize * xi.shape[1]))


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
    step = _tile_rows(xi)
    for start in range(0, todo.size, step):
        tile = todo[start:start + step]
        z = sample_paths(spec, basis, u[tile])
        z /= gamma[tile, None]
        rows = live.rows[tile]
        np.maximum(xi[rows], z, out=z)
        xi[rows] = z
        live.lo[tile] = z.min(axis=1)
    return bound / gamma < live.lo


def _spectral_block(
    spec: GeneratorSpec,
    basis: np.ndarray,
    rng: np.random.Generator,
    xi: np.ndarray,
) -> np.ndarray:
    """Fill ``xi``, of shape (count, len(grid)), with one block of replicas
    and return it; its prior contents are overwritten by round one.

    Rows leave the live set the round their stopping rule fires; a block
    still live after ``MAX_ARRIVALS`` arrivals raises ``BoundTooLooseError``.
    """
    bound = generator_bound(spec)
    live = _Live(xi.shape[0])
    arrivals = 0
    while live.rows.size:
        if arrivals >= MAX_ARRIVALS:
            deficit = float((bound / live.gamma - live.lo).max())
            raise BoundTooLooseError(deficit=deficit, arrivals=arrivals)
        step = _arrival_round if arrivals else _first_round
        arrivals += 1
        done = step(spec, basis, rng, live, xi, bound)
        if done.any():
            live.keep(~done)
    return xi


def msp_path_blocks(
    spec: GeneratorSpec,
    grid: TimeGrid,
    n: int,
    seed: Seed,
) -> Iterator[np.ndarray]:
    """Stream blocks of eta paths as (block, len(grid)) arrays.

    The concatenation over blocks is a deterministic function of
    (seed, n, grid). Every block is written into one buffer that the call
    allocates when its first block arrives, so a yielded block is valid
    only until the next one is requested: reduce it before then, or copy
    what must be kept.
    """
    basis = path_basis(spec, grid)
    buffer = None
    for count, rng in block_streams(seed, n):
        if buffer is None:  # the first block is the largest
            buffer = np.empty((count, basis.shape[1]))
        xi = _spectral_block(spec, basis, rng, buffer[:count])
        yield np.divide(-1.0, xi, out=xi)


def msp_corpus(
    spec: GeneratorSpec,
    grid: TimeGrid,
    n: int,
    seed: Seed,
) -> np.ndarray:
    """Materialize ``n`` eta paths as an (n, len(grid)) array; each block is
    copied in (``RowStack``) before the next overwrites the buffer."""
    return reduce_blocks(msp_path_blocks(spec, grid, n, seed), RowStack(n)).rows


def ks_distance_neg_exponential(samples: np.ndarray) -> float:
    """KS distance between a sample (values <= 0) and F(x) = exp(x)."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n == 0:
        raise InvalidArgumentError("empty sample")
    cdf = np.exp(np.minimum(x, 0.0))
    i = np.arange(1, n + 1)
    d_plus = (i / n - cdf).max()
    d_minus = (cdf - (i - 1) / n).max()
    return float(max(d_plus, d_minus))


def stopping_exactness_violations(
    spec: GeneratorSpec,
    grid: TimeGrid,
    n: int,
    seed: Seed,
) -> Iterator[np.ndarray]:
    """Stream, per block, the mask of paths whose grid values change when
    arrivals continue past the stopping rule.

    Each block is filled by the loop ``msp_path_blocks`` runs, then every
    path continues from Gamma = C / min xi, the earliest arrival time at
    which its rule C / Gamma < min xi holds (so at or before the time the
    loop stopped it), for ``EXTRA_ARRIVALS`` further arrivals drawn from the
    block's stream; xi is then compared bit-for-bit with the stopped
    block. The expected count of changed paths is 0: past that time no
    arrival can raise xi unless C falls below sup Z. Draws the skip rules
    leave unbuilt (see the module docstring) cannot show up here.
    """
    bound = generator_bound(spec)
    basis = path_basis(spec, grid)
    for count, rng in block_streams(seed, n):
        xi = np.empty((count, len(grid)))
        _spectral_block(spec, basis, rng, xi)
        shipped = xi.copy()
        live = _Live(count)
        live.lo = xi.min(axis=1)
        live.gamma = bound / live.lo
        for _ in range(EXTRA_ARRIVALS):
            _arrival_round(spec, basis, rng, live, xi, bound)
        yield np.any(shipped != xi, axis=1)
