"""Deterministic random-stream derivation for reproducible Monte Carlo.

Every estimator in this package derives its randomness from a single seed
through ``numpy.random.SeedSequence``. Replicas are produced in fixed-size
blocks of ``BLOCK_SIZE`` paths; block ``b`` of an estimate draws from the
child sequence ``spawn_key + (b,)``. Results therefore depend only on
(seed, n, grid), never on thread count or execution order, and any block
can be regenerated in isolation.

Within a block each sampling routine documents its draw layout; see
``generators`` (uniforms per path) and ``msp`` (arrival loop).
"""

from __future__ import annotations

from collections.abc import Iterator
from zlib import crc32

import numpy as np

from .errors import InvalidArgumentError

# Replicas per RNG block. Fixed: changing it changes which uniforms land on
# which replica, hence the sampled values for a given seed.
BLOCK_SIZE = 4096

Seed = int | np.random.SeedSequence


def as_seedseq(seed: Seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def substream(seed: Seed, *key: int) -> np.random.SeedSequence:
    """Child sequence at ``spawn_key + key``; independent for distinct keys."""
    root = as_seedseq(seed)
    return np.random.SeedSequence(
        entropy=root.entropy, spawn_key=tuple(root.spawn_key) + key
    )


def label_key(label: str) -> int:
    """Stable integer key for a string label (CRC-32, platform independent)."""
    return crc32(label.encode("utf-8"))


def block_streams(seed: Seed, n: int) -> Iterator[tuple[int, np.random.Generator]]:
    """Yield ``(count, rng)`` pairs covering ``n`` replicas in blocks of
    ``BLOCK_SIZE``.

    Block ``b`` uses the child sequence ``spawn_key + (b,)`` of ``seed``.
    Raises ``InvalidArgumentError`` for ``n < 1``, so every estimator
    refuses an empty sample in the same way.
    """
    if n < 1:
        raise InvalidArgumentError(f"replication count must be >= 1, got {n}")
    b = 0
    remaining = n
    while remaining > 0:
        count = min(BLOCK_SIZE, remaining)
        yield count, np.random.default_rng(substream(seed, b))
        remaining -= count
        b += 1
