"""Deterministic random-stream derivation for reproducible Monte Carlo.

Every estimator in this package derives its randomness from a single seed
through ``numpy.random.SeedSequence``; a seed is an integer >= 0 or a
``SeedSequence`` (``as_seedseq``), never None, so no stream draws OS
entropy. Replicas are produced in fixed-size blocks of ``BLOCK_SIZE``
paths; block ``b`` of an estimate draws from the child sequence
``spawn_key + (b,)``. Results therefore depend only on
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


def _is_count(value) -> bool:
    """A Python or numpy integer that is not a bool."""
    return isinstance(value, int | np.integer) and not isinstance(value, bool)


def as_seedseq(seed: Seed) -> np.random.SeedSequence:
    """``seed`` as a ``SeedSequence``: one already, or an integer >= 0.

    Anything else, None (OS entropy) included, is an
    ``InvalidArgumentError``, so every seed gives one reproducible stream.
    """
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if not (_is_count(seed) and seed >= 0):
        raise InvalidArgumentError(f"seed must be an integer >= 0, got {seed!r}")
    return np.random.SeedSequence(int(seed))


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
    Raises ``InvalidArgumentError`` before the first block for a bad seed
    or an ``n`` that is not an integer >= 1, so every estimator refuses a
    bad seed or sample size in the same way.
    """
    root = as_seedseq(seed)
    if not _is_count(n):
        raise InvalidArgumentError(f"replication count must be an integer, got {n!r}")
    if n < 1:
        raise InvalidArgumentError(f"replication count must be >= 1, got {n}")
    b = 0
    remaining = n
    while remaining > 0:
        count = min(BLOCK_SIZE, remaining)
        yield count, np.random.default_rng(substream(root, b))
        remaining -= count
        b += 1
