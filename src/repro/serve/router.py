"""Deterministic content-hash sharding for the serving pool.

The :class:`~repro.serve.pool.ServicePool` routes every request to the
worker that *owns* the clip: the shard is a pure function of the clip's
content hash (:func:`repro.core.cache.clip_content_hash`) and the pool
width, nothing else — no load counters, no round-robin state, no
randomness.  The payoff is cache coherence without cross-process
locking: a given clip always lands on the same worker, so that worker's
:class:`~repro.core.cache.ExtractionCache` shard is the only store that
ever sees it, across requests *and* across pool restarts.

The trade is static balance: shards are as even as the hash is uniform
(SHA-256 over pixel content — effectively uniform for distinct clips),
not actively levelled.  For the dataset-scale batch workloads this pool
targets, coherent shard-local caches are worth far more than perfect
instantaneous balance; see ``docs/serving.md``.
"""

from __future__ import annotations


def shard_of(clip_hash: str, world_size: int) -> int:
    """The worker rank owning ``clip_hash`` in a ``world_size`` pool.

    A pure function — same hash and width always give the same rank, in
    any process, on any day.  The hash is hex (the 24-char digest from
    :func:`clip_content_hash`); the full value is folded in, so every
    digest bit influences the shard.
    """
    if world_size <= 0:
        raise ValueError("world_size must be positive")
    return int(clip_hash, 16) % world_size


__all__ = ["shard_of"]
