"""Shared machinery for array-backed ``access_many`` cache engines.

Every batched cache engine in this package follows the same recipe
(PERFORMANCE.md, docs/CACHE_ENGINES.md):

1. keep per-set line/block metadata in contiguous NumPy arrays between
   batches (one row per set, one column per way/slot, ``-1`` marking an
   invalid entry) with a monotone recency stamp per entry;
2. vectorize the per-address bit slicing (set index, tag, word/sector
   bit, fill address) over the whole batch in a few NumPy passes;
3. materialise only the *touched* sets into flat Python structures
   (lists plus a tag->ways dict, MRU-first so the LRU victim is the
   tail), run one tight per-access loop, and write the sets back;
4. emit the fill/write-back event stream exactly as the scalar loop
   would have, packed into :class:`~repro.cache.base.BatchResult`
   arrays.

This module holds the parts of that recipe that are identical across
designs, so a cache variant only implements its replacement/sectoring
policy:

- event-stream assembly (:func:`pack_events`, :func:`pack_events_sized`,
  :func:`empty_batch`): events accumulate in one flat Python list with
  the write-back flag packed into bit 0 of the (always 8 B-aligned)
  address, and are unpacked into the ``BatchResult`` arrays in two
  vectorized operations;
- the batch-replay memo hooks (:class:`BatchedCacheEngine`):
  ``state_digest`` / ``state_snapshot`` / ``state_restore`` /
  ``counter_vector`` / ``counter_apply``, driven by declarative class
  attributes naming the design's state arrays and counters, so
  ``core.memory_path``'s exact-replay memo works on any engine without
  per-design boilerplate.

Digest canonicality: lines are hashed in per-set recency order
(``argsort(-RECENCY_ARRAY)``), so neither the absolute clock value nor
the physical way an entry landed in affects the digest -- two caches
with equal digests behave identically on any future access stream,
which is the contract ``BatchReplayMemo`` relies on.  Invalid entries
must carry identical zeroed-out state so their position within the
sort cannot break canonicality.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.cache.base import BatchResult
from repro.utils.arrays import narrowest_copy

_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_BOOL = np.empty(0, dtype=bool)


def empty_batch() -> BatchResult:
    """The result of an empty address batch."""
    return BatchResult(0, 0, _EMPTY_I64, _EMPTY_BOOL, _EMPTY_I64)


def pack_events(
    n: int, hits: int, events: list[int] | np.ndarray, nbytes: int
) -> BatchResult:
    """Pack a flat event list (or int64 array) into a :class:`BatchResult`.

    ``events`` carries one integer per fill/write-back, in scalar-loop
    order, with the write-back flag in bit 0 (event addresses are 8 B
    aligned, so bit 0 is free).  All events share one size ``nbytes``
    (uniform-granularity designs: piccolo, conventional, sectored,
    scrabble, fine-8B).
    """
    packed = np.asarray(events, dtype=np.int64)
    return BatchResult(
        accesses=n,
        hits=hits,
        ev_addr=packed & -2,
        ev_is_wb=(packed & 1).astype(bool),
        ev_bytes=np.full(packed.size, nbytes, dtype=np.int64),
    )


def pack_events_sized(
    n: int, hits: int, events: list[int], sizes: list[int]
) -> BatchResult:
    """Like :func:`pack_events` for variable-granularity designs
    (amoeba's predicted-size fills, graphfire's stream fills): ``sizes``
    carries the byte count of each event."""
    packed = np.asarray(events, dtype=np.int64)
    return BatchResult(
        accesses=n,
        hits=hits,
        ev_addr=packed & -2,
        ev_is_wb=(packed & 1).astype(bool),
        ev_bytes=np.asarray(sizes, dtype=np.int64),
    )


def split_free_mru(ids: list[int], ord_: list[int]) -> tuple[list[int], list[int]]:
    """Partition one set's entries for the batched loop.

    ``ids`` is the entry-id column (``-1`` = free slot), ``ord_`` the
    recency stamps.  Returns ``(free, order)``: the free slots sorted
    ascending, and the occupied slots MRU-first -- so ``order``'s tail
    is the LRU victim and ``order.pop()`` needs no stamp scan.
    """
    free: list[int] = []
    order: list[int] = []
    # repro-lint: disable=RL006 -- per-way scan bounded by associativity,
    # runs once per canonicalized set, not per request
    for w in sorted(range(len(ids)), key=ord_.__getitem__, reverse=True):
        if ids[w] == -1:
            free.append(w)
        else:
            order.append(w)
    free.sort()
    return free, order


class BatchedCacheEngine:
    """Mixin providing the exact-replay hooks for array-backed caches.

    A design declares its state layout through class attributes; the
    mixin derives the canonical digest, snapshot/restore, and counter
    delta plumbing that ``core.memory_path.BatchReplayMemo`` needs.

    Attributes:
        RECENCY_ARRAY: name of the ``(num_sets, entries)`` recency-stamp
            array; its descending argsort is the canonical per-set
            entry order.
        CANONICAL_ARRAYS: names of per-set state arrays hashed in
            recency-permuted order (first axis sets, second entries;
            deeper axes ride along).  Recency stamps themselves are
            *excluded*: only the order they induce matters.
        DIGEST_RAW: names of additional state hashed raw -- global
            predictor tables, per-set scalars indexed by (stable) set
            number, or plain ints such as a way quota.
        STATE_ARRAYS: names of every NumPy array copied by
            ``state_snapshot`` (canonical arrays + recency stamps +
            any raw tables).
        STATE_SCALARS: names of scalar attributes snapshot alongside
            (clocks, stream cursors).
        EXTRA_COUNTERS: names of integer counters beyond ``CacheStats``
            included in the replay counter vector.
    """

    RECENCY_ARRAY: str = "_ord"
    CANONICAL_ARRAYS: tuple[str, ...] = ()
    DIGEST_RAW: tuple[str, ...] = ()
    STATE_ARRAYS: tuple[str, ...] = ()
    STATE_SCALARS: tuple[str, ...] = ()
    EXTRA_COUNTERS: tuple[str, ...] = ()

    # ------------------------------------------------------------------
    def state_digest(self) -> bytes:
        perm = np.argsort(
            -getattr(self, self.RECENCY_ARRAY), axis=1, kind="stable"
        )
        h = hashlib.blake2b(digest_size=16)
        for name in self.CANONICAL_ARRAYS:
            arr = getattr(self, name)
            p = perm
            # repro-lint: disable=RL006 -- ndim alignment, bounded by rank
            while p.ndim < arr.ndim:
                p = p[..., None]
            h.update(np.take_along_axis(arr, p, axis=1).tobytes())
        for name in self.DIGEST_RAW:
            value = getattr(self, name)
            if isinstance(value, np.ndarray):
                h.update(value.tobytes())
            else:
                # repro-lint: disable=RL001 -- DIGEST_RAW values are ints/
                # bools/int tuples; repr is canonical for those on CPython
                h.update(repr(value).encode())
        return h.digest()

    def state_snapshot(self) -> tuple:
        # narrowed copies; state_restore's copyto widens them back
        return (
            tuple(
                narrowest_copy(getattr(self, name))
                for name in self.STATE_ARRAYS
            ),
            tuple(getattr(self, name) for name in self.STATE_SCALARS),
        )

    def state_restore(self, snap: tuple) -> None:
        arrays, scalars = snap
        for name, value in zip(self.STATE_ARRAYS, arrays):
            np.copyto(getattr(self, name), value)
        for name, value in zip(self.STATE_SCALARS, scalars):
            setattr(self, name, value)

    # ------------------------------------------------------------------
    def counter_vector(self) -> tuple[int, ...]:
        """Every externally visible counter (replay delta domain)."""
        s = self.stats
        return (
            s.accesses,
            s.hits,
            s.misses,
            s.evictions,
            s.writeback_bytes,
            s.fill_bytes,
            s.requested_bytes,
        ) + tuple(getattr(self, name) for name in self.EXTRA_COUNTERS)

    def counter_apply(self, delta: tuple[int, ...]) -> None:
        s = self.stats
        s.accesses += delta[0]
        s.hits += delta[1]
        s.misses += delta[2]
        s.evictions += delta[3]
        s.writeback_bytes += delta[4]
        s.fill_bytes += delta[5]
        s.requested_bytes += delta[6]
        for name, value in zip(self.EXTRA_COUNTERS, delta[7:]):
            setattr(self, name, getattr(self, name) + value)
