"""Collection-extended MSHR (Sec. V-C, Fig. 7).

Collects fine-grained misses (gathers) and dirty write-backs (scatters)
that fall in the same DRAM row until eight column offsets are available,
then issues one Piccolo-FIM operation.  The structure is a direct-mapped
buffer indexed by the DRAM row address; a conflicting allocation evicts
the old entry as a *partially filled* gather/scatter.

Controller flow on an incoming request (Fig. 7, right):

1. offset hits SC-MSHR  -> served by the buffered write-back data
   (read-after-write forwarding; no DRAM traffic).
2. offset hits GA-MSHR  -> MSHR hit; only a subentry is recorded.
3. otherwise            -> the offset (plus subentry or write-back data)
   is stored; reaching ``items_per_op`` offsets fires the FIM operation.

The NMP baseline reuses this structure with ``rank_level=True`` so the
issued operations serialise on the rank's shared data path instead of
executing in-bank (Sec. VII-A/C).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.core import _kernel
from repro.dram.address import AddressMapper
from repro.dram.fim_batch import FimOp, FimOpBatch
from repro.utils.arrays import narrowest_copy
from repro.utils.units import log2_exact


@dataclass
class MSHRStats:
    """Counters for the collection behaviour (Sec. V-C)."""

    gathers_full: int = 0
    gathers_partial: int = 0
    scatters_full: int = 0
    scatters_partial: int = 0
    forwarded_reads: int = 0   # served from SC-MSHR write-back data
    merged_reads: int = 0      # subentry merges into a pending gather
    merged_writes: int = 0     # coalesced into a pending scatter
    conflict_evictions: int = 0

    @property
    def total_ops(self) -> int:
        return (
            self.gathers_full + self.gathers_partial
            + self.scatters_full + self.scatters_partial
        )


class CollectionExtendedMSHR:
    """Direct-mapped miss-collection buffer feeding Piccolo-FIM.

    Args:
        mapper: address mapper of the target memory system.
        num_entries: row entries (paper: 4 K, scaled with the workload).
        items_per_op: offsets that trigger a full operation (8 for DDR4,
            4 for 32 B-burst devices).
        rank_level: issue NMP-style rank-level operations instead of
            in-bank FIM operations.

    State layout: one row per direct-mapped slot in NumPy columns --
    the DRAM row key the slot holds (``-1`` when empty) and, per half,
    up to ``items_per_op`` pending word offsets with their count.  The
    scalar :meth:`add_read` / :meth:`add_write` oracle, the Python batch
    loop, the C kernel (``_fgkernel.c``) and the replay-memo hooks all
    work on these same arrays.  Offsets are kept in insertion order;
    only their set matters, and :meth:`state_digest` sorts them.
    """

    def __init__(
        self,
        mapper: AddressMapper,
        num_entries: int = 4096,
        items_per_op: int = 8,
        rank_level: bool = False,
    ) -> None:
        log2_exact(num_entries)
        if items_per_op < 1:
            raise ValueError("items_per_op must be >= 1")
        self.mapper = mapper
        self.num_entries = num_entries
        self.items_per_op = items_per_op
        self.rank_level = rank_level
        self.stats = MSHRStats()
        cfg = mapper.config
        self._total_banks = cfg.total_banks
        self._banks_per_rank = cfg.spec.banks_per_rank
        self._ranks = cfg.ranks
        # offset rows padded to whole blocks of 8 lanes (the kernel's
        # fixed-width membership test); lanes past items_per_op stay unused
        lanes = -(-items_per_op // 8) * 8
        self._row_key = np.full(num_entries, -1, dtype=np.int64)
        self._ga = np.zeros((num_entries, lanes), dtype=np.int32)
        self._ga_n = np.zeros(num_entries, dtype=np.int32)
        self._sc = np.zeros((num_entries, lanes), dtype=np.int32)
        self._sc_n = np.zeros(num_entries, dtype=np.int32)
        # decode fields + geometry (the PM_* enum in _fgkernel.c)
        self._kernel_params = np.array(
            [
                mapper.burst_shift, cfg.channels, mapper.channel_bits,
                cfg.spec.banks_per_rank, mapper.bank_bits, cfg.ranks,
                mapper.rank_bits, mapper.column_bits, cfg.rows_per_bank,
                cfg.total_banks, cfg.spec.burst_bytes >> 3, num_entries,
                items_per_op, lanes,
            ],
            dtype=np.int64,
        )

    # ------------------------------------------------------------------
    # Operation construction
    # ------------------------------------------------------------------
    def _op_batch(
        self, row_key: np.ndarray, items: np.ndarray, scatter: np.ndarray
    ) -> FimOpBatch:
        """Operation columns for rows named by their row keys (the
        location is recovered from ``row * total_banks + global_bank``)."""
        row_key = np.asarray(row_key, dtype=np.int64)
        gb = row_key % self._total_banks
        chra = gb // self._banks_per_rank
        return FimOpBatch(
            (
                chra // self._ranks,
                chra % self._ranks,
                gb,
                row_key // self._total_banks,
                np.asarray(items, dtype=np.int64),
                np.asarray(scatter, dtype=bool),
                np.full(row_key.size, self.rank_level, dtype=bool),
            )
        )

    def _drain_slots(self, slots: np.ndarray) -> FimOpBatch:
        """Issue every pending collection of ``slots`` (gather before
        scatter, slot by slot) as possibly partial operations and clear
        them; the slots keep their row."""
        counts = np.stack([self._ga_n[slots], self._sc_n[slots]], axis=1)
        counts = counts.ravel().astype(np.int64)
        scatter = np.tile(np.array([False, True]), slots.size)
        live = counts > 0
        full = counts >= self.items_per_op
        s = self.stats
        s.gathers_full += int(np.count_nonzero(live & full & ~scatter))
        s.gathers_partial += int(np.count_nonzero(live & ~full & ~scatter))
        s.scatters_full += int(np.count_nonzero(live & full & scatter))
        s.scatters_partial += int(np.count_nonzero(live & ~full & scatter))
        self._ga_n[slots] = 0
        self._sc_n[slots] = 0
        row_key = np.repeat(self._row_key[slots], 2)
        return self._op_batch(row_key[live], counts[live], scatter[live])

    # ------------------------------------------------------------------
    # Scalar oracle (one request at a time, directly on the arrays)
    # ------------------------------------------------------------------
    def _locate(self, addr: int) -> tuple[int, int, list[FimOp]]:
        """Find (allocating if needed) the slot for ``addr``'s row.

        Returns the slot, the in-row word offset, and any operations the
        allocation forced out (partial gather/scatter of a conflicting
        row).
        """
        _, _, bank, row, word = self.mapper.decode_scalar(addr)
        row_key = row * self._total_banks + bank
        slot = row_key & (self.num_entries - 1)
        held = int(self._row_key[slot])
        evicted: list[FimOp] = []
        if held != row_key:
            if held != -1:
                self.stats.conflict_evictions += 1
                evicted = self._drain_slots(np.array([slot])).to_ops()
            self._row_key[slot] = row_key
        return slot, word, evicted

    def _collect(self, offsets: np.ndarray, counts: np.ndarray, slot: int,
                 word: int, scatter: bool) -> FimOp | None:
        """Add ``word`` to one half of a slot; the operation it fires
        when the half reaches ``items_per_op`` offsets, else None."""
        n = int(counts[slot])
        offsets[slot, n] = word
        n += 1
        if n < self.items_per_op:
            counts[slot] = n
            return None
        counts[slot] = 0
        return self._op_batch(self._row_key[slot : slot + 1], [n], [scatter])[0]

    @staticmethod
    def _holds(offsets: np.ndarray, counts: np.ndarray, slot: int,
               word: int) -> bool:
        return word in offsets[slot, : counts[slot]].tolist()

    def add_read(self, addr: int) -> list[FimOp]:
        """Register a fine-grained miss; returns any issued operations."""
        slot, word, ops = self._locate(addr)
        if self._holds(self._sc, self._sc_n, slot, word):
            # Served from buffered write-back data (no DRAM traffic).
            self.stats.forwarded_reads += 1
            return ops
        if self._holds(self._ga, self._ga_n, slot, word):
            self.stats.merged_reads += 1
            return ops
        op = self._collect(self._ga, self._ga_n, slot, word, scatter=False)
        if op is not None:
            ops.append(op)
            self.stats.gathers_full += 1
        return ops

    def add_write(self, addr: int) -> list[FimOp]:
        """Register a fine-grained write-back; returns issued operations."""
        slot, word, ops = self._locate(addr)
        if self._holds(self._sc, self._sc_n, slot, word):
            self.stats.merged_writes += 1
            return ops
        op = self._collect(self._sc, self._sc_n, slot, word, scatter=True)
        if op is not None:
            ops.append(op)
            self.stats.scatters_full += 1
        return ops

    # ------------------------------------------------------------------
    # Batched path
    # ------------------------------------------------------------------
    def add_batch(self, addrs: np.ndarray, is_wb: np.ndarray) -> FimOpBatch:
        """Register a whole fill/write-back event stream at once.

        Behaviourally identical to calling :meth:`add_read` /
        :meth:`add_write` per event in order (the batched-equivalence
        suite enforces it).  The events run through the C kernel when
        it is available, else through one Python loop over the touched
        slots; either way the issued operations come back as whole
        :class:`FimOpBatch` columns, one batch per call.
        """
        addrs = np.ascontiguousarray(addrs, dtype=np.int64)
        if addrs.size == 0:
            return FimOpBatch()
        is_wb = np.ascontiguousarray(is_wb, dtype=bool)
        kernel = _kernel.load()
        if kernel is not None:
            return self._add_batch_kernel(kernel, addrs, is_wb)
        return self._add_batch_python(addrs, is_wb)

    def _add_batch_kernel(
        self, kernel: _kernel.Kernel, addrs: np.ndarray, is_wb: np.ndarray
    ) -> FimOpBatch:
        # every op clears >= 1 offset, each pending or added by an event
        cap = addrs.size + int(self._ga_n.sum()) + int(self._sc_n.sum())
        op_rk = np.empty(cap, dtype=np.int64)
        op_items = np.empty(cap, dtype=np.int64)
        op_scatter = np.empty(cap, dtype=np.uint8)
        counts = np.zeros(8, dtype=np.int64)
        ptr = _kernel.ptr
        n_ops = kernel.mshr_add(
            ptr(addrs, np.int64), ptr(is_wb.view(np.uint8), np.uint8),
            addrs.size,
            ptr(self._row_key, np.int64),
            ptr(self._ga, np.int32), ptr(self._ga_n, np.int32),
            ptr(self._sc, np.int32), ptr(self._sc_n, np.int32),
            ptr(self._kernel_params, np.int64), ptr(counts, np.int64),
            ptr(op_rk, np.int64), ptr(op_items, np.int64),
            ptr(op_scatter, np.uint8),
        )
        self.counter_apply(tuple(counts.tolist()))
        return self._op_batch(
            op_rk[:n_ops], op_items[:n_ops], op_scatter[:n_ops].view(bool)
        )

    def _add_batch_python(
        self, addrs: np.ndarray, is_wb: np.ndarray
    ) -> FimOpBatch:
        """The fallback loop: vectorised decode, the touched slots
        materialised as ``[row_key, gather list, scatter list]`` once,
        one pass over the events, then the slots written back."""
        _, _, _, _, row_key, word = self.mapper.decode_fim_many(addrs)
        row_key_l = row_key.tolist()
        slot_mask = self.num_entries - 1
        items_per_op = self.items_per_op
        slots: dict[int, list] = {}
        for slot in set((row_key & slot_mask).tolist()):
            slots[slot] = [
                int(self._row_key[slot]),
                self._ga[slot, : self._ga_n[slot]].tolist(),
                self._sc[slot, : self._sc_n[slot]].tolist(),
            ]
        op_rk: list[int] = []
        op_items: list[int] = []
        op_scatter: list[bool] = []
        forwarded = merged_r = merged_w = conflicts = 0
        gathers_full = gathers_partial = scatters_full = scatters_partial = 0

        for rk, wd, wb in zip(row_key_l, word.tolist(), is_wb.tolist()):
            entry = slots[rk & slot_mask]
            if entry[0] != rk:
                if entry[0] != -1:
                    conflicts += 1
                    ga, sc = entry[1], entry[2]
                    if ga:
                        op_rk.append(entry[0])
                        op_items.append(len(ga))
                        op_scatter.append(False)
                        if len(ga) >= items_per_op:
                            gathers_full += 1
                        else:
                            gathers_partial += 1
                    if sc:
                        op_rk.append(entry[0])
                        op_items.append(len(sc))
                        op_scatter.append(True)
                        if len(sc) >= items_per_op:
                            scatters_full += 1
                        else:
                            scatters_partial += 1
                entry[0] = rk
                entry[1] = []
                entry[2] = []
            sc = entry[2]
            if wb:
                if wd in sc:
                    merged_w += 1
                    continue
                sc.append(wd)
                if len(sc) >= items_per_op:
                    op_rk.append(rk)
                    op_items.append(len(sc))
                    op_scatter.append(True)
                    scatters_full += 1
                    entry[2] = []
            else:
                if wd in sc:
                    # Served from buffered write-back data (no DRAM traffic).
                    forwarded += 1
                    continue
                ga = entry[1]
                if wd in ga:
                    merged_r += 1
                    continue
                ga.append(wd)
                if len(ga) >= items_per_op:
                    op_rk.append(rk)
                    op_items.append(len(ga))
                    op_scatter.append(False)
                    gathers_full += 1
                    entry[1] = []

        for slot, (rk, ga, sc) in slots.items():
            self._row_key[slot] = rk
            self._ga[slot, : len(ga)] = ga
            self._ga_n[slot] = len(ga)
            self._sc[slot, : len(sc)] = sc
            self._sc_n[slot] = len(sc)
        self.counter_apply(
            (
                gathers_full, gathers_partial, scatters_full,
                scatters_partial, forwarded, merged_r, merged_w, conflicts,
            )
        )
        return self._op_batch(
            np.asarray(op_rk, dtype=np.int64),
            np.asarray(op_items, dtype=np.int64),
            np.asarray(op_scatter, dtype=bool),
        )

    def flush(self) -> FimOpBatch:
        """Drain every pending entry (end of iteration / run)."""
        ops = self._drain_slots(np.flatnonzero(self._row_key != -1))
        self._row_key.fill(-1)
        return ops

    # ------------------------------------------------------------------
    # Exact-replay support (core.memory_path batch memoisation)
    # ------------------------------------------------------------------
    def _state_arrays(self) -> tuple[np.ndarray, ...]:
        return (self._row_key, self._ga, self._ga_n, self._sc, self._sc_n)

    def state_digest(self) -> bytes:
        """Canonical digest of all pending collections: the column bytes
        with each slot's live offsets sorted and dead ones masked, so
        neither insertion order nor stale entries reach the hash."""
        h = hashlib.blake2b(digest_size=16)
        h.update(self._row_key.tobytes())
        lane = np.arange(self._ga.shape[1], dtype=np.int32)
        for offsets, counts in ((self._ga, self._ga_n), (self._sc, self._sc_n)):
            canon = np.where(lane < counts[:, None], offsets, -1)
            canon.sort(axis=1)
            h.update(canon.tobytes())
        return h.digest()

    def state_snapshot(self) -> tuple[np.ndarray, ...]:
        # narrowed copies; state_restore's copyto widens them back
        return tuple(narrowest_copy(arr) for arr in self._state_arrays())

    def state_restore(self, snap: tuple[np.ndarray, ...]) -> None:
        for arr, saved in zip(self._state_arrays(), snap):
            np.copyto(arr, saved)

    def counter_vector(self) -> tuple[int, ...]:
        s = self.stats
        return (
            s.gathers_full,
            s.gathers_partial,
            s.scatters_full,
            s.scatters_partial,
            s.forwarded_reads,
            s.merged_reads,
            s.merged_writes,
            s.conflict_evictions,
        )

    def counter_apply(self, delta: tuple[int, ...]) -> None:
        s = self.stats
        s.gathers_full += delta[0]
        s.gathers_partial += delta[1]
        s.scatters_full += delta[2]
        s.scatters_partial += delta[3]
        s.forwarded_reads += delta[4]
        s.merged_reads += delta[5]
        s.merged_writes += delta[6]
        s.conflict_evictions += delta[7]
