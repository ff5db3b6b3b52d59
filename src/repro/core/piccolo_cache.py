"""Piccolo-cache: fine-grained storage with split (tag, fg-tag) lookup.

Sec. V / Fig. 5b.  A line covers a contiguous *window* of
``sectors_per_line * 2**fg_tag_bits * 8`` bytes (32 KB in the paper's
4 MB configuration).  The address splits, LSB to MSB, into

    [ byte(3) | fg-offset(log2 sectors) | fg-tag | set | tag ]

A line holds one 8 B sector per fg-offset; the sector's fg-tag records
*which* 128 B-strided word of the window currently occupies the slot.
Splitting the conventional 29-bit tag into a per-line 21-bit tag plus
per-sector 8-bit fg-tags cuts tag storage from 45.31 % of data capacity
to 2.05 % + 12.50 % while behaving almost like an 8 B-line cache.

Replacement (Sec. V-B / Fig. 6):

- The same tag may occupy several ways of a set; lookup searches ways
  sequentially (cheap, throughput-oriented).
- A fg-tag miss with the tag already at its way-partition quota replaces
  just the victim *sector* in the LRU line of that tag.
- Otherwise a whole line of another tag is evicted (equal way
  partitioning across the tags of the current tile; unequal partitioning
  is the paper's future work, available here as the ``"utility"`` mode).
- Victim ordering is LRU by default, SRRIP when ``policy="rrip"``
  (Fig. 11's Piccolo (RRIP) bars).

Storage layout (this module's batched engine, PERFORMANCE.md):

The per-set line metadata lives in contiguous NumPy arrays -- tags,
per-sector fg-tags, dirty masks, RRPV and recency stamps -- instead of
``_Line`` objects in Python lists.  Recency is a monotonically
increasing stamp per line: under LRU the stamp advances on every touch,
under SRRIP only on insertion, which reproduces the original MRU-first
list ordering (including SRRIP's first-max tie-break on the youngest
insertion) without any list churn.  :meth:`access` operates on the
arrays one address at a time; :meth:`access_many` runs the whole batch
through the C kernel (``_fgkernel.c`` via :mod:`repro.core._kernel`)
in place on the arrays, or, when no kernel can be built, materialises
the touched sets into flat Python structures once per batch, runs a
tight Python loop, and writes the arrays back.  All three are
behaviourally identical (enforced by tests/test_batched_equivalence.py).
"""

from __future__ import annotations

import numpy as np

from repro.cache.base import AccessResult, BaseCache, BatchResult
from repro.cache.batched import BatchedCacheEngine, empty_batch, pack_events
from repro.core import _kernel
from repro.utils.units import log2_exact

#: SRRIP constants (2-bit re-reference prediction values).
RRIP_BITS = 2
RRIP_MAX = (1 << RRIP_BITS) - 1
RRIP_INSERT = RRIP_MAX - 1


class _LineView:
    """Read-only snapshot of one line (introspection/back-compat)."""

    __slots__ = ("tag", "fg", "dirty", "rrpv")

    def __init__(self, tag: int, fg: list[int], dirty: int, rrpv: int) -> None:
        self.tag = tag
        self.fg = fg
        self.dirty = dirty
        self.rrpv = rrpv


class PiccoloCache(BatchedCacheEngine, BaseCache):
    """The split-tag fine-grained cache of Sec. V.

    Args:
        size_bytes: data capacity.
        ways: associativity (paper: 8).
        line_bytes: line size (paper: 128 = 16 sectors x 8 B).
        sector_bytes: fine-grained granularity (paper: 8).
        fg_tag_bits: per-sector tag width (paper: 8).  Scaled-down
            experiments use 4 so the window/tile ratios match (docs/EXPERIMENTS.md).
        policy: ``"lru"`` or ``"rrip"``.
        addr_bits: modelled address width (tag accounting only).
    """

    # Replay-memo state layout (see cache/batched.py).  ``way_quota``
    # joins the digest raw: the same line state behaves differently
    # under a different quota.
    CANONICAL_ARRAYS = ("_tag", "_fgt", "_dirty", "_rrpv")
    DIGEST_RAW = ("way_quota",)
    STATE_ARRAYS = ("_tag", "_fgt", "_dirty", "_rrpv", "_ord", "_ins")
    STATE_SCALARS = ("_clock",)
    EXTRA_COUNTERS = ("sector_replacements", "line_evictions")

    def __init__(
        self,
        size_bytes: int,
        ways: int = 8,
        line_bytes: int = 128,
        sector_bytes: int = 8,
        fg_tag_bits: int = 8,
        policy: str = "lru",
        addr_bits: int = 48,
    ) -> None:
        super().__init__()
        if policy not in ("lru", "rrip"):
            raise ValueError("policy must be 'lru' or 'rrip'")
        if line_bytes % sector_bytes != 0:
            raise ValueError("line must be a multiple of the sector size")
        if size_bytes % (ways * line_bytes) != 0:
            raise ValueError("size must be a multiple of ways * line size")
        if not 1 <= fg_tag_bits <= 16:
            raise ValueError("fg_tag_bits must be in [1, 16]")
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_bytes = line_bytes
        self.sector_bytes = sector_bytes
        self.sectors_per_line = line_bytes // sector_bytes
        self.fg_tag_bits = fg_tag_bits
        self.policy = policy
        self.addr_bits = addr_bits
        self.num_sets = size_bytes // (ways * line_bytes)
        log2_exact(self.num_sets)
        if line_bytes // sector_bytes > 63:
            raise ValueError(
                "sectors_per_line > 63 exceeds the int64 dirty-mask width"
            )

        self._sector_shift = log2_exact(sector_bytes)
        self._fg_off_bits = log2_exact(self.sectors_per_line)
        self._fg_shift = self._sector_shift + self._fg_off_bits
        self._set_shift = self._fg_shift + fg_tag_bits
        self._set_bits = log2_exact(self.num_sets)
        self._tag_shift = self._set_shift + self._set_bits

        # Array-backed line metadata (see module docstring).
        shape = (self.num_sets, ways)
        self._tag = np.full(shape, -1, dtype=np.int64)
        self._fgt = np.full(shape + (self.sectors_per_line,), -1, dtype=np.int32)
        self._dirty = np.zeros(shape, dtype=np.int64)
        self._rrpv = np.full(shape, RRIP_INSERT, dtype=np.int16)
        #: recency stamp: touch-order under LRU, insert-order under SRRIP
        self._ord = np.zeros(shape, dtype=np.int64)
        #: insertion stamp (SRRIP's tie-break domain)
        self._ins = np.zeros(shape, dtype=np.int64)
        self._clock = 1

        #: ways each tag may occupy (equal way partitioning, Sec. V-B);
        #: the tiling layer calls :meth:`set_way_quota` per tile.
        self.way_quota = ways
        #: extra counters beyond CacheStats
        self.sector_replacements = 0
        self.line_evictions = 0

    # ------------------------------------------------------------------
    @property
    def window_bytes(self) -> int:
        """Contiguous address range one (tag, set) pair covers."""
        return 1 << self._set_shift

    def set_way_quota(self, tags_per_set: int) -> None:
        """Equal way partitioning for a tile spanning ``tags_per_set``
        distinct tags per set (Sec. V-B)."""
        if tags_per_set < 1:
            raise ValueError("tags_per_set must be >= 1")
        self.way_quota = max(1, self.ways // tags_per_set)

    # ------------------------------------------------------------------
    def _split(self, addr: int) -> tuple[int, int, int, int]:
        off = (addr >> self._sector_shift) & (self.sectors_per_line - 1)
        fg = (addr >> self._fg_shift) & ((1 << self.fg_tag_bits) - 1)
        set_idx = (addr >> self._set_shift) & (self.num_sets - 1)
        tag = addr >> self._tag_shift
        return tag, set_idx, fg, off

    def _sector_addr(self, tag: int, set_idx: int, fg: int, off: int) -> int:
        return (
            (tag << self._tag_shift)
            | (set_idx << self._set_shift)
            | (fg << self._fg_shift)
            | (off << self._sector_shift)
        )

    # ------------------------------------------------------------------
    # Scalar path (one address at a time, directly on the arrays)
    # ------------------------------------------------------------------
    def access(self, addr: int, is_write: bool) -> AccessResult:
        stats = self.stats
        stats.accesses += 1
        stats.requested_bytes += self.sector_bytes
        tag, set_idx, fg, off = self._split(addr)
        bit = 1 << off
        tag_row = self._tag[set_idx].tolist()
        fg_rows = self._fgt[set_idx]

        same_tag: list[int] = []
        for w, t in enumerate(tag_row):
            if t == tag:
                if fg_rows[w, off] == fg:
                    stats.hits += 1
                    if is_write:
                        self._dirty[set_idx, w] |= bit
                    self._touch(set_idx, w)
                    return AccessResult(hit=True)
                same_tag.append(w)

        stats.misses += 1
        stats.fill_bytes += self.sector_bytes
        writebacks: list[tuple[int, int]] | None = None

        # Sector replacement only when the tag already holds its allocated
        # ways (Sec. V-B); below quota the tag claims a whole new line.
        if same_tag and len(same_tag) >= self.way_quota:
            v = self._victim_among(set_idx, same_tag)
            old_fg = int(fg_rows[v, off])
            if old_fg >= 0 and int(self._dirty[set_idx, v]) & bit:
                wb_addr = self._sector_addr(tag, set_idx, old_fg, off)
                writebacks = [(wb_addr, self.sector_bytes)]
                stats.writeback_bytes += self.sector_bytes
            fg_rows[v, off] = fg
            if is_write:
                self._dirty[set_idx, v] |= bit
            else:
                self._dirty[set_idx, v] &= ~bit
            self.sector_replacements += 1
            self._touch(set_idx, v)
        else:
            # Whole-line allocation; evict another tag's LRU line if full.
            free = [w for w, t in enumerate(tag_row) if t == -1]
            if free:
                w = free[0]
            else:
                candidates = [
                    w for w in range(self.ways) if w not in same_tag
                ] or list(range(self.ways))
                w = self._victim_among(set_idx, candidates)
                stats.evictions += 1
                self.line_evictions += 1
                writebacks = self._dirty_sector_writebacks(set_idx, w)
            self._tag[set_idx, w] = tag
            fg_rows[w] = -1
            fg_rows[w, off] = fg
            self._dirty[set_idx, w] = bit if is_write else 0
            self._rrpv[set_idx, w] = RRIP_INSERT
            self._ord[set_idx, w] = self._clock
            self._ins[set_idx, w] = self._clock
            self._clock += 1

        return AccessResult(
            hit=False,
            fill_addr=addr & ~(self.sector_bytes - 1),
            fill_bytes=self.sector_bytes,
            writebacks=writebacks,
        )

    # ------------------------------------------------------------------
    def _touch(self, set_idx: int, way: int) -> None:
        if self.policy == "lru":
            self._ord[set_idx, way] = self._clock
            self._clock += 1
        else:
            self._rrpv[set_idx, way] = 0

    def _victim_among(self, set_idx: int, candidates: list[int]) -> int:
        """Pick the victim way among ``candidates`` per the policy."""
        if self.policy == "lru":
            ord_row = self._ord[set_idx]
            return min(candidates, key=lambda w: ord_row[w])
        return self._rrip_victim(
            candidates, self._rrpv[set_idx], self._ins[set_idx]
        )

    def _dirty_sector_writebacks(
        self, set_idx: int, way: int
    ) -> list[tuple[int, int]] | None:
        dirty = int(self._dirty[set_idx, way])
        if not dirty:
            return None
        tag = int(self._tag[set_idx, way])
        fg_row = self._fgt[set_idx, way]
        writebacks = []
        for off in range(self.sectors_per_line):
            if dirty & (1 << off):
                addr = self._sector_addr(tag, set_idx, int(fg_row[off]), off)
                writebacks.append((addr, self.sector_bytes))
        self.stats.writeback_bytes += len(writebacks) * self.sector_bytes
        return writebacks

    # ------------------------------------------------------------------
    # Batched path (whole-tile address arrays)
    # ------------------------------------------------------------------
    def access_many(self, addrs: np.ndarray, is_write: bool) -> BatchResult:
        addrs = np.ascontiguousarray(addrs, dtype=np.int64)
        n = int(addrs.size)
        if n == 0:
            return empty_batch()
        kernel = _kernel.load()
        if kernel is not None:
            return self._access_many_kernel(kernel, addrs, is_write)

        sectors = self.sectors_per_line
        sector_mask = self.sector_bytes - 1
        fg_shift = self._fg_shift
        quota = self.way_quota
        nways = self.ways
        is_lru = self.policy == "lru"

        # Vectorized address decomposition (the per-access bit slicing
        # the scalar loop pays in the interpreter).
        off_a = (addrs >> self._sector_shift) & (sectors - 1)
        fg_a = (addrs >> fg_shift) & ((1 << self.fg_tag_bits) - 1)
        set_a = (addrs >> self._set_shift) & (self.num_sets - 1)
        tag_a = addrs >> self._tag_shift
        fill_a = addrs & ~sector_mask
        # Fill address with the fg field cleared: OR-ing a victim's old
        # fg-tag back in yields its write-back address in two int ops.
        nofg_a = fill_a & ~(((1 << self.fg_tag_bits) - 1) << fg_shift)
        bit_a = np.left_shift(1, off_a)

        tag_l = tag_a.tolist()
        set_l = set_a.tolist()
        fg_l = fg_a.tolist()
        off_l = off_a.tolist()
        bit_l = bit_a.tolist()
        fill_l = fill_a.tolist()
        nofg_l = nofg_a.tolist()

        # Materialise the touched sets into flat Python structures.  Tag
        # groups are built MRU-first so the LRU victim is simply the
        # group's tail (no per-miss min() scan); the loop keeps that
        # invariant by moving touched ways to the group head.
        state: dict[int, tuple] = {}
        for s in set(set_l):
            tags = self._tag[s].tolist()
            fgw = [row.tolist() for row in self._fgt[s]]
            dirty = self._dirty[s].tolist()
            rrpv = self._rrpv[s].tolist()
            ord_ = self._ord[s].tolist()
            ins = self._ins[s].tolist()
            tagmap: dict[int, list[int]] = {}
            free: list[int] = []
            for w in sorted(range(nways), key=ord_.__getitem__, reverse=True):
                t = tags[w]
                if t == -1:
                    free.append(w)
                else:
                    tagmap.setdefault(t, []).append(w)
            state[s] = (tags, fgw, dirty, rrpv, ord_, ins, tagmap, free)

        # Write-back events carry bit 0 as a flag (sector addresses are
        # 8 B aligned): one append per event, unpacked vectorised below.
        events: list[int] = []
        clk = self._clock
        hits = wb_events = sector_repl = line_evict = 0
        cur_s = -1
        tags = fgw = dirty = rrpv = ord_ = ins = tagmap = free = None

        for tag, s, fg, off, bit, fill, nofg in zip(
            tag_l, set_l, fg_l, off_l, bit_l, fill_l, nofg_l
        ):
            if s != cur_s:
                tags, fgw, dirty, rrpv, ord_, ins, tagmap, free = state[s]
                cur_s = s
            grp = tagmap.get(tag)
            if grp is not None:
                hit_w = -1
                for w in grp:
                    if fgw[w][off] == fg:
                        hit_w = w
                        break
                if hit_w >= 0:
                    hits += 1
                    if is_write:
                        dirty[hit_w] |= bit
                    if is_lru:
                        ord_[hit_w] = clk
                        clk += 1
                        if grp[0] != hit_w:
                            grp.remove(hit_w)
                            grp.insert(0, hit_w)
                    else:
                        rrpv[hit_w] = 0
                    continue
            # miss: the fill precedes any write-back it displaces
            events.append(fill)
            if grp is not None and len(grp) >= quota:
                # sector replacement in the tag's LRU/SRRIP-victim line
                if is_lru:
                    v = grp[-1]
                    if grp[0] != v:
                        grp.pop()
                        grp.insert(0, v)
                    ord_[v] = clk
                    clk += 1
                else:
                    v = self._rrip_victim(grp, rrpv, ins)
                    rrpv[v] = 0
                row = fgw[v]
                old_fg = row[off]
                if old_fg >= 0 and dirty[v] & bit:
                    events.append(nofg | (old_fg << fg_shift) | 1)
                    wb_events += 1
                row[off] = fg
                if is_write:
                    dirty[v] |= bit
                else:
                    dirty[v] &= ~bit
                sector_repl += 1
            else:
                # whole-line allocation, evicting another tag if full
                if free:
                    w = free.pop()
                else:
                    cands = [w2 for w2 in range(nways) if tags[w2] != tag]
                    if not cands:
                        cands = list(range(nways))
                    if is_lru:
                        w = min(cands, key=ord_.__getitem__)
                    else:
                        w = self._rrip_victim(cands, rrpv, ins)
                    line_evict += 1
                    d = dirty[w]
                    if d:
                        vrow = fgw[w]
                        base = (tags[w] << self._tag_shift) | (
                            s << self._set_shift
                        )
                        o = 0
                        while d:
                            if d & 1:
                                events.append(
                                    base
                                    | (vrow[o] << fg_shift)
                                    | (o << self._sector_shift)
                                    | 1
                                )
                                wb_events += 1
                            d >>= 1
                            o += 1
                    old_grp = tagmap[tags[w]]
                    old_grp.remove(w)
                    if not old_grp:
                        del tagmap[tags[w]]
                        # the victim may have shared our tag (degenerate
                        # all-same-tag fallback): re-resolve the group
                        grp = tagmap.get(tag)
                tags[w] = tag
                new_row = [-1] * sectors
                new_row[off] = fg
                fgw[w] = new_row
                dirty[w] = bit if is_write else 0
                rrpv[w] = RRIP_INSERT
                ord_[w] = clk
                ins[w] = clk
                clk += 1
                if grp is not None:
                    grp.insert(0, w)
                else:
                    tagmap[tag] = [w]

        # Write the mutated sets back to the arrays.
        for s, (tags, fgw, dirty, rrpv, ord_, ins, _, _) in state.items():
            self._tag[s] = tags
            self._fgt[s] = fgw
            self._dirty[s] = dirty
            self._rrpv[s] = rrpv
            self._ord[s] = ord_
            self._ins[s] = ins
        self._clock = clk
        self._account(n, hits, wb_events, sector_repl, line_evict)
        return pack_events(n, hits, events, self.sector_bytes)

    def _access_many_kernel(
        self, kernel: _kernel.Kernel, addrs: np.ndarray, is_write: bool
    ) -> BatchResult:
        """:meth:`access_many` in the C kernel (``_fgkernel.c``), in
        place on the line arrays.  The event buffer starts at two events
        per access and doubles whenever the kernel stops short of room
        for one worst-case access, so it stays O(batch)."""
        n = int(addrs.size)
        params = np.array(
            [
                self.num_sets, self.ways, self.sectors_per_line,
                self._sector_shift, self._fg_shift, self.fg_tag_bits,
                self._set_shift, self._tag_shift, self.way_quota,
                self.policy == "lru", is_write,
            ],
            dtype=np.int64,
        )
        # hits, write-backs, sector replacements, line evictions,
        # events written, clock (see the PK_* enum in _fgkernel.c)
        counts = np.array([0, 0, 0, 0, 0, self._clock], dtype=np.int64)
        events = np.empty(2 * n + self.sectors_per_line + 1, dtype=np.int64)
        ptr = _kernel.ptr
        done = 0
        while done < n:
            done = kernel.piccolo_access(
                ptr(addrs, np.int64), n, done,
                ptr(self._tag, np.int64), ptr(self._fgt, np.int32),
                ptr(self._dirty, np.int64), ptr(self._rrpv, np.int16),
                ptr(self._ord, np.int64), ptr(self._ins, np.int64),
                ptr(params, np.int64), ptr(counts, np.int64),
                ptr(events, np.int64), events.size,
            )
            if done < n:
                events = np.concatenate([events, np.empty_like(events)])
        hits, wb_events, sector_repl, line_evict, n_events, clock = (
            counts.tolist()
        )
        self._clock = clock
        self._account(n, hits, wb_events, sector_repl, line_evict)
        return pack_events(n, hits, events[:n_events], self.sector_bytes)

    def _account(
        self, n: int, hits: int, wb_events: int, sector_repl: int,
        line_evict: int,
    ) -> None:
        """Fold one batch's outcome into the counters."""
        misses = n - hits
        stats = self.stats
        stats.accesses += n
        stats.requested_bytes += n * self.sector_bytes
        stats.hits += hits
        stats.misses += misses
        stats.fill_bytes += misses * self.sector_bytes
        stats.writeback_bytes += wb_events * self.sector_bytes
        stats.evictions += line_evict
        self.sector_replacements += sector_repl
        self.line_evictions += line_evict

    @staticmethod
    def _rrip_victim(cands, rrpv, ins) -> int:
        """SRRIP victim: highest RRPV wins, youngest insertion breaks
        ties (the original MRU-first list put the newest insertion
        first, and ``max`` kept the first of equals); age if none is at
        max.  Works on both the flat batched lists and the NumPy rows
        of the scalar path."""
        while True:
            best, best_r, best_i = -1, -1, -1
            for w in cands:
                r = rrpv[w]
                if r > best_r or (r == best_r and ins[w] > best_i):
                    best, best_r, best_i = w, r, ins[w]
            if best_r >= RRIP_MAX:
                return best
            for w in cands:
                if rrpv[w] < RRIP_MAX:
                    rrpv[w] += 1

    # ------------------------------------------------------------------
    def _mru_order(self, set_idx: int) -> list[int]:
        """Way indices in the original MRU-first list order."""
        key = self._ord if self.policy == "lru" else self._ins
        valid = [w for w in range(self.ways) if self._tag[set_idx, w] != -1]
        return sorted(valid, key=lambda w: -int(key[set_idx, w]))

    @property
    def _sets(self) -> list[list[_LineView]]:
        """Read-only line views per set, MRU-first (back-compat)."""
        return [
            [
                _LineView(
                    int(self._tag[s, w]),
                    self._fgt[s, w].tolist(),
                    int(self._dirty[s, w]),
                    int(self._rrpv[s, w]),
                )
                for w in self._mru_order(s)
            ]
            for s in range(self.num_sets)
        ]

    def flush(self) -> list[tuple[int, int]]:
        """Dirty sectors set by set, lines MRU-first (the :attr:`_sets`
        order), offsets ascending -- vectorized over the line arrays."""
        key = self._ord if self.policy == "lru" else self._ins
        mru = np.argsort(-key, axis=1, kind="stable")
        tag = np.take_along_axis(self._tag, mru, axis=1)
        dirty = np.take_along_axis(self._dirty, mru, axis=1)
        fgt = np.take_along_axis(self._fgt, mru[..., None], axis=1)
        offs = np.arange(self.sectors_per_line, dtype=np.int64)
        bits = ((dirty[..., None] >> offs) & 1).astype(bool)
        bits &= (tag != -1)[..., None]
        set_i, way_i, off_i = np.nonzero(bits)
        addrs = (
            (tag[set_i, way_i] << self._tag_shift)
            | (set_i << self._set_shift)
            | (fgt[set_i, way_i, off_i].astype(np.int64) << self._fg_shift)
            | (off_i << self._sector_shift)
        )
        self.stats.writeback_bytes += addrs.size * self.sector_bytes
        writebacks = [(a, self.sector_bytes) for a in addrs.tolist()]
        self._tag.fill(-1)
        self._fgt.fill(-1)
        self._dirty.fill(0)
        self._rrpv.fill(RRIP_INSERT)
        self._ord.fill(0)
        self._ins.fill(0)
        return writebacks

    # ------------------------------------------------------------------
    @property
    def capacity_bytes(self) -> int:
        return self.size_bytes

    @property
    def tag_bits(self) -> int:
        return self.addr_bits - self._tag_shift

    @property
    def tag_overhead_bits(self) -> int:
        lines = self.num_sets * self.ways
        return lines * self.tag_bits + lines * self.sectors_per_line * self.fg_tag_bits

    @property
    def tag_overhead_fraction(self) -> float:
        """Line-tag storage relative to data (paper: 2.05 %)."""
        return (self.num_sets * self.ways * self.tag_bits) / (self.size_bytes * 8)

    @property
    def fg_tag_overhead_fraction(self) -> float:
        """fg-tag storage relative to data (paper: 12.50 %)."""
        lines = self.num_sets * self.ways
        return (lines * self.sectors_per_line * self.fg_tag_bits) / (
            self.size_bytes * 8
        )
