"""Property-based equivalence: batched engines vs the scalar loop.

The batched memory path (``access_many`` / ``add_batch`` / batched
``run``) must be *event-for-event* identical to the per-address scalar
path on any access stream: same CacheStats, same fill/write-back
sequences, same FIM-operation streams, same post-flush state.  These
tests drive randomized address streams (split into random batch
boundaries to exercise cross-batch state) through both paths and
compare everything observable.
"""

import contextlib
import functools
import shutil
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.base import BaseCache
from repro.cache.conventional import ConventionalCache
from repro.cache.variants import FIG11_VARIANTS
from repro.core import _kernel
from repro.core.collection_mshr import CollectionExtendedMSHR
from repro.core.memory_path import (
    ConventionalMemoryPath,
    FineGrainedMemoryPath,
    LocalityMonitor,
)
from repro.core.piccolo_cache import PiccoloCache
from repro.dram.address import AddressMapper
from repro.dram.fim_batch import FimOpBatch
from repro.dram.spec import DEVICES, DRAMConfig


def make_mapper():
    return AddressMapper(
        DRAMConfig(spec=DEVICES["DDR4_2400_x16"], channels=1, ranks=1)
    )


# 8 B-aligned addresses in a window small enough to thrash 1 KB caches.
addr_streams = st.lists(
    st.integers(min_value=0, max_value=(1 << 14) - 1).map(lambda v: v * 8),
    min_size=1,
    max_size=300,
)
chunk_seed = st.integers(min_value=0, max_value=2**31 - 1)
rmw_flags = st.booleans()


CACHE_FACTORIES = {
    "piccolo-lru": lambda: PiccoloCache(1024, ways=4, fg_tag_bits=4),
    "piccolo-rrip": lambda: PiccoloCache(
        1024, ways=4, fg_tag_bits=4, policy="rrip"
    ),
    "piccolo-quota": lambda: _quota_cache(),
    "conventional": lambda: ConventionalCache(1024, ways=2),
}
# Every Fig. 11 registry design rides along automatically, at a small
# geometry that thrashes (the registry is the single source of truth:
# a design added there enters this suite unasked).
CACHE_FACTORIES.update(
    {
        f"fig11-{name.lower()}": (lambda _f=factory: _f(1024, 4))
        for name, factory in FIG11_VARIANTS.items()
    }
)


def _quota_cache():
    cache = PiccoloCache(2048, ways=8, fg_tag_bits=4)
    cache.set_way_quota(4)  # quota 2: exercises multi-line tag groups
    return cache


def split_chunks(addrs, seed):
    """Deterministic random batch boundaries (including size-1 batches)."""
    rng = np.random.default_rng(seed)
    arr = np.asarray(addrs, dtype=np.int64)
    if arr.size <= 1:
        return [arr]
    n_cuts = int(rng.integers(0, min(6, arr.size - 1) + 1))
    cuts = sorted(rng.choice(np.arange(1, arr.size), size=n_cuts, replace=False))
    return np.split(arr, cuts)


def scalar_batch(cache, addrs, rmw):
    """Run the batch through the scalar loop via the base-class fallback."""
    return BaseCache.access_many(cache, addrs, rmw)


def cache_signature(cache):
    sig = dict(vars(cache.stats).items())
    # every counter a batched engine declares beyond CacheStats
    for name in getattr(cache, "EXTRA_COUNTERS", ()):
        sig[name] = getattr(cache, name)
    return sig


@pytest.mark.parametrize("kind", sorted(CACHE_FACTORIES))
@settings(max_examples=40, deadline=None)
@given(addrs=addr_streams, seed=chunk_seed, rmw=rmw_flags)
def test_access_many_matches_scalar_loop(kind, addrs, seed, rmw):
    batched = CACHE_FACTORIES[kind]()
    scalar = CACHE_FACTORIES[kind]()
    for chunk in split_chunks(addrs, seed):
        res_b = batched.access_many(chunk, rmw)
        res_s = scalar_batch(scalar, chunk, rmw)
        assert res_b.accesses == res_s.accesses
        assert res_b.hits == res_s.hits
        np.testing.assert_array_equal(res_b.ev_addr, res_s.ev_addr)
        np.testing.assert_array_equal(res_b.ev_is_wb, res_s.ev_is_wb)
        np.testing.assert_array_equal(res_b.ev_bytes, res_s.ev_bytes)
    assert cache_signature(batched) == cache_signature(scalar)
    assert batched.flush() == scalar.flush()


@settings(max_examples=40, deadline=None)
@given(addrs=addr_streams, seed=chunk_seed)
def test_mixed_read_write_batches(addrs, seed):
    """Alternating rmw flags across batches (cross-batch dirty state)."""
    batched = PiccoloCache(1024, ways=4, fg_tag_bits=4)
    scalar = PiccoloCache(1024, ways=4, fg_tag_bits=4)
    for i, chunk in enumerate(split_chunks(addrs, seed)):
        rmw = i % 2 == 0
        res_b = batched.access_many(chunk, rmw)
        res_s = scalar_batch(scalar, chunk, rmw)
        np.testing.assert_array_equal(res_b.ev_addr, res_s.ev_addr)
        np.testing.assert_array_equal(res_b.ev_is_wb, res_s.ev_is_wb)
    assert cache_signature(batched) == cache_signature(scalar)
    assert batched.flush() == scalar.flush()


@settings(max_examples=40, deadline=None)
@given(addrs=addr_streams, seed=chunk_seed, wb_seed=chunk_seed)
def test_mshr_add_batch_matches_scalar(addrs, seed, wb_seed):
    mapper = make_mapper()
    rng = np.random.default_rng(wb_seed)
    batched = CollectionExtendedMSHR(mapper, num_entries=16, items_per_op=4)
    scalar = CollectionExtendedMSHR(mapper, num_entries=16, items_per_op=4)
    for chunk in split_chunks(addrs, seed):
        is_wb = rng.random(chunk.size) < 0.5
        ops_b = batched.add_batch(chunk, is_wb)
        ops_s = []
        for addr, wb in zip(chunk.tolist(), is_wb.tolist()):
            ops_s.extend(
                scalar.add_write(addr) if wb else scalar.add_read(addr)
            )
        assert ops_b == ops_s
    assert vars(batched.stats) == vars(scalar.stats)
    assert batched.flush() == scalar.flush()


def drain_all(path):
    ops, addrs, writes = path.drain()
    return ops, addrs.tolist(), writes.tolist()


@pytest.mark.parametrize(
    "kind",
    ["piccolo-lru", "piccolo-rrip", "conventional"]
    + [f"fig11-{name.lower()}" for name in FIG11_VARIANTS],
)
@pytest.mark.parametrize("monitor", [False, True])
@settings(max_examples=25, deadline=None)
@given(addrs=addr_streams, seed=chunk_seed, rmw=rmw_flags)
def test_fine_grained_path_batched_matches_scalar(kind, monitor, addrs, seed, rmw):
    """Whole-path equivalence: cache + MSHR (+ locality monitor)."""
    mapper = make_mapper()

    def build(batched):
        cache = CACHE_FACTORIES[kind]()
        mshr = CollectionExtendedMSHR(mapper, num_entries=16, items_per_op=4)
        mon = LocalityMonitor(window=8, threshold=0.5) if monitor else None
        return FineGrainedMemoryPath(
            cache, mshr, locality_monitor=mon, batched=batched
        )

    path_b = build(True)
    path_s = build(False)
    chunks = split_chunks(addrs, seed)
    for chunk in chunks:
        path_b.run(chunk, rmw)
        path_s.run(chunk, rmw)
    path_b.flush()
    path_s.flush()
    ops_b, addr_b, wr_b = drain_all(path_b)
    ops_s, addr_s, wr_s = drain_all(path_s)
    assert ops_b == ops_s
    assert addr_b == addr_s
    assert wr_b == wr_s
    assert cache_signature(path_b.cache) == cache_signature(path_s.cache)
    assert vars(path_b.mshr.stats) == vars(path_s.mshr.stats)


@settings(max_examples=25, deadline=None)
@given(addrs=addr_streams, seed=chunk_seed, rmw=rmw_flags)
def test_conventional_path_batched_matches_scalar(addrs, seed, rmw):
    path_b = ConventionalMemoryPath(ConventionalCache(1024, ways=2), batched=True)
    path_s = ConventionalMemoryPath(ConventionalCache(1024, ways=2), batched=False)
    for chunk in split_chunks(addrs, seed):
        path_b.run(chunk, rmw)
        path_s.run(chunk, rmw)
    path_b.flush()
    path_s.flush()
    a_b, w_b = path_b.drain()
    a_s, w_s = path_s.drain()
    np.testing.assert_array_equal(a_b, a_s)
    np.testing.assert_array_equal(w_b, w_s)
    assert cache_signature(path_b.cache) == cache_signature(path_s.cache)


@pytest.mark.parametrize(
    "kind",
    ["piccolo-lru"] + [f"fig11-{name.lower()}" for name in FIG11_VARIANTS],
)
@settings(max_examples=25, deadline=None)
@given(addrs=addr_streams, seed=chunk_seed)
def test_replay_memo_is_transparent(kind, addrs, seed):
    """Feeding the same batch sequence twice (second pass replayed from
    the memo) must match a memo-less path exactly."""
    mapper = make_mapper()

    def build(capacity):
        cache = CACHE_FACTORIES[kind]()
        mshr = CollectionExtendedMSHR(mapper, num_entries=16, items_per_op=4)
        return FineGrainedMemoryPath(cache, mshr, replay_capacity=capacity)

    with_memo = build(64)
    without = build(0)
    chunks = split_chunks(addrs, seed)
    for _ in range(3):  # repeat rounds: later rounds can hit the memo
        for chunk in chunks:
            with_memo.run(chunk, True)
            without.run(chunk, True)
    with_memo.flush()
    without.flush()
    assert drain_all(with_memo) == drain_all(without)
    assert cache_signature(with_memo.cache) == cache_signature(without.cache)
    assert vars(with_memo.mshr.stats) == vars(without.mshr.stats)
    # the second/third rounds may or may not converge to identical
    # states, but any replay must have been exact (asserted above)
    assert with_memo.memo.hits + with_memo.memo.misses == 3 * len(chunks)


# ---------------------------------------------------------------------------
# Chunked tile streaming: a finite chunk_size must be invisible in the
# produced counters, fill/write-back sequences, and FIM-op streams --
# including chunk sizes that don't divide the batch evenly, and across
# repeated rounds where the replay memo kicks in.
# ---------------------------------------------------------------------------
CHUNK_SIZES = [1, 7, 64, 1 << 20]


@pytest.mark.parametrize(
    "kind", ["piccolo-lru", "conventional", "fig11-sectored", "fig11-amoeba"]
)
@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
@pytest.mark.parametrize("monitor", [False, True])
@settings(max_examples=15, deadline=None)
@given(addrs=addr_streams, rmw=rmw_flags)
def test_chunked_fine_grained_path_matches_whole_tile(
    kind, chunk_size, monitor, addrs, rmw
):
    mapper = make_mapper()

    def build(chunk):
        cache = CACHE_FACTORIES[kind]()
        mshr = CollectionExtendedMSHR(mapper, num_entries=16, items_per_op=4)
        mon = LocalityMonitor(window=8, threshold=0.5) if monitor else None
        return FineGrainedMemoryPath(
            cache, mshr, locality_monitor=mon, chunk_size=chunk
        )

    chunked = build(chunk_size)
    whole = build(None)
    stream = np.asarray(addrs, dtype=np.int64)
    for _ in range(2):  # second round exercises memo + chunk interplay
        chunked.run(stream, rmw)
        whole.run(stream, rmw)
    chunked.flush()
    whole.flush()
    assert drain_all(chunked) == drain_all(whole)
    assert cache_signature(chunked.cache) == cache_signature(whole.cache)
    assert vars(chunked.mshr.stats) == vars(whole.mshr.stats)


@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
@settings(max_examples=15, deadline=None)
@given(addrs=addr_streams, rmw=rmw_flags)
def test_chunked_conventional_path_matches_whole_tile(chunk_size, addrs, rmw):
    chunked = ConventionalMemoryPath(
        ConventionalCache(1024, ways=2), chunk_size=chunk_size
    )
    whole = ConventionalMemoryPath(ConventionalCache(1024, ways=2))
    stream = np.asarray(addrs, dtype=np.int64)
    for _ in range(2):
        chunked.run(stream, rmw)
        whole.run(stream, rmw)
    chunked.flush()
    whole.flush()
    a_c, w_c = chunked.drain()
    a_w, w_w = whole.drain()
    np.testing.assert_array_equal(a_c, a_w)
    np.testing.assert_array_equal(w_c, w_w)
    assert cache_signature(chunked.cache) == cache_signature(whole.cache)


@pytest.mark.parametrize("chunk_size", [3, 50])
def test_chunked_matches_scalar_loop_directly(chunk_size):
    """Chunked *batched* execution against the *scalar* fallback: the
    two orthogonal modes must still agree."""
    mapper = make_mapper()
    rng = np.random.default_rng(13)
    stream = rng.integers(0, 1 << 12, 500).astype(np.int64) * 8

    def build(batched, chunk):
        cache = PiccoloCache(1024, ways=4, fg_tag_bits=4)
        mshr = CollectionExtendedMSHR(mapper, num_entries=16, items_per_op=4)
        return FineGrainedMemoryPath(
            cache, mshr, batched=batched, chunk_size=chunk
        )

    chunked = build(True, chunk_size)
    scalar = build(False, None)
    chunked.run(stream, True)
    scalar.run(stream, True)
    chunked.flush()
    scalar.flush()
    assert drain_all(chunked) == drain_all(scalar)
    assert cache_signature(chunked.cache) == cache_signature(scalar.cache)
    assert vars(chunked.mshr.stats) == vars(scalar.mshr.stats)


@settings(max_examples=40, deadline=None)
@given(addrs=addr_streams, seed=chunk_seed)
def test_locality_monitor_observe_many_matches_scalar(addrs, seed):
    mon_b = LocalityMonitor(window=8, threshold=0.5)
    mon_s = LocalityMonitor(window=8, threshold=0.5)
    for chunk in split_chunks(addrs, seed):
        flags = mon_b.observe_many(chunk)
        expected = []
        for a in chunk.tolist():
            mon_s.observe(a)
            expected.append(mon_s.bypass)
        assert flags.tolist() == expected
        assert mon_b.state_tuple() == mon_s.state_tuple()


@pytest.mark.parametrize("kind", ["piccolo-lru", "conventional"])
def test_bypass_segments_batched_matches_scalar(kind):
    """Deterministic sequential stream: the monitor flips to bypass and
    back, exercising the burst-coalescing path in both modes."""
    mapper = make_mapper()

    def build(batched):
        cache = CACHE_FACTORIES[kind]()
        mshr = CollectionExtendedMSHR(mapper, num_entries=16, items_per_op=4)
        mon = LocalityMonitor(window=8, threshold=0.75)
        return FineGrainedMemoryPath(
            cache, mshr, locality_monitor=mon, batched=batched
        )

    rng = np.random.default_rng(7)
    seq = np.arange(256, dtype=np.int64) * 8
    rand = rng.integers(0, 1 << 12, 96) * 8
    stream = np.concatenate([seq, rand, seq + (1 << 16), rand])
    path_b, path_s = build(True), build(False)
    for chunk in np.split(stream, [100, 300, 420, 600]):
        path_b.run(chunk, True)
        path_s.run(chunk, True)
    path_b.flush()
    path_s.flush()
    out_b = drain_all(path_b)
    assert out_b == drain_all(path_s)
    # the sequential phases must actually have produced bypass bursts
    assert len(out_b[1]) > 0
    assert cache_signature(path_b.cache) == cache_signature(path_s.cache)
    assert vars(path_b.mshr.stats) == vars(path_s.mshr.stats)


def test_locality_monitor_counts_all_window_pairs():
    """The first access of a window seeds the next delta instead of
    being dropped: window=4 sees 3 pairs per window, so a pure
    sequential stream reaches a 3/3 fraction (the old implementation
    topped out at (window-1)/window and fired late)."""
    monitor = LocalityMonitor(window=4, threshold=1.0)
    for i in range(4):
        monitor.observe(i * 8)
    assert monitor.bypass  # 3 of 3 pairs sequential

    # one stray address per window keeps it below a 2/3 threshold
    monitor = LocalityMonitor(window=4, threshold=0.75)
    stream = [0, 8, 4096, 4104, 8192, 8200, 12288]
    for a in stream:
        monitor.observe(a)
    assert not monitor.bypass


# ---------------------------------------------------------------------------
# C kernel vs scalar oracle.  ``access_many`` / ``add_batch`` run in the
# C kernel (repro.core._kernel) whenever it builds; ``engine="python"``
# forces the Python batch loops instead.  Both must match the scalar
# ``access`` / ``add_read`` / ``add_write`` oracles event for event, in
# counters, in FIM-op columns and in end state.
# ---------------------------------------------------------------------------
ENGINES = ["kernel", "python"]


def require_kernel():
    """The kernel must load wherever a C compiler exists."""
    if shutil.which("cc") is None and shutil.which("gcc") is None:
        pytest.skip("no C compiler on this host")
    assert _kernel.load() is not None, "C kernel failed to build"


@contextlib.contextmanager
def engine_mode(engine):
    """Run the batched engines in the C kernel or the Python loops."""
    if engine == "kernel":
        require_kernel()
        yield
    else:
        with mock.patch.object(_kernel, "load", lambda: None):
            yield


def canonical_lines(cache):
    """Per-set line contents in MRU order, independent of which
    physical way a line landed in (and of the absolute clock, which a
    replayed batch restores from its record)."""
    return [
        [(ln.tag, ln.fg, ln.dirty, ln.rrpv) for ln in lines]
        for lines in cache._sets
    ]


def mshr_pending(mshr):
    """Every occupied slot's row and live offsets, in insertion order."""
    return {
        slot: (
            int(mshr._row_key[slot]),
            mshr._ga[slot, : mshr._ga_n[slot]].tolist(),
            mshr._sc[slot, : mshr._sc_n[slot]].tolist(),
        )
        for slot in np.flatnonzero(mshr._row_key != -1).tolist()
    }


def piccolo_geometry(sets, quota, policy):
    cache = PiccoloCache(sets * 8 * 128, ways=8, fg_tag_bits=4, policy=policy)
    # set_way_quota(tags) gives ways // tags ways per tag
    cache.set_way_quota(1 if quota == "full" else cache.ways)
    return cache


# (tag, set, fg-tag, sector) fields: few tags and sets so lines conflict
piccolo_fields = st.tuples(
    st.integers(0, 11), st.integers(0, 3), st.integers(0, 15), st.integers(0, 15)
)
piccolo_batches = st.lists(
    st.tuples(st.lists(piccolo_fields, min_size=1, max_size=120), st.booleans()),
    min_size=1,
    max_size=6,
)


def piccolo_addrs(cache, fields):
    return np.asarray(
        [
            (t << cache._tag_shift)
            | ((s % cache.num_sets) << cache._set_shift)
            | (fg << cache._fg_shift)
            | (off << cache._sector_shift)
            for t, s, fg, off in fields
        ],
        dtype=np.int64,
    )


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("policy", ["lru", "rrip"])
@pytest.mark.parametrize("sets", [1, 64])
@pytest.mark.parametrize("quota", [1, "full"])
@settings(max_examples=30, deadline=None)
@given(batches=piccolo_batches)
def test_piccolo_engine_matches_scalar_oracle(engine, policy, sets, quota, batches):
    """Toy (1 set) and mid (64 sets) geometries, quota 1 and quota at
    full ways, read-only and read-modify-write batches."""
    with engine_mode(engine):
        fast = piccolo_geometry(sets, quota, policy)
        oracle = piccolo_geometry(sets, quota, policy)
        for fields, rmw in batches:
            addrs = piccolo_addrs(fast, fields)
            res_f = fast.access_many(addrs, rmw)
            res_o = scalar_batch(oracle, addrs, rmw)
            assert (res_f.accesses, res_f.hits) == (res_o.accesses, res_o.hits)
            np.testing.assert_array_equal(res_f.ev_addr, res_o.ev_addr)
            np.testing.assert_array_equal(res_f.ev_is_wb, res_o.ev_is_wb)
            np.testing.assert_array_equal(res_f.ev_bytes, res_o.ev_bytes)
        assert cache_signature(fast) == cache_signature(oracle)
        assert canonical_lines(fast) == canonical_lines(oracle)
        assert fast.state_digest() == oracle.state_digest()
        if engine == "kernel":
            # the kernel also picks the same physical ways as the oracle
            for name in PiccoloCache.STATE_ARRAYS:
                np.testing.assert_array_equal(
                    getattr(fast, name), getattr(oracle, name)
                )
            assert fast._clock == oracle._clock
        expected = [
            (oracle._sector_addr(ln.tag, s, ln.fg[off], off), oracle.sector_bytes)
            for s, lines in enumerate(oracle._sets)
            for ln in lines
            for off in range(oracle.sectors_per_line)
            if ln.dirty >> off & 1
        ]
        assert fast.flush() == oracle.flush() == expected


def test_piccolo_kernel_resumes_when_event_buffer_fills():
    """Eight fully dirty lines, then eight accesses that each evict one:
    17 events per access overflow the kernel's initial two-per-access
    buffer, so it must stop and resume; the result still matches."""
    require_kernel()
    fast, oracle = (piccolo_geometry(1, 1, "lru") for _ in range(2))
    window = fast.window_bytes
    prime = (
        np.arange(8, dtype=np.int64)[:, None] * window
        + np.arange(16, dtype=np.int64)[None, :] * 8
    ).ravel()
    evict = np.arange(8, 16, dtype=np.int64) * window
    for batch, rmw in ((prime, True), (evict, False)):
        res_f = fast.access_many(batch, rmw)
        res_o = scalar_batch(oracle, batch, rmw)
        np.testing.assert_array_equal(res_f.ev_addr, res_o.ev_addr)
        np.testing.assert_array_equal(res_f.ev_is_wb, res_o.ev_is_wb)
    assert res_f.ev_addr.size == 8 * 17
    assert cache_signature(fast) == cache_signature(oracle)


@functools.cache
def mshr_pool():
    """Event addresses for ``make_mapper()``: 16 words in each of 8 DRAM
    rows, where rows come in pairs of the same bank -- so words share
    rows (merges, full ops up to 16 items) and rows share MSHR slots
    (conflict drains)."""
    mapper = make_mapper()
    rows = {}
    for addr in range(0, 1 << 18, 8):
        _, _, bank, row, _ = mapper.decode_scalar(addr)
        if bank < 4 and row < 2:
            rows.setdefault((bank, row), []).append(addr)
    return np.asarray(
        [a for key in sorted(rows) for a in rows[key][:16]], dtype=np.int64
    )


mshr_batches = st.lists(
    st.lists(st.tuples(st.integers(0, 127), st.booleans()), min_size=1, max_size=200),
    min_size=1,
    max_size=6,
)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("items_per_op", [4, 8, 12])
@pytest.mark.parametrize("rank_level", [False, True])
@pytest.mark.parametrize("num_entries", [1, 4, 64])
@settings(max_examples=30, deadline=None)
@given(batches=mshr_batches)
def test_mshr_engine_matches_scalar_oracle(
    engine, items_per_op, rank_level, num_entries, batches
):
    """Merges, read-after-write forwarding, full ops and conflict drains
    (1 and 4 slots force them; 64 slots mostly avoid them); 12 items per
    op spans two blocks of offset lanes."""
    mapper = make_mapper()
    pool = mshr_pool()

    def build():
        return CollectionExtendedMSHR(
            mapper, num_entries=num_entries, items_per_op=items_per_op,
            rank_level=rank_level,
        )

    with engine_mode(engine):
        fast, oracle = build(), build()
        for events in batches:
            addrs = pool[[i for i, _ in events]]
            is_wb = np.asarray([wb for _, wb in events], dtype=bool)
            ops_f = fast.add_batch(addrs, is_wb)
            ops_o = []
            for addr, wb in zip(addrs.tolist(), is_wb.tolist()):
                ops_o.extend(oracle.add_write(addr) if wb else oracle.add_read(addr))
            expected = FimOpBatch.from_ops(ops_o).columns()
            for got, want in zip(ops_f.columns(), expected):
                np.testing.assert_array_equal(got, want)
                assert got.dtype == want.dtype
            assert vars(fast.stats) == vars(oracle.stats)
            assert mshr_pending(fast) == mshr_pending(oracle)
            assert fast.state_digest() == oracle.state_digest()
        assert fast.flush() == oracle.flush()
        assert vars(fast.stats) == vars(oracle.stats)
        assert mshr_pending(fast) == mshr_pending(oracle) == {}


def test_mshr_digest_ignores_offset_order():
    """Two MSHRs holding the same offsets inserted in different orders
    share a digest; a different offset set does not."""
    mapper = make_mapper()
    pool = mshr_pool()
    a = CollectionExtendedMSHR(mapper, num_entries=16, items_per_op=8)
    b = CollectionExtendedMSHR(mapper, num_entries=16, items_per_op=8)
    c = CollectionExtendedMSHR(mapper, num_entries=16, items_per_op=8)
    for i in (0, 1, 2):
        a.add_read(int(pool[i]))
    for i in (2, 0, 1):
        b.add_read(int(pool[i]))
    for i in (0, 1, 3):
        c.add_read(int(pool[i]))
    assert a.state_digest() == b.state_digest() != c.state_digest()


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("chunk_size", [None, 7, 64])
@pytest.mark.parametrize("monitor", [False, True])
@settings(max_examples=15, deadline=None)
@given(batches=piccolo_batches, rounds=st.integers(1, 3))
def test_fine_grained_path_engine_matches_scalar_oracle(
    engine, chunk_size, monitor, batches, rounds
):
    """The whole path -- cache, MSHR, locality monitor, chunking and the
    replay memo (repeated rounds can replay) -- against the scalar
    path without a memo."""
    mapper = make_mapper()

    def build(batched):
        cache = piccolo_geometry(1, "full", "lru")
        mshr = CollectionExtendedMSHR(mapper, num_entries=16, items_per_op=4)
        mon = LocalityMonitor(window=8, threshold=0.5) if monitor else None
        return FineGrainedMemoryPath(
            cache, mshr, locality_monitor=mon, batched=batched,
            replay_capacity=64 if batched else 0,
            chunk_size=chunk_size if batched else None,
        )

    with engine_mode(engine):
        fast, oracle = build(True), build(False)
        for _ in range(rounds):
            for fields, rmw in batches:
                addrs = piccolo_addrs(fast.cache, fields)
                fast.run(addrs, rmw)
                oracle.run(addrs, rmw)
        fast.flush()
        oracle.flush()
        ops_f, addr_f, wr_f = drain_all(fast)
        ops_o, addr_o, wr_o = drain_all(oracle)
        for got, want in zip(ops_f.columns(), ops_o.columns()):
            np.testing.assert_array_equal(got, want)
        assert (addr_f, wr_f) == (addr_o, wr_o)
        assert cache_signature(fast.cache) == cache_signature(oracle.cache)
        assert canonical_lines(fast.cache) == canonical_lines(oracle.cache)
        assert vars(fast.mshr.stats) == vars(oracle.mshr.stats)
        assert mshr_pending(fast.mshr) == mshr_pending(oracle.mshr)
