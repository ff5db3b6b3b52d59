/*
 * C kernels for the fine-grained random-access path.
 *
 * Two entry points, each a line-for-line port of one batched engine's
 * per-event loop, operating in place on the engine's NumPy state arrays:
 *
 *   fgk_piccolo_access  PiccoloCache.access_many (Sec. V): split-tag
 *                       lookup, LRU or SRRIP victims, the per-tag way
 *                       quota, sector replacement and whole-line
 *                       eviction with dirty-sector write-backs.
 *   fgk_mshr_add        CollectionExtendedMSHR.add_batch (Sec. V-C):
 *                       direct-mapped row slots, read-after-write
 *                       forwarding, merges, full-op firing and
 *                       conflict drains.
 *
 * Both must stay event-for-event identical to the scalar
 * ``access`` / ``add_read`` / ``add_write`` oracles; the differential
 * suite in tests/test_batched_equivalence.py enforces it.  The Python
 * side (repro.core._kernel) compiles this file on first use and passes
 * FGK_SOURCE_HASH so a cached library can be matched to its source.
 */
#include <stdint.h>

#ifndef FGK_SOURCE_HASH
#define FGK_SOURCE_HASH "fgkernel-source-unversioned"
#endif

const char *fgk_source_hash(void) { return FGK_SOURCE_HASH; }

/* ------------------------------------------------------------------ */
/* Piccolo cache                                                       */
/* ------------------------------------------------------------------ */

#define RRIP_MAX 3
#define RRIP_INSERT 2

/* fgk_piccolo_access parameter vector (int64) */
enum {
    PC_NUM_SETS, PC_WAYS, PC_SECTORS, PC_SECTOR_SHIFT, PC_FG_SHIFT,
    PC_FG_BITS, PC_SET_SHIFT, PC_TAG_SHIFT, PC_QUOTA, PC_IS_LRU,
    PC_IS_WRITE, PC_NPARAMS
};

/* fgk_piccolo_access in/out counters (int64), accumulated across resumes */
enum {
    PK_HITS, PK_WB_EVENTS, PK_SECTOR_REPL, PK_LINE_EVICT, PK_EVENTS,
    PK_CLOCK, PK_NCOUNTERS
};

/* SRRIP victim: highest RRPV wins, youngest insertion breaks ties; age
   every candidate until one reaches RRIP_MAX. */
static int64_t rrip_victim(const int64_t *cands, int64_t n, int16_t *rrpv,
                           const int64_t *ins)
{
    for (;;) {
        int64_t best = -1, best_r = -1, best_i = -1;
        for (int64_t i = 0; i < n; i++) {
            int64_t w = cands[i];
            int64_t r = rrpv[w];
            if (r > best_r || (r == best_r && ins[w] > best_i)) {
                best = w;
                best_r = r;
                best_i = ins[w];
            }
        }
        if (best_r >= RRIP_MAX)
            return best;
        for (int64_t i = 0; i < n; i++)
            if (rrpv[cands[i]] < RRIP_MAX)
                rrpv[cands[i]]++;
    }
}

static int64_t lru_victim(const int64_t *cands, int64_t n, const int64_t *ord)
{
    int64_t best = cands[0];
    for (int64_t i = 1; i < n; i++)
        if (ord[cands[i]] < ord[best])
            best = cands[i];
    return best;
}

/*
 * Run addrs[start:n] through the cache.  Events go to ``events`` with
 * the write-back flag in bit 0, as in repro.cache.batched.pack_events.
 * Returns the index of the first unprocessed access: n when done, less
 * when fewer than 1 + sectors event slots remained (the caller grows the
 * buffer and resumes from there; all state is already written back).
 */
int64_t fgk_piccolo_access(
    const int64_t *restrict addrs, int64_t n, int64_t start,
    int64_t *restrict tag, int32_t *restrict fgt, int64_t *restrict dirty,
    int16_t *restrict rrpv, int64_t *restrict ord, int64_t *restrict ins,
    const int64_t *restrict p, int64_t *restrict cnt,
    int64_t *restrict events, int64_t ev_cap)
{
    const int64_t ways = p[PC_WAYS];
    const int64_t sectors = p[PC_SECTORS];
    const int64_t sector_shift = p[PC_SECTOR_SHIFT];
    const int64_t fg_shift = p[PC_FG_SHIFT];
    const int64_t fg_mask = ((int64_t)1 << p[PC_FG_BITS]) - 1;
    const int64_t set_shift = p[PC_SET_SHIFT];
    const int64_t set_mask = p[PC_NUM_SETS] - 1;
    const int64_t tag_shift = p[PC_TAG_SHIFT];
    const int64_t quota = p[PC_QUOTA];
    const int is_lru = p[PC_IS_LRU] != 0;
    const int is_write = p[PC_IS_WRITE] != 0;
    const int64_t sector_mask = ((int64_t)1 << sector_shift) - 1;
    const int64_t fg_field = fg_mask << fg_shift;

    int64_t hits = cnt[PK_HITS], wb = cnt[PK_WB_EVENTS];
    int64_t sector_repl = cnt[PK_SECTOR_REPL];
    int64_t line_evict = cnt[PK_LINE_EVICT];
    int64_t ne = cnt[PK_EVENTS], clk = cnt[PK_CLOCK];
    int64_t same[ways > 0 ? ways : 1], cands[ways > 0 ? ways : 1];
    int64_t i;

    for (i = start; i < n; i++) {
        if (ev_cap - ne < 1 + sectors)
            break;
        const int64_t a = addrs[i];
        const int64_t off = (a >> sector_shift) & (sectors - 1);
        const int64_t fg = (a >> fg_shift) & fg_mask;
        const int64_t s = (a >> set_shift) & set_mask;
        const int64_t t = a >> tag_shift;
        const int64_t bit = (int64_t)1 << off;
        const int64_t fill = a & ~sector_mask;
        int64_t *T = tag + s * ways;
        int32_t *F = fgt + s * ways * sectors;
        int64_t *D = dirty + s * ways;
        int16_t *R = rrpv + s * ways;
        int64_t *O = ord + s * ways;
        int64_t *I = ins + s * ways;

        int64_t nsame = 0, hit_w = -1;
        for (int64_t w = 0; w < ways; w++) {
            if (T[w] == t) {
                if (F[w * sectors + off] == fg) {
                    hit_w = w;
                    break;
                }
                same[nsame++] = w;
            }
        }
        if (hit_w >= 0) {
            hits++;
            if (is_write)
                D[hit_w] |= bit;
            if (is_lru)
                O[hit_w] = clk++;
            else
                R[hit_w] = 0;
            continue;
        }

        /* miss: the fill precedes any write-back it displaces */
        events[ne++] = fill;
        if (nsame > 0 && nsame >= quota) {
            /* sector replacement in the tag's victim line */
            int64_t v;
            if (is_lru) {
                v = lru_victim(same, nsame, O);
                O[v] = clk++;
            } else {
                v = rrip_victim(same, nsame, R, I);
                R[v] = 0;
            }
            int32_t *row = F + v * sectors;
            const int64_t old_fg = row[off];
            if (old_fg >= 0 && (D[v] & bit)) {
                events[ne++] = (fill & ~fg_field) | (old_fg << fg_shift) | 1;
                wb++;
            }
            row[off] = (int32_t)fg;
            if (is_write)
                D[v] |= bit;
            else
                D[v] &= ~bit;
            sector_repl++;
            continue;
        }

        /* whole-line allocation: the lowest free way, else evict the
           victim among the other tags' lines (all lines if none) */
        int64_t w = -1;
        for (int64_t k = 0; k < ways; k++) {
            if (T[k] == -1) {
                w = k;
                break;
            }
        }
        if (w < 0) {
            int64_t nc = 0;
            for (int64_t k = 0; k < ways; k++)
                if (T[k] != t)
                    cands[nc++] = k;
            if (nc == 0)
                for (int64_t k = 0; k < ways; k++)
                    cands[nc++] = k;
            w = is_lru ? lru_victim(cands, nc, O)
                       : rrip_victim(cands, nc, R, I);
            line_evict++;
            int64_t d = D[w];
            if (d) {
                const int32_t *vrow = F + w * sectors;
                const int64_t base = (T[w] << tag_shift) | (s << set_shift);
                for (int64_t o = 0; d; o++, d >>= 1) {
                    if (d & 1) {
                        events[ne++] = base | ((int64_t)vrow[o] << fg_shift)
                                       | (o << sector_shift) | 1;
                        wb++;
                    }
                }
            }
        }
        T[w] = t;
        int32_t *row = F + w * sectors;
        for (int64_t k = 0; k < sectors; k++)
            row[k] = -1;
        row[off] = (int32_t)fg;
        D[w] = is_write ? bit : 0;
        R[w] = RRIP_INSERT;
        O[w] = clk;
        I[w] = clk;
        clk++;
    }

    cnt[PK_HITS] = hits;
    cnt[PK_WB_EVENTS] = wb;
    cnt[PK_SECTOR_REPL] = sector_repl;
    cnt[PK_LINE_EVICT] = line_evict;
    cnt[PK_EVENTS] = ne;
    cnt[PK_CLOCK] = clk;
    return i;
}

/* ------------------------------------------------------------------ */
/* Collection-extended MSHR                                            */
/* ------------------------------------------------------------------ */

/* fgk_mshr_add parameter vector (int64): the address mapper's decode
   fields, then the MSHR geometry */
enum {
    PM_BURST_SHIFT, PM_CHANNELS, PM_CHANNEL_BITS, PM_BANKS_PER_RANK,
    PM_BANK_BITS, PM_RANKS, PM_RANK_BITS, PM_COLUMN_BITS, PM_ROWS_PER_BANK,
    PM_TOTAL_BANKS, PM_WORDS_PER_BURST, PM_NUM_ENTRIES, PM_ITEMS_PER_OP,
    PM_LANES, PM_NPARAMS
};

/* fgk_mshr_add counters (int64), in CollectionExtendedMSHR.counter_vector
   order */
enum {
    MK_GATHERS_FULL, MK_GATHERS_PARTIAL, MK_SCATTERS_FULL,
    MK_SCATTERS_PARTIAL, MK_FORWARDED, MK_MERGED_READS, MK_MERGED_WRITES,
    MK_CONFLICTS, MK_NCOUNTERS
};

/* Slot rows are padded to a multiple of LANE_BLOCK offsets, so the
   membership test runs fixed-width blocks the compiler can turn into a
   few vector compares (no data-dependent loop exit); offsets at or past
   ``count`` are stale and masked out. */
#define LANE_BLOCK 8

static inline int contains(const int32_t *offs, int32_t count, int32_t word,
                           int32_t lanes)
{
    int found = 0;
    for (int32_t base = 0; base < lanes; base += LANE_BLOCK)
        for (int32_t k = base; k < base + LANE_BLOCK; k++)
            found |= (offs[k] == word) & (k < count);
    return found;
}

/*
 * Register events addrs[0:n] (is_wb[i] != 0 marks a write-back).
 * Issued operations go to (op_rk, op_items, op_scatter); the caller
 * sizes them for every offset pending at entry plus one per event, a
 * bound no batch can exceed (each op clears at least one offset).
 * Returns the number of operations written.
 */
int64_t fgk_mshr_add(
    const int64_t *restrict addrs, const uint8_t *restrict is_wb, int64_t n,
    int64_t *restrict row_key, int32_t *restrict ga, int32_t *restrict ga_n,
    int32_t *restrict sc, int32_t *restrict sc_n,
    const int64_t *restrict p, int64_t *restrict cnt,
    int64_t *restrict op_rk, int64_t *restrict op_items,
    uint8_t *restrict op_scatter)
{
    const int64_t burst_shift = p[PM_BURST_SHIFT];
    const int64_t channel_mask = p[PM_CHANNELS] - 1;
    const int64_t channel_bits = p[PM_CHANNEL_BITS];
    const int64_t bpr = p[PM_BANKS_PER_RANK];
    const int64_t bank_bits = p[PM_BANK_BITS];
    const int64_t ranks = p[PM_RANKS];
    const int64_t rank_bits = p[PM_RANK_BITS];
    const int64_t column_bits = p[PM_COLUMN_BITS];
    const int64_t row_mask = p[PM_ROWS_PER_BANK] - 1;
    const int64_t total_banks = p[PM_TOTAL_BANKS];
    const int64_t wpb = p[PM_WORDS_PER_BURST];
    const int64_t slot_mask = p[PM_NUM_ENTRIES] - 1;
    const int32_t ipo = (int32_t)p[PM_ITEMS_PER_OP];
    const int32_t lanes = (int32_t)p[PM_LANES];
    int64_t c[MK_NCOUNTERS] = {0};
    int64_t nops = 0;

    for (int64_t i = 0; i < n; i++) {
        /* AddressMapper.decode_scalar */
        const int64_t a = addrs[i];
        const int64_t block = a >> burst_shift;
        const int64_t channel = block & channel_mask;
        int64_t x = block >> channel_bits;
        int64_t bank = x & (bpr - 1);
        x >>= bank_bits;
        const int64_t rank = x & (ranks - 1);
        x >>= rank_bits;
        const int64_t column = x & (((int64_t)1 << column_bits) - 1);
        x >>= column_bits;
        const int64_t row = x & row_mask;
        bank ^= (row & (bpr - 1)) ^ (column & (bpr - 1));
        const int64_t rk =
            row * total_banks + (channel * ranks + rank) * bpr + bank;
        const int32_t word = (int32_t)(column * wpb + ((a >> 3) & (wpb - 1)));

        const int64_t slot = rk & slot_mask;
        int32_t *G = ga + slot * lanes;
        int32_t *S = sc + slot * lanes;
        int32_t gn = ga_n[slot], sn = sc_n[slot];
        if (row_key[slot] != rk) {
            if (row_key[slot] != -1) {
                /* conflict: drain the old row as partial operations */
                c[MK_CONFLICTS]++;
                if (gn) {
                    op_rk[nops] = row_key[slot];
                    op_items[nops] = gn;
                    op_scatter[nops++] = 0;
                    c[gn >= ipo ? MK_GATHERS_FULL : MK_GATHERS_PARTIAL]++;
                    gn = 0;
                }
                if (sn) {
                    op_rk[nops] = row_key[slot];
                    op_items[nops] = sn;
                    op_scatter[nops++] = 1;
                    c[sn >= ipo ? MK_SCATTERS_FULL : MK_SCATTERS_PARTIAL]++;
                    sn = 0;
                }
            }
            row_key[slot] = rk;
        }
        if (is_wb[i]) {
            if (contains(S, sn, word, lanes)) {
                c[MK_MERGED_WRITES]++;
            } else {
                S[sn++] = word;
                if (sn >= ipo) {
                    op_rk[nops] = rk;
                    op_items[nops] = sn;
                    op_scatter[nops++] = 1;
                    c[MK_SCATTERS_FULL]++;
                    sn = 0;
                }
            }
        } else if (contains(S, sn, word, lanes)) {
            /* served from buffered write-back data */
            c[MK_FORWARDED]++;
        } else if (contains(G, gn, word, lanes)) {
            c[MK_MERGED_READS]++;
        } else {
            G[gn++] = word;
            if (gn >= ipo) {
                op_rk[nops] = rk;
                op_items[nops] = gn;
                op_scatter[nops++] = 0;
                c[MK_GATHERS_FULL]++;
                gn = 0;
            }
        }
        ga_n[slot] = gn;
        sc_n[slot] = sn;
    }
    for (int k = 0; k < MK_NCOUNTERS; k++)
        cnt[k] += c[k];
    return nops;
}
