/**
 * @file
 * Generic set-associative cache model with LRU replacement.
 *
 * Section 4.1 of the paper: "conflict misses in the instruction cache
 * occur when the number of blocks mapping to a particular set exceeds
 * the associativity of the cache" — the mechanism through which code
 * reordering perturbs the L1I, and heap randomization the L1D/L2.
 * The model tracks hits and misses only (no data), which is all the
 * PMU observes.
 *
 * The replay kernel calls access() roughly once per trace event and
 * once per memory reference, so the lookup path is inlined here and
 * the ways are stored as parallel tag arrays (an invalid way holds the
 * kNoTag sentinel) rather than an array of line structs: a set's tags
 * share one cache line and the common hit case touches nothing else.
 *
 * The representation is compacted to keep one replay's hot state small
 * in the host's caches (DESIGN.md §5j):
 *  - Tags are stored once, split u32-lo / u16-hi (48 bits). Real tags
 *    are line numbers (address >> lineShift), and every address the
 *    layout engines produce is far below 2^48+lineShift bits, which an
 *    install-time assert enforces.
 *  - LRU recency is represented per geometry. L1-class caches keep a
 *    u32 stamp per way from one cache-wide clock, written and never
 *    read on the touch path. Two narrower schemes were implemented
 *    and measured there before settling on stamps: a u8 per-set age
 *    clock quarters the state but its load-increment-store on every
 *    touch forms a store-forwarding chain through per-set bytes that
 *    cost ~10-15% of the whole replay kernel, and u16 stamps with a
 *    rank-renormalizing wrap still lost ~5-9% (16-bit RMW on the
 *    clock plus the wrap's cold excursions); the arrays are ~2 KB per
 *    L1, so narrowing them buys nothing anyway. Megabyte-class LRU
 *    caches (>= kNarrowLruLines lines — the modeled 6 MB L2) keep u8
 *    per-set ages with order-exact rank renormalization instead (the
 *    BTB's scheme): only L1-miss traffic touches them, so the per-set
 *    chain is off the hot path, and a u32 age array at that line
 *    count would be ~0.4 MB of a replay's ~0.65 MB footprint. Victim
 *    choice is bit-identical between the two representations —
 *    renormalization preserves strict age order and the way-index
 *    tie-break — so which one a cache uses is invisible to results.
 *  - reset() bumps a per-cache epoch instead of memsetting megabytes.
 *    The epoch is folded into the tag itself (bits 42..47, above any
 *    real line number): a probe key only ever matches a tag installed
 *    in the same epoch, so stale sets miss with zero per-probe checks
 *    — an earlier design that tested a per-set generation tag on
 *    every probe measured ~10% of batched replay throughput. The
 *    generation array survives only on the miss/install path, where a
 *    stale set re-materializes before its first install; the epoch
 *    wrap (every 63 resets) pays for a real clear.
 */

#ifndef INTERF_CACHE_CACHE_HH
#define INTERF_CACHE_CACHE_HH

#include <string>
#include <vector>

#include "util/logging.hh"
#include "util/random.hh"
#include "util/types.hh"

#if defined(__x86_64__) || defined(_M_X64)
#include <emmintrin.h>
#define INTERF_CACHE_HAVE_SSE2 1
#endif

namespace interf::cache
{

/** Replacement policy of a cache level. */
enum class Replacement : u8 {
    Lru,    ///< True LRU (small L1-class caches).
    Random, ///< Seeded random victim: models the pseudo-LRU/NRU
            ///< approximations of large L2s, whose behaviour sits
            ///< between LRU and random and has no sharp capacity cliff.
};

/** Geometry of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    u64 sizeBytes = 32 << 10;
    u32 assoc = 8;
    u32 lineBytes = 64;
    Replacement replacement = Replacement::Lru;

    u32 numSets() const;

    /** Validate geometry (power-of-two sets/lines); fatal() if not. */
    void validate() const;
};

/** Hit/miss statistics of one cache. */
struct CacheStats
{
    Count accesses = 0;
    Count misses = 0;

    Count hits() const { return accesses - misses; }
    double missRate() const
    {
        return accesses ? static_cast<double>(misses) /
                              static_cast<double>(accesses)
                        : 0.0;
    }
};

/** A set-associative, LRU, tag-only cache. */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /**
     * Access one address (a single line).
     *
     * @return true on hit, false on miss (the line is then installed).
     *
     * The way scan dispatches to a fixed-associativity instantiation
     * for the geometries the machine models actually use (8-way L1s,
     * 24-way L2), letting the compiler fully unroll it.
     */
    bool access(Addr addr)
    {
        switch (assoc_) {
          case 8:
            return accessT<8>(addr);
          case 24:
            return accessT<24>(addr);
          default:
            return accessT<0>(addr);
        }
    }

    /** Probe without updating replacement state or installing. */
    bool contains(Addr addr) const
    {
        return probeWay(addr) != assoc_;
    }

    /**
     * Way currently holding @p addr's line, or assoc() if absent; no
     * state change. Lets callers that will touch the line again skip
     * the next scan (see MemoryHierarchy's prefetch memo).
     */
    u32 probeWay(Addr addr) const
    {
        switch (assoc_) {
          case 8:
            return probeWayT<8>(addr);
          case 24:
            return probeWayT<24>(addr);
          default:
            return probeWayT<0>(addr);
        }
    }

    /**
     * Record a demand access that is known to hit at @p way — the
     * caller proved presence (probeWay/install with no intervening
     * state change to the set). Statistics and LRU updates are exactly
     * those of a hitting access(), without the scan.
     */
    void accessAt(Addr addr, u32 way)
    {
        const u32 set = setIndex(addr);
        const size_t base = static_cast<size_t>(set) * assoc_;
        // Bounds only: verifying the caller's claim (tag equality,
        // set liveness) re-loads the set's metadata on the
        // prefetch-shortcut fetch path — the hottest accessAt caller
        // — and measured ~3% of replay throughput; the golden replay
        // tests pin the claim instead.
        INTERF_ASSERT(way < assoc_);
        ++stats_.accesses;
        touchLru(base, set, way);
    }

    /**
     * Install a line without touching the hit/miss statistics (used for
     * prefetches, which are not demand misses).
     *
     * @return The way the line now occupies.
     */
    u32 install(Addr addr)
    {
        switch (assoc_) {
          case 8:
            return installT<8>(addr);
          case 24:
            return installT<24>(addr);
          default:
            return installT<0>(addr);
        }
    }

    /** Invalidate everything and clear statistics. O(1) amortized:
     *  bumps the set-generation epoch instead of clearing the tag
     *  arrays; a full clear runs only when the u8 epoch wraps. */
    void reset();

    /** Clear statistics only, keeping cache contents (warmup end). */
    void clearStats() { stats_ = CacheStats(); }

    const CacheConfig &config() const { return cfg_; }
    const CacheStats &stats() const { return stats_; }

    /** Bytes of per-replay mutable state (tag/LRU/generation arrays) —
     *  what one replay keeps hot per cache. */
    u64 hotStateBytes() const
    {
        return tagsLo_.size() * sizeof(u32) +
               tagsHi_.size() * sizeof(u16) +
               lru_.size() * sizeof(u32) + lru8_.size() +
               setClock8_.size() + gen_.size();
    }

    /** Line count at and above which an LRU cache stores u8 per-set
     *  ages instead of u32 stamps (see the file header; exposed so
     *  tests can construct caches on either side). */
    static constexpr u32 kNarrowLruLines = 16384;

    /**
     * @{ Compacted-tag representation constants, public so the static
     * soundness analyzer (src/analyze) re-derives the invariants the
     * kernel assumes from the same values the kernel uses.
     *
     * kTagBits is the total stored tag width (the split u32 lo /
     * u16 hi pair). kNoTag is the invalid-way sentinel: all-ones in
     * that 48-bit representation. Raw tags are line numbers
     * (address >> lineShift), which must stay below 2^kEpochShift for
     * any address the layout engines produce — installs assert it —
     * leaving bits 42..47 for the epoch salt tagOf() ORs in. A
     * probe's key therefore only ever matches a tag installed in the
     * same epoch, which is the entire invalidation check. Epochs
     * cycle 0..kEpochPeriod-1 (all-ones excluded), so a salted tag's
     * top six bits can never be all-ones and the sentinel never
     * collides; the wrap — once every 63 resets — pays for a real
     * clear (see reset()).
     */
    static constexpr u32 kTagBits = 48;
    static constexpr Addr kNoTag = (Addr{1} << kTagBits) - 1;
    static constexpr u32 kEpochShift = 42;
    static constexpr u8 kEpochPeriod = 63;
    /** @} */

    /** Current u32 stamp-clock value (stamp-LRU caches only). Exposed
     *  so tests can pin the reset-restart invariant: the clock must
     *  restart at every reset(), or a Machine's cumulative touches
     *  could wrap it mid-sweep and silently invert victim choice —
     *  2^32 touches is unreachable within one replay, which is the
     *  bound reset() re-establishes, but reachable across thousands
     *  of optimizer replays. */
    u32 lruClockForTest() const { return lruClock_; }

    /** Set index for an address (exposed for tests). */
    u32 setIndex(Addr addr) const
    {
        return static_cast<u32>(addr >> lineShift_) & (sets_ - 1);
    }

  private:
    /** Raw line-number tag of @p addr, salted with the epoch. */
    Addr tagOf(Addr addr) const
    {
        return (addr >> lineShift_) |
               (static_cast<Addr>(epoch_) << kEpochShift);
    }

    bool setLive(u32 set) const { return gen_[set] == epoch_; }

    /** Bring a stale set up to the current epoch: all ways invalid,
     *  ages zeroed — exactly the state an eager reset() would have
     *  left it in. */
    void materializeSet(size_t base, u32 set)
    {
        for (u32 w = 0; w < assoc_; ++w) {
            tagsLo_[base + w] = static_cast<u32>(kNoTag);
            tagsHi_[base + w] = static_cast<u16>(kNoTag >> 32);
        }
        if (lruTracked_) {
            if (narrowLru_) {
                for (u32 w = 0; w < assoc_; ++w)
                    lru8_[base + w] = 0;
                setClock8_[set] = 0;
            } else {
                for (u32 w = 0; w < assoc_; ++w)
                    lru_[base + w] = 0;
            }
        }
        gen_[set] = epoch_;
    }

    /**
     * Mark way @p w most-recent in its set. For stamp-tracked caches
     * the store is the only per-set write — nothing on this path
     * *reads* per-set replacement state, so consecutive touches of
     * one set never serialize through it (see the file header for the
     * narrower schemes this out-measured). Narrow (big-LRU) caches
     * take the BTB's per-set age-clock path instead; the narrowLru_
     * branch is loop-invariant per cache instance, and the fixed-
     * associativity template instantiations keep the L1s' inlined
     * copies on the stamp side unconditionally predicted.
     */
    void touchLru(size_t base, u32 set, u32 w)
    {
        if (!lruTracked_)
            return;
        if (narrowLru_) {
            u8 clock = setClock8_[set];
            if (clock == 0xff) {
                renormalizeLru(base);
                clock = static_cast<u8>(assoc_ - 1);
            }
            ++clock;
            setClock8_[set] = clock;
            lru8_[base + w] = clock;
            return;
        }
        lru_[base + w] = ++lruClock_;
    }

    /** Rank-renormalize one set's u8 ages to 0..assoc-1, preserving
     *  age order with ties (never-touched ways) broken by way index —
     *  exactly the order pickVictim's min scan observes, so victim
     *  choice across a renormalization is unchanged. */
    void renormalizeLru(size_t base)
    {
        u8 *ages = lru8_.data() + base;
        u8 ranked[32]; // validate() caps LRU assoc at 32
        for (u32 w = 0; w < assoc_; ++w) {
            u8 r = 0;
            for (u32 v = 0; v < assoc_; ++v)
                r += static_cast<u8>(ages[v] < ages[w] ||
                                     (ages[v] == ages[w] && v < w));
            ranked[w] = r;
        }
        for (u32 w = 0; w < assoc_; ++w)
            ages[w] = ranked[w];
    }

    /**
     * Way of the row at @p base holding @p tag, or assoc if absent.
     * The caller must have checked the set is live.
     *
     * The scan is branchless across the ways: packed compares against
     * the u32 low halves (4 per vector) and the u16 high halves (8 per
     * vector, narrowed to a per-way byte mask) AND together into an
     * exact 48-bit-equality bitmask — lo equal and hi equal iff the
     * full tags are equal — so the hit way is a single ctz away with
     * no data-dependent load or branch. The per-way early-exit loop
     * this replaces paid one mispredict per lookup — the way holding a
     * tag is effectively random — which dominated the replay kernel's
     * cycle budget.
     */
    template <u32 kAssoc>
    u32 findWay(size_t base, Addr tag) const
    {
        const u32 assoc = kAssoc ? kAssoc : assoc_;
        const u16 tag_hi = static_cast<u16>(tag >> 32);
#ifdef INTERF_CACHE_HAVE_SSE2
        if (assoc % 8 == 0 && assoc <= 32) { // mask is a u32; odd rows
                                             // (kAssoc == 0) scan scalar
            const u32 *lo = tagsLo_.data() + base;
            const u16 *hi = tagsHi_.data() + base;
            const __m128i key_lo =
                _mm_set1_epi32(static_cast<int>(static_cast<u32>(tag)));
            const __m128i key_hi =
                _mm_set1_epi16(static_cast<short>(tag_hi));
            u32 mask = 0;
            for (u32 w = 0; w < assoc; w += 8) {
                __m128i eq_lo0 = _mm_cmpeq_epi32(
                    _mm_loadu_si128(
                        reinterpret_cast<const __m128i *>(lo + w)),
                    key_lo);
                __m128i eq_lo1 = _mm_cmpeq_epi32(
                    _mm_loadu_si128(
                        reinterpret_cast<const __m128i *>(lo + w + 4)),
                    key_lo);
                __m128i eq_hi = _mm_cmpeq_epi16(
                    _mm_loadu_si128(
                        reinterpret_cast<const __m128i *>(hi + w)),
                    key_hi);
                // packs_epi16 narrows the 8 u16 compare results to one
                // 0x00/0xff byte per way, aligning them with the lo
                // mask's bit-per-way layout.
                const u32 m_lo =
                    static_cast<u32>(_mm_movemask_ps(
                        _mm_castsi128_ps(eq_lo0))) |
                    (static_cast<u32>(_mm_movemask_ps(
                         _mm_castsi128_ps(eq_lo1)))
                     << 4);
                const u32 m_hi = static_cast<u32>(_mm_movemask_epi8(
                                     _mm_packs_epi16(eq_hi, eq_hi))) &
                                 0xffu;
                mask |= (m_lo & m_hi) << w;
            }
            return mask ? static_cast<u32>(__builtin_ctz(mask)) : assoc;
        }
#endif
        const u32 *lo = tagsLo_.data() + base;
        const u16 *hi = tagsHi_.data() + base;
        for (u32 w = 0; w < assoc; ++w)
            if (lo[w] == static_cast<u32>(tag) && hi[w] == tag_hi)
                return w;
        return assoc;
    }

    /** @{ Fixed-associativity bodies; kAssoc == 0 = runtime assoc_. */
    template <u32 kAssoc>
    bool accessT(Addr addr)
    {
        const u32 assoc = kAssoc ? kAssoc : assoc_;
        const u32 set = setIndex(addr);
        const size_t base = static_cast<size_t>(set) * assoc;
        // No liveness check: a stale set's tags carry an old epoch
        // salt, so the scan misses on its own (see kEpochShift).
        const u32 w = findWay<kAssoc>(base, tagOf(addr));
        ++stats_.accesses;
        if (w != assoc) {
            touchLru(base, set, w);
            return true;
        }
        ++stats_.misses;
        if (!setLive(set))
            materializeSet(base, set);
        INTERF_ASSERT((addr >> lineShift_) <
                      (Addr{1} << kEpochShift)); // salt headroom
        const Addr tag = tagOf(addr);
        u32 victim = pickVictim<kAssoc>(base);
        tagsLo_[base + victim] = static_cast<u32>(tag);
        tagsHi_[base + victim] = static_cast<u16>(tag >> 32);
        touchLru(base, set, victim);
        return false;
    }

    template <u32 kAssoc>
    u32 probeWayT(Addr addr) const
    {
        const u32 assoc = kAssoc ? kAssoc : assoc_;
        const u32 set = setIndex(addr);
        const size_t base = static_cast<size_t>(set) * assoc;
        return findWay<kAssoc>(base, tagOf(addr));
    }

    template <u32 kAssoc>
    u32 installT(Addr addr)
    {
        const u32 assoc = kAssoc ? kAssoc : assoc_;
        const u32 set = setIndex(addr);
        const size_t base = static_cast<size_t>(set) * assoc;
        const Addr tag = tagOf(addr);
        INTERF_ASSERT((addr >> lineShift_) <
                      (Addr{1} << kEpochShift)); // salt headroom
        if (!setLive(set))
            materializeSet(base, set);
        u32 w = findWay<kAssoc>(base, tag);
        if (w != assoc) {
            touchLru(base, set, w);
            return w;
        }
        u32 victim = pickVictim<kAssoc>(base);
        tagsLo_[base + victim] = static_cast<u32>(tag);
        tagsHi_[base + victim] = static_cast<u16>(tag >> 32);
        touchLru(base, set, victim);
        return victim;
    }

    /**
     * Victim way: invalid ways first (in way order, which the kNoTag
     * scan preserves since candidates are visited low way first), then
     * the policy's choice. The caller materialized the set.
     */
    template <u32 kAssoc>
    u32 pickVictim(size_t base)
    {
        const u32 assoc = kAssoc ? kAssoc : assoc_;
        u32 invalid = findWay<kAssoc>(base, kNoTag);
        if (invalid != assoc)
            return invalid;
        if (cfg_.replacement == Replacement::Random)
            return static_cast<u32>(victimRng_.uniformInt(assoc));
        if (narrowLru_) {
            const u8 *lru = lru8_.data() + base;
            u32 victim = 0;
            for (u32 w = 1; w < assoc; ++w)
                if (lru[w] < lru[victim])
                    victim = w;
            return victim;
        }
        const u32 *lru = lru_.data() + base;
        u32 victim = 0;
        for (u32 w = 1; w < assoc; ++w)
            if (lru[w] < lru[victim])
                victim = w;
        return victim;
    }
    /** @} */

    CacheConfig cfg_;
    u32 sets_;
    u32 assoc_;
    u32 lineShift_;
    /** LRU ages are only ever read under Replacement::Lru; Random
     *  caches skip the stores — dead writes evict real state from the
     *  host's caches. */
    bool lruTracked_;
    /** Lru representation: u8 per-set ages (lru8_/setClock8_) for
     *  caches of >= kNarrowLruLines lines, u32 stamps (lru_) below.
     *  Fixed by geometry at construction — not a knob. */
    bool narrowLru_ = false;
    /** Current reset epoch; a set is valid iff gen_[set] == epoch_. */
    u8 epoch_ = 0;
    Rng victimRng_{0x5eed};
    std::vector<u32> tagsLo_;    ///< @{ 48-bit tags, split for the
    std::vector<u16> tagsHi_;    ///< packed scan; row-major by set. @}
    std::vector<u32> lru_;       ///< Per-way stamp (small Lru caches).
    u32 lruClock_ = 0;           ///< Cache-wide stamp clock.
    std::vector<u8> lru8_;       ///< Per-way age (narrow Lru caches).
    std::vector<u8> setClock8_;  ///< Per-set age clock (narrow Lru).
    std::vector<u8> gen_;        ///< Per-set reset generation.
    CacheStats stats_;
};

} // namespace interf::cache

#endif // INTERF_CACHE_CACHE_HH
