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
 * Tags are stored once, split u32-lo / u16-hi (48 bits), so the packed
 * scan in findWay() compares a whole 8-way row with three vector
 * loads. Real tags are line numbers (address >> lineShift), and every
 * address the layout engines produce is far below 2^48 lines, which an
 * install-time assert enforces.
 *
 * Every LRU cache keeps a u32 stamp per way from one cache-wide clock,
 * written and never read on the touch path. Narrower schemes measured
 * slower: a u8 per-set age clock turns every touch into a
 * load-increment-store chain through per-set bytes (~10-15% of the
 * replay kernel on the L1s, 2-4% on the L2), and u16 stamps with a
 * rank-renormalizing wrap still lost ~5-9% (DESIGN.md §5j). reset()
 * clears eagerly.
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
        // Bounds only: verifying the caller's claim (tag equality)
        // re-loads the set's tags on the prefetch-shortcut fetch path
        // — the hottest accessAt caller — and measured ~3% of replay
        // throughput; the golden replay tests pin the claim instead.
        INTERF_ASSERT(way < assoc_);
        ++stats_.accesses;
        touchLru(base, way);
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

    /** Invalidate everything and clear statistics. */
    void reset();

    /** Clear statistics only, keeping cache contents (warmup end). */
    void clearStats() { stats_ = CacheStats(); }

    const CacheConfig &config() const { return cfg_; }
    const CacheStats &stats() const { return stats_; }

    /** Bytes of per-replay mutable state (tag/LRU arrays) — what one
     *  replay keeps hot per cache. */
    u64 hotStateBytes() const
    {
        return tagsLo_.size() * sizeof(u32) +
               tagsHi_.size() * sizeof(u16) + lru_.size() * sizeof(u32);
    }

    /**
     * @{ Split-tag representation constants.
     *
     * kTagBits is the total stored tag width (the split u32 lo /
     * u16 hi pair). kNoTag is the invalid-way sentinel: all-ones in
     * that 48-bit representation. Raw tags are line numbers
     * (address >> lineShift), which must stay below kNoTag for any
     * address the layout engines produce — installs assert it — so
     * a real tag is never truncated and never forges the sentinel.
     */
    static constexpr u32 kTagBits = 48;
    static constexpr Addr kNoTag = (Addr{1} << kTagBits) - 1;
    /** @} */

    /** Current u32 stamp-clock value (LRU caches only). Exposed so
     *  tests can pin the reset-restart invariant: the clock must
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
    /** Line-number tag of @p addr. */
    Addr tagOf(Addr addr) const { return addr >> lineShift_; }

    /**
     * Mark way @p w most-recent in its set. The store is the only
     * per-set write — nothing on this path *reads* per-set
     * replacement state, so consecutive touches of one set never
     * serialize through it (see the file header for the narrower
     * schemes this out-measured).
     */
    void touchLru(size_t base, u32 w)
    {
        if (!lruTracked_)
            return;
        lru_[base + w] = ++lruClock_;
    }

    /**
     * Way of the row at @p base holding @p tag, or assoc if absent.
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
        const Addr tag = tagOf(addr);
        const u32 w = findWay<kAssoc>(base, tag);
        ++stats_.accesses;
        if (w != assoc) {
            touchLru(base, w);
            return true;
        }
        ++stats_.misses;
        INTERF_ASSERT(tag < kNoTag); // fits the 48-bit split tag
        u32 victim = pickVictim<kAssoc>(base);
        tagsLo_[base + victim] = static_cast<u32>(tag);
        tagsHi_[base + victim] = static_cast<u16>(tag >> 32);
        touchLru(base, victim);
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
        INTERF_ASSERT(tag < kNoTag); // fits the 48-bit split tag
        u32 w = findWay<kAssoc>(base, tag);
        if (w != assoc) {
            touchLru(base, w);
            return w;
        }
        u32 victim = pickVictim<kAssoc>(base);
        tagsLo_[base + victim] = static_cast<u32>(tag);
        tagsHi_[base + victim] = static_cast<u16>(tag >> 32);
        touchLru(base, victim);
        return victim;
    }

    /**
     * Victim way: invalid ways first (in way order, which the kNoTag
     * scan preserves since candidates are visited low way first), then
     * the policy's choice.
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
    /** LRU stamps are only ever read under Replacement::Lru; Random
     *  caches skip the stores — dead writes evict real state from the
     *  host's caches. */
    bool lruTracked_;
    Rng victimRng_{0x5eed};
    std::vector<u32> tagsLo_; ///< @{ 48-bit tags, split for the
    std::vector<u16> tagsHi_; ///< packed scan; row-major by set. @}
    std::vector<u32> lru_;    ///< Per-way stamp (Lru caches only).
    u32 lruClock_ = 0;        ///< Cache-wide stamp clock.
    CacheStats stats_;
};

} // namespace interf::cache

#endif // INTERF_CACHE_CACHE_HH
