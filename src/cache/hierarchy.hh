/**
 * @file
 * The machine's memory hierarchy: split L1I/L1D backed by a unified L2
 * and main memory, mirroring the Xeon E5440's per-core 32 KB L1 caches
 * and large shared L2 (Section 5.4).
 *
 * The hierarchy reports which level served each access; the timing
 * model converts levels into latencies (with MLP overlap). An optional
 * next-line instruction prefetcher reduces sequential-fetch misses the
 * way real front ends do, keeping conflict misses (the layout-sensitive
 * kind) as the dominant L1I miss source.
 */

#ifndef INTERF_CACHE_HIERARCHY_HH
#define INTERF_CACHE_HIERARCHY_HH

#include "cache/cache.hh"

namespace interf::cache
{

/** Which level served an access. */
enum class HitLevel : u8 { L1, L2, Memory };

/** Geometry + behaviour of the full hierarchy. */
struct HierarchyConfig
{
    CacheConfig l1i{"L1I", 32 << 10, 8, 64};
    CacheConfig l1d{"L1D", 32 << 10, 8, 64};
    CacheConfig l2{"L2", 6 << 20, 24, 64, Replacement::Random};
    bool nextLinePrefetch = true; ///< Sequential I-prefetch into L1I.
};

/** Aggregate miss statistics of the hierarchy. */
struct HierarchyStats
{
    CacheStats l1i;
    CacheStats l1d;
    CacheStats l2;
    Count l2InstMisses = 0; ///< L2 misses from demand instruction fetch.
    Count l2PrefMisses = 0; ///< L2 misses from the I-prefetcher.
    Count l2DataMisses = 0; ///< L2 misses from loads/stores.
};

/** Split L1 + unified L2 + memory. */
class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const HierarchyConfig &config);

    /**
     * Instruction fetch of one line-covered address. Inlined: this and
     * accessData() are the two hottest calls in the replay kernel.
     */
    HitLevel fetchInst(Addr addr)
    {
        HitLevel level;
        if (addr == prefLine_) {
            // Sequential fetch of the line the previous call's prefetch
            // check just proved present. Nothing can have evicted it
            // since: only fetchInst mutates the L1I, every other call
            // refreshes this memo, and the hierarchy-deduped call (same
            // line re-fetch) touches the *previous* line's set, never
            // this one's (consecutive lines map to consecutive sets).
            // accessAt applies a hitting access's exact state updates.
            l1i_.accessAt(addr, prefWay_);
            level = HitLevel::L1;
        } else if (l1i_.access(addr)) {
            level = HitLevel::L1;
        } else if (l2_.access(addr)) {
            level = HitLevel::L2;
        } else {
            level = HitLevel::Memory;
            ++l2InstMisses_;
        }

        // Sequential next-line prefetch: bring in the following line so
        // straight-line fetch rarely misses; conflict misses among hot
        // lines (the layout-sensitive kind) remain.
        if (cfg_.nextLinePrefetch) {
            u32 line_bytes = cfg_.l1i.lineBytes;
            Addr line = addr / line_bytes;
            if (line != lastFetchLine_) {
                lastFetchLine_ = line;
                Addr next = (line + 1) * line_bytes;
                u32 way = l1i_.probeWay(next);
                if (way == l1i_.config().assoc) {
                    // The prefetch fills L1I via L2 without counting as
                    // a demand L1I miss.
                    if (!l2_.access(next))
                        ++l2PrefMisses_;
                    way = l1i_.install(next);
                }
                if (prefMemoSafe_) {
                    prefLine_ = next;
                    prefWay_ = way;
                }
            }
        }
        return level;
    }

    /** Data access (load or store; the model is allocate-on-miss). */
    HitLevel accessData(Addr addr)
    {
        if (l1d_.access(addr))
            return HitLevel::L1;
        if (l2_.access(addr))
            return HitLevel::L2;
        ++l2DataMisses_;
        return HitLevel::Memory;
    }

    /** Invalidate all levels and clear statistics. */
    void reset();

    /** Clear statistics only, keeping contents (end of warmup). */
    void clearStats();

    const HierarchyConfig &config() const { return cfg_; }
    HierarchyStats stats() const;

    /** Per-replay mutable state across all three levels — what one
     *  replay keeps hot. */
    u64 hotStateBytes() const
    {
        return l1i_.hotStateBytes() + l1d_.hotStateBytes() +
               l2_.hotStateBytes();
    }

  private:
    HierarchyConfig cfg_;
    Cache l1i_;
    Cache l1d_;
    Cache l2_;
    Addr lastFetchLine_ = ~Addr{0};
    /** @{ Prefetch memo: the line the last prefetch check proved
     *  present in the L1I, and its way. The sequential-set argument in
     *  fetchInst() needs >= 2 L1I sets, so single-set geometries leave
     *  the memo disarmed. */
    Addr prefLine_ = ~Addr{0};
    u32 prefWay_ = 0;
    bool prefMemoSafe_ = false;
    /** @} */
    Count l2InstMisses_ = 0;
    Count l2PrefMisses_ = 0;
    Count l2DataMisses_ = 0;
};

} // namespace interf::cache

#endif // INTERF_CACHE_HIERARCHY_HH
