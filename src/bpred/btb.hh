/**
 * @file
 * Branch target buffer: a set-associative cache of branch targets.
 *
 * Section 4.1 of the paper lists the BTB among the address-hashed
 * structures that code placement perturbs: "A branch target buffer
 * (BTB) or indirect branch predictor would use lower-order bits of the
 * branch address to index a table of branch targets." The machine
 * timing model charges a misfetch penalty on BTB misses for taken
 * branches and a full misprediction penalty for wrong indirect targets;
 * this adds layout-dependent CPI variance *not* explained by MPKI,
 * which is part of why the paper's branch-only r^2 averages 27%.
 *
 * Tags are stored once as u32 (branch PCs are text-segment addresses,
 * which the linker keeps below 2^32 - 1), targets are full addresses,
 * and recency is a u8 age per way against a u8 per-set clock (free at
 * BTB touch rates; see touchLru). reset() clears eagerly.
 */

#ifndef INTERF_BPRED_BTB_HH
#define INTERF_BPRED_BTB_HH

#include <string>
#include <vector>

#include "util/logging.hh"
#include "util/types.hh"

#if defined(__x86_64__) || defined(_M_X64)
#include <emmintrin.h>
#define INTERF_BTB_HAVE_SSE2 1
#endif

namespace interf::bpred
{

/** Result of a BTB lookup: the target the last update for this
 *  branch stored. */
struct BtbResult
{
    bool hit = false;
    Addr target = 0;
};

/** Set-associative branch target buffer with LRU replacement. */
class Btb
{
  public:
    /**
     * Tag of an invalid way. Branch PCs are text addresses, which
     * layout::Linker keeps below layout::kMaxTextEnd <= kNoTag (a
     * static_assert in core/timing.cc), so a lookup's u32 tag compare
     * neither truncates a PC nor meets the sentinel; installs also
     * assert the tag round-trips.
     */
    static constexpr u32 kNoTag = ~u32{0};

    /**
     * @param sets Number of sets (power of two).
     * @param ways Associativity (1..32).
     */
    Btb(u32 sets, u32 ways);

    /**
     * Look up the predicted target for a branch; no state change.
     * Inlined (with SoA tag storage) for the replay kernel, which
     * calls this once per taken branch.
     */
    BtbResult lookup(Addr pc) const
    {
        const u32 set = setIndex(pc);
        const size_t base = static_cast<size_t>(set) * ways_;
        u32 w = findWay(base, tagOf(pc));
        if (w != ways_)
            return {true, targets_[base + w]};
        return {};
    }

    /**
     * lookup() followed by update() with a single tag scan: returns
     * what lookup(pc) would have, then installs/refreshes the target.
     * The replay kernel always pairs the two on taken branches, and
     * the scan is the dominant cost of each.
     */
    BtbResult lookupUpdate(Addr pc, Addr target)
    {
        return updateFound(pc, target, probeWay(pc));
    }

    /** Install/refresh the target for a branch (LRU update). */
    void update(Addr pc, Addr target)
    {
        updateFound(pc, target, probeWay(pc));
    }

    /** Restore the power-on (empty) state. */
    void reset();

    u32 sets() const { return sets_; }
    u32 ways() const { return ways_; }

    /** Bytes of per-replay mutable state (tag/target/age arrays) —
     *  what one replay keeps hot. */
    u64 hotStateBytes() const
    {
        return tags_.size() * sizeof(u32) +
               targets_.size() * sizeof(Addr) + lru_.size() +
               setClock_.size();
    }

    /** Storage estimate in bits (tags + targets). */
    u64 sizeBits() const;

  private:
    /** Way currently holding @p pc's entry, or ways() if absent; no
     *  state change. */
    u32 probeWay(Addr pc) const
    {
        const u32 set = setIndex(pc);
        return findWay(static_cast<size_t>(set) * ways_, tagOf(pc));
    }

    /**
     * Commit half of lookupUpdate(), given @p w from probeWay() with
     * no intervening change to the set: returns what lookup(pc) would
     * have, then installs/refreshes the target.
     */
    BtbResult updateFound(Addr pc, Addr target, u32 w)
    {
        const u32 set = setIndex(pc);
        const size_t base = static_cast<size_t>(set) * ways_;
        if (w != ways_) {
            BtbResult before{true, targets_[base + w]};
            targets_[base + w] = target;
            touchLru(base, set, w);
            return before;
        }
        const u32 tag = tagOf(pc);
        INTERF_ASSERT(static_cast<Addr>(tag) == pc && tag != kNoTag);
        u32 victim = pickVictim(base);
        tags_[base + victim] = tag;
        targets_[base + victim] = target;
        touchLru(base, set, victim);
        return {};
    }

    u32 setIndex(Addr pc) const
    {
        return static_cast<u32>(pc ^ (pc >> 13)) & (sets_ - 1);
    }

    static u32 tagOf(Addr pc)
    {
        // Full (truncated-to-u32) tags: conflicts come from the set
        // index only. Installs assert the truncation is lossless.
        return static_cast<u32>(pc);
    }

    /** Stamp way @p w most-recent; rank-renormalize the set's u8 ages
     *  when its clock saturates (order-preserving). The cache's LRU
     *  keeps wide write-only stamps because a per-set clock's
     *  load-increment-store chain cost ~10-15% of replay throughput
     *  there; the BTB touches LRU only on taken branches — an order
     *  of magnitude rarer — where the same scheme measured free, so
     *  the u8 narrowing stays. */
    void touchLru(size_t base, u32 set, u32 w)
    {
        u8 clock = setClock_[set];
        if (clock == 0xff) {
            renormalizeLru(base);
            clock = static_cast<u8>(ways_ - 1);
        }
        ++clock;
        setClock_[set] = clock;
        lru_[base + w] = clock;
    }

    void renormalizeLru(size_t base)
    {
        u8 *ages = lru_.data() + base;
        u8 ranked[32]; // ctor caps ways at 32
        for (u32 w = 0; w < ways_; ++w) {
            u8 r = 0;
            for (u32 v = 0; v < ways_; ++v)
                r += static_cast<u8>(
                    ages[v] < ages[w] ||
                    (ages[v] == ages[w] && v < w));
            ranked[w] = r;
        }
        for (u32 w = 0; w < ways_; ++w)
            ages[w] = ranked[w];
    }

    /** Victim way: first invalid way (way order), else least recent. */
    u32 pickVictim(size_t base) const
    {
        const u32 *tags = tags_.data() + base;
        const u8 *lru = lru_.data() + base;
        u32 victim = 0;
        for (u32 v = 0; v < ways_; ++v) {
            if (tags[v] == kNoTag)
                return v;
            if (lru[v] < lru[victim])
                victim = v;
        }
        return victim;
    }

    /**
     * Way of the row at @p base holding @p tag, or ways_ if absent.
     * Branchless packed compare of the u32 tags into an exact equality
     * mask — same scheme as cache::Cache::findWay (see the rationale
     * there), exact without a confirm step because the stored tag is
     * the full u32.
     */
    u32 findWay(size_t base, u32 tag) const
    {
#ifdef INTERF_BTB_HAVE_SSE2
        if (ways_ % 4 == 0 && ways_ <= 32) {
            const u32 *tags = tags_.data() + base;
            const __m128i key =
                _mm_set1_epi32(static_cast<int>(tag));
            u32 mask = 0;
            for (u32 w = 0; w < ways_; w += 4) {
                __m128i eq = _mm_cmpeq_epi32(
                    _mm_loadu_si128(
                        reinterpret_cast<const __m128i *>(tags + w)),
                    key);
                mask |= static_cast<u32>(
                            _mm_movemask_ps(_mm_castsi128_ps(eq)))
                        << w;
            }
            return mask ? static_cast<u32>(__builtin_ctz(mask)) : ways_;
        }
#endif
        const u32 *tags = tags_.data() + base;
        for (u32 w = 0; w < ways_; ++w)
            if (tags[w] == tag)
                return w;
        return ways_;
    }

    u32 sets_;
    u32 ways_;
    /** @{ sets_ * ways_, row-major by set; parallel arrays. */
    std::vector<u32> tags_;     ///< u32 tags (sentinel kNoTag).
    std::vector<Addr> targets_; ///< Target addresses.
    std::vector<u8> lru_;       ///< Per-way age; higher = more recent.
    std::vector<u8> setClock_;  ///< Per-set age clock.
    /** @} */
};

} // namespace interf::bpred

#endif // INTERF_BPRED_BTB_HH
