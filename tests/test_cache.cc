/** @file Tests for the set-associative cache model. */

#include <vector>

#include <gtest/gtest.h>

#include "cache/cache.hh"

namespace
{

using namespace interf;
using namespace interf::cache;

CacheConfig
smallConfig()
{
    CacheConfig cfg;
    cfg.name = "test";
    cfg.sizeBytes = 1024; // 16 lines
    cfg.assoc = 2;        // 8 sets
    cfg.lineBytes = 64;
    return cfg;
}

TEST(CacheConfig, GeometryDerivation)
{
    auto cfg = smallConfig();
    EXPECT_EQ(cfg.numSets(), 8u);
    cfg.validate();
    CacheConfig l1{"L1", 32 << 10, 8, 64};
    EXPECT_EQ(l1.numSets(), 64u);
}

TEST(CacheConfigDeathTest, BadGeometryIsFatal)
{
    CacheConfig bad{"bad", 1000, 2, 64};
    EXPECT_EXIT(bad.validate(), ::testing::ExitedWithCode(1), "");
    CacheConfig bad2{"bad2", 1024, 2, 60};
    EXPECT_EXIT(bad2.validate(), ::testing::ExitedWithCode(1),
                "power of two");
}

TEST(CacheConfigDeathTest, NonPowerOfTwoSetsNamesTheAliasing)
{
    // The typed diagnostic must say *why* the geometry is rejected:
    // set indexing masks low bits, so a non-power-of-two set count
    // would silently alias sets.
    CacheConfig bad{"odd-sets", 3 * 64 * 2, 2, 64}; // 3 sets
    EXPECT_EQ(bad.numSets(), 3u);
    EXPECT_EXIT(bad.validate(), ::testing::ExitedWithCode(1),
                "silently alias sets");
}

TEST(CacheDeathTest, LineNumberPastSplitTagPanics)
{
    // Line numbers must stay below the 48-bit all-ones kNoTag
    // sentinel; every install checks it, in every build type.
    Cache cache(smallConfig());
    EXPECT_FALSE(cache.access((Cache::kNoTag - 1) << 6));
    const Addr past = Addr{1} << (Cache::kTagBits + 6); // 64-byte lines
    EXPECT_DEATH(cache.access(past), "tag < kNoTag");
    EXPECT_DEATH(cache.install(past), "tag < kNoTag");
}

TEST(Cache, ColdMissThenHit)
{
    Cache cache(smallConfig());
    EXPECT_FALSE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x1030)); // same 64B line
    EXPECT_EQ(cache.stats().accesses, 3u);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(Cache, SetIndexUsesLineBits)
{
    Cache cache(smallConfig());
    EXPECT_EQ(cache.setIndex(0x0), 0u);
    EXPECT_EQ(cache.setIndex(0x40), 1u);
    EXPECT_EQ(cache.setIndex(0x40 * 8), 0u); // wraps at 8 sets
}

TEST(Cache, ConflictMissesBeyondAssociativity)
{
    // 3 lines in a 2-way set: cycling them LRU-misses every time.
    Cache cache(smallConfig());
    Addr stride = 64 * 8; // same set
    for (int round = 0; round < 5; ++round)
        for (int i = 0; i < 3; ++i)
            cache.access(0x10000 + i * stride);
    EXPECT_EQ(cache.stats().misses, 15u); // every access misses
}

TEST(Cache, TwoLinesInTwoWaySetCoexist)
{
    Cache cache(smallConfig());
    Addr stride = 64 * 8;
    cache.access(0x10000);
    cache.access(0x10000 + stride);
    for (int i = 0; i < 10; ++i) {
        EXPECT_TRUE(cache.access(0x10000));
        EXPECT_TRUE(cache.access(0x10000 + stride));
    }
}

TEST(Cache, LruReplacement)
{
    Cache cache(smallConfig());
    Addr stride = 64 * 8;
    Addr a = 0x10000, b = a + stride, c = b + stride;
    cache.access(a);
    cache.access(b);
    cache.access(a); // refresh a
    cache.access(c); // evicts b
    EXPECT_TRUE(cache.contains(a));
    EXPECT_FALSE(cache.contains(b));
    EXPECT_TRUE(cache.contains(c));
}

TEST(Cache, ContainsDoesNotTouchStateOrStats)
{
    Cache cache(smallConfig());
    cache.access(0x2000);
    auto before = cache.stats().accesses;
    EXPECT_TRUE(cache.contains(0x2000));
    EXPECT_FALSE(cache.contains(0x9999000));
    EXPECT_EQ(cache.stats().accesses, before);
}

TEST(Cache, InstallSkipsStats)
{
    Cache cache(smallConfig());
    cache.install(0x3000);
    EXPECT_EQ(cache.stats().accesses, 0u);
    EXPECT_EQ(cache.stats().misses, 0u);
    EXPECT_TRUE(cache.contains(0x3000));
    EXPECT_TRUE(cache.access(0x3000)); // prefetched line hits
}

TEST(Cache, CapacityMissesOnBigWorkingSet)
{
    Cache cache(smallConfig()); // 1 KB
    // Walk 4 KB repeatedly: everything misses after the first lap too.
    for (int lap = 0; lap < 3; ++lap)
        for (Addr a = 0; a < 4096; a += 64)
            cache.access(0x40000 + a);
    EXPECT_GT(cache.stats().missRate(), 0.9);
}

TEST(Cache, WorkingSetWithinCapacityHitsAfterWarmup)
{
    Cache cache(smallConfig());
    for (int lap = 0; lap < 4; ++lap)
        for (Addr a = 0; a < 1024; a += 64)
            cache.access(0x50000 + a);
    // 16 cold misses, everything else hits.
    EXPECT_EQ(cache.stats().misses, 16u);
}

TEST(Cache, ResetClearsContentsAndStats)
{
    Cache cache(smallConfig());
    cache.access(0x1000);
    cache.reset();
    EXPECT_EQ(cache.stats().accesses, 0u);
    EXPECT_FALSE(cache.contains(0x1000));
}

TEST(Cache, ClearStatsKeepsContents)
{
    Cache cache(smallConfig());
    cache.access(0x1000);
    cache.clearStats();
    EXPECT_EQ(cache.stats().accesses, 0u);
    EXPECT_TRUE(cache.contains(0x1000));
    EXPECT_TRUE(cache.access(0x1000)); // still warm
}

TEST(Cache, StatsHelpers)
{
    CacheStats s;
    s.accesses = 10;
    s.misses = 3;
    EXPECT_EQ(s.hits(), 7u);
    EXPECT_DOUBLE_EQ(s.missRate(), 0.3);
    CacheStats zero;
    EXPECT_DOUBLE_EQ(zero.missRate(), 0.0);
}

/** 8-set geometry at the given associativity: 2 and 4 ways exercise
 *  the scalar tag-scan fallback (the packed scan needs assoc % 8 ==
 *  0), 8/16/32 the SSE2 path. */
CacheConfig
assocConfig(u32 assoc)
{
    return CacheConfig{"assoc", static_cast<u64>(64) * assoc * 8, assoc,
                       64};
}

TEST(Cache, ProbeWayPredictsAccessAcrossAssociativities)
{
    // probeWay() (the prefetcher's side-effect-free scan) must agree
    // with access() on every geometry, scalar and packed scans alike:
    // a line probes present iff the access hits, the probe changes no
    // state, and after the access the line is resident.
    for (u32 assoc : {2u, 3u, 4u, 6u, 8u, 16u, 32u}) {
        Cache cache(assocConfig(assoc));
        const Addr stride = 64 * 8;
        u64 x = 0x9e3779b97f4a7c15ull;
        u64 misses = 0;
        for (int i = 0; i < 500; ++i) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            // assoc + 2 distinct lines cycling through 2 sets.
            const u64 slot = (x >> 33) % (assoc + 2);
            const Addr a = 0x40000 + slot * stride + ((x >> 20) & 1) * 64;
            const u32 w = cache.probeWay(a);
            EXPECT_EQ(cache.probeWay(a), w);
            const bool hit = cache.access(a);
            EXPECT_EQ(hit, w != assoc);
            EXPECT_NE(cache.probeWay(a), assoc);
            misses += hit ? 0 : 1;
        }
        EXPECT_EQ(cache.stats().accesses, 500u);
        EXPECT_EQ(cache.stats().misses, misses);
    }
}

/** The modeled 6 MiB, 24-way LRU L2: the largest state reset()
 *  clears (98 304 lines of tags and u32 stamps). */
CacheConfig
l2Config()
{
    return CacheConfig{"L2", 6 << 20, 24, 64};
}

TEST(Cache, RepeatedResetNeverResurrectsLines)
{
    // A line installed before a reset never reads as present after
    // it, on a small L1-class geometry and at L2 size.
    for (const CacheConfig &cfg : {smallConfig(), l2Config()}) {
        Cache cache(cfg);
        for (int r = 0; r < 200; ++r) {
            const Addr a = 0x10000 + static_cast<Addr>(r) * 64;
            EXPECT_FALSE(cache.contains(a)) << cfg.name;
            cache.access(a);
            EXPECT_TRUE(cache.contains(a)) << cfg.name;
            cache.reset();
            for (int p = 0; p <= r; ++p)
                EXPECT_FALSE(cache.contains(
                    0x10000 + static_cast<Addr>(p) * 64))
                    << cfg.name << ": line from reset " << p
                    << " resurfaced at reset " << r;
        }
    }
}

TEST(Cache, ResetRestartsStampClock)
{
    // The u32 stamp clock has no wrap handling — touchLru stores
    // ++lruClock_ raw — so its wrap bound must be per replay, not per
    // Machine lifetime: reset() restarts it at 0. Without the restart,
    // ~2^32 cumulative touches (reachable across a long optimizer
    // sweep's thousands of replays on one Machine) wrap stamps to
    // small values and silently invert LRU victim choice against the
    // fresh-per-run reference model.
    for (const CacheConfig &cfg : {smallConfig(), l2Config()}) {
        Cache cache(cfg);
        for (Addr a = 0; a < 1024; a += 64)
            cache.access(0x60000 + a);
        EXPECT_GT(cache.lruClockForTest(), 0u) << cfg.name;
        cache.reset();
        EXPECT_EQ(cache.lruClockForTest(), 0u) << cfg.name;
        for (int r = 0; r < 100; ++r) {
            cache.access(0x60000);
            cache.reset();
            EXPECT_EQ(cache.lruClockForTest(), 0u)
                << cfg.name << " reset " << r;
        }
    }
}

TEST(Cache, SixtyFourWayLruEvictsInLruOrder)
{
    // u32 stamps have no associativity cap: a 64-way LRU cache
    // constructs and evicts strictly least-recent first. The packed
    // scan covers at most 32 ways, so this drives the scalar scan.
    const CacheConfig cfg{"wide-lru", 32 << 10, 64, 64};
    ASSERT_EQ(cfg.replacement, Replacement::Lru);
    ASSERT_EQ(cfg.numSets(), 8u);

    Cache cache(cfg);
    const Addr stride = static_cast<Addr>(cfg.numSets()) * 64;
    for (u32 i = 0; i < 64; ++i)
        EXPECT_FALSE(cache.access(i * stride));
    // Re-touch the 64 resident lines in a scrambled order; that order
    // is the eviction order from here on.
    std::vector<u32> order(64);
    for (u32 i = 0; i < 64; ++i)
        order[i] = (i * 37 + 11) % 64;
    for (u32 line : order)
        EXPECT_TRUE(cache.access(line * stride));
    for (u32 k = 0; k < 64; ++k) {
        EXPECT_FALSE(cache.access((64 + k) * stride));
        EXPECT_FALSE(cache.contains(order[k] * stride)) << "k " << k;
        if (k + 1 < 64) {
            EXPECT_TRUE(cache.contains(order[k + 1] * stride))
                << "k " << k;
        }
    }
}

} // anonymous namespace
