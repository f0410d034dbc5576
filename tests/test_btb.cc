/** @file Tests for the branch target buffer. */

#include <gtest/gtest.h>

#include "bpred/btb.hh"

namespace
{

using namespace interf;
using namespace interf::bpred;

TEST(Btb, MissWhenCold)
{
    Btb btb(64, 4);
    EXPECT_FALSE(btb.lookup(0x400100).hit);
}

TEST(Btb, HitAfterUpdate)
{
    Btb btb(64, 4);
    btb.update(0x400100, 0x400800);
    auto res = btb.lookup(0x400100);
    EXPECT_TRUE(res.hit);
    EXPECT_EQ(res.target, 0x400800u);
}

TEST(Btb, TargetRefreshedOnUpdate)
{
    Btb btb(64, 4);
    btb.update(0x400100, 0x400800);
    btb.update(0x400100, 0x400900); // indirect branch changed target
    EXPECT_EQ(btb.lookup(0x400100).target, 0x400900u);
}

TEST(Btb, AssociativityHoldsConflictingBranches)
{
    Btb btb(16, 4);
    // Four branches in the same set (stride = sets * line granularity
    // of the index): all must coexist.
    Addr base = 0x400000;
    std::vector<Addr> pcs;
    // find 4 pcs with identical set index
    Btb probe(16, 1);
    u32 want = 0;
    for (Addr pc = base; pcs.size() < 4; pc += 1) {
        Btb tmp(16, 1);
        tmp.update(pc, 1);
        // derive set by checking conflict behaviour instead: simpler,
        // use the documented index: pc ^ (pc >> 13) masked.
        u32 set = static_cast<u32>(pc ^ (pc >> 13)) & 15u;
        if (pcs.empty())
            want = set;
        if (set == want)
            pcs.push_back(pc);
    }
    for (size_t i = 0; i < pcs.size(); ++i)
        btb.update(pcs[i], 0x1000 + i);
    for (size_t i = 0; i < pcs.size(); ++i) {
        auto res = btb.lookup(pcs[i]);
        EXPECT_TRUE(res.hit);
        EXPECT_EQ(res.target, 0x1000 + i);
    }
}

TEST(Btb, LruEvictsOldest)
{
    Btb btb(1, 2); // one set, two ways
    btb.update(0x1, 0x100);
    btb.update(0x2, 0x200);
    btb.update(0x1, 0x100); // refresh 0x1
    btb.update(0x3, 0x300); // evicts 0x2 (LRU)
    EXPECT_TRUE(btb.lookup(0x1).hit);
    EXPECT_FALSE(btb.lookup(0x2).hit);
    EXPECT_TRUE(btb.lookup(0x3).hit);
}

TEST(Btb, LookupDoesNotPerturbLru)
{
    Btb btb(1, 2);
    btb.update(0x1, 0x100);
    btb.update(0x2, 0x200);
    (void)btb.lookup(0x1); // must NOT refresh
    btb.update(0x3, 0x300); // evicts 0x1 (oldest by update)
    EXPECT_FALSE(btb.lookup(0x1).hit);
    EXPECT_TRUE(btb.lookup(0x2).hit);
}

TEST(Btb, ResetEmptiesAllEntries)
{
    Btb btb(16, 2);
    for (Addr pc = 0; pc < 64; ++pc)
        btb.update(0x400000 + pc * 4, pc);
    btb.reset();
    for (Addr pc = 0; pc < 64; ++pc)
        EXPECT_FALSE(btb.lookup(0x400000 + pc * 4).hit);
}

TEST(Btb, RepeatedResetNeverResurrectsEntries)
{
    // reset() must empty the BTB no matter how many resets precede it
    // (the property any lazy reset scheme would have to keep): entries
    // installed before any reset must never resurface after it. Drive
    // many reset cycles touching a rotating subset of sets, the
    // aliasing-prone pattern for generation-tag schemes.
    Btb btb(16, 2);
    for (int epoch = 0; epoch < 600; ++epoch) {
        Addr pc = 0x400000 + static_cast<Addr>(epoch % 7) * 4;
        EXPECT_FALSE(btb.lookup(pc).hit) << "epoch " << epoch;
        btb.update(pc, static_cast<Addr>(epoch));
        auto res = btb.lookup(pc);
        EXPECT_TRUE(res.hit);
        EXPECT_EQ(res.target, static_cast<Addr>(epoch));
        btb.reset();
    }
    // And a fully-populated BTB must be fully empty after the 600th.
    for (Addr pc = 0; pc < 64; ++pc)
        btb.update(0x400000 + pc * 4, 7);
    btb.reset();
    for (Addr pc = 0; pc < 64; ++pc)
        EXPECT_FALSE(btb.lookup(0x400000 + pc * 4).hit);
}

TEST(Btb, GeometryAccessors)
{
    Btb btb(1024, 4);
    EXPECT_EQ(btb.sets(), 1024u);
    EXPECT_EQ(btb.ways(), 4u);
    EXPECT_GT(btb.sizeBits(), 0u);
}

TEST(BtbDeathTest, BadGeometryIsFatal)
{
    // Construction-time validation is a typed user-facing diagnostic
    // (exit code 1 with an actionable message), not an assertion: a
    // non-power-of-two set count would otherwise silently alias sets
    // through the index mask.
    EXPECT_EXIT(Btb(100, 4), ::testing::ExitedWithCode(1),
                "not a power of two");
    EXPECT_EXIT(Btb(64, 0), ::testing::ExitedWithCode(1),
                "associativity must be >= 1");
    EXPECT_EXIT(Btb(64, 33), ::testing::ExitedWithCode(1),
                "exceeds 32");
}

TEST(BtbDeathTest, PcPastTagWidthPanics)
{
    // Tags are full u32 PCs; every install checks the truncation is
    // lossless, in every build type.
    Btb btb(64, 4);
    btb.update((Addr{1} << 32) - 2, 0x1000);
    EXPECT_TRUE(btb.lookup((Addr{1} << 32) - 2).hit);
    EXPECT_DEATH(btb.update(Addr{1} << 32, 0x1000), "== pc");
}

} // anonymous namespace
