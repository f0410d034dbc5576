/** @file Tests for the Camino-style reordering linker. */

#include <set>

#include <gtest/gtest.h>

#include "layout/linker.hh"
#include "workloads/builder.hh"
#include "workloads/profile.hh"

namespace
{

using namespace interf;
using namespace interf::layout;

trace::Program
prog()
{
    return workloads::buildProgram(workloads::defaultProfile("lnk"));
}

TEST(Linker, DeterministicForSameKey)
{
    auto p = prog();
    Linker linker;
    LayoutKey key{42, true, true};
    auto a = linker.link(p, key);
    auto b = linker.link(p, key);
    EXPECT_EQ(a.procOrder(), b.procOrder());
    EXPECT_EQ(a.fileOrder(), b.fileOrder());
    for (u32 id = 0; id < p.procedures().size(); ++id)
        EXPECT_EQ(a.procBase(id), b.procBase(id));
}

TEST(Linker, DifferentSeedsPermuteDifferently)
{
    auto p = prog();
    Linker linker;
    auto a = linker.link(p, LayoutKey{1, true, true});
    auto b = linker.link(p, LayoutKey{2, true, true});
    EXPECT_NE(a.procOrder(), b.procOrder());
}

TEST(Linker, IdentityKeyKeepsAuthoredOrder)
{
    auto p = prog();
    Linker linker;
    auto layout = linker.link(p, LayoutKey::identity());
    // File order is authored order.
    for (u32 i = 0; i < p.files().size(); ++i)
        EXPECT_EQ(layout.fileOrder()[i], i);
    // Procedures appear in authored per-file order.
    std::vector<u32> expect;
    for (const auto &file : p.files())
        for (u32 pid : file.procIds)
            expect.push_back(pid);
    EXPECT_EQ(layout.procOrder(), expect);
}

TEST(Linker, ProcOrderIsPermutation)
{
    auto p = prog();
    Linker linker;
    auto layout = linker.link(p, LayoutKey{7, true, true});
    std::set<u32> seen(layout.procOrder().begin(),
                       layout.procOrder().end());
    EXPECT_EQ(seen.size(), p.procedures().size());
}

TEST(Linker, ProceduresAlignedAndNonOverlapping)
{
    auto p = prog();
    Linker linker;
    auto layout = linker.link(p, LayoutKey{11, true, true});
    Addr prev_end = layout.textBase();
    for (u32 pid : layout.procOrder()) {
        Addr base = layout.procBase(pid);
        EXPECT_EQ(base % p.proc(pid).align, 0u);
        EXPECT_GE(base, prev_end);
        // Gap only from alignment (< align bytes).
        EXPECT_LT(base - prev_end, p.proc(pid).align);
        prev_end = base + p.proc(pid).bytes();
    }
    EXPECT_EQ(prev_end - layout.textBase(), layout.textSize());
}

TEST(Linker, BlockAddressesContiguousWithinProcedure)
{
    auto p = prog();
    Linker linker;
    auto layout = linker.link(p, LayoutKey{13, true, true});
    for (const auto &proc : p.procedures()) {
        Addr expect = layout.procBase(proc.id);
        for (u32 b = 0; b < proc.blocks.size(); ++b) {
            EXPECT_EQ(layout.blockAddr(proc.id, b), expect);
            expect += proc.blocks[b].bytes;
        }
    }
}

TEST(Linker, BranchAddressInsideBlock)
{
    auto p = prog();
    Linker linker;
    auto layout = linker.link(p, LayoutKey{17, true, true});
    for (const auto &proc : p.procedures()) {
        for (u32 b = 0; b < proc.blocks.size(); ++b) {
            Addr start = layout.blockAddr(proc.id, b);
            Addr branch = layout.branchAddr(proc.id, b);
            EXPECT_GE(branch, start);
            EXPECT_LT(branch, start + proc.blocks[b].bytes);
        }
    }
}

TEST(Linker, SemanticsInvariantAcrossLayouts)
{
    // The core interferometry invariant: layouts only move code; the
    // total code size (mod alignment slack) is unchanged.
    auto p = prog();
    Linker linker;
    auto a = linker.link(p, LayoutKey{1, true, true});
    auto b = linker.link(p, LayoutKey{999, true, true});
    // Same procedures, same bytes: sizes differ only by alignment.
    i64 diff = static_cast<i64>(a.textSize()) -
               static_cast<i64>(b.textSize());
    EXPECT_LT(std::abs(diff),
              static_cast<i64>(p.procedures().size()) * 16);
}

TEST(Linker, ReorderFlagsIndependent)
{
    auto p = prog();
    Linker linker;
    // Only file order perturbed: within each file, authored order kept.
    LayoutKey files_only{5, false, true};
    auto layout = linker.link(p, files_only);
    size_t cursor = 0;
    for (u32 fi : layout.fileOrder()) {
        for (u32 pid : p.files()[fi].procIds)
            EXPECT_EQ(layout.procOrder()[cursor++], pid);
    }
}

TEST(Linker, AddressesChangeAcrossSeeds)
{
    auto p = prog();
    Linker linker;
    auto a = linker.link(p, LayoutKey{1, true, true});
    auto b = linker.link(p, LayoutKey{2, true, true});
    int moved = 0;
    for (u32 id = 0; id < p.procedures().size(); ++id)
        moved += a.procBase(id) != b.procBase(id);
    EXPECT_GT(moved, static_cast<int>(p.procedures().size() / 2));
}

TEST(Linker, CustomTextBase)
{
    auto p = prog();
    Linker linker(0x1000000);
    auto layout = linker.link(p, LayoutKey::identity());
    EXPECT_EQ(layout.textBase(), 0x1000000u);
    EXPECT_GE(layout.procBase(layout.procOrder()[0]), 0x1000000u);
}

TEST(LinkerDeathTest, TextPastFourGiBIsFatal)
{
    // The BTB keeps u32 full-PC tags, so text must end at or below
    // kMaxTextEnd; a base 4 KiB under 4 GiB cannot fit the program.
    auto p = prog();
    Linker linker(0xFFFFF000);
    EXPECT_EXIT(linker.link(p, LayoutKey::identity()),
                ::testing::ExitedWithCode(1), "branch PCs must fit");
    // Text that ends below the bound still links.
    auto fits = Linker(0x1000000).link(p, LayoutKey::identity());
    EXPECT_LE(fits.textBase() + fits.textSize(), kMaxTextEnd);
}

// ---------------------------------------------------------------------
// LayoutSpec: the explicit-permutation path the optimizer edits.
// ---------------------------------------------------------------------

TEST(LinkerSpec, SpecForLinksIdenticallyToTheKey)
{
    // The keyed path is definitionally link(specFor(key)): expanding a
    // key into its explicit permutations and linking those must land
    // every procedure on the same address.
    auto p = prog();
    Linker linker;
    for (u64 seed : {0ull, 1ull, 7ull, 42ull, 1000ull}) {
        for (bool procs : {false, true}) {
            for (bool files : {false, true}) {
                LayoutKey key{seed, procs, files};
                auto direct = linker.link(p, key);
                auto spec = linker.specFor(p, key);
                spec.validate(p);
                auto via = linker.link(p, spec);
                EXPECT_EQ(direct.procOrder(), via.procOrder());
                EXPECT_EQ(direct.fileOrder(), via.fileOrder());
                EXPECT_EQ(direct.textSize(), via.textSize());
                for (u32 id = 0; id < p.procedures().size(); ++id)
                    EXPECT_EQ(direct.procBase(id), via.procBase(id));
            }
        }
    }
}

TEST(LinkerSpec, AuthoredSpecIsTheIdentityLayout)
{
    auto p = prog();
    Linker linker;
    auto spec = LayoutSpec::authored(p);
    spec.validate(p);
    auto identity = linker.link(p, LayoutKey::identity());
    auto authored = linker.link(p, spec);
    EXPECT_EQ(identity.procOrder(), authored.procOrder());
    EXPECT_EQ(identity.fileOrder(), authored.fileOrder());
    EXPECT_EQ(identity.textSize(), authored.textSize());
}

TEST(LinkerSpec, ProcOrderIsIndexedByAuthoredFile)
{
    // procOrder[f] belongs to authored file f regardless of where the
    // link line puts that file -- the property that makes file moves
    // and procedure moves commute in the optimizer.
    auto p = prog();
    Linker linker;
    auto spec = linker.specFor(p, LayoutKey{23, true, true});
    ASSERT_EQ(spec.procOrder.size(), p.files().size());
    for (u32 fi = 0; fi < p.files().size(); ++fi) {
        std::set<u32> authored(p.files()[fi].procIds.begin(),
                               p.files()[fi].procIds.end());
        std::set<u32> spec_set(spec.procOrder[fi].begin(),
                               spec.procOrder[fi].end());
        EXPECT_EQ(spec_set, authored) << "file " << fi;
    }
}

} // anonymous namespace
