/** @file Golden tests for the compiled replay plan: Machine::replay
 *  must be bit-identical to the event-at-a-time reference model on
 *  every counter, for every layout — this is the contract that lets
 *  campaigns run the dense kernel at all. */

#include <algorithm>
#include <functional>
#include <set>

#include <gtest/gtest.h>

#include "core/timing.hh"
#include "layout/heap.hh"
#include "layout/linker.hh"
#include "layout/pagemap.hh"
#include "pinsim/pinsim.hh"
#include "trace/generator.hh"
#include "trace/replay.hh"
#include "workloads/builder.hh"
#include "workloads/spec.hh"

namespace
{

using namespace interf;
using namespace interf::core;
using namespace interf::trace;

struct Workload
{
    Program prog;
    Trace trace;
    ReplayPlan plan;

    explicit Workload(const workloads::WorkloadProfile &profile,
                      u64 insts = 80000)
        : prog(workloads::buildProgram(profile)),
          trace(trace::TraceGenerator(prog, profile.behaviourSeed)
                    .makeTrace(insts)),
          plan(prog, trace)
    {
    }
};

/** The >= 3 profiles the golden sweep covers: a synthetic default plus
 *  two paper benchmarks with distinct branch/memory mixes. */
const std::vector<Workload> &
workloads()
{
    static std::vector<Workload> all = [] {
        std::vector<Workload> w;
        w.emplace_back(workloads::defaultProfile("replay-golden"));
        w.emplace_back(workloads::specFor("445.gobmk").profile);
        w.emplace_back(workloads::specFor("454.calculix").profile);
        return w;
    }();
    return all;
}

layout::CodeLayout
codeFor(const Workload &w, u64 seed)
{
    layout::Linker linker;
    return linker.link(w.prog, layout::LayoutKey{seed, true, true});
}

void
expectSameResult(const RunResult &a, const RunResult &b,
                 const std::string &what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.instructions, b.instructions) << what;
    EXPECT_EQ(a.condBranches, b.condBranches) << what;
    EXPECT_EQ(a.mispredicts, b.mispredicts) << what;
    EXPECT_EQ(a.l1iMisses, b.l1iMisses) << what;
    EXPECT_EQ(a.l1dMisses, b.l1dMisses) << what;
    EXPECT_EQ(a.l2Misses, b.l2Misses) << what;
    EXPECT_EQ(a.l2InstMisses, b.l2InstMisses) << what;
    EXPECT_EQ(a.l2PrefMisses, b.l2PrefMisses) << what;
    EXPECT_EQ(a.l2DataMisses, b.l2DataMisses) << what;
    EXPECT_EQ(a.btbMisses, b.btbMisses) << what;
    EXPECT_EQ(a.rasMispredicts, b.rasMispredicts) << what;
}

/** The golden sweep: >= 3 profiles x 8 layout seeds x identity and
 *  randomized page maps, randomized heap throughout. Every RunResult
 *  field must match the reference model exactly. */
TEST(ReplayGolden, BitIdenticalToReferenceAcrossLayouts)
{
    auto cfg = MachineConfig::xeonE5440();
    for (size_t wi = 0; wi < workloads().size(); ++wi) {
        const Workload &w = workloads()[wi];
        for (u64 seed = 1; seed <= 8; ++seed) {
            auto code = codeFor(w, seed);
            layout::HeapKey hk;
            hk.seed = seed;
            hk.randomize = true;
            layout::HeapLayout heap(w.prog, hk);
            for (bool physical : {false, true}) {
                layout::PageMap pages =
                    physical ? layout::PageMap(seed * 31 + 7)
                             : layout::PageMap();
                std::string what = "workload " + std::to_string(wi) +
                                   " seed " + std::to_string(seed) +
                                   (physical ? " physical" : " identity");
                Machine machine(cfg);
                auto ref = machine.runReference(w.prog, w.trace, code,
                                                heap, pages);
                LayoutTables tables(w.plan, code, heap, pages,
                                    cfg.hierarchy.l1i.lineBytes);
                auto fast = machine.replay(w.plan, tables);
                expectSameResult(ref, fast, what);
            }
        }
    }
}

/** Machine::run is a thin adapter over replay(): identical results. */
TEST(ReplayGolden, RunAdapterMatchesReplay)
{
    auto cfg = MachineConfig::xeonE5440();
    const Workload &w = workloads()[0];
    for (u64 seed : {3u, 11u}) {
        auto code = codeFor(w, seed);
        layout::HeapKey hk;
        hk.seed = seed;
        hk.randomize = true;
        layout::HeapLayout heap(w.prog, hk);
        layout::PageMap pages(seed);
        Machine machine(cfg);
        auto via_run = machine.run(w.prog, w.trace, code, heap, pages);
        LayoutTables tables(w.plan, code, heap, pages,
                            cfg.hierarchy.l1i.lineBytes);
        auto via_replay = machine.replay(w.plan, tables);
        expectSameResult(via_run, via_replay,
                         "seed " + std::to_string(seed));
    }
}

/** The golden contract holds for non-default machine geometry too
 *  (non-power-of-two width exercises the kernel's slow divide path). */
TEST(ReplayGolden, HoldsForOddMachineWidth)
{
    auto cfg = MachineConfig::xeonE5440();
    cfg.width = 3;
    const Workload &w = workloads()[0];
    auto code = codeFor(w, 5);
    layout::HeapKey hk;
    hk.seed = 5;
    hk.randomize = true;
    layout::HeapLayout heap(w.prog, hk);
    Machine machine(cfg);
    auto ref = machine.runReference(w.prog, w.trace, code, heap,
                                    layout::PageMap());
    LayoutTables tables(w.plan, code, heap, layout::PageMap(),
                        cfg.hierarchy.l1i.lineBytes);
    expectSameResult(ref, machine.replay(w.plan, tables), "width 3");
}

/** A plan built twice from the same inputs is identical (the campaign
 *  store may assume plan construction is deterministic). */
TEST(ReplayPlanProperties, ConstructionIsDeterministic)
{
    const Workload &w = workloads()[0];
    ReplayPlan again(w.prog, w.trace);
    EXPECT_EQ(w.plan.site, again.site);
    EXPECT_EQ(w.plan.flags, again.flags);
    EXPECT_EQ(w.plan.memId, again.memId);
    EXPECT_EQ(w.plan.memRank, again.memRank);
    EXPECT_EQ(w.plan.memUniverse, again.memUniverse);
    EXPECT_EQ(w.plan.condSite, again.condSite);
}

TEST(ReplayPlanProperties, EventAndMemoryCountsMatchTrace)
{
    for (const Workload &w : workloads()) {
        EXPECT_EQ(w.plan.eventCount(), w.trace.events.size());
        EXPECT_EQ(w.plan.memCount(), w.trace.memIds.size());
        EXPECT_EQ(w.plan.instCount, w.trace.instCount);
        EXPECT_EQ(w.plan.bytes.size(), w.plan.eventCount());
        EXPECT_EQ(w.plan.nInsts.size(), w.plan.eventCount());
        EXPECT_EQ(w.plan.nMem.size(), w.plan.eventCount());
        EXPECT_EQ(w.plan.flags.size(), w.plan.eventCount());
        EXPECT_EQ(w.plan.memIsStore.size(), w.plan.memCount());
        EXPECT_EQ(w.plan.memRank.size(), w.plan.memCount());
    }
}

/** memRank/memUniverse must reconstruct the memId stream exactly, and
 *  the universe must list each distinct id once, in first-appearance
 *  order (the per-layout decode relies on both). */
TEST(ReplayPlanProperties, MemUniverseReconstructsStream)
{
    for (const Workload &w : workloads()) {
        const ReplayPlan &p = w.plan;
        std::set<u64> seen;
        size_t next_first = 0;
        for (size_t i = 0; i < p.memCount(); ++i) {
            ASSERT_LT(p.memRank[i], p.memUniverse.size());
            EXPECT_EQ(p.memUniverse[p.memRank[i]], p.memId[i]);
            if (seen.insert(p.memId[i]).second) {
                // First appearance: must claim the next universe slot.
                EXPECT_EQ(p.memRank[i], next_first);
                ++next_first;
            }
        }
        EXPECT_EQ(next_first, p.memUniverse.size());
        EXPECT_EQ(seen.size(), p.memUniverse.size());
    }
}

/** Site numbering is a proc-major bijection onto (proc, block). */
TEST(ReplayPlanProperties, SiteTableIsBijective)
{
    for (const Workload &w : workloads()) {
        const ReplayPlan &p = w.plan;
        for (u32 s = 0; s < p.siteCount(); ++s) {
            EXPECT_EQ(p.siteOf(p.siteProc[s], p.siteBlock[s]), s);
            const auto &block = w.prog.block(p.siteProc[s], p.siteBlock[s]);
            EXPECT_EQ(p.siteBytes[s], block.bytes);
        }
    }
}

/** The conditional substream matches the per-event kCond flags. */
TEST(ReplayPlanProperties, CondSubstreamMatchesFlags)
{
    for (const Workload &w : workloads()) {
        const ReplayPlan &p = w.plan;
        size_t cond = 0;
        for (size_t i = 0; i < p.eventCount(); ++i) {
            if (!(p.flags[i] & ReplayPlan::kCond))
                continue;
            ASSERT_LT(cond, p.condSite.size());
            EXPECT_EQ(p.condSite[cond], p.site[i]);
            EXPECT_EQ(p.condTaken[cond] != 0,
                      (p.flags[i] & ReplayPlan::kTaken) != 0);
            ++cond;
        }
        EXPECT_EQ(cond, p.condSite.size());
        EXPECT_EQ(p.condSite.size(), p.condTaken.size());
    }
}

/** LayoutTables must agree with the CodeLayout it was built from. */
TEST(ReplayPlanProperties, LayoutTablesMatchCodeLayout)
{
    const Workload &w = workloads()[1];
    auto code = codeFor(w, 17);
    LayoutTables tables(w.plan, code);
    ASSERT_EQ(tables.siteAddr.size(), w.plan.siteCount());
    ASSERT_EQ(tables.branchAddr.size(), w.plan.siteCount());
    EXPECT_FALSE(tables.hasData());
    for (u32 s = 0; s < w.plan.siteCount(); ++s) {
        EXPECT_EQ(tables.siteAddr[s],
                  code.blockAddr(w.plan.siteProc[s], w.plan.siteBlock[s]));
        EXPECT_EQ(tables.branchAddr[s],
                  code.branchAddr(w.plan.siteProc[s], w.plan.siteBlock[s]));
    }
}

/** Rebuild @p t's fetch-line table from its (edited) siteAddr, as the
 *  LayoutTables constructor builds it for a layout's addresses. */
void
rebuildLineTable(const ReplayPlan &plan, LayoutTables &t)
{
    const u32 line = t.fetchLineBytes();
    const Addr mask = ~static_cast<Addr>(line - 1);
    t.siteLineStart.assign(plan.siteCount() + 1, 0);
    t.linePhys.clear();
    for (u32 s = 0; s < plan.siteCount(); ++s) {
        t.siteLineStart[s] = static_cast<u32>(t.linePhys.size());
        const Addr last = (t.siteAddr[s] + plan.siteBytes[s] - 1) & mask;
        for (Addr l = t.siteAddr[s] & mask; l <= last; l += line)
            t.linePhys.push_back(t.pages().translate(l));
    }
    t.siteLineStart[plan.siteCount()] =
        static_cast<u32>(t.linePhys.size());
}

/** visibleSites is every site whose addresses the replay kernel reads:
 *  junk at every other site leaves every counter unchanged, with and
 *  without a page map (and its per-site fetch-line table). */
TEST(ReplayPlanProperties, VisibleSitesCoverEveryKernelRead)
{
    auto cfg = MachineConfig::xeonE5440();
    for (size_t wi = 0; wi < workloads().size(); ++wi) {
        const Workload &w = workloads()[wi];
        const auto &visible = w.plan.visibleSites;
        ASSERT_TRUE(std::adjacent_find(visible.begin(), visible.end(),
                                       std::greater_equal<u32>()) ==
                    visible.end())
            << "visibleSites must be strictly ascending";
        std::vector<u8> is_visible(w.plan.siteCount(), 0);
        for (u32 s : visible)
            is_visible[s] = 1;
        for (u32 s : w.plan.site)
            ASSERT_TRUE(is_visible[s]) << "executed site " << s;
        // Otherwise there is nothing to overwrite.
        ASSERT_LT(visible.size(), w.plan.siteCount());

        auto code = codeFor(w, 9);
        layout::HeapKey hk;
        hk.seed = 9;
        hk.randomize = true;
        layout::HeapLayout heap(w.prog, hk);
        for (bool physical : {false, true}) {
            const std::string what = "workload " + std::to_string(wi) +
                                     (physical ? " physical" : " identity");
            layout::PageMap pages =
                physical ? layout::PageMap(41) : layout::PageMap();
            LayoutTables tables(w.plan, code, heap, pages,
                                cfg.hierarchy.l1i.lineBytes);
            Machine machine(cfg);
            const RunResult ref = machine.replay(w.plan, tables);

            LayoutTables junk = tables;
            for (u32 s = 0; s < w.plan.siteCount(); ++s) {
                if (is_visible[s])
                    continue;
                // Distinct, line-unaligned, far from the real text.
                junk.siteAddr[s] = 0xC0000000 + Addr{s} * 0x9e3 + 5;
                junk.branchAddr[s] = junk.siteAddr[s] + 3;
            }
            if (physical) {
                ASSERT_FALSE(tables.linePhys.empty()) << what;
                rebuildLineTable(w.plan, junk);
                ASSERT_NE(junk.linePhys, tables.linePhys) << what;
            }
            expectSameResult(ref, machine.replay(w.plan, junk), what);
        }
    }
}

/** PinSim's plan replay must match its Program-walking run() exactly,
 *  predictor by predictor. */
TEST(ReplayGolden, PinSimReplayMatchesRun)
{
    const std::vector<std::string> specs = {"bimodal:1024", "gshare:4096:10",
                                            "hybrid:2048:8:512:512"};
    const Workload &w = workloads()[0];
    for (u64 seed : {2u, 9u}) {
        auto code = codeFor(w, seed);
        pinsim::PinSim a(specs);
        auto slow = a.run(w.prog, w.trace, code);
        pinsim::PinSim b(specs);
        LayoutTables tables(w.plan, code);
        auto fast = b.replay(w.plan, tables);
        ASSERT_EQ(slow.size(), fast.size());
        for (size_t i = 0; i < slow.size(); ++i) {
            EXPECT_EQ(slow[i].name, fast[i].name);
            EXPECT_EQ(slow[i].branches, fast[i].branches);
            EXPECT_EQ(slow[i].mispredicts, fast[i].mispredicts);
            EXPECT_EQ(slow[i].instructions, fast[i].instructions);
        }
    }
}

} // anonymous namespace
