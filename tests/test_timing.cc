/** @file Tests for the machine timing model — the properties program
 *  interferometry depends on. */

#include <algorithm>

#include <gtest/gtest.h>

#include "core/timing.hh"
#include "layout/heap.hh"
#include "layout/linker.hh"
#include "trace/generator.hh"
#include "workloads/builder.hh"
#include "workloads/spec.hh"

namespace
{

using namespace interf;
using namespace interf::core;

struct Bench
{
    trace::Program prog;
    trace::Trace trace;

    explicit Bench(const workloads::WorkloadProfile &profile,
                   u64 insts = 120000)
        : prog(workloads::buildProgram(profile)),
          trace(trace::TraceGenerator(prog, profile.behaviourSeed)
                    .makeTrace(insts))
    {
    }

    RunResult
    run(const MachineConfig &cfg, u64 layout_seed = 1,
        bool random_heap = false) const
    {
        layout::Linker linker;
        auto code = linker.link(prog, layout::LayoutKey{layout_seed,
                                                        true, true});
        layout::HeapKey hk;
        hk.seed = layout_seed;
        hk.randomize = random_heap;
        layout::HeapLayout heap(prog, hk);
        Machine machine(cfg);
        return machine.run(prog, trace, code, heap);
    }
};

const Bench &
testBench()
{
    static Bench bench(workloads::defaultProfile("timing"));
    return bench;
}

TEST(Timing, DeterministicRuns)
{
    auto cfg = MachineConfig::xeonE5440();
    auto a = testBench().run(cfg, 7);
    auto b = testBench().run(cfg, 7);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_EQ(a.l1iMisses, b.l1iMisses);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
}

TEST(Timing, MachineReusableAcrossRuns)
{
    auto cfg = MachineConfig::xeonE5440();
    Machine machine(cfg);
    layout::Linker linker;
    auto code = linker.link(testBench().prog,
                            layout::LayoutKey{3, true, true});
    layout::HeapLayout heap(testBench().prog,
                            layout::HeapKey::deterministic());
    auto a = machine.run(testBench().prog, testBench().trace, code, heap);
    auto b = machine.run(testBench().prog, testBench().trace, code, heap);
    EXPECT_EQ(a.cycles, b.cycles) << "state must reset between runs";
}

TEST(Timing, InstructionCountLayoutInvariant)
{
    auto cfg = MachineConfig::xeonE5440();
    auto a = testBench().run(cfg, 1);
    auto b = testBench().run(cfg, 2);
    // The Camino invariant: every layout retires identical work.
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.condBranches, b.condBranches);
}

TEST(Timing, CyclesVaryAcrossLayouts)
{
    auto cfg = MachineConfig::xeonE5440();
    auto a = testBench().run(cfg, 1);
    auto b = testBench().run(cfg, 2);
    EXPECT_NE(a.cycles, b.cycles);
}

TEST(Timing, CpiBoundedBelowByWidth)
{
    auto cfg = MachineConfig::xeonE5440();
    auto res = testBench().run(cfg);
    EXPECT_GE(res.cpi(), 1.0 / cfg.width);
    EXPECT_LT(res.cpi(), 20.0);
}

TEST(Timing, PerfectPredictorRemovesAllMispredicts)
{
    auto cfg = MachineConfig::xeonE5440().withPredictor("perfect");
    auto res = testBench().run(cfg);
    EXPECT_EQ(res.mispredicts, 0u);
    EXPECT_DOUBLE_EQ(res.mpki(), 0.0);
}

TEST(Timing, PerfectPredictionIsFaster)
{
    auto base = MachineConfig::xeonE5440();
    auto real = testBench().run(base);
    auto perfect =
        testBench().run(base.withPredictor("perfect"));
    EXPECT_LT(perfect.cycles, real.cycles);
    EXPECT_GT(real.mispredicts, 0u);
}

TEST(Timing, BetterPredictorFewerMispredictsFasterRun)
{
    auto base = MachineConfig::xeonE5440();
    auto weak = testBench().run(base.withPredictor("bimodal:256"));
    auto strong = testBench().run(base.withPredictor("ltage"));
    EXPECT_LT(strong.mispredicts, weak.mispredicts);
    EXPECT_LT(strong.cycles, weak.cycles);
}

TEST(Timing, PredictorIsTheOnlyCounterThatChanges)
{
    // Varying only the predictor must leave cache and BTB counts
    // untouched (the MASE single-variable property, Section 3.2).
    auto base = MachineConfig::xeonE5440();
    auto a = testBench().run(base.withPredictor("bimodal:1024"));
    auto b = testBench().run(base.withPredictor("ltage"));
    EXPECT_EQ(a.l1iMisses, b.l1iMisses);
    EXPECT_EQ(a.l1dMisses, b.l1dMisses);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.btbMisses, b.btbMisses);
    EXPECT_EQ(a.instructions, b.instructions);
}

TEST(Timing, MispredictPenaltyScalesWithDepth)
{
    auto shallow = MachineConfig::xeonE5440();
    shallow.frontendDepth = 5;
    auto deep = MachineConfig::xeonE5440();
    deep.frontendDepth = 40;
    auto a = testBench().run(shallow);
    auto b = testBench().run(deep);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_LT(a.cycles, b.cycles);
    // Cycle delta ~ mispredicts * depth delta (within 50% slack from
    // other redirect costs).
    double delta = double(b.cycles - a.cycles);
    double expect = double(a.mispredicts) * 35.0;
    EXPECT_GT(delta, expect * 0.5);
    EXPECT_LT(delta, expect * 1.5);
}

TEST(Timing, MemoryLatencyMatters)
{
    auto profile = workloads::defaultProfile("memtest");
    profile.fracMem = 0.1;
    profile.fracL1 = 0.8;
    profile.fracL2 = 0.1;
    profile.memWorkingSet = 32 << 20;
    Bench bench(profile);
    auto fast = MachineConfig::xeonE5440();
    fast.memLatency = 60;
    auto slow = MachineConfig::xeonE5440();
    slow.memLatency = 400;
    EXPECT_LT(bench.run(fast).cycles, bench.run(slow).cycles);
}

TEST(Timing, MlpOverlapReducesMemoryCost)
{
    auto profile = workloads::defaultProfile("mlptest");
    profile.fracMem = 0.15;
    profile.fracL1 = 0.75;
    profile.fracL2 = 0.1;
    profile.memWorkingSet = 32 << 20;
    Bench bench(profile);
    auto serial = MachineConfig::xeonE5440();
    serial.maxMlp = 1;
    auto parallel = MachineConfig::xeonE5440();
    parallel.maxMlp = 8;
    auto a = bench.run(serial);
    auto b = bench.run(parallel);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_GT(a.cycles, b.cycles);
}

TEST(Timing, WarmupExcludesColdStart)
{
    auto no_warm = MachineConfig::xeonE5440();
    no_warm.warmupFraction = 0.0;
    auto warm = MachineConfig::xeonE5440();
    warm.warmupFraction = 0.5;
    auto a = testBench().run(no_warm);
    auto b = testBench().run(warm);
    EXPECT_GT(a.instructions, b.instructions);
    // Cold-start misses make the unwarmed CPI higher.
    EXPECT_GT(a.perKilo(a.l2Misses), b.perKilo(b.l2Misses));
}

TEST(Timing, HeapRandomizationPerturbsDataCaches)
{
    // Figure 3's mechanism: with randomize=true, different heap seeds
    // give different L1D/L2 miss counts for the same code layout.
    auto spec = workloads::specFor("454.calculix");
    Bench bench(spec.profile);
    layout::Linker linker;
    auto code = linker.link(bench.prog, layout::LayoutKey{1, true, true});
    Machine machine(MachineConfig::xeonE5440());
    layout::HeapKey h1, h2;
    h1.seed = 1;
    h2.seed = 2;
    auto a = machine.run(bench.prog, bench.trace, code,
                         layout::HeapLayout(bench.prog, h1));
    auto b = machine.run(bench.prog, bench.trace, code,
                         layout::HeapLayout(bench.prog, h2));
    EXPECT_NE(a.l1dMisses, b.l1dMisses);
    // Branch behaviour is untouched by data placement.
    EXPECT_EQ(a.mispredicts, b.mispredicts);
}

TEST(Timing, L2BreakdownSumsToTotal)
{
    auto res = testBench().run(MachineConfig::xeonE5440());
    EXPECT_EQ(res.l2Misses,
              res.l2InstMisses + res.l2PrefMisses + res.l2DataMisses);
}

TEST(Timing, RunResultHelpers)
{
    RunResult r;
    r.cycles = 2000;
    r.instructions = 1000;
    r.mispredicts = 5;
    EXPECT_DOUBLE_EQ(r.cpi(), 2.0);
    EXPECT_DOUBLE_EQ(r.mpki(), 5.0);
    EXPECT_DOUBLE_EQ(r.perKilo(20), 20.0);
}

TEST(TimingDeathTest, InvalidConfigIsFatal)
{
    auto cfg = MachineConfig::xeonE5440();
    cfg.width = 0;
    EXPECT_EXIT(Machine{cfg}, ::testing::ExitedWithCode(1), "width");
}

/** A hand-built plan whose events span @p fetch_lines L1I lines under
 *  the bytes / line + 1 bound, in blocks of at most 2^26 lines (the
 *  widest a u32 byte count allows), plus @p mem data accesses. */
trace::ReplayPlan
clockPlan(u64 fetch_lines, size_t mem)
{
    const u32 line = MachineConfig::xeonE5440().hierarchy.l1i.lineBytes;
    trace::ReplayPlan plan;
    while (fetch_lines > 0) {
        const u64 lines = std::min(fetch_lines, u64{1} << 26);
        plan.bytes.push_back(static_cast<u32>(line * (lines - 1)));
        fetch_lines -= lines;
    }
    plan.memId.assign(mem, 0);
    return plan;
}

TEST(LruClockBoundDeathTest, StampWrapSeam)
{
    // 2^31 - 1 fetch lines bound the L1I at 2^32 - 2, and each data
    // access lifts the L2's bound (2 * fetchLines + memCount) by one.
    const auto machine = MachineConfig::xeonE5440();
    const u64 lines = (u64{1} << 31) - 1;

    // One below the wrap is safe.
    requireLruClockBound(machine, clockPlan(lines, 1));
    // At the wrap, only the L2 trips.
    EXPECT_EXIT(requireLruClockBound(machine, clockPlan(lines, 2)),
                ::testing::ExitedWithCode(1),
                "the L2 u32 LRU stamp clock 4294967296 times");

    // Random-replacement caches keep no stamps: any advance is fine.
    auto random = machine;
    random.hierarchy.l1i.replacement = cache::Replacement::Random;
    random.hierarchy.l2.replacement = cache::Replacement::Random;
    requireLruClockBound(random, clockPlan(lines, 2));
    requireLruClockBound(random, clockPlan(u64{1} << 32, 2));
}

// The two plan-bound tests below keep the names they had when the
// stamp-clock bound was a pass of the static soundness analyzer.

TEST(Analyze, PlanWithWrappingAdvanceBoundRejected)
{
    // 70 events of ~4 GiB of code each bound ~4.7e9 fetch lines: the
    // L1I, checked first, overflows its clock within one replay.
    const auto machine = MachineConfig::xeonE5440();
    trace::ReplayPlan huge;
    huge.bytes.assign(70, 0xfff00000u);
    EXPECT_EXIT(requireLruClockBound(machine, huge),
                ::testing::ExitedWithCode(1),
                "the L1I u32 LRU stamp clock [0-9]+ times");

    // A block's partial tail line counts: 32 blocks of 2^26 - 1 full
    // lines plus line - 1 bytes bound 2^31 fetch lines, taking the L1I
    // to exactly 2^32 with no data access at all.
    const u32 line = machine.hierarchy.l1i.lineBytes;
    trace::ReplayPlan plan;
    plan.bytes.assign(32, line * ((u32{1} << 26) - 1) + (line - 1));
    EXPECT_EXIT(requireLruClockBound(machine, plan),
                ::testing::ExitedWithCode(1),
                "the L1I u32 LRU stamp clock 4294967296 times");
}

TEST(Analyze, AdvanceBoundsFollowPlanCounts)
{
    // Pad a compiled plan's code up to one below the L2's wrap, then
    // reach the wrap with data accesses alone. The seam lands exactly
    // only if the bound counts bytes / line + 1 lines per event and
    // one advance per data access of the plan.
    const Bench bench(workloads::specFor("429.mcf").profile, 20000);
    const trace::ReplayPlan compiled(bench.prog, bench.trace);
    const auto machine = MachineConfig::xeonE5440();
    const u32 line = machine.hierarchy.l1i.lineBytes;

    u64 fetch = 0;
    for (u32 b : compiled.bytes)
        fetch += b / line + 1;
    const u64 mem = compiled.memCount();
    ASSERT_GT(fetch, 0u);
    ASSERT_GT(mem, 0u);

    const u64 wrap = u64{1} << 32;
    const u64 pad = (wrap - 1 - mem) / 2 - fetch;
    trace::ReplayPlan plan = compiled;
    const auto padding = clockPlan(pad, 0).bytes;
    plan.bytes.insert(plan.bytes.end(), padding.begin(), padding.end());
    const u64 l2 = 2 * (fetch + pad) + mem;
    ASSERT_TRUE(l2 == wrap - 1 || l2 == wrap - 2);
    requireLruClockBound(machine, plan);

    plan.memId.resize(plan.memId.size() + (wrap - l2), 0);
    EXPECT_EXIT(requireLruClockBound(machine, plan),
                ::testing::ExitedWithCode(1),
                "the L2 u32 LRU stamp clock 4294967296 times");
}

} // anonymous namespace
