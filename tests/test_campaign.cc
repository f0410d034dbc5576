/** @file Tests for interferometry campaigns (layout sweeps +
 *  escalation + artifact-store checkpoint/resume). */

#include <filesystem>

#include <gtest/gtest.h>

#include "interferometry/campaign.hh"
#include "telemetry/metrics.hh"
#include "telemetry/telemetry.hh"
#include "workloads/spec.hh"

namespace
{

using namespace interf;
using namespace interf::interferometry;

CampaignConfig
quickConfig(u32 layouts = 8)
{
    CampaignConfig cfg;
    cfg.instructionBudget = 60000;
    cfg.initialLayouts = layouts;
    cfg.maxLayouts = layouts;
    return cfg;
}

TEST(Campaign, MeasuresRequestedLayouts)
{
    Campaign camp(workloads::defaultProfile("camp"), quickConfig());
    auto samples = camp.measureLayouts(0, 5);
    EXPECT_EQ(samples.size(), 5u);
    for (const auto &m : samples) {
        EXPECT_GT(m.cpi, 0.0);
        EXPECT_GT(m.instructions, 0u);
    }
}

TEST(Campaign, LayoutSeedsDistinct)
{
    Campaign camp(workloads::defaultProfile("camp"), quickConfig());
    auto samples = camp.measureLayouts(0, 4);
    for (size_t i = 1; i < samples.size(); ++i)
        EXPECT_NE(samples[i].layoutSeed, samples[0].layoutSeed);
}

TEST(Campaign, InstructionCountInvariantAcrossLayouts)
{
    Campaign camp(workloads::defaultProfile("camp"), quickConfig());
    auto samples = camp.measureLayouts(0, 6);
    for (const auto &m : samples)
        EXPECT_EQ(m.instructions, samples[0].instructions);
}

TEST(Campaign, Reproducible)
{
    auto profile = workloads::defaultProfile("camp");
    Campaign a(profile, quickConfig());
    Campaign b(profile, quickConfig());
    auto sa = a.measureLayouts(0, 3);
    auto sb = b.measureLayouts(0, 3);
    for (size_t i = 0; i < sa.size(); ++i) {
        EXPECT_EQ(sa[i].cycles, sb[i].cycles);
        EXPECT_EQ(sa[i].mispredicts, sb[i].mispredicts);
    }
}

TEST(Campaign, CodeLayoutsDifferPerIndex)
{
    Campaign camp(workloads::defaultProfile("camp"), quickConfig());
    auto a = camp.codeLayoutFor(0);
    auto b = camp.codeLayoutFor(1);
    EXPECT_NE(a.procOrder(), b.procOrder());
}

TEST(Campaign, HeapModeFollowsConfig)
{
    auto profile = workloads::defaultProfile("camp");
    auto cfg = quickConfig();
    cfg.randomizeHeap = false;
    Campaign fixed(profile, cfg);
    // Deterministic heap: all layout indices share data placement.
    auto h0 = fixed.heapLayoutFor(0);
    auto h1 = fixed.heapLayoutFor(1);
    for (const auto &region : fixed.program().regions())
        EXPECT_EQ(h0.regionBase(region.id), h1.regionBase(region.id));

    cfg.randomizeHeap = true;
    Campaign randomized(profile, cfg);
    auto r0 = randomized.heapLayoutFor(0);
    auto r1 = randomized.heapLayoutFor(1);
    int moved = 0;
    for (const auto &region : randomized.program().regions())
        if (region.kind == trace::RegionKind::Heap)
            moved += r0.regionBase(region.id) != r1.regionBase(region.id);
    EXPECT_GT(moved, 0);
}

TEST(Campaign, RunStopsEarlyWhenSignificant)
{
    // A strongly layout-sensitive benchmark should pass in the first
    // batch and never escalate.
    auto spec = workloads::specFor("445.gobmk");
    CampaignConfig cfg;
    cfg.instructionBudget = 150000;
    cfg.initialLayouts = 20;
    cfg.escalationStep = 20;
    cfg.maxLayouts = 60;
    Campaign camp(spec.profile, cfg);
    auto res = camp.run();
    EXPECT_TRUE(res.significant);
    EXPECT_EQ(res.layoutsUsed, 20u);
    EXPECT_EQ(res.samples.size(), 20u);
}

TEST(Campaign, RunEscalatesAndGivesUpOnFlatBenchmark)
{
    // lbm-like: no MPKI range at all -> escalate to the cap and fail.
    auto spec = workloads::specFor("470.lbm");
    CampaignConfig cfg;
    cfg.instructionBudget = 60000;
    cfg.initialLayouts = 6;
    cfg.escalationStep = 6;
    cfg.maxLayouts = 18;
    Campaign camp(spec.profile, cfg);
    auto res = camp.run();
    EXPECT_FALSE(res.significant);
    EXPECT_FALSE(res.enoughMpkiRange);
    EXPECT_EQ(res.layoutsUsed, 18u);
    EXPECT_EQ(res.samples.size(), 18u);
}

TEST(Campaign, NoDataDiscardedOnEscalation)
{
    // "We do not discard any data": escalation appends, keeping the
    // earlier batches' samples (same seeds as a direct big batch).
    auto profile = workloads::defaultProfile("camp");
    CampaignConfig small = quickConfig(4);
    Campaign direct(profile, quickConfig(8));
    Campaign stepwise(profile, small);
    auto all = direct.measureLayouts(0, 8);
    auto first = stepwise.measureLayouts(0, 4);
    auto second = stepwise.measureLayouts(4, 4);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(all[i].cycles, first[i].cycles);
        EXPECT_EQ(all[4 + i].cycles, second[i].cycles);
    }
}

void
expectSamplesIdentical(const std::vector<core::Measurement> &a,
                       const std::vector<core::Measurement> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].layoutSeed, b[i].layoutSeed) << "sample " << i;
        EXPECT_EQ(a[i].cycles, b[i].cycles) << "sample " << i;
        EXPECT_EQ(a[i].instructions, b[i].instructions) << "sample " << i;
        EXPECT_EQ(a[i].condBranches, b[i].condBranches) << "sample " << i;
        EXPECT_EQ(a[i].mispredicts, b[i].mispredicts) << "sample " << i;
        EXPECT_EQ(a[i].l1iMisses, b[i].l1iMisses) << "sample " << i;
        EXPECT_EQ(a[i].l1dMisses, b[i].l1dMisses) << "sample " << i;
        EXPECT_EQ(a[i].l2Misses, b[i].l2Misses) << "sample " << i;
        EXPECT_EQ(a[i].btbMisses, b[i].btbMisses) << "sample " << i;
        // Doubles compared with ==: the parallel path must be
        // bit-identical, not merely close.
        EXPECT_EQ(a[i].cpi, b[i].cpi) << "sample " << i;
        EXPECT_EQ(a[i].mpki, b[i].mpki) << "sample " << i;
        EXPECT_EQ(a[i].l1iMpki, b[i].l1iMpki) << "sample " << i;
        EXPECT_EQ(a[i].l1dMpki, b[i].l1dMpki) << "sample " << i;
        EXPECT_EQ(a[i].l2Mpki, b[i].l2Mpki) << "sample " << i;
        EXPECT_EQ(a[i].btbMpki, b[i].btbMpki) << "sample " << i;
    }
}

TEST(Campaign, ParallelMatchesSerialBitForBit)
{
    // The determinism regression the executor guarantees: jobs=1 and
    // jobs=8 produce seed-for-seed identical samples on all counters.
    auto profile = workloads::defaultProfile("camp");
    auto serial_cfg = quickConfig(12);
    serial_cfg.jobs = 1;
    auto parallel_cfg = quickConfig(12);
    parallel_cfg.jobs = 8;
    Campaign serial(profile, serial_cfg);
    Campaign parallel(profile, parallel_cfg);
    expectSamplesIdentical(serial.measureLayouts(0, 12),
                           parallel.measureLayouts(0, 12));
}

TEST(Campaign, ParallelMatchesSerialWithHeapAndPages)
{
    // Same guarantee with every per-layout degree of freedom enabled
    // (randomized heap + physical page maps).
    auto profile = workloads::defaultProfile("camp");
    auto cfg = quickConfig(10);
    cfg.randomizeHeap = true;
    cfg.physicalPages = true;
    auto serial_cfg = cfg;
    serial_cfg.jobs = 1;
    auto parallel_cfg = cfg;
    parallel_cfg.jobs = 8;
    Campaign serial(profile, serial_cfg);
    Campaign parallel(profile, parallel_cfg);
    expectSamplesIdentical(serial.measureLayouts(0, 10),
                           parallel.measureLayouts(0, 10));
}

TEST(Campaign, RaggedChunksProduceIdenticalSamplesAtAnyJobs)
{
    // Any worker count yields seed-for-seed byte-identical samples,
    // including counts whose chunks split the 13-layout range
    // raggedly.
    auto profile = workloads::defaultProfile("camp");
    auto base_cfg = quickConfig(13);
    base_cfg.randomizeHeap = true;
    base_cfg.physicalPages = true;
    base_cfg.jobs = 1;
    Campaign baseline(profile, base_cfg);
    auto expected = baseline.measureLayouts(0, 13);
    for (u32 jobs : {3u, 4u}) {
        auto cfg = base_cfg;
        cfg.jobs = jobs;
        Campaign camp(profile, cfg);
        expectSamplesIdentical(expected, camp.measureLayouts(0, 13));
    }
}

TEST(Campaign, RunEscalatesIdenticallyUnderParallelism)
{
    // The full escalation loop (which reuses the pool across batches)
    // reaches the same verdict and samples at any worker count.
    auto spec = workloads::specFor("470.lbm");
    CampaignConfig cfg;
    cfg.instructionBudget = 60000;
    cfg.initialLayouts = 6;
    cfg.escalationStep = 6;
    cfg.maxLayouts = 18;
    auto serial_cfg = cfg;
    serial_cfg.jobs = 1;
    auto parallel_cfg = cfg;
    parallel_cfg.jobs = 8;
    Campaign serial(spec.profile, serial_cfg);
    Campaign parallel(spec.profile, parallel_cfg);
    auto ra = serial.run();
    auto rb = parallel.run();
    EXPECT_EQ(ra.significant, rb.significant);
    EXPECT_EQ(ra.enoughMpkiRange, rb.enoughMpkiRange);
    EXPECT_EQ(ra.layoutsUsed, rb.layoutsUsed);
    EXPECT_GT(rb.layoutsUsed, cfg.initialLayouts); // escalation happened
    expectSamplesIdentical(ra.samples, rb.samples);
}

/** Scratch artifact-store root, removed on destruction. */
struct TempStore
{
    std::string path;

    TempStore()
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        path = ::testing::TempDir() + "interf_campaign_store_" +
               std::string(info->name());
        std::filesystem::remove_all(path);
    }

    ~TempStore() { std::filesystem::remove_all(path); }
};

/** The escalating configuration used by the store tests: a flat
 *  benchmark that always runs 3 batches of 6 layouts. */
CampaignConfig
escalatingConfig(const std::string &store_dir, u32 jobs)
{
    CampaignConfig cfg;
    cfg.instructionBudget = 60000;
    cfg.initialLayouts = 6;
    cfg.escalationStep = 6;
    cfg.maxLayouts = 18;
    cfg.storeDir = store_dir;
    cfg.jobs = jobs;
    return cfg;
}

class CampaignStoreTest : public ::testing::TestWithParam<u32>
{
};

TEST_P(CampaignStoreTest, RepeatRunIsAPureCacheHit)
{
    const u32 jobs = GetParam();
    auto spec = workloads::specFor("470.lbm");
    TempStore store;

    Campaign cold(spec.profile, escalatingConfig(store.path, jobs));
    auto cold_res = cold.run();
    EXPECT_EQ(cold_res.measuredLayouts, 18u);
    EXPECT_EQ(cold_res.cachedLayouts, 0u);

    // A fresh campaign over the same configuration performs zero new
    // measurements and returns byte-identical samples — even at a
    // different worker count, since jobs is not part of the store key.
    for (u32 warm_jobs : {1u, 4u}) {
        Campaign warm(spec.profile,
                      escalatingConfig(store.path, warm_jobs));
        auto warm_res = warm.run();
        EXPECT_EQ(warm_res.measuredLayouts, 0u) << warm_jobs;
        EXPECT_EQ(warm_res.cachedLayouts, 18u) << warm_jobs;
        EXPECT_EQ(warm_res.significant, cold_res.significant);
        EXPECT_EQ(warm_res.enoughMpkiRange, cold_res.enoughMpkiRange);
        EXPECT_EQ(warm_res.layoutsUsed, cold_res.layoutsUsed);
        expectSamplesIdentical(warm_res.samples, cold_res.samples);
    }
}

TEST_P(CampaignStoreTest, InterruptedCampaignResumes)
{
    const u32 jobs = GetParam();
    auto spec = workloads::specFor("470.lbm");

    // The reference: a storeless cold run of the full escalation.
    Campaign reference(spec.profile, escalatingConfig("", jobs));
    auto ref = reference.run();
    ASSERT_EQ(ref.samples.size(), 18u);

    // The "killed" campaign persisted 7 layouts — one full batch plus
    // one layout of the second — before dying.
    TempStore store;
    {
        Campaign partial(spec.profile,
                         escalatingConfig(store.path, jobs));
        partial.measureLayouts(0, 7);
    }

    // Resume: the completed prefix is loaded, only the remaining 11
    // layouts are measured, and the samples match the uninterrupted
    // run byte for byte.
    Campaign resumed(spec.profile, escalatingConfig(store.path, jobs));
    auto res = resumed.run();
    EXPECT_EQ(res.cachedLayouts, 7u);
    EXPECT_EQ(res.measuredLayouts, 11u);
    EXPECT_EQ(res.significant, ref.significant);
    EXPECT_EQ(res.layoutsUsed, ref.layoutsUsed);
    expectSamplesIdentical(res.samples, ref.samples);
}

TEST_P(CampaignStoreTest, MeasureLayoutsServedFromStore)
{
    // The benches' path: measureLayouts directly, no escalation loop.
    const u32 jobs = GetParam();
    auto profile = workloads::defaultProfile("camp");
    auto cfg = quickConfig(8);
    cfg.jobs = jobs;
    TempStore store;
    cfg.storeDir = store.path;

    Campaign cold(profile, cfg);
    auto a = cold.measureLayouts(0, 8);
    EXPECT_EQ(cold.measuredLayouts(), 8u);

    Campaign warm(profile, cfg);
    auto b = warm.measureLayouts(0, 8);
    EXPECT_EQ(warm.measuredLayouts(), 0u);
    EXPECT_EQ(warm.cachedLayouts(), 8u);
    expectSamplesIdentical(a, b);
}

INSTANTIATE_TEST_SUITE_P(JobsSerialAndParallel, CampaignStoreTest,
                         ::testing::Values(1u, 4u));

TEST(CampaignStore, DistinctConfigsDoNotShareSamples)
{
    // Changing any key field (here the instruction budget) must miss
    // the cache rather than serve another campaign's samples.
    auto profile = workloads::defaultProfile("camp");
    TempStore store;
    auto cfg = quickConfig(4);
    cfg.storeDir = store.path;
    Campaign first(profile, cfg);
    first.measureLayouts(0, 4);

    auto other_cfg = cfg;
    other_cfg.instructionBudget += 10000;
    Campaign second(profile, other_cfg);
    second.measureLayouts(0, 4);
    EXPECT_EQ(second.measuredLayouts(), 4u);
    EXPECT_EQ(second.cachedLayouts(), 0u);
}

TEST(CampaignStore, GapBeyondStoreIsMeasuredNotPersisted)
{
    // Jumping past the persisted prefix still measures correctly; the
    // store only ever grows by contiguous batches.
    auto profile = workloads::defaultProfile("camp");
    TempStore store;
    auto cfg = quickConfig(12);
    cfg.storeDir = store.path;

    Campaign camp(profile, cfg);
    auto tail = camp.measureLayouts(6, 3); // gap: nothing persisted yet
    EXPECT_EQ(camp.measuredLayouts(), 3u);

    Campaign again(profile, cfg);
    auto tail2 = again.measureLayouts(6, 3);
    EXPECT_EQ(again.cachedLayouts(), 0u); // nothing was persisted
    expectSamplesIdentical(tail, tail2);

    // Contiguous prefix appends still work afterwards.
    auto head = again.measureLayouts(0, 6);
    Campaign third(profile, cfg);
    auto head2 = third.measureLayouts(0, 6);
    EXPECT_EQ(third.cachedLayouts(), 6u);
    EXPECT_EQ(third.measuredLayouts(), 0u);
    expectSamplesIdentical(head, head2);
}

TEST(CampaignStore, PartiallyCachedRunBuildsTablesOnlyForUnmeasured)
{
    // Layout tables are expensive to build; a partially-cached run must
    // derive them only for the layouts it actually replays, never for
    // the layouts served from the store. Proven via the
    // layout.tables_built counter, which measureOne increments.
    auto profile = workloads::defaultProfile("camp");
    TempStore store;
    auto cfg = quickConfig(8);
    cfg.storeDir = store.path;

    // Cold prefix: persist layouts [0, 5) with telemetry off.
    {
        Campaign cold(profile, cfg);
        cold.measureLayouts(0, 5);
    }

    telemetry::resetForTest();
    telemetry::enable();
    {
        Campaign warm(profile, cfg);
        auto samples = warm.measureLayouts(0, 8);
        EXPECT_EQ(samples.size(), 8u);
        EXPECT_EQ(warm.cachedLayouts(), 5u);
        EXPECT_EQ(warm.measuredLayouts(), 3u);
    }
    u64 built = 0;
    for (const auto &c :
         telemetry::Registry::global().snapshot().counters)
        if (c.name == "layout.tables_built")
            built = c.value;
    telemetry::disable();
    telemetry::resetForTest();
    EXPECT_EQ(built, 3u);
}

TEST(CampaignDeathTest, RefusesUnsoundMachine)
{
    // 64 BTB ways overflow the u8 per-set ages and the u32 way mask.
    CampaignConfig cfg = quickConfig();
    cfg.machine.btbWays = 64;
    EXPECT_EXIT(Campaign(workloads::defaultProfile("unsound"), cfg),
                ::testing::ExitedWithCode(1),
                "btb: associativity 64 exceeds 32");
}

TEST(Campaign, TraceSharedAcrossLayouts)
{
    Campaign camp(workloads::defaultProfile("camp"), quickConfig());
    const auto &trace = camp.trace();
    EXPECT_GT(trace.instCount, 0u);
    // The trace is generated once; its address-free events never change
    // between measureLayouts calls.
    auto before = trace.events.size();
    camp.measureLayouts(0, 2);
    EXPECT_EQ(camp.trace().events.size(), before);
}

} // anonymous namespace
