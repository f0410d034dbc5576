/** @file Tests for the campaign artifact store: serialization
 *  round-trips, the corruption matrix (every damaged artifact must
 *  fail closed), and store-key derivation properties. */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "store/serialize.hh"
#include "store/store.hh"
#include "trace/io.hh"
#include "util/digest.hh"
#include "workloads/builder.hh"

namespace
{

namespace fs = std::filesystem;
using namespace interf;
using namespace interf::store;

/** A fully-populated synthetic sample (no field left default). */
core::Measurement
sampleAt(u64 seed)
{
    core::Measurement m;
    m.layoutSeed = 1000 + seed;
    m.cpi = 0.5 + 0.001 * static_cast<double>(seed);
    m.mpki = 8.0 + 0.01 * static_cast<double>(seed);
    m.l1iMpki = 1.0 + 0.1 * static_cast<double>(seed);
    m.l1dMpki = 2.0 + 0.1 * static_cast<double>(seed);
    m.l2Mpki = 0.25 + 0.01 * static_cast<double>(seed);
    m.btbMpki = 3.5 + 0.1 * static_cast<double>(seed);
    m.cycles = 100000 + seed;
    m.instructions = 60000 + seed;
    m.condBranches = 9000 + seed;
    m.mispredicts = 700 + seed;
    m.l1iMisses = 80 + seed;
    m.l1dMisses = 120 + seed;
    m.l2Misses = 15 + seed;
    m.btbMisses = 210 + seed;
    return m;
}

std::vector<core::Measurement>
samplesAt(u32 count, u64 base = 0)
{
    std::vector<core::Measurement> out;
    for (u32 i = 0; i < count; ++i)
        out.push_back(sampleAt(base + i));
    return out;
}

void
expectEqual(const std::vector<core::Measurement> &a,
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
        // Doubles round-trip by bit pattern, so exact comparison.
        EXPECT_EQ(a[i].cpi, b[i].cpi) << "sample " << i;
        EXPECT_EQ(a[i].mpki, b[i].mpki) << "sample " << i;
        EXPECT_EQ(a[i].l1iMpki, b[i].l1iMpki) << "sample " << i;
        EXPECT_EQ(a[i].l1dMpki, b[i].l1dMpki) << "sample " << i;
        EXPECT_EQ(a[i].l2Mpki, b[i].l2Mpki) << "sample " << i;
        EXPECT_EQ(a[i].btbMpki, b[i].btbMpki) << "sample " << i;
    }
}

/** Per-test scratch store root, removed on destruction. */
struct TempRoot
{
    std::string path;

    TempRoot()
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        path = ::testing::TempDir() + "interf_store_" +
               info->test_suite_name() + "_" + info->name();
        fs::remove_all(path);
        fs::create_directories(path);
    }

    ~TempRoot() { fs::remove_all(path); }
};

/** XOR one byte of a file in place. */
void
flipByte(const std::string &path, size_t offset)
{
    std::fstream f(path,
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f) << path;
    f.seekg(static_cast<std::streamoff>(offset));
    char c = 0;
    f.get(c);
    f.seekp(static_cast<std::streamoff>(offset));
    f.put(static_cast<char>(c ^ 0x5a));
    ASSERT_TRUE(f) << path;
}

void
truncateFile(const std::string &path, size_t keep)
{
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << path;
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    ASSERT_LT(keep, data.size());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(keep));
}

size_t
fileSize(const std::string &path)
{
    return static_cast<size_t>(fs::file_size(path));
}

constexpr u64 kKey = 0x1234abcd5678ef01ULL;

/** Batch file header: magic + version + key + first + count + checksum. */
constexpr size_t kBatchHeaderBytes = 8 + 4 + 8 + 4 + 4 + 8;
/** Offset of the format-version field in both file kinds. */
constexpr size_t kVersionOffset = 8;

// ---------------------------------------------------------------------
// Serialization round-trips.

TEST(StoreSerialize, MeasurementRoundTripsAllFields)
{
    auto samples = samplesAt(7);
    std::stringstream buf;
    writeSamples(buf, samples);
    auto loaded = readSamples(buf, 7);
    ASSERT_TRUE(buf) << "short read";
    expectEqual(samples, loaded);
}

TEST(StoreSerialize, ChecksumCoversEveryField)
{
    // Perturbing any single field must change the payload checksum;
    // otherwise the corruption matrix has a blind spot.
    auto base = samplesAt(3);
    const u64 base_sum = samplesChecksum(base);
    EXPECT_EQ(base_sum, samplesChecksum(samplesAt(3)));

    std::vector<std::function<void(core::Measurement &)>> tweaks = {
        [](auto &m) { m.layoutSeed++; },
        [](auto &m) { m.cpi += 1e-9; },
        [](auto &m) { m.mpki += 1e-9; },
        [](auto &m) { m.l1iMpki += 1e-9; },
        [](auto &m) { m.l1dMpki += 1e-9; },
        [](auto &m) { m.l2Mpki += 1e-9; },
        [](auto &m) { m.btbMpki += 1e-9; },
        [](auto &m) { m.cycles++; },
        [](auto &m) { m.instructions++; },
        [](auto &m) { m.condBranches++; },
        [](auto &m) { m.mispredicts++; },
        [](auto &m) { m.l1iMisses++; },
        [](auto &m) { m.l1dMisses++; },
        [](auto &m) { m.l2Misses++; },
        [](auto &m) { m.btbMisses++; },
    };
    for (size_t t = 0; t < tweaks.size(); ++t) {
        auto mutated = base;
        tweaks[t](mutated[1]);
        EXPECT_NE(samplesChecksum(mutated), base_sum) << "tweak " << t;
    }
}

TEST(Store, EmptyStoreIsCold)
{
    TempRoot root;
    CampaignStore st(root.path, kKey);
    EXPECT_EQ(st.storedCount(), 0u);
    EXPECT_TRUE(st.batches().empty());
    EXPECT_TRUE(st.loadSamples().empty());
}

TEST(Store, BatchRoundTripAcrossReopen)
{
    TempRoot root;
    auto first = samplesAt(5, 0);
    auto second = samplesAt(3, 5);
    {
        CampaignStore st(root.path, kKey);
        st.appendBatch(0, first);
        st.appendBatch(5, second);
        EXPECT_EQ(st.storedCount(), 8u);
    }
    // A fresh open (a resuming process) sees both batches intact.
    CampaignStore st(root.path, kKey);
    EXPECT_EQ(st.storedCount(), 8u);
    ASSERT_EQ(st.batches().size(), 2u);
    EXPECT_EQ(st.batches()[0].first, 0u);
    EXPECT_EQ(st.batches()[0].count, 5u);
    EXPECT_EQ(st.batches()[1].first, 5u);
    EXPECT_EQ(st.batches()[1].count, 3u);

    auto all = samplesAt(8, 0);
    expectEqual(st.loadSamples(), all);
}

TEST(Store, EmptyAppendIsANoOp)
{
    TempRoot root;
    CampaignStore st(root.path, kKey);
    st.appendBatch(0, {});
    EXPECT_EQ(st.storedCount(), 0u);
    EXPECT_FALSE(fs::exists(st.manifestPath()));
}

TEST(Store, DistinctKeysDistinctDirectories)
{
    TempRoot root;
    CampaignStore a(root.path, 1);
    CampaignStore b(root.path, 2);
    a.appendBatch(0, samplesAt(2, 0));
    b.appendBatch(0, samplesAt(4, 90));
    EXPECT_NE(a.dir(), b.dir());
    CampaignStore a2(root.path, 1);
    CampaignStore b2(root.path, 2);
    EXPECT_EQ(a2.storedCount(), 2u);
    EXPECT_EQ(b2.storedCount(), 4u);
}

// ---------------------------------------------------------------------
// The corruption matrix: every damaged artifact fails closed with a
// clear error — never garbage samples.

TEST(StoreDeathTest, NonContiguousAppendIsABug)
{
    TempRoot root;
    CampaignStore st(root.path, kKey);
    EXPECT_DEATH(st.appendBatch(5, samplesAt(2)), "non-contiguous");
}

TEST(StoreDeathTest, TruncatedBatchRejected)
{
    TempRoot root;
    CampaignStore st(root.path, kKey);
    st.appendBatch(0, samplesAt(4));
    truncateFile(st.batchPath(0), kBatchHeaderBytes + 24);
    EXPECT_EXIT((void)CampaignStore(root.path, kKey).loadSamples(),
                ::testing::ExitedWithCode(1), "truncated store batch");
}

TEST(StoreDeathTest, BatchTruncatedInsideHeaderRejected)
{
    TempRoot root;
    CampaignStore st(root.path, kKey);
    st.appendBatch(0, samplesAt(4));
    truncateFile(st.batchPath(0), kBatchHeaderBytes - 4);
    EXPECT_EXIT((void)CampaignStore(root.path, kKey).loadSamples(),
                ::testing::ExitedWithCode(1), "truncated store batch");
}

TEST(StoreDeathTest, BatchBadMagicRejected)
{
    TempRoot root;
    CampaignStore st(root.path, kKey);
    st.appendBatch(0, samplesAt(4));
    flipByte(st.batchPath(0), 0);
    EXPECT_EXIT((void)CampaignStore(root.path, kKey).loadSamples(),
                ::testing::ExitedWithCode(1), "bad magic");
}

TEST(StoreDeathTest, BatchVersionSkewRejected)
{
    TempRoot root;
    CampaignStore st(root.path, kKey);
    st.appendBatch(0, samplesAt(4));
    flipByte(st.batchPath(0), kVersionOffset);
    EXPECT_EXIT((void)CampaignStore(root.path, kKey).loadSamples(),
                ::testing::ExitedWithCode(1),
                "unsupported format version");
}

TEST(StoreDeathTest, FlippedPayloadByteRejected)
{
    TempRoot root;
    CampaignStore st(root.path, kKey);
    st.appendBatch(0, samplesAt(4));
    flipByte(st.batchPath(0), kBatchHeaderBytes + 17);
    EXPECT_EXIT((void)CampaignStore(root.path, kKey).loadSamples(),
                ::testing::ExitedWithCode(1),
                "payload checksum mismatch");
}

TEST(StoreDeathTest, FlippedBatchHeaderRejected)
{
    // Damage to the header's own checksum field: the batch no longer
    // matches its manifest entry.
    TempRoot root;
    CampaignStore st(root.path, kKey);
    st.appendBatch(0, samplesAt(4));
    flipByte(st.batchPath(0), kBatchHeaderBytes - 2);
    EXPECT_EXIT((void)CampaignStore(root.path, kKey).loadSamples(),
                ::testing::ExitedWithCode(1),
                "does not match its manifest entry");
}

TEST(StoreDeathTest, MissingBatchRejected)
{
    TempRoot root;
    CampaignStore st(root.path, kKey);
    st.appendBatch(0, samplesAt(4));
    fs::remove(st.batchPath(0));
    EXPECT_EXIT((void)CampaignStore(root.path, kKey).loadSamples(),
                ::testing::ExitedWithCode(1), "missing");
}

TEST(StoreDeathTest, ManifestBadMagicRejected)
{
    TempRoot root;
    CampaignStore st(root.path, kKey);
    st.appendBatch(0, samplesAt(4));
    flipByte(st.manifestPath(), 0);
    EXPECT_EXIT((void)CampaignStore(root.path, kKey),
                ::testing::ExitedWithCode(1), "bad magic");
}

TEST(StoreDeathTest, ManifestVersionSkewRejected)
{
    TempRoot root;
    CampaignStore st(root.path, kKey);
    st.appendBatch(0, samplesAt(4));
    flipByte(st.manifestPath(), kVersionOffset);
    EXPECT_EXIT((void)CampaignStore(root.path, kKey),
                ::testing::ExitedWithCode(1),
                "unsupported format version");
}

TEST(StoreDeathTest, ManifestHugeBatchCountRejected)
{
    // A corrupt batch count must fail closed before the batch table is
    // allocated — not OOM trying to reserve billions of entries. The
    // count is the u32 after magic+version+key; flipping its high byte
    // turns 1 into ~1.5e9.
    TempRoot root;
    CampaignStore st(root.path, kKey);
    st.appendBatch(0, samplesAt(4));
    flipByte(st.manifestPath(), 8 + 4 + 8 + 3);
    EXPECT_EXIT((void)CampaignStore(root.path, kKey),
                ::testing::ExitedWithCode(1),
                "truncated store manifest");
}

TEST(StoreDeathTest, ConcurrentWriterRejected)
{
    // Two live campaigns writing the same key must not interleave
    // writes; the second writer dies with a clear error instead.
    TempRoot root;
    CampaignStore a(root.path, kKey);
    a.appendBatch(0, samplesAt(2)); // a now holds the write lock
    CampaignStore b(root.path, kKey);
    EXPECT_DEATH(b.appendBatch(2, samplesAt(2, 2)),
                 "locked by another process");
}

TEST(StoreDeathTest, StaleWriterRejected)
{
    // A writer whose entry was extended on disk after it opened (by a
    // racing campaign that has since finished) must not clobber the
    // newer batches from its stale view.
    TempRoot root;
    CampaignStore late(root.path, kKey); // opened while still cold
    {
        CampaignStore writer(root.path, kKey);
        writer.appendBatch(0, samplesAt(2));
    } // writer's lock released
    EXPECT_DEATH(late.appendBatch(0, samplesAt(2)), "changed on disk");
}

TEST(StoreDeathTest, TruncatedManifestRejected)
{
    TempRoot root;
    CampaignStore st(root.path, kKey);
    st.appendBatch(0, samplesAt(4));
    truncateFile(st.manifestPath(), fileSize(st.manifestPath()) - 8);
    EXPECT_EXIT((void)CampaignStore(root.path, kKey),
                ::testing::ExitedWithCode(1),
                "truncated store manifest");
}

TEST(StoreDeathTest, CorruptManifestEntryRejected)
{
    // A flipped byte inside the batch table breaks the manifest's own
    // digest before any batch is even opened.
    TempRoot root;
    CampaignStore st(root.path, kKey);
    st.appendBatch(0, samplesAt(4));
    flipByte(st.manifestPath(), 8 + 4 + 8 + 4 + 2);
    EXPECT_EXIT((void)CampaignStore(root.path, kKey),
                ::testing::ExitedWithCode(1), "digest mismatch");
}

TEST(StoreDeathTest, KeyMismatchRejected)
{
    // Artifacts renamed under another campaign's key directory must be
    // rejected: samples are bound to the campaign that produced them.
    TempRoot root;
    CampaignStore st(root.path, kKey);
    st.appendBatch(0, samplesAt(4));
    const u64 other = kKey + 1;
    fs::rename(st.dir(), fs::path(root.path) / digestHex(other));
    EXPECT_EXIT((void)CampaignStore(root.path, other),
                ::testing::ExitedWithCode(1), "key mismatch");
}

// ---------------------------------------------------------------------
// Store-key derivation properties.

interferometry::CampaignConfig
baseConfig()
{
    interferometry::CampaignConfig cfg;
    cfg.instructionBudget = 60000;
    cfg.initialLayouts = 8;
    cfg.maxLayouts = 8;
    return cfg;
}

const trace::Program &
keyProgram()
{
    static trace::Program prog =
        workloads::buildProgram(workloads::defaultProfile("key"));
    return prog;
}

TEST(StoreKey, StableAcrossRecomputation)
{
    // Rebuilding the program and the config from scratch yields the
    // same key: nothing address- or run-dependent leaks into it.
    auto prog2 = workloads::buildProgram(workloads::defaultProfile("key"));
    EXPECT_EQ(campaignKey(keyProgram(), 2, baseConfig()),
              campaignKey(prog2, 2, baseConfig()));
}

TEST(StoreKey, EveryConfigFieldChangesTheKey)
{
    using Cfg = interferometry::CampaignConfig;
    const std::vector<
        std::pair<const char *, std::function<void(Cfg &)>>>
        mutators = {
            {"instructionBudget",
             [](Cfg &c) { c.instructionBudget += 1; }},
            {"initialLayouts", [](Cfg &c) { c.initialLayouts += 1; }},
            {"escalationStep", [](Cfg &c) { c.escalationStep += 1; }},
            {"maxLayouts", [](Cfg &c) { c.maxLayouts += 1; }},
            {"alpha", [](Cfg &c) { c.alpha += 1e-6; }},
            {"minMpkiCv", [](Cfg &c) { c.minMpkiCv += 1e-6; }},
            {"randomizeHeap", [](Cfg &c) { c.randomizeHeap = true; }},
            {"physicalPages", [](Cfg &c) { c.physicalPages = false; }},
            {"layoutSeedBase", [](Cfg &c) { c.layoutSeedBase += 1; }},
            {"machine.name", [](Cfg &c) { c.machine.name += "x"; }},
            {"machine.width", [](Cfg &c) { c.machine.width += 1; }},
            {"machine.frontendDepth",
             [](Cfg &c) { c.machine.frontendDepth += 1; }},
            {"machine.robSize", [](Cfg &c) { c.machine.robSize += 1; }},
            {"machine.l1Latency",
             [](Cfg &c) { c.machine.l1Latency += 1; }},
            {"machine.l2Latency",
             [](Cfg &c) { c.machine.l2Latency += 1; }},
            {"machine.memLatency",
             [](Cfg &c) { c.machine.memLatency += 1; }},
            {"machine.maxMlp", [](Cfg &c) { c.machine.maxMlp += 1; }},
            {"machine.predictorSpec",
             [](Cfg &c) { c.machine.predictorSpec = "bimodal:4096"; }},
            {"machine.btbSets", [](Cfg &c) { c.machine.btbSets *= 2; }},
            {"machine.btbWays", [](Cfg &c) { c.machine.btbWays += 1; }},
            {"machine.rasDepth",
             [](Cfg &c) { c.machine.rasDepth += 1; }},
            {"machine.misfetchPenalty",
             [](Cfg &c) { c.machine.misfetchPenalty += 1; }},
            {"machine.warmupFraction",
             [](Cfg &c) { c.machine.warmupFraction += 1e-6; }},
            {"machine.hierarchy.l1i.sizeBytes",
             [](Cfg &c) { c.machine.hierarchy.l1i.sizeBytes *= 2; }},
            {"machine.hierarchy.l1d.assoc",
             [](Cfg &c) { c.machine.hierarchy.l1d.assoc *= 2; }},
            {"machine.hierarchy.l2.lineBytes",
             [](Cfg &c) { c.machine.hierarchy.l2.lineBytes *= 2; }},
            {"machine.hierarchy.l2.replacement",
             [](Cfg &c) {
                 c.machine.hierarchy.l2.replacement =
                     cache::Replacement::Random;
             }},
            {"machine.hierarchy.nextLinePrefetch",
             [](Cfg &c) { c.machine.hierarchy.nextLinePrefetch = false; }},
            {"runner.runsPerGroup",
             [](Cfg &c) { c.runner.runsPerGroup += 2; }},
            {"runner.noise.jitterSigma",
             [](Cfg &c) { c.runner.noise.jitterSigma += 1e-6; }},
            {"runner.noise.spikeProb",
             [](Cfg &c) { c.runner.noise.spikeProb += 1e-6; }},
            {"runner.noise.spikeMax",
             [](Cfg &c) { c.runner.noise.spikeMax += 1e-6; }},
            {"runner.noise.quiescent",
             [](Cfg &c) { c.runner.noise.quiescent = false; }},
        };

    const u64 base = campaignKey(keyProgram(), 2, baseConfig());
    std::set<u64> keys{base};
    for (const auto &[name, mutate] : mutators) {
        auto cfg = baseConfig();
        mutate(cfg);
        const u64 key = campaignKey(keyProgram(), 2, cfg);
        EXPECT_NE(key, base) << name;
        EXPECT_TRUE(keys.insert(key).second)
            << name << " collides with an earlier mutation";
    }
}

TEST(StoreKey, PinnedValue)
{
    // The literal key of a fixed (program, seed, config). Stores on
    // disk are named by this value, so any change to the key's
    // derivation (a field mixed in or dropped, a reordered mix)
    // orphans every existing store; this test makes that explicit.
    EXPECT_EQ(campaignKey(keyProgram(), 2, baseConfig()),
              0xaa1ad24dc0ba4e47ull);
}

TEST(StoreKey, ExecutionOnlyFieldsDoNotChangeTheKey)
{
    // jobs cannot change a sample's bytes (the executor's determinism
    // guarantee across worker counts) and storeDir is where the cache
    // lives — serial, parallel and relocated-store runs all share one
    // cache entry.
    const u64 base = campaignKey(keyProgram(), 2, baseConfig());
    auto cfg = baseConfig();
    cfg.jobs = 7;
    EXPECT_EQ(campaignKey(keyProgram(), 2, cfg), base);
    cfg.storeDir = "/somewhere/else";
    EXPECT_EQ(campaignKey(keyProgram(), 2, cfg), base);
}

TEST(StoreKey, ProgramAndBehaviourBindTheKey)
{
    const u64 base = campaignKey(keyProgram(), 2, baseConfig());
    // A different behaviour seed means a different trace.
    EXPECT_NE(campaignKey(keyProgram(), 3, baseConfig()), base);
    // A structurally different program.
    auto profile = workloads::defaultProfile("key");
    profile.structureSeed += 1;
    auto other = workloads::buildProgram(profile);
    EXPECT_NE(campaignKey(other, 2, baseConfig()), base);
}

/**
 * Build a small two-procedure program by hand, with every
 * behaviour-bearing field at a non-default value, letting @p mutate
 * tweak the first procedure before it is frozen into the Program
 * (Program exposes no mutable access afterwards).
 */
trace::Program
handProgram(const std::function<void(trace::Procedure &)> &mutate = {})
{
    using namespace trace;
    Procedure p;
    p.name = "hot";
    p.align = 16;

    BasicBlock body;
    body.bytes = 48;
    body.nInsts = 9;
    body.extraExecCycles = 2;
    body.branch.kind = OpClass::CondBranch;
    body.branch.pattern = BranchPattern::Biased;
    body.branch.takenProb = 0.8f;
    body.branch.period = 5;
    body.branch.historyBits = 4;
    body.branch.dependsOnLoad = false;
    body.branch.targetProc = 0;
    body.branch.targetBlock = 1;
    body.branch.indirectTargets = 0;
    MemRef ref;
    ref.regionId = 0;
    ref.isStore = false;
    ref.pattern = MemPattern::Stride;
    ref.stride = 8;
    ref.churnSpan = 96 << 10;
    ref.genId = 0;
    body.memRefs.push_back(ref);
    p.blocks.push_back(body);

    BasicBlock ret;
    ret.bytes = 8;
    ret.nInsts = 1;
    ret.branch.kind = OpClass::Return;
    p.blocks.push_back(ret);

    if (mutate)
        mutate(p);

    Procedure cold;
    cold.name = "cold";
    cold.align = 16;
    cold.blocks.push_back(ret);

    Program prog;
    u32 hot_id = prog.addProcedure(std::move(p));
    u32 cold_id = prog.addProcedure(std::move(cold));
    u32 file = prog.addFile("a.o");
    prog.placeInFile(file, hot_id);
    prog.placeInFile(file, cold_id);
    prog.addRegion(trace::RegionKind::Heap, 4096);
    return prog;
}

TEST(StoreKey, EveryProgramFieldChangesTheKey)
{
    // The fields the trace-file checksum does NOT cover: branch
    // behaviour parameters, memory-site details, intrinsic stalls and
    // linker alignment. Each one shapes the trace or the layout, so
    // each must produce a distinct store key — a collision here means
    // a warm store can serve another profile's samples.
    using trace::Procedure;
    const std::vector<
        std::pair<const char *, std::function<void(Procedure &)>>>
        mutators = {
            {"align", [](Procedure &p) { p.align = 32; }},
            {"extraExecCycles",
             [](Procedure &p) { p.blocks[0].extraExecCycles = 5; }},
            {"branch.pattern",
             [](Procedure &p) {
                 p.blocks[0].branch.pattern =
                     trace::BranchPattern::Periodic;
             }},
            {"branch.takenProb",
             [](Procedure &p) { p.blocks[0].branch.takenProb = 0.75f; }},
            {"branch.period",
             [](Procedure &p) { p.blocks[0].branch.period = 6; }},
            {"branch.historyBits",
             [](Procedure &p) { p.blocks[0].branch.historyBits = 7; }},
            {"branch.dependsOnLoad",
             [](Procedure &p) {
                 p.blocks[0].branch.dependsOnLoad = true;
             }},
            {"branch.indirectTargets",
             [](Procedure &p) {
                 p.blocks[0].branch.indirectTargets = 3;
             }},
            {"memRef.isStore",
             [](Procedure &p) { p.blocks[0].memRefs[0].isStore = true; }},
            {"memRef.pattern",
             [](Procedure &p) {
                 p.blocks[0].memRefs[0].pattern = trace::MemPattern::Hot;
             }},
            {"memRef.stride",
             [](Procedure &p) { p.blocks[0].memRefs[0].stride = 64; }},
            {"memRef.churnSpan",
             [](Procedure &p) {
                 p.blocks[0].memRefs[0].churnSpan = 128 << 10;
             }},
            {"memRef.genId",
             [](Procedure &p) { p.blocks[0].memRefs[0].genId = 9; }},
        };

    const u64 base = campaignKey(handProgram(), 2, baseConfig());
    EXPECT_EQ(base, campaignKey(handProgram(), 2, baseConfig()));
    std::set<u64> keys{base};
    for (const auto &[name, mutate] : mutators) {
        const u64 key =
            campaignKey(handProgram(mutate), 2, baseConfig());
        EXPECT_NE(key, base) << name;
        EXPECT_TRUE(keys.insert(key).second)
            << name << " collides with an earlier mutation";
    }
}

TEST(StoreKey, AuthoredLinkOrderChangesTheKey)
{
    // The linker permutes the *authored* order, so two programs whose
    // procedures are authored in swapped file order are different
    // experiments even though their procedure sets are identical.
    using namespace trace;
    auto build = [](bool swapped) {
        Program prog;
        Procedure a, b;
        a.name = "a";
        b.name = "b";
        BasicBlock ret;
        ret.bytes = 8;
        ret.nInsts = 1;
        ret.branch.kind = OpClass::Return;
        a.blocks.push_back(ret);
        b.blocks.push_back(ret);
        u32 ia = prog.addProcedure(std::move(a));
        u32 ib = prog.addProcedure(std::move(b));
        u32 file = prog.addFile("a.o");
        prog.placeInFile(file, swapped ? ib : ia);
        prog.placeInFile(file, swapped ? ia : ib);
        return prog;
    };
    EXPECT_NE(campaignKey(build(false), 2, baseConfig()),
              campaignKey(build(true), 2, baseConfig()));
}

TEST(StoreKey, ProfileBehaviourKnobsChangeTheKey)
{
    // End-to-end over the builder: profile knobs that only alter
    // branch/memory *behaviour* (not block geometry) were invisible to
    // the trace-file checksum; each must still change the store key.
    using workloads::WorkloadProfile;
    const std::vector<
        std::pair<const char *, std::function<void(WorkloadProfile &)>>>
        knobs = {
            {"biasMin", [](WorkloadProfile &p) { p.biasMin = 0.50; }},
            {"biasMax", [](WorkloadProfile &p) { p.biasMax = 0.80; }},
            {"periodMax", [](WorkloadProfile &p) { p.periodMax = 40; }},
            {"historyBitsMax",
             [](WorkloadProfile &p) { p.historyBitsMax = 14; }},
            {"branchLoadDepProb",
             [](WorkloadProfile &p) { p.branchLoadDepProb = 0.9; }},
            {"meanExtraExecCycles",
             [](WorkloadProfile &p) { p.meanExtraExecCycles = 4.0; }},
            {"storesPerInst",
             [](WorkloadProfile &p) { p.storesPerInst = 0.25; }},
            {"churnWindow",
             [](WorkloadProfile &p) { p.churnWindow = 192 << 10; }},
        };

    const u64 base = campaignKey(keyProgram(), 2, baseConfig());
    std::set<u64> keys{base};
    for (const auto &[name, tweak] : knobs) {
        auto profile = workloads::defaultProfile("key");
        tweak(profile);
        const u64 key = campaignKey(workloads::buildProgram(profile), 2,
                                    baseConfig());
        EXPECT_NE(key, base) << name;
        EXPECT_TRUE(keys.insert(key).second)
            << name << " collides with an earlier mutation";
    }
}

} // anonymous namespace
