/** @file Tests for the static soundness analyzer: a seeded-unsoundness
 *  matrix proving every invariant-breaking config class is rejected by
 *  the right pass with the right entity reference, clean-acceptance
 *  checks over the default machine and bundled profiles, and the
 *  fail-closed trust boundary. Mirrors the test_verify.cc
 *  corruption-matrix style. */

#include <cstring>
#include <optional>

#include <gtest/gtest.h>

#include "analyze/analyze.hh"
#include "core/config.hh"
#include "interferometry/campaign.hh"
#include "opt/optimizer.hh"
#include "trace/generator.hh"
#include "trace/program.hh"
#include "trace/replay.hh"
#include "verify/verify.hh"
#include "workloads/builder.hh"
#include "workloads/spec.hh"

namespace
{

using namespace interf;
using verify::EntityKind;
using verify::Severity;
using verify::VerifyResult;

/** True when the result contains a matching diagnostic. */
bool
hasDiag(const VerifyResult &r, const char *pass, EntityKind kind,
        std::optional<u64> index = std::nullopt,
        Severity severity = Severity::Error)
{
    for (const auto &d : r.diagnostics()) {
        if (d.severity != severity || std::strcmp(d.pass, pass) != 0 ||
            d.entity != kind)
            continue;
        if (index.has_value() && d.index != *index)
            continue;
        return true;
    }
    return false;
}

std::string
render(const VerifyResult &r)
{
    std::string out;
    for (const auto &d : r.diagnostics())
        out += d.text() + "\n";
    return out.empty() ? "(no diagnostics)" : out;
}

#define EXPECT_CLEAN(result)                                             \
    do {                                                                 \
        const auto &r_ = (result);                                       \
        EXPECT_EQ(r_.errorCount(), 0u) << render(r_);                    \
        EXPECT_EQ(r_.warningCount(), 0u) << render(r_);                  \
    } while (0)

core::MachineConfig
machineWith(const std::string &override_spec)
{
    core::MachineConfig m = core::MachineConfig::xeonE5440();
    std::string err;
    EXPECT_TRUE(analyze::applyConfigOverride(m, override_spec, &err))
        << err;
    return m;
}

// ---------------------------------------------------------------------
// Clean acceptance: the default machine and the bundled profiles.
// ---------------------------------------------------------------------

TEST(Analyze, DefaultConfigIsSound)
{
    EXPECT_CLEAN(
        analyze::analyzeMachine(core::MachineConfig::xeonE5440()));
}

TEST(Analyze, BundledProfilesAnalyzeClean)
{
    const auto machine = core::MachineConfig::xeonE5440();
    for (const char *name : {"400.perlbench", "429.mcf", "445.gobmk"}) {
        const auto &profile = workloads::specFor(name).profile;
        auto prog = workloads::buildProgram(profile);
        trace::TraceGenerator gen(prog, profile.behaviourSeed);
        auto tr = gen.makeTrace(30000);
        trace::ReplayPlan plan(prog, tr);
        EXPECT_CLEAN(
            analyze::analyzeMachine(machine, &plan, &prog, name));
    }
}

// ---------------------------------------------------------------------
// ConfigSoundness: tag width, geometry, BTB tags.
// ---------------------------------------------------------------------

TEST(Analyze, TagWidthOverflowRejectedForHugeAddressSpace)
{
    // A 2^55 line-address ceiling needs 49 tag bits with 64-byte
    // lines — past the whole 48-bit split-tag field, caught for every
    // cache level independently.
    verify::Artifacts a;
    const auto machine = core::MachineConfig::xeonE5440();
    a.machine = &machine;
    a.lineAddrCeiling = Addr{1} << 55;
    a.path = "<huge address space>";
    auto r = analyze::soundnessPasses().run(a);
    for (u64 cache : {0u, 1u, 2u})
        EXPECT_TRUE(
            hasDiag(r, "config-soundness", EntityKind::Cache, cache))
            << render(r);

    // The boundary: a 2^54 ceiling puts the largest line number at
    // 2^48 - 1, exactly the all-ones kNoTag sentinel, which would read
    // as an invalid way; one bit less is the widest sound space.
    VerifyResult at_sentinel;
    analyze::auditCacheConfig(machine.hierarchy.l1i, 0, Addr{1} << 54,
                              "<boundary>", at_sentinel);
    EXPECT_TRUE(hasDiag(at_sentinel, "config-soundness",
                        EntityKind::Cache, 0))
        << render(at_sentinel);
    VerifyResult below;
    analyze::auditCacheConfig(machine.hierarchy.l1i, 0, Addr{1} << 53,
                              "<boundary>", below);
    EXPECT_CLEAN(below);
}

TEST(Analyze, WideLruAssociativityAnalyzesClean)
{
    // u32 LRU stamps have no associativity cap: LRU caches wider than
    // 32 ways (48-way L2: 2048 sets; 64-way L1s: 8 sets) are sound.
    for (const char *spec :
         {"l2.assoc=48", "l1d.assoc=64", "l1i.assoc=64"}) {
        SCOPED_TRACE(spec);
        EXPECT_CLEAN(analyze::analyzeMachine(machineWith(spec)));
    }
}

TEST(Analyze, BrokenGeometryRejectedNotFatal)
{
    // Non-power-of-two line size: a typed diagnostic, no fatal().
    auto r = analyze::analyzeMachine(machineWith("l1d.line=48"));
    EXPECT_TRUE(hasDiag(r, "config-soundness", EntityKind::Cache, 1))
        << render(r);
}

TEST(Analyze, BtbTagOverflowRejected)
{
    // Branch PCs at 2^33 cannot round-trip through the u32 full-PC
    // BTB tag.
    VerifyResult r;
    analyze::auditBtbConfig(1024, 4, Addr{1} << 33, "<btb>", r);
    EXPECT_TRUE(hasDiag(r, "config-soundness", EntityKind::Btb, 0))
        << render(r);

    VerifyResult ok;
    analyze::auditBtbConfig(1024, 4, Addr{1} << 31, "<btb>", ok);
    EXPECT_CLEAN(ok);
}

TEST(Analyze, BtbBadGeometryRejected)
{
    VerifyResult r;
    analyze::auditBtbConfig(1000, 4, Addr{1} << 31, "<btb>", r);
    EXPECT_TRUE(hasDiag(r, "config-soundness", EntityKind::Btb, 0))
        << render(r);
}

// ---------------------------------------------------------------------
// PlanBounds: the u32 stamp-clock wrap bound.
// ---------------------------------------------------------------------

TEST(Analyze, StampWrapBoundSeam)
{
    const auto machine = core::MachineConfig::xeonE5440();
    const u64 wrap = u64{1} << 32;

    // A stamp cache (L1I geometry) whose per-replay advance can reach
    // the wrap: victim choice could invert mid-replay.
    VerifyResult over;
    analyze::checkLruAdvanceBound(machine.hierarchy.l1i, wrap, 0,
                                  "<plan>", over);
    EXPECT_TRUE(hasDiag(over, "plan-bounds", EntityKind::Cache, 0))
        << render(over);

    // One below the wrap is proven safe.
    VerifyResult under;
    analyze::checkLruAdvanceBound(machine.hierarchy.l1i, wrap - 1, 0,
                                  "<plan>", under);
    EXPECT_CLEAN(under);

    // The L2 is LRU too and keeps the same u32 stamps: bounded alike.
    VerifyResult l2_over;
    analyze::checkLruAdvanceBound(machine.hierarchy.l2, wrap, 2,
                                  "<plan>", l2_over);
    EXPECT_TRUE(hasDiag(l2_over, "plan-bounds", EntityKind::Cache, 2))
        << render(l2_over);

    // Random-replacement caches keep no stamps: any bound is fine.
    cache::CacheConfig random_l2 = machine.hierarchy.l2;
    random_l2.replacement = cache::Replacement::Random;
    VerifyResult random;
    analyze::checkLruAdvanceBound(random_l2, wrap * 16, 2, "<plan>",
                                  random);
    EXPECT_CLEAN(random);
}

TEST(Analyze, PlanWithWrappingAdvanceBoundRejected)
{
    // A hand-built plan whose blocks are so large the fetch-line bound
    // overflows the u32 stamp clock within one replay. 70 events of
    // ~4 GiB of code each bound ~4.7e9 fetch lines.
    const auto machine = core::MachineConfig::xeonE5440();
    trace::ReplayPlan plan;
    plan.site.assign(70, 0);
    plan.bytes.assign(70, 0xfff00000u);

    auto bounds = analyze::lruAdvanceBounds(machine, plan);
    EXPECT_GE(bounds.l1i, u64{1} << 32);

    auto r = analyze::analyzeMachine(machine, &plan);
    // L1I and L2 (both stamp LRU) trip the wrap bound; L1D advance is
    // bounded by the (empty) memory stream.
    EXPECT_TRUE(hasDiag(r, "plan-bounds", EntityKind::Cache, 0))
        << render(r);
    EXPECT_FALSE(hasDiag(r, "plan-bounds", EntityKind::Cache, 1))
        << render(r);
    EXPECT_TRUE(hasDiag(r, "plan-bounds", EntityKind::Cache, 2))
        << render(r);

    // Only the L2 reaches the wrap: 2^31 - 1 fetch lines bound the
    // L1I at 2^32 - 2, and two data accesses lift the L2's bound
    // (2 * fetchLines + memCount) to exactly 2^32.
    trace::ReplayPlan l2_only;
    const u32 line = machine.hierarchy.l1i.lineBytes;
    l2_only.site.assign(32, 0);
    l2_only.bytes.assign(31, line * ((u32{1} << 26) - 1));
    l2_only.bytes.push_back(line * ((u32{1} << 26) - 2));
    l2_only.memId.assign(2, 0);
    auto l2_bounds = analyze::lruAdvanceBounds(machine, l2_only);
    EXPECT_EQ(l2_bounds.fetchLines, (u64{1} << 31) - 1);
    EXPECT_EQ(l2_bounds.l1i, (u64{1} << 32) - 2);
    EXPECT_EQ(l2_bounds.l2, u64{1} << 32);

    auto r2 = analyze::analyzeMachine(machine, &l2_only);
    EXPECT_FALSE(hasDiag(r2, "plan-bounds", EntityKind::Cache, 0))
        << render(r2);
    EXPECT_FALSE(hasDiag(r2, "plan-bounds", EntityKind::Cache, 1))
        << render(r2);
    EXPECT_TRUE(hasDiag(r2, "plan-bounds", EntityKind::Cache, 2))
        << render(r2);
}

TEST(Analyze, AdvanceBoundsFollowPlanCounts)
{
    const auto &profile = workloads::specFor("429.mcf").profile;
    auto prog = workloads::buildProgram(profile);
    trace::TraceGenerator gen(prog, profile.behaviourSeed);
    auto tr = gen.makeTrace(20000);
    trace::ReplayPlan plan(prog, tr);

    const auto machine = core::MachineConfig::xeonE5440();
    auto bounds = analyze::lruAdvanceBounds(machine, plan);

    u64 fetch = 0;
    const u32 line = machine.hierarchy.l1i.lineBytes;
    for (u32 b : plan.bytes)
        fetch += b / line + 1;
    EXPECT_EQ(bounds.fetchLines, fetch);
    EXPECT_EQ(bounds.l1i, 2 * fetch);
    EXPECT_EQ(bounds.l1d, plan.memCount());
    EXPECT_EQ(bounds.l2, 2 * fetch + plan.memCount());
    EXPECT_EQ(bounds.forCache(0), bounds.l1i);
    EXPECT_EQ(bounds.forCache(1), bounds.l1d);
    EXPECT_EQ(bounds.forCache(2), bounds.l2);
}

// ---------------------------------------------------------------------
// Config overrides + the fail-closed trust boundary.
// ---------------------------------------------------------------------

TEST(Analyze, ConfigOverrideRoundTrip)
{
    auto m = machineWith(
        "l1i.line=32,l2.size=12m,l2.assoc=24,l1d.repl=random,"
        "btb.sets=4096,btb.ways=8");
    EXPECT_EQ(m.hierarchy.l1i.lineBytes, 32u);
    EXPECT_EQ(m.hierarchy.l2.sizeBytes, u64{12} << 20);
    EXPECT_EQ(m.hierarchy.l2.assoc, 24u);
    EXPECT_EQ(m.hierarchy.l1d.replacement, cache::Replacement::Random);
    EXPECT_EQ(m.btbSets, 4096u);
    EXPECT_EQ(m.btbWays, 8u);
}

TEST(Analyze, ConfigOverrideErrorsAreTyped)
{
    core::MachineConfig m = core::MachineConfig::xeonE5440();
    std::string err;
    EXPECT_FALSE(analyze::applyConfigOverride(m, "bogus=1", &err));
    EXPECT_NE(err.find("unit.field=value"), std::string::npos) << err;
    EXPECT_FALSE(analyze::applyConfigOverride(m, "l3.size=1m", &err));
    EXPECT_NE(err.find("unknown unit"), std::string::npos) << err;
    EXPECT_FALSE(analyze::applyConfigOverride(m, "l1i.line=huge", &err));
    EXPECT_NE(err.find("bad numeric"), std::string::npos) << err;
    EXPECT_FALSE(analyze::applyConfigOverride(m, "btb.assoc=4", &err));
    EXPECT_NE(err.find("unknown btb field"), std::string::npos) << err;
}

TEST(AnalyzeDeathTest, RequireSoundMachinePanicsOnUnsoundConfig)
{
    // 64 BTB ways overflow the u8 per-set ages and the packed scan's
    // u32 way mask.
    auto m = machineWith("btb.ways=64");
    EXPECT_DEATH(
        analyze::requireSoundMachine(m, nullptr, "test boundary"),
        "test boundary");
}

TEST(AnalyzeDeathTest, CampaignRefusesUnsoundMachine)
{
    interferometry::CampaignConfig cfg;
    cfg.instructionBudget = 20000;
    cfg.initialLayouts = 2;
    cfg.maxLayouts = 2;
    // The Btb constructor would refuse 64 ways too; the analyzer's
    // typed diagnostic must fire first, before any Machine is built.
    cfg.machine.btbWays = 64;
    EXPECT_DEATH(interferometry::Campaign(
                     workloads::defaultProfile("unsound"), cfg),
                 "Campaign machine config");
}

TEST(AnalyzeDeathTest, OptimizerRefusesUnsoundMachine)
{
    opt::OptConfig cfg;
    cfg.instructionBudget = 20000;
    cfg.machine.btbWays = 64;
    EXPECT_DEATH(opt::FitnessOracle(
                     workloads::defaultProfile("unsound"), cfg),
                 "Optimizer machine config");
}

} // anonymous namespace
