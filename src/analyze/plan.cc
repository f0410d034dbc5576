/**
 * @file
 * PlanBounds: wrap-bound analysis of one ReplayPlan against a machine.
 *
 * The cache keeps LRU recency as u32 stamps against a u32
 * clock that restarts at every reset() — so correctness needs the
 * clock to advance fewer than 2^32 times between resets, i.e. within
 * ONE replay of the plan. This pass derives that bound statically from
 * the plan's event arrays, before any replay runs:
 *
 *   fetchLines = sum over events of (bytes/line + 1)  — an upper bound
 *     on demand-fetched L1I lines (a block of B bytes spans at most
 *     B/line + 1 lines wherever a layout places it);
 *   L1I advance <= 2 * fetchLines   (demand touch + at most one
 *     next-line prefetch install per new line);
 *   L1D advance <= memCount         (one touch per data access);
 *   L2 advance  <= 2 * fetchLines + memCount (demand-miss fill +
 *     prefetch fill probe per line, one probe per data miss).
 *
 * Random-replacement caches keep no stamps and need no bound. The u8
 * BTB recency scheme handles wrap by construction (per-set rank
 * renormalization).
 *
 * The same pass checks the plan's index widths against their u32
 * sentinels (site ids vs ReplayPlan::kNoSite, memory-universe ranks),
 * which every per-layout table indexes with u32.
 */

#include "analyze/analyze.hh"

#include "core/config.hh"
#include "trace/replay.hh"

#include "util/logging.hh"

namespace interf::analyze
{

namespace
{

constexpr const char *kPassName = "plan-bounds";

constexpr u64 kU32Wrap = u64{1} << 32;

void
checkLruAdvanceBoundIn(const cache::CacheConfig &cfg,
                       u64 advance_bound, u32 cache_index,
                       verify::Sink &sink)
{
    if (cfg.replacement != cache::Replacement::Lru)
        return;
    if (advance_bound >= kU32Wrap) {
        sink.error(
            verify::EntityKind::Cache, cache_index,
            strprintf("'%s': one replay can advance the u32 LRU stamp "
                      "clock %llu times (>= 2^32); the per-reset "
                      "restart no longer bounds the clock, so stamps "
                      "could wrap and invert victim choice",
                      cfg.name.c_str(),
                      static_cast<unsigned long long>(advance_bound)));
    }
}

class PlanBounds : public verify::Pass
{
  public:
    const char *name() const override { return kPassName; }

    bool applicable(const verify::Artifacts &a) const override
    {
        return a.machine != nullptr && a.plan != nullptr;
    }

    void run(const verify::Artifacts &a,
             verify::VerifyResult &out) const override
    {
        using verify::EntityKind;
        verify::Sink sink(out, a.path, kPassName);
        const core::MachineConfig &m = *a.machine;
        const trace::ReplayPlan &plan = *a.plan;

        LruAdvanceBounds bounds = lruAdvanceBounds(m, plan);
        const cache::CacheConfig *caches[3] = {&m.hierarchy.l1i,
                                               &m.hierarchy.l1d,
                                               &m.hierarchy.l2};
        for (u32 i = 0; i < 3; ++i)
            checkLruAdvanceBoundIn(*caches[i], bounds.forCache(i), i,
                                   sink);

        // u32 index widths. Site ids share their space with the
        // kNoSite sentinel; memory ranks index the universe table.
        if (plan.siteCount() >=
            static_cast<size_t>(trace::ReplayPlan::kNoSite)) {
            sink.error(EntityKind::Site, plan.siteCount() - 1,
                       strprintf("%zu sites collide with the u32 "
                                 "kNoSite sentinel",
                                 plan.siteCount()));
        }
        if (plan.memUniverse.size() > static_cast<size_t>(~u32{0})) {
            sink.error(EntityKind::MemAccess,
                       plan.memUniverse.size() - 1,
                       strprintf("%zu distinct memory ids exceed the "
                                 "u32 memRank width",
                                 plan.memUniverse.size()));
        }
    }
};

} // anonymous namespace

LruAdvanceBounds
lruAdvanceBounds(const core::MachineConfig &machine,
                 const trace::ReplayPlan &plan)
{
    LruAdvanceBounds bounds;
    u32 line = machine.hierarchy.l1i.lineBytes;
    if (line == 0 || (line & (line - 1)) != 0)
        line = 64; // broken geometry is ConfigSoundness's diagnostic
    for (u32 b : plan.bytes)
        bounds.fetchLines += b / line + 1;
    bounds.l1i = 2 * bounds.fetchLines;
    bounds.l1d = plan.memCount();
    bounds.l2 = 2 * bounds.fetchLines + plan.memCount();
    return bounds;
}

void
checkLruAdvanceBound(const cache::CacheConfig &cfg, u64 advance_bound,
                     u32 cache_index, const std::string &path,
                     verify::VerifyResult &out)
{
    verify::Sink sink(out, path, kPassName);
    checkLruAdvanceBoundIn(cfg, advance_bound, cache_index, sink);
}

std::unique_ptr<verify::Pass>
makePlanBounds()
{
    return std::make_unique<PlanBounds>();
}

} // namespace interf::analyze
