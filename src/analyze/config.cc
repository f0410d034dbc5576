/**
 * @file
 * ConfigSoundness: interval/width analysis of one MachineConfig.
 *
 * The abstract domain is deliberately tiny — exclusive upper bounds on
 * the addresses each hardware structure can ever be asked to index
 * (see analyze.hh's AddressSpace). Everything the pass proves reduces
 * to bit-width comparisons against those bounds: a cache tag of
 * Cache::kTagBits bits covers the space iff every line number stays
 * below the all-ones kNoTag sentinel; u32 BTB full-PC tags cover it
 * iff the largest PC stays below their all-ones sentinel. The geometry
 * preconditions the Cache constructor enforces with fatal() are
 * re-derived here as typed diagnostics, so a sweep over many configs
 * learns *which* config is broken and why instead of dying on the
 * first.
 */

#include "analyze/analyze.hh"

#include <bit>

#include "core/config.hh"
#include "layout/heap.hh"
#include "layout/linker.hh"
#include "layout/pagemap.hh"
#include "trace/program.hh"

#include "util/logging.hh"

namespace interf::analyze
{

// The width analysis assumes the sentinel is the all-ones tag: every
// line number below it is storable in kTagBits bits.
static_assert(cache::Cache::kNoTag ==
                  (Addr{1} << cache::Cache::kTagBits) - 1,
              "sentinel is all-ones in the stored tag width");

namespace
{

constexpr const char *kPassName = "config-soundness";

/** Exclusive code-address ceiling when no program bounds it: the
 *  non-PIE text model anchors text at kDefaultTextBase and interferometry
 *  programs are trace-scale, far below the low 2 GiB this contract
 *  grants. forProgram() proves a per-program bound instead. */
constexpr Addr kContractCodeCeiling = Addr{1} << 31;

bool
isPow2(u64 v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // anonymous namespace

AddressSpace
AddressSpace::engineDefault()
{
    // Data: globals pack up from kGlobalBase, heap arenas from
    // kHeapBase, stack regions down from kStackBase — all below
    // kStackBase. Code sits below the data space entirely. The page
    // map can lift any of them to at most 2^(pageBits +
    // permutedVpnBits); addresses above that window pass through
    // untranslated, so the overall ceiling is the larger of the two.
    constexpr Addr permuted_ceiling =
        Addr{1} << (layout::PageMap::pageBits +
                    layout::PageMap::permutedVpnBits);
    AddressSpace space;
    space.lineCeiling = layout::kStackBase > permuted_ceiling
                            ? layout::kStackBase
                            : permuted_ceiling;
    space.codeCeiling = kContractCodeCeiling;
    return space;
}

AddressSpace
AddressSpace::forProgram(const trace::Program &prog)
{
    AddressSpace space = engineDefault();
    // Worst-case text extent over every permutation the Linker can
    // produce: each procedure contributes at most (align - 1) padding
    // bytes regardless of where the link order places it.
    Addr extent = layout::kDefaultTextBase;
    for (const auto &proc : prog.procedures()) {
        u32 align = proc.align ? proc.align : 1;
        extent += static_cast<Addr>(align - 1) + proc.bytes();
    }
    space.codeCeiling = extent;
    return space;
}

u32
requiredTagBits(u32 line_bytes, Addr ceiling)
{
    INTERF_ASSERT(isPow2(line_bytes));
    if (ceiling <= 1)
        return 0;
    u32 line_shift = static_cast<u32>(std::countr_zero(line_bytes));
    return static_cast<u32>(std::bit_width((ceiling - 1) >> line_shift));
}

namespace
{

/** Geometry preconditions (the CacheConfig::validate() fatal()s, as
 *  diagnostics). Returns false when the width analysis below would be
 *  meaningless. */
bool
auditCacheGeometry(const cache::CacheConfig &cfg, u32 cache_index,
                   verify::Sink &sink)
{
    using verify::EntityKind;
    bool ok = true;
    if (!isPow2(cfg.lineBytes)) {
        sink.error(EntityKind::Cache, cache_index,
                   strprintf("'%s': line size %u is not a power of two",
                             cfg.name.c_str(), cfg.lineBytes));
        ok = false;
    }
    if (cfg.assoc == 0) {
        sink.error(EntityKind::Cache, cache_index,
                   strprintf("'%s': associativity must be >= 1",
                             cfg.name.c_str()));
        return false;
    }
    if (!ok)
        return false;
    if (cfg.sizeBytes %
            (static_cast<u64>(cfg.lineBytes) * cfg.assoc) !=
        0) {
        sink.error(EntityKind::Cache, cache_index,
                   strprintf("'%s': size %llu not divisible by way "
                             "size %llu",
                             cfg.name.c_str(),
                             static_cast<unsigned long long>(
                                 cfg.sizeBytes),
                             static_cast<unsigned long long>(
                                 static_cast<u64>(cfg.lineBytes) *
                                 cfg.assoc)));
        return false;
    }
    u32 sets = cfg.numSets();
    if (!isPow2(sets)) {
        sink.error(EntityKind::Cache, cache_index,
                   strprintf("'%s': %u sets is not a power of two; "
                             "set indexing masks low bits, so sets "
                             "would silently alias",
                             cfg.name.c_str(), sets));
        return false;
    }
    return true;
}

void
auditCacheConfigIn(const cache::CacheConfig &cfg, u32 cache_index,
                   Addr line_ceiling, verify::Sink &sink)
{
    using cache::Cache;
    using verify::EntityKind;
    if (!auditCacheGeometry(cfg, cache_index, sink))
        return;

    // The largest line number must stay below the all-ones sentinel:
    // wider tags would alias distinct lines, and the sentinel itself
    // would read as an invalid way.
    const u32 line_shift =
        static_cast<u32>(std::countr_zero(cfg.lineBytes));
    const Addr max_line =
        line_ceiling ? (line_ceiling - 1) >> line_shift : 0;
    if (max_line >= Cache::kNoTag) {
        sink.error(
            EntityKind::Cache, cache_index,
            strprintf("'%s': addresses below %#llx need %u-bit line "
                      "tags; the split u32/u16 pair stores %u bits "
                      "with all-ones reserved for the invalid-way "
                      "sentinel, so distinct lines would alias",
                      cfg.name.c_str(),
                      static_cast<unsigned long long>(line_ceiling),
                      requiredTagBits(cfg.lineBytes, line_ceiling),
                      Cache::kTagBits));
    }
}

void
auditBtbConfigIn(u32 sets, u32 ways, Addr code_ceiling,
                 verify::Sink &sink)
{
    using verify::EntityKind;
    if (!isPow2(sets)) {
        sink.error(EntityKind::Btb, 0,
                   strprintf("%u sets is not a power of two", sets));
        return;
    }
    if (ways == 0 || ways > 32) {
        sink.error(EntityKind::Btb, 0,
                   strprintf("associativity %u outside 1..32", ways));
        return;
    }
    // Full-PC u32 tags: every branch PC must round-trip through the
    // cast, and the all-ones value is the invalid-way sentinel.
    if (code_ceiling > Addr{~u32{0}}) {
        sink.error(
            EntityKind::Btb, 0,
            strprintf("branch PCs can reach %#llx; u32 full-PC tags "
                      "cover only addresses below %#llx (all-ones is "
                      "the invalid-way sentinel)",
                      static_cast<unsigned long long>(code_ceiling - 1),
                      static_cast<unsigned long long>(Addr{~u32{0}})));
    }
}

class ConfigSoundness : public verify::Pass
{
  public:
    const char *name() const override { return kPassName; }

    bool applicable(const verify::Artifacts &a) const override
    {
        return a.machine != nullptr;
    }

    void run(const verify::Artifacts &a,
             verify::VerifyResult &out) const override
    {
        AddressSpace space = a.program
                                 ? AddressSpace::forProgram(*a.program)
                                 : AddressSpace::engineDefault();
        if (a.lineAddrCeiling)
            space.lineCeiling = a.lineAddrCeiling;
        if (a.codeAddrCeiling)
            space.codeCeiling = a.codeAddrCeiling;

        verify::Sink sink(out, a.path, kPassName);
        const core::MachineConfig &m = *a.machine;
        const cache::CacheConfig *caches[3] = {&m.hierarchy.l1i,
                                               &m.hierarchy.l1d,
                                               &m.hierarchy.l2};
        for (u32 i = 0; i < 3; ++i)
            auditCacheConfigIn(*caches[i], i, space.lineCeiling, sink);
        auditBtbConfigIn(m.btbSets, m.btbWays, space.codeCeiling,
                         sink);
    }
};

} // anonymous namespace

void
auditCacheConfig(const cache::CacheConfig &cfg, u32 cache_index,
                 Addr line_ceiling, const std::string &path,
                 verify::VerifyResult &out)
{
    verify::Sink sink(out, path, kPassName);
    auditCacheConfigIn(cfg, cache_index, line_ceiling, sink);
}

void
auditBtbConfig(u32 sets, u32 ways, Addr code_ceiling,
               const std::string &path, verify::VerifyResult &out)
{
    verify::Sink sink(out, path, kPassName);
    auditBtbConfigIn(sets, ways, code_ceiling, sink);
}

std::unique_ptr<verify::Pass>
makeConfigSoundness()
{
    return std::make_unique<ConfigSoundness>();
}

} // namespace interf::analyze
