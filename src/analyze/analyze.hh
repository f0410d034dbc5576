/**
 * @file
 * Static soundness analysis of machine configurations.
 *
 * Replay correctness rests on a few *representation invariants*: cache
 * tags are line numbers stored in a 48-bit split u32/u16 pair, LRU
 * recency is a u32 stamp clock restarted at every reset, BTB tags are
 * u32 full PCs with u8 per-set ages, and the plan indexes its tables
 * with u32. Those invariants hold on the default Xeon E5440 config —
 * tests pin them there — but a campaign on another cache/BTB geometry
 * or a larger address space could break one silently.
 *
 * This module *proves* the invariants per MachineConfig before any
 * replay runs, without constructing a Cache or materializing a single
 * layout table, and reports through the verify diagnostics-as-data
 * framework. Two passes (DESIGN.md §5k):
 *
 *   - ConfigSoundness: interval/width analysis. Derives the required
 *     tag bits from the address space the layout engines + page maps
 *     can reach and proves the split tagsLo(u32)/tagsHi(u16) pair
 *     covers it for every cache, and the u32 full-PC tags for the
 *     BTB; re-derives the geometry preconditions as typed
 *     diagnostics.
 *   - PlanBounds: wrap-bound analysis. Bounds LRU clock advance per
 *     replay from a ReplayPlan's event counts and proves the u32
 *     stamp clock (restarted every reset) can never wrap — hence never
 *     invert victim choice — within one replay; checks the plan's
 *     index widths against their u32 sentinels.
 *
 * Trust boundaries: Campaign and opt::FitnessOracle refuse unsound
 * configs fail-closed (always, not only under verifyOnTrust() — the
 * analysis is a few hundred comparisons per campaign). The
 * tools/interf_analyze CLI exposes the same passes for geometry
 * audits.
 */

#ifndef INTERF_ANALYZE_ANALYZE_HH
#define INTERF_ANALYZE_ANALYZE_HH

#include <memory>
#include <string>

#include "cache/cache.hh"
#include "verify/verify.hh"

#include "util/types.hh"

namespace interf::core
{
struct MachineConfig;
}
namespace interf::trace
{
class Program;
class ReplayPlan;
}

namespace interf::analyze
{

/**
 * Exclusive upper bounds of the address space the soundness analysis
 * must cover. Two ceilings because two different structures index
 * them: caches see post-page-map line addresses (data up to the stack
 * anchor, code possibly lifted by the Feistel permutation), the BTB
 * sees raw branch PCs.
 */
struct AddressSpace
{
    Addr lineCeiling = 0; ///< Any cache-indexed address is below this.
    Addr codeCeiling = 0; ///< Any branch PC is below this.

    /**
     * The engine contract with no program bound: data addresses stay
     * below the stack anchor (layout::kStackBase — globals, heap and
     * stack regions are all placed under it, and the page-map Feistel
     * permutation can lift an address to at most 2^(pageBits +
     * permutedVpnBits), which is lower still); code addresses stay
     * within the non-PIE text model's low 2 GiB. forProgram() replaces
     * the code ceiling with a proven per-program bound.
     */
    static AddressSpace engineDefault();

    /**
     * engineDefault() tightened by @p prog: the code ceiling becomes
     * the worst-case text extent over *all* layout permutations
     * (textBase + sum of every procedure's size plus maximal alignment
     * padding — sound for any link order the Linker can produce).
     */
    static AddressSpace forProgram(const trace::Program &prog);
};

/** @{ Pure derived facts, shared by the passes, the CLI report and
 *  the seeded-unsoundness tests. */

/** Tag bits needed to address lines below @p ceiling: the bit width
 *  of the largest line number, (ceiling - 1) >> log2(line_bytes).
 *  @p line_bytes must be a nonzero power of two. */
u32 requiredTagBits(u32 line_bytes, Addr ceiling);

/**
 * Upper bounds on LRU clock advance within ONE replay of @p plan —
 * the interval the per-reset stamp-clock restart re-establishes.
 * fetchLines bounds the demand-fetched L1I lines per replay; each can
 * advance the L1I clock at most twice (demand touch + prefetch
 * install) and the L2 clock at most twice (demand miss + prefetch
 * fill probe). Every data access advances L1D at most once and L2 at
 * most once.
 */
struct LruAdvanceBounds
{
    u64 fetchLines = 0;
    u64 l1i = 0;
    u64 l1d = 0;
    u64 l2 = 0;

    u64 forCache(u32 cache_index) const
    {
        return cache_index == 0 ? l1i : cache_index == 1 ? l1d : l2;
    }
};

LruAdvanceBounds lruAdvanceBounds(const core::MachineConfig &machine,
                                  const trace::ReplayPlan &plan);
/** @} */

/**
 * @{ Lower-level seams the passes delegate to, exposed (mirroring
 * verify::verifyPlacements and friends) so the seeded-unsoundness
 * matrix in tests/test_analyze.cc can feed hand-built inputs. Cache
 * indices follow EntityKind::Cache: 0 = L1I, 1 = L1D, 2 = L2.
 */

/** Geometry preconditions + tag-width coverage of one cache against
 *  @p line_ceiling. */
void auditCacheConfig(const cache::CacheConfig &cfg, u32 cache_index,
                      Addr line_ceiling, const std::string &path,
                      verify::VerifyResult &out);

/** BTB geometry + u32 full-PC tag coverage against @p code_ceiling. */
void auditBtbConfig(u32 sets, u32 ways, Addr code_ceiling,
                    const std::string &path, verify::VerifyResult &out);

/** Prove a per-replay LRU clock advance bound safe: an LRU cache's
 *  u32 stamp clock must stay below 2^32 (random caches keep no
 *  stamps). */
void checkLruAdvanceBound(const cache::CacheConfig &cfg,
                          u64 advance_bound, u32 cache_index,
                          const std::string &path,
                          verify::VerifyResult &out);
/** @} */

/** @{ Pass factories (verify::Pass; see verify/verify.hh). */
std::unique_ptr<verify::Pass> makeConfigSoundness();
std::unique_ptr<verify::Pass> makePlanBounds();
/** @} */

/** Both soundness passes in dependency order. */
verify::PassManager soundnessPasses();

/**
 * Convenience entry point: analyze @p machine (plus whatever optional
 * artifacts are supplied) and return the merged result.
 */
verify::VerifyResult
analyzeMachine(const core::MachineConfig &machine,
               const trace::ReplayPlan *plan = nullptr,
               const trace::Program *prog = nullptr,
               const std::string &path = "<machine>");

/**
 * Fail-closed trust boundary: panic with the diagnostics when
 * @p machine (optionally checked against @p plan) breaks a
 * representation invariant. Campaign and FitnessOracle call this
 * before any replay state is built, so an unsound machine config dies
 * with a typed explanation instead of asserting (Debug) or silently
 * corrupting victim choice (Release) deep inside the kernel.
 *
 * Returns @p machine, so a constructor can run the config-only check
 * (@p plan null) in its member-initializer list, ahead of the member
 * that builds a Machine from the config.
 */
const core::MachineConfig &
requireSoundMachine(const core::MachineConfig &machine,
                    const trace::ReplayPlan *plan, const char *what);

/**
 * Apply a config-override spec ("l1i.line=16,l2.assoc=24,btb.sets=512")
 * to @p machine. Keys: {l1i,l1d,l2}.{size,assoc,line,repl} (repl takes
 * lru|random; sizes accept k/m suffixes) and btb.{sets,ways}. Returns
 * false and sets @p error on a malformed spec.
 */
bool applyConfigOverride(core::MachineConfig &machine,
                         const std::string &spec, std::string *error);

} // namespace interf::analyze

#endif // INTERF_ANALYZE_ANALYZE_HH
