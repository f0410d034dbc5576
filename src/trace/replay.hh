/**
 * @file
 * Compiled replay plans: the trace flattened for dense replay.
 *
 * Campaigns replay one immutable (Program, Trace) pair under hundreds
 * of layouts, and the per-event cost of that replay used to be
 * dominated by layout-invariant work: the `prog.block(ev.proc,
 * ev.block)` double indirection, branch-kind dispatch over the static
 * branch record, per-reference `HeapLayout::dataAddr` decoding and
 * page translation. A ReplayPlan pays all of that exactly once per
 * campaign by pre-decoding the trace into structure-of-arrays form —
 * per-event dense site id, geometry, memory-reference counts and
 * branch flags, with every control-flow target resolved to a dense
 * *site* id (a global basic-block index).
 *
 * Per layout, the only state the replay kernel needs is a
 * LayoutTables: two flat address arrays filled from the CodeLayout in
 * one pass (`siteAddr`, `branchAddr`) plus a data-address table
 * materialized from the HeapLayout over the trace's memory-id stream
 * (pre-translated through the PageMap, whose only consumer for data
 * addresses is the physically-indexed cache hierarchy).
 *
 * The contract is strict: `Machine::replay(plan, tables)` produces a
 * RunResult bit-identical to the event-at-a-time reference loop
 * (`Machine::runReference`), for every counter and cycle count; see
 * tests/test_replay.cc. Both the plan and the tables are immutable
 * after construction and safe to share across threads.
 */

#ifndef INTERF_TRACE_REPLAY_HH
#define INTERF_TRACE_REPLAY_HH

#include <vector>

#include "layout/heap.hh"
#include "layout/linker.hh"
#include "layout/pagemap.hh"
#include "trace/trace.hh"
#include "util/types.hh"

namespace interf::trace
{

/**
 * A Trace + Program compiled into flat, replay-ready arrays.
 *
 * A *site* is a static basic block, numbered densely proc-major:
 * site(proc, block) = procFirstSite[proc] + block. Every per-event
 * control-flow reference (branch target, call fall-through, return
 * successor) is pre-resolved to a site id, so the replay kernel never
 * touches the Program.
 *
 * Build once per campaign (next to the trace); immutable afterwards
 * and safe to share across pool workers.
 */
class ReplayPlan
{
  public:
    /** @{ Per-event flag bits (see flags). */
    static constexpr u8 kTaken = 1u << 0; ///< Terminator redirected fetch.
    static constexpr u8 kCond = 1u << 1;  ///< Conditional terminator.
    static constexpr u8 kDependsOnLoad = 1u << 2; ///< Cond resolution
                                                  ///< waits on newest load.
    static constexpr u8 kReturn = 1u << 3;
    static constexpr u8 kCall = 1u << 4;
    static constexpr u8 kIndirect = 1u << 5;
    static constexpr u8 kHasBranch = 1u << 6; ///< Terminator exists.
    /** @} */

    /** Sentinel for "no site" (no fall-through, no successor). */
    static constexpr u32 kNoSite = ~u32{0};

    ReplayPlan() = default;

    /** Flatten @p trace against @p prog. The trace must validate(). */
    ReplayPlan(const Program &prog, const Trace &trace);

    /** @{ Per-event arrays, all of length eventCount(). */
    std::vector<u32> site;    ///< Dense site id of the executed block.
    std::vector<u32> bytes;   ///< Code bytes (fetch-line span).
    std::vector<u16> nInsts;  ///< Instructions retired by the block.
    std::vector<u8> extraExecCycles; ///< Intrinsic dependence stalls.
    std::vector<u16> nMem;    ///< Memory references consumed.
    std::vector<u8> flags;    ///< kTaken | kCond | ... bits.
    std::vector<u32> targetSite;  ///< Taken-redirect target site
                                  ///< (indirect choice resolved).
    std::vector<u32> rasPushSite; ///< Call fall-through site or kNoSite.
    std::vector<u32> returnSite;  ///< Return successor site or kNoSite.
    /** @} */

    /** @{ Memory stream, aligned index-for-index with Trace::memIds. */
    std::vector<u64> memId;     ///< Logical (region, offset) ids.
    std::vector<u8> memIsStore; ///< 1 for stores, 0 for loads.
    std::vector<u32> memRank;   ///< Position -> index into memUniverse.
    /** @} */

    /**
     * The trace's memId universe: each distinct id once, in first-
     * appearance order. Traces revisit the same ids many times
     * (working sets are far smaller than the access stream), so
     * per-layout address materialization decodes each unique id once
     * and gathers the stream through memRank.
     */
    std::vector<u64> memUniverse;

    /** @{ Conditional-branch substream (the pinsim replay input). */
    std::vector<u32> condSite;
    std::vector<u8> condTaken;
    /** @} */

    /** @{ Site table: dense site id <-> (proc, block). */
    std::vector<u32> siteProc;
    std::vector<u32> siteBlock;
    std::vector<u32> siteBytes;     ///< Code bytes of the site's block.
    std::vector<u32> procFirstSite; ///< proc id -> its first site id.
    /** @} */

    /**
     * Every site whose LayoutTables entries (`siteAddr`, `branchAddr`
     * and the fetch lines derived from `siteAddr`) Machine::replay
     * reads, ascending: each event's own site, plus the successor of a
     * return, the target of a taken redirect and the fall-through a
     * taken call pushes. Two layouts that agree on these sites (and on
     * data addresses) replay identically. Executed sites alone are not
     * enough: a pushed fall-through need never execute.
     */
    std::vector<u32> visibleSites;

    /** Total instructions in the trace (Trace::instCount). */
    u64 instCount = 0;

    size_t eventCount() const { return site.size(); }
    size_t memCount() const { return memId.size(); }
    size_t siteCount() const { return siteProc.size(); }

    /** Dense site id of (proc, block). */
    u32 siteOf(u32 proc_id, u32 block_id) const
    {
        return procFirstSite[proc_id] + block_id;
    }

    /** Bytes held by every array above: size x element size. */
    u64 memoryBytes() const;
};

/**
 * Per-layout address tables for one replay: everything a layout
 * contributes, reduced to flat arrays indexed by site id (code) and
 * memory-stream position (data).
 *
 * Data addresses are pre-translated through the PageMap — the
 * physically-indexed hierarchy is their only consumer — while
 * instruction fetch translates at replay time because fetch lines are
 * derived per event. Immutable after construction.
 */
class LayoutTables
{
  public:
    LayoutTables() = default;

    /**
     * Code-only tables (no data addresses): enough for branch-stream
     * replay (pinsim), rejected by Machine::replay.
     */
    LayoutTables(const ReplayPlan &plan, const layout::CodeLayout &code);

    /**
     * Full tables for a (code, heap, pages) layout triple.
     *
     * @param fetch_line_bytes L1I line size used to pre-translate each
     *        site's fetch lines (only consulted for non-identity page
     *        maps). Machines with a different line size fall back to
     *        translating at replay time; results are identical.
     */
    LayoutTables(const ReplayPlan &plan, const layout::CodeLayout &code,
                 const layout::HeapLayout &heap,
                 const layout::PageMap &pages = layout::PageMap(),
                 u32 fetch_line_bytes = 64);

    /** @{ Indexed by site id. */
    std::vector<Addr> siteAddr;   ///< Block start (virtual).
    std::vector<Addr> branchAddr; ///< Terminator instruction (virtual).
    /** @} */

    /** Pre-translated data address per memory-stream position. */
    std::vector<Addr> dataAddr;

    /**
     * @{ Pre-translated instruction fetch lines (non-identity page
     * maps only): site s's k-th line is linePhys[siteLineStart[s] + k].
     * Line counts are per layout (they depend on the block's placement
     * within its first line), so the index is rebuilt per layout.
     */
    std::vector<Addr> linePhys;
    std::vector<u32> siteLineStart; ///< Size siteCount() + 1.
    /** @} */

    /** The page mapping used for instruction-fetch translation. */
    const layout::PageMap &pages() const { return pages_; }

    /** True when instruction fetch needs no translation. */
    bool identityPages() const { return pages_.isIdentity(); }

    /** False for code-only tables (pinsim use). */
    bool hasData() const { return hasData_; }

    /** Line size linePhys was built for (0: not built). */
    u32 fetchLineBytes() const { return fetchLineBytes_; }

  private:
    void fillCode(const ReplayPlan &plan, const layout::CodeLayout &code);

    /** Build linePhys/siteLineStart (non-identity page maps only). */
    void buildLineTable(const ReplayPlan &plan, u32 fetch_line_bytes);

    layout::PageMap pages_;
    bool hasData_ = false;
    u32 fetchLineBytes_ = 0;
};

} // namespace interf::trace

#endif // INTERF_TRACE_REPLAY_HH
