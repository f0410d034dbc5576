/**
 * @file
 * The machine timing model: our stand-in for the real Xeon E5440.
 *
 * The paper never simulates its machine — it *measures* it. We have no
 * hardware, so this model plays the hardware's role: a deterministic,
 * interval-analysis-style out-of-order core whose cycle count emerges
 * from the interaction of the layout-sensitive structures:
 *
 *  - the front end fetches through the L1I (code layout decides which
 *    lines conflict) and redirects through the BTB;
 *  - the conditional branch predictor (the reverse-engineered hybrid)
 *    is indexed with *physical branch addresses*, so layouts alias
 *    different branch sites in its tables;
 *  - mispredicted branches pay the front-end refill plus their
 *    *resolution* time — a branch depending on an L2-missing load pays
 *    hundreds of cycles, which is how some benchmarks end up with
 *    Table-1 slopes far above the pipeline depth;
 *  - data misses overlap up to a configurable MLP within the ROB reach,
 *    so memory CPI is not simply misses x latency.
 *
 * Crucially, nothing here hard-codes CPI = a + b*MPKI: linearity (and
 * its imperfections, Section 3) is an emergent, measured property.
 */

#ifndef INTERF_CORE_TIMING_HH
#define INTERF_CORE_TIMING_HH

#include <memory>

#include "bpred/btb.hh"
#include "bpred/ras.hh"
#include "bpred/predictor.hh"
#include "cache/hierarchy.hh"
#include "core/config.hh"
#include "layout/heap.hh"
#include "layout/pagemap.hh"
#include "layout/linker.hh"
#include "pmu/pmu.hh"
#include "trace/replay.hh"
#include "trace/trace.hh"

namespace interf::core
{

/** Deterministic outcome of one timing run (pre-noise). */
struct RunResult
{
    Cycle cycles = 0;
    Count instructions = 0;
    Count condBranches = 0;
    Count mispredicts = 0; ///< Conditional direction mispredictions.
    Count l1iMisses = 0;
    Count l1dMisses = 0;
    Count l2Misses = 0;
    Count l2InstMisses = 0; ///< L2-miss breakdown: demand fetch.
    Count l2PrefMisses = 0; ///< L2-miss breakdown: I-prefetch.
    Count l2DataMisses = 0; ///< L2-miss breakdown: loads/stores.
    Count btbMisses = 0; ///< Taken-branch target misses (incl. indirect).
    Count rasMispredicts = 0; ///< Return-address-stack mispredictions.

    double cpi() const;
    double mpki() const;
    double perKilo(Count events) const;
};

/**
 * The machine. Owns its microarchitectural state (caches, predictor,
 * BTB); run() executes one trace under one layout from power-on state
 * and returns the deterministic counters.
 */
class Machine
{
  public:
    explicit Machine(const MachineConfig &config);

    /**
     * Execute a trace under a code + data layout.
     *
     * A thin adapter over replay(): compiles the trace into a one-off
     * ReplayPlan and LayoutTables, then runs the dense kernel.
     * Callers replaying the same trace many times (campaigns, sweeps)
     * should build the plan once and call replay() directly.
     *
     * @param prog Static program (block geometry).
     * @param trace Dynamic trace (layout-invariant semantics).
     * @param code Address assignment for code.
     * @param heap Address assignment for data.
     */
    RunResult run(const trace::Program &prog, const trace::Trace &trace,
                  const layout::CodeLayout &code,
                  const layout::HeapLayout &heap);

    /**
     * As above, with an explicit virtual-to-physical page mapping used
     * for L2 indexing (see layout/pagemap.hh). The four-argument
     * overload uses the identity mapping.
     */
    RunResult run(const trace::Program &prog, const trace::Trace &trace,
                  const layout::CodeLayout &code,
                  const layout::HeapLayout &heap,
                  const layout::PageMap &pages);

    /**
     * Replay a compiled plan under one layout's address tables: the
     * hot path of every campaign. Iterates the plan's flat arrays with
     * no Program or Trace access, with a specialized fast path when
     * the page mapping is the identity.
     *
     * Bit-identical to runReference() on the same (trace, layout) —
     * every counter and cycle count — which tests/test_replay.cc
     * enforces. The tables must carry data addresses (not code-only).
     */
    RunResult replay(const trace::ReplayPlan &plan,
                     const trace::LayoutTables &tables);

    /**
     * The event-at-a-time reference implementation: walks Program and
     * Trace directly, one block event at a time. This is the
     * executable specification the replay kernel is tested against
     * (and the pre-plan measurement path benchmarked as "legacy" in
     * bench_micro_replay); not for hot loops.
     */
    RunResult runReference(const trace::Program &prog,
                           const trace::Trace &trace,
                           const layout::CodeLayout &code,
                           const layout::HeapLayout &heap,
                           const layout::PageMap &pages);

    const MachineConfig &config() const { return cfg_; }

    /**
     * Microarchitectural hot-state bytes one replay keeps: the
     * hierarchy's tag/stamp arrays, the predictor's counter tables,
     * the BTB, and the RAS ring (DESIGN.md §5j). The bench reports
     * it per row.
     */
    u64 laneStateBytes() const;

  private:
    void resetState();

    template <bool IdentityPages, bool UseLineTable>
    RunResult replayImpl(const trace::ReplayPlan &plan,
                         const trace::LayoutTables &tables);

    MachineConfig cfg_;
    cache::MemoryHierarchy hierarchy_;
    bpred::PredictorPtr predictor_;
    bpred::Btb btb_;
    bpred::ReturnAddressStack ras_;
};

/**
 * Refuse, with fatal() in every build type, a plan whose one replay
 * could wrap an LRU cache's u32 stamp clock. Machine restarts the
 * clock at every reset, so the bound is per replay: at most
 * 2 * fetchLines advances for the L1I (demand touch + next-line
 * prefetch install), memCount for the L1D, and their sum for the L2,
 * where fetchLines sums bytes / line + 1 over the plan's events (a
 * block spans at most that many L1I lines wherever it is placed).
 * Random-replacement caches keep no stamps and are exempt. @p machine
 * must pass MachineConfig::validate().
 */
void requireLruClockBound(const MachineConfig &machine,
                          const trace::ReplayPlan &plan);

} // namespace interf::core

#endif // INTERF_CORE_TIMING_HH
