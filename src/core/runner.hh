/**
 * @file
 * The measurement protocol: perfex-style counter collection.
 *
 * Section 5.5 of the paper: the Xeon counts two programmable events at
 * a time, so three groups of two are measured in separate runs; "For
 * each set we run each benchmark five times and take the measurements
 * given by the run with the median number of cycles."
 *
 * MeasurementRunner performs exactly that protocol against the timing
 * model + noise model: per layout, for each of the three event groups,
 * five noisy runs are taken and the median-cycle run's counters kept.
 * CPI comes from the branch group's run (any group would do); per-kilo
 * event rates use each group's own instruction count, just like
 * dividing raw perfex counters.
 *
 * Because the timing model is deterministic for a fixed layout, the
 * fifteen physical runs differ only in noise; the runner therefore
 * executes timing once and synthesizes the noisy repetitions, which is
 * behaviourally identical and an order of magnitude faster.
 */

#ifndef INTERF_CORE_RUNNER_HH
#define INTERF_CORE_RUNNER_HH

#include <vector>

#include "core/noise.hh"
#include "core/timing.hh"

namespace interf::core
{

/** One layout's final measured sample (after median-of-five). */
struct Measurement
{
    u64 layoutSeed = 0;

    double cpi = 0.0;
    double mpki = 0.0;    ///< Mispredicted branches / kilo-instruction.
    double l1iMpki = 0.0; ///< L1I misses / kilo-instruction.
    double l1dMpki = 0.0;
    double l2Mpki = 0.0;
    double btbMpki = 0.0;

    /** @{ Raw counters from the groups' median runs. */
    Cycle cycles = 0;
    Count instructions = 0;
    Count condBranches = 0;
    Count mispredicts = 0;
    Count l1iMisses = 0;
    Count l1dMisses = 0;
    Count l2Misses = 0;
    Count btbMisses = 0;
    /** @} */
};

/** Protocol parameters. */
struct RunnerConfig
{
    u32 runsPerGroup = 5; ///< The paper's five repetitions.
    NoiseConfig noise;
};

/** A measurement paired with its deterministic (noise-free) truth. */
struct MeasuredRun
{
    Measurement sample; ///< What the counter protocol reports.
    RunResult truth;    ///< What the machine actually did (pre-noise).
};

/**
 * Executes the three-group, median-of-five measurement protocol.
 *
 * A runner keeps no per-measurement state — everything a call produces
 * is in its return value — but it owns a mutable Machine, so one runner
 * must not be shared across threads. Parallel campaigns give each
 * worker its own runner (see interferometry::Campaign).
 */
class MeasurementRunner
{
  public:
    MeasurementRunner(const MachineConfig &machine,
                      const RunnerConfig &runner);

    /**
     * Measure one (trace, layout) configuration.
     *
     * @param noise_seed Seed for this layout's measurement noise; pass
     *        the layout seed so campaigns are reproducible end to end.
     */
    Measurement measure(const trace::Program &prog,
                        const trace::Trace &trace,
                        const layout::CodeLayout &code,
                        const layout::HeapLayout &heap, u64 noise_seed);

    /** As above with an explicit page mapping for physical L2
     *  indexing. */
    Measurement measure(const trace::Program &prog,
                        const trace::Trace &trace,
                        const layout::CodeLayout &code,
                        const layout::HeapLayout &heap,
                        const layout::PageMap &pages, u64 noise_seed);

    /** @{ As measure(), also returning the noise-free ground truth. */
    MeasuredRun measureWithTruth(const trace::Program &prog,
                                 const trace::Trace &trace,
                                 const layout::CodeLayout &code,
                                 const layout::HeapLayout &heap,
                                 u64 noise_seed);

    MeasuredRun measureWithTruth(const trace::Program &prog,
                                 const trace::Trace &trace,
                                 const layout::CodeLayout &code,
                                 const layout::HeapLayout &heap,
                                 const layout::PageMap &pages,
                                 u64 noise_seed);
    /** @} */

    /**
     * @{ Plan-based measurement: the campaign hot path. Replays a
     * compiled ReplayPlan under one layout's address tables instead of
     * walking Program + Trace; identical protocol, identical results
     * (the replay kernel is bit-identical to the reference loop).
     */
    Measurement measure(const trace::ReplayPlan &plan,
                        const trace::LayoutTables &tables, u64 noise_seed);

    MeasuredRun measureWithTruth(const trace::ReplayPlan &plan,
                                 const trace::LayoutTables &tables,
                                 u64 noise_seed);
    /** @} */

    /**
     * @{ The two halves of plan-based measurement:
     * measureWithTruth(plan, tables, seed) is
     * protocol(replay(plan, tables), seed). A caller that already holds
     * a layout's noise-free truth (opt::FitnessOracle's replay-
     * equivalence memo) runs only the protocol.
     */
    RunResult replay(const trace::ReplayPlan &plan,
                     const trace::LayoutTables &tables);

    /** The three-group median-of-five protocol over one truth run. */
    MeasuredRun protocol(const RunResult &truth, u64 noise_seed) const;
    /** @} */

  private:

    Machine machine_;
    RunnerConfig cfg_;
};

} // namespace interf::core

#endif // INTERF_CORE_RUNNER_HH
