#include "core/runner.hh"

#include "stats/descriptive.hh"
#include "telemetry/span.hh"
#include "util/logging.hh"

namespace interf::core
{

MeasurementRunner::MeasurementRunner(const MachineConfig &machine,
                                     const RunnerConfig &runner)
    : machine_(machine), cfg_(runner)
{
    if (cfg_.runsPerGroup == 0)
        fatal("runsPerGroup must be >= 1");
}

Measurement
MeasurementRunner::measure(const trace::Program &prog,
                           const trace::Trace &trace,
                           const layout::CodeLayout &code,
                           const layout::HeapLayout &heap, u64 noise_seed)
{
    return measure(prog, trace, code, heap, layout::PageMap(),
                   noise_seed);
}

Measurement
MeasurementRunner::measure(const trace::Program &prog,
                           const trace::Trace &trace,
                           const layout::CodeLayout &code,
                           const layout::HeapLayout &heap,
                           const layout::PageMap &pages, u64 noise_seed)
{
    return measureWithTruth(prog, trace, code, heap, pages, noise_seed)
        .sample;
}

MeasuredRun
MeasurementRunner::measureWithTruth(const trace::Program &prog,
                                    const trace::Trace &trace,
                                    const layout::CodeLayout &code,
                                    const layout::HeapLayout &heap,
                                    u64 noise_seed)
{
    return measureWithTruth(prog, trace, code, heap, layout::PageMap(),
                            noise_seed);
}

MeasuredRun
MeasurementRunner::measureWithTruth(const trace::Program &prog,
                                    const trace::Trace &trace,
                                    const layout::CodeLayout &code,
                                    const layout::HeapLayout &heap,
                                    const layout::PageMap &pages,
                                    u64 noise_seed)
{
    return protocol(machine_.run(prog, trace, code, heap, pages),
                    noise_seed);
}

Measurement
MeasurementRunner::measure(const trace::ReplayPlan &plan,
                           const trace::LayoutTables &tables,
                           u64 noise_seed)
{
    return measureWithTruth(plan, tables, noise_seed).sample;
}

MeasuredRun
MeasurementRunner::measureWithTruth(const trace::ReplayPlan &plan,
                                    const trace::LayoutTables &tables,
                                    u64 noise_seed)
{
    INTERF_SPAN("runner.measure");
    return protocol(machine_.replay(plan, tables), noise_seed);
}

RunResult
MeasurementRunner::replay(const trace::ReplayPlan &plan,
                          const trace::LayoutTables &tables)
{
    INTERF_SPAN("runner.replay");
    return machine_.replay(plan, tables);
}

MeasuredRun
MeasurementRunner::protocol(const RunResult &truth_in,
                            u64 noise_seed) const
{
    MeasuredRun out;
    out.truth = truth_in;
    const RunResult &truth = out.truth;
    NoiseModel noise(cfg_.noise, noise_seed);

    auto groups = pmu::standardGroups();
    INTERF_ASSERT(groups.size() == 3);

    // Per group: five noisy runs; keep the median-cycle run. The
    // sample buffer lives outside the lambda so one measurement makes
    // one allocation, not one per group.
    std::vector<double> cycle_samples;
    cycle_samples.reserve(cfg_.runsPerGroup);
    auto median_cycles_for_group = [&](u32 group_idx) -> Cycle {
        cycle_samples.clear();
        for (u32 rep = 0; rep < cfg_.runsPerGroup; ++rep) {
            u64 run_id = static_cast<u64>(group_idx) * cfg_.runsPerGroup +
                         rep;
            cycle_samples.push_back(static_cast<double>(
                noise.perturbCycles(run_id, truth.cycles)));
        }
        size_t keep = stats::medianIndex(cycle_samples);
        return static_cast<Cycle>(cycle_samples[keep]);
    };

    auto truth_count = [&](pmu::Event ev) -> u64 {
        switch (ev) {
          case pmu::Event::RetiredBranches:
            return truth.condBranches;
          case pmu::Event::MispredBranches:
            return truth.mispredicts;
          case pmu::Event::L1IMisses:
            return truth.l1iMisses;
          case pmu::Event::L1DMisses:
            return truth.l1dMisses;
          case pmu::Event::L2Misses:
            return truth.l2Misses;
          case pmu::Event::BtbMisses:
            return truth.btbMisses;
          default:
            panic("unexpected programmable event");
        }
    };

    Measurement &m = out.sample;
    m.layoutSeed = noise_seed;
    m.instructions = truth.instructions;

    for (u32 g = 0; g < groups.size(); ++g) {
        pmu::Pmu pmu;
        pmu.program(groups[g]);
        pmu.count(pmu::Event::RetiredInsts, truth.instructions);
        pmu.count(groups[g].a, truth_count(groups[g].a));
        pmu.count(groups[g].b, truth_count(groups[g].b));
        pmu.count(pmu::Event::Cycles, median_cycles_for_group(g));

        u64 cycles = pmu.read(pmu::Event::Cycles);
        u64 insts = pmu.read(pmu::Event::RetiredInsts);
        double kilo = static_cast<double>(insts) / 1000.0;
        u64 a = pmu.read(groups[g].a);
        u64 b = pmu.read(groups[g].b);
        switch (g) {
          case 0: // branches group also provides CPI
            m.cycles = cycles;
            m.cpi = static_cast<double>(cycles) /
                    static_cast<double>(insts);
            m.mispredicts = a;
            m.condBranches = b;
            m.mpki = static_cast<double>(a) / kilo;
            break;
          case 1:
            m.l1iMisses = a;
            m.l1dMisses = b;
            m.l1iMpki = static_cast<double>(a) / kilo;
            m.l1dMpki = static_cast<double>(b) / kilo;
            break;
          case 2:
            m.l2Misses = a;
            m.btbMisses = b;
            m.l2Mpki = static_cast<double>(a) / kilo;
            m.btbMpki = static_cast<double>(b) / kilo;
            break;
          default:
            panic("unexpected group index %u", g);
        }
    }
    return out;
}

} // namespace interf::core
