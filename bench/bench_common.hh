/**
 * @file
 * Shared plumbing for the figure/table reproduction benches.
 *
 * Every bench accepts the same scale flags: the defaults regenerate the
 * figure in seconds at reduced scale; --layouts 100 --instructions
 * 1000000 (and up) approach the paper's scale. --csv writes the
 * machine-readable series next to the printed table.
 */

#ifndef INTERF_BENCH_COMMON_HH
#define INTERF_BENCH_COMMON_HH

#include <string>

#include "interferometry/campaign.hh"
#include "telemetry/progress.hh"
#include "telemetry/span.hh"
#include "telemetry/telemetry.hh"
#include "util/logging.hh"
#include "util/options.hh"

namespace interf::bench
{

/** Scale parameters shared by all benches. */
struct Scale
{
    u32 layouts = 40;
    u64 instructions = 300000;
    u32 jobs = 0; ///< Measurement worker threads (0 = all hardware).
    std::string storeDir; ///< Campaign artifact store (empty = off).
    std::string csvPath;
    std::string telemetryDir; ///< --telemetry-out: traces + manifests.
    std::string only; ///< Restrict to benchmarks containing this text.
};

/** Register the shared flags on a parser. */
inline void
addScaleOptions(OptionParser &opts, u32 default_layouts = 40,
                u64 default_insts = 300000)
{
    opts.addInt("layouts", default_layouts,
                "code reorderings per benchmark (paper: 100)");
    opts.addInt("instructions", static_cast<i64>(default_insts),
                "dynamic instructions per run (paper: billions)");
    opts.addInt("jobs", 0,
                "worker threads for layout measurement (0 = one per "
                "hardware thread, 1 = serial); results are identical "
                "for any value");
    opts.addString("store", "",
                   "campaign artifact store directory: measured "
                   "batches are checkpointed there and reruns load "
                   "byte-identical samples instead of re-measuring "
                   "(empty = off)");
    opts.addString("csv", "", "also write results to this CSV file");
    opts.addString("telemetry-out", "",
                   "enable telemetry and write the Perfetto-loadable "
                   "phase trace plus per-campaign run manifests into "
                   "this directory (empty = off)");
    opts.addFlag("progress",
                 "live campaign progress ticker on stderr (TTY only; "
                 "implies telemetry)");
    opts.addString("only", "",
                   "restrict to benchmarks whose name contains this");
}

/** Read the shared flags back. */
inline Scale
readScale(const OptionParser &opts)
{
    Scale s;
    s.layouts = static_cast<u32>(opts.getInt("layouts"));
    s.instructions = static_cast<u64>(opts.getInt("instructions"));
    s.storeDir = opts.getString("store");
    s.csvPath = opts.getString("csv");
    s.telemetryDir = opts.getString("telemetry-out");
    s.only = opts.getString("only");
    if (s.layouts < 1)
        fatal("--layouts must be >= 1");
    if (s.instructions < 10000)
        fatal("--instructions must be >= 10000");
    if (opts.getInt("jobs") < 0)
        fatal("--jobs must be >= 0");
    s.jobs = static_cast<u32>(opts.getInt("jobs"));
    // --telemetry-out records spans for the trace + manifests; the
    // progress ticker reads the same spans.
    if (!s.telemetryDir.empty())
        telemetry::setOutputDir(s.telemetryDir);
    else if (opts.getFlag("progress"))
        telemetry::enable();
    if (opts.getFlag("progress"))
        telemetry::installStderrProgressTicker();
    return s;
}

/**
 * End-of-main telemetry hook for every bench: with --telemetry-out,
 * exports the accumulated spans as a Chrome trace-event file
 * (trace.json, loadable at ui.perfetto.dev) into the output directory.
 * Campaign manifests land there on their own as campaigns destruct.
 */
inline void
finishTelemetry(const Scale &scale)
{
    if (scale.telemetryDir.empty() || !telemetry::enabled())
        return;
    telemetry::writeChromeTrace(scale.telemetryDir + "/trace.json");
}

/** Campaign configuration at the requested scale. */
inline interferometry::CampaignConfig
campaignConfig(const Scale &scale)
{
    interferometry::CampaignConfig cfg;
    cfg.instructionBudget = scale.instructions;
    cfg.initialLayouts = scale.layouts;
    cfg.maxLayouts = scale.layouts;
    cfg.jobs = scale.jobs;
    cfg.storeDir = scale.storeDir;
    return cfg;
}

/** Should this benchmark run under the --only filter? */
inline bool
selected(const Scale &scale, const std::string &name)
{
    return scale.only.empty() ||
           name.find(scale.only) != std::string::npos;
}

} // namespace interf::bench

#endif // INTERF_BENCH_COMMON_HH
