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

#include <fstream>
#include <string>
#include <utility>
#include <vector>

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
    std::string jsonPath; ///< Machine-readable result file (empty = off).
    std::string telemetryDir; ///< --telemetry-out: traces + manifests.
    std::string only; ///< Restrict to benchmarks containing this text.
};

/** One machine-readable throughput row for the --json report. */
struct JsonRow
{
    std::string benchmark; ///< e.g. "micro_replay/plan".
    std::string config;    ///< e.g. "jobs=1 layouts=40".
    double layoutsPerSec = 0.0;
    double eventsPerSec = 0.0; ///< 0 when the bench has no event axis.
    double wallMs = 0.0;       ///< Wall time of one measured batch.
    u64 stateBytesPerLane = 0; ///< Microarchitectural hot state per
                               ///< replay (0 = no replay axis).
};

/**
 * Collects JsonRow records and writes them as a single JSON document:
 *
 *   { "schema": "interf-bench-1",
 *     "schemaVersion": 5,
 *     "rows": [ { "benchmark": ..., "config": ...,
 *                 "layouts_per_sec": ..., "events_per_sec": ...,
 *                 "wall_ms": ... }, ... ],
 *     "phases": [ { "name": ..., "count": ...,
 *                   "wall_ms": ..., "thread_ms": ... }, ... ] }
 *
 * CI jobs upload this file as the perf artifact, so the field names are
 * a (small) stable interface; extend, don't rename (the document shape
 * is pinned by docs/bench-report.schema.json, which CI validates).
 * schemaVersion 2 added the version field itself and the "phases"
 * array — where the wall time went, per telemetry phase span, present
 * when telemetry was enabled for the run (--json implies it) and empty
 * otherwise. schemaVersion 3 marks the batched replay sweep: with
 * --batch K, bench_micro_replay emits "micro_replay/batched_k{k}" rows
 * (k lanes per pass over the event stream) whose layouts_per_sec is
 * directly comparable to the "micro_replay/plan" row at the same
 * config. schemaVersion 4 adds two fields to every row:
 * "state_bytes_per_lane" — the microarchitectural hot state one
 * replay keeps (cache tag/age/generation arrays, predictor tables,
 * BTB, RAS; 0 for benches with no replay axis) — and "verify_rate",
 * the batched kernel's way-memo hit rate. schemaVersion 5 retires the
 * batched kernel (DESIGN.md §5h): the batched_k{k} rows and the
 * "verify_rate" field are gone.
 */
class JsonReport
{
  public:
    void add(JsonRow row) { rows_.push_back(std::move(row)); }

    bool empty() const { return rows_.empty(); }

    /** Write the document to @p path; fatal() if unwritable. */
    void write(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out)
            fatal("cannot write JSON report to '%s'", path.c_str());
        out << "{\n  \"schema\": \"interf-bench-1\",\n"
            << "  \"schemaVersion\": 5,\n  \"rows\": [";
        for (size_t i = 0; i < rows_.size(); ++i) {
            const JsonRow &r = rows_[i];
            out << (i ? ",\n" : "\n")
                << "    {\"benchmark\": \"" << escaped(r.benchmark)
                << "\", \"config\": \"" << escaped(r.config)
                << "\", \"layouts_per_sec\": " << num(r.layoutsPerSec)
                << ", \"events_per_sec\": " << num(r.eventsPerSec)
                << ", \"wall_ms\": " << num(r.wallMs)
                << ", \"state_bytes_per_lane\": " << r.stateBytesPerLane
                << "}";
        }
        out << "\n  ],\n  \"phases\": [";
        const auto phases = telemetry::phaseStats();
        for (size_t i = 0; i < phases.size(); ++i) {
            const telemetry::PhaseStat &p = phases[i];
            out << (i ? ",\n" : "\n")
                << "    {\"name\": \"" << escaped(p.name)
                << "\", \"count\": " << p.count
                << ", \"wall_ms\": " << num(p.wallMs)
                << ", \"thread_ms\": " << num(p.threadMs) << "}";
        }
        out << "\n  ]\n}\n";
        if (!out.flush())
            fatal("failed writing JSON report to '%s'", path.c_str());
    }

  private:
    static std::string escaped(const std::string &s)
    {
        std::string out;
        for (char c : s) {
            if (c == '"' || c == '\\')
                out.push_back('\\');
            out.push_back(c);
        }
        return out;
    }

    /** Fixed-notation number; JSON has no Inf/NaN, map those to 0. */
    static std::string num(double v)
    {
        if (!(v == v) || v > 1e300 || v < -1e300)
            return "0";
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.6f", v);
        return buf;
    }

    std::vector<JsonRow> rows_;
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
    opts.addString("json", "",
                   "write a machine-readable throughput report "
                   "(benchmark, config, layouts/sec, events/sec, "
                   "wall ms, per-phase durations) to this file");
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
    s.jsonPath = opts.getString("json");
    s.telemetryDir = opts.getString("telemetry-out");
    s.only = opts.getString("only");
    if (s.layouts < 1)
        fatal("--layouts must be >= 1");
    if (s.instructions < 10000)
        fatal("--instructions must be >= 10000");
    if (opts.getInt("jobs") < 0)
        fatal("--jobs must be >= 0");
    s.jobs = static_cast<u32>(opts.getInt("jobs"));
    // Both outputs need phase spans recorded: --telemetry-out for the
    // trace + manifests, --json for the embedded per-phase durations.
    if (!s.telemetryDir.empty())
        telemetry::setOutputDir(s.telemetryDir);
    else if (!s.jsonPath.empty() || opts.getFlag("progress"))
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
