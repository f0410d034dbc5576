/**
 * @file
 * Layout-space optimizer CLI.
 *
 * Runs one search (src/opt) over a benchmark's layout space using
 * plan replay as the fitness oracle, optionally compares it against
 * the best-of-N random baseline at the same evaluation budget, and
 * writes the machine-readable artifacts: the SearchTrajectory document
 * (docs/opt-trajectory.schema.json, --out) and a run manifest with the
 * optimizer summary in its "opt" field (docs/manifest.schema.json,
 * --manifest).
 *
 * Fixed --seed means a bit-identical trajectory at any --jobs, cold or
 * warm store; --store makes repeated runs pure cache hits (0 fresh
 * measurements).
 *
 *   interf_opt --profile 403.gcc --strategy anneal --budget 96 \
 *              --baseline 96 --store /tmp/interf-store --json
 *   interf_opt --smoke --json     # CI-sized run, baseline included
 */

#include <cstdio>
#include <string>

#include "exec/threadpool.hh"
#include "opt/optimizer.hh"
#include "telemetry/manifest.hh"
#include "telemetry/metrics.hh"
#include "telemetry/progress.hh"
#include "telemetry/span.hh"
#include "telemetry/telemetry.hh"
#include "util/digest.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/options.hh"
#include "workloads/spec.hh"

using namespace interf;
using namespace interf::opt;

namespace
{

workloads::WorkloadProfile
profileFor(const std::string &name)
{
    if (workloads::isSuiteBenchmark(name))
        return workloads::specFor(name).profile;
    return workloads::defaultProfile(name);
}

double
improvementPct(u64 initial, u64 final_cycles)
{
    if (initial == 0)
        return 0.0;
    return 100.0 * (static_cast<double>(initial) -
                    static_cast<double>(final_cycles)) /
           static_cast<double>(initial);
}

/** @p res as JSON; @p wall_s is the host wall time it took. */
Json
resultJson(const OptResult &res, double wall_s)
{
    const SearchTrajectory &traj = res.trajectory;
    Json doc = Json::object();
    doc.set("strategy", traj.strategy);
    doc.set("seed", traj.seed);
    doc.set("budget", traj.budget);
    doc.set("base_key", digestHex(traj.baseKey));
    doc.set("initial_cycles", traj.initialCycles);
    doc.set("final_cycles", traj.finalCycles);
    doc.set("final_digest", digestHex(traj.finalDigest));
    doc.set("improvement_pct",
            improvementPct(traj.initialCycles, traj.finalCycles));
    doc.set("evals_fresh", res.freshEvals);
    doc.set("evals_cached", res.cachedEvals);
    doc.set("evals_per_s",
            wall_s > 0.0
                ? static_cast<double>(res.freshEvals + res.cachedEvals) /
                      wall_s
                : 0.0);
    doc.set("trajectory_steps", traj.steps.size());
    return doc;
}

/** The manifest "opt" member (docs/manifest.schema.json). */
Json
optSummary(const OptResult &res)
{
    const SearchTrajectory &traj = res.trajectory;
    Json opt = Json::object();
    opt.set("strategy", traj.strategy);
    opt.set("seed", traj.seed);
    opt.set("budget", traj.budget);
    opt.set("evals_fresh", res.freshEvals);
    opt.set("evals_cached", res.cachedEvals);
    opt.set("initial_cycles", traj.initialCycles);
    opt.set("final_cycles", traj.finalCycles);
    opt.set("improvement_pct",
            improvementPct(traj.initialCycles, traj.finalCycles));
    opt.set("trajectory_steps", traj.steps.size());
    return opt;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    OptionParser opts("interf_opt",
                      "search the layout space of one benchmark using "
                      "plan replay as the fitness oracle");
    opts.addString("profile", "toy",
                   "benchmark: a suite name (e.g. 403.gcc) or a "
                   "default-profile name");
    opts.addString("strategy", "greedy",
                   "search strategy: greedy | anneal");
    opts.addInt("budget", 64, "total candidate evaluations");
    opts.addInt("seed", 1, "search seed (proposals + acceptance)");
    opts.addInt("jobs", 1,
                "measurement worker threads, 0 = hardware threads "
                "(execution knob; never changes results)");
    opts.addInt("proposals", 4, "candidates proposed per search step");
    opts.addInt("blame-layouts", 8,
                "random seed layouts measured first to weight move "
                "kinds by per-event r^2 blame");
    opts.addInt("instructions", 1'000'000, "trace instruction budget");
    opts.addInt("baseline", 0,
                "also evaluate best-of-N random layouts (0 = skip)");
    opts.addFlag("randomize-heap",
                 "include DieHard heap seeds in the search space");
    opts.addFlag("virtual-pages",
                 "disable physically-indexed L2 modeling");
    opts.addString("store", "",
                   "fitness store root (content-addressed measurement "
                   "cache); empty disables persistence");
    opts.addString("out", "", "write the trajectory JSON here");
    opts.addString("manifest", "", "write a run manifest JSON here");
    opts.addString("telemetry-out", "",
                   "enable telemetry and write the Perfetto-loadable "
                   "trace (with flow events), run artifacts and the "
                   "crash-safe flight log into this directory");
    opts.addFlag("progress",
                 "live progress ticker on stderr (TTY only; implies "
                 "telemetry)");
    opts.addFlag("json", "print the result summary as JSON on stdout");
    opts.addFlag("smoke",
                 "CI-sized preset: 150k instructions, budget 16, "
                 "baseline 16");
    opts.parse(argc, argv);

    const std::string telemetry_dir = opts.getString("telemetry-out");
    if (!telemetry_dir.empty())
        telemetry::setOutputDir(telemetry_dir);
    else if (opts.getFlag("progress"))
        telemetry::enable();
    if (opts.getFlag("progress"))
        telemetry::installStderrProgressTicker();

    const u64 start_ns = telemetry::nowNs();
    const auto phase_base = telemetry::phaseStats();

    OptConfig cfg;
    cfg.seed = static_cast<u64>(opts.getInt("seed"));
    cfg.budget = static_cast<u32>(opts.getInt("budget"));
    cfg.proposalsPerStep = static_cast<u32>(opts.getInt("proposals"));
    cfg.jobs = static_cast<u32>(opts.getInt("jobs"));
    cfg.blameLayouts = static_cast<u32>(opts.getInt("blame-layouts"));
    cfg.instructionBudget =
        static_cast<u64>(opts.getInt("instructions"));
    cfg.randomizeHeap = opts.getFlag("randomize-heap");
    cfg.physicalPages = !opts.getFlag("virtual-pages");
    cfg.storeDir = opts.getString("store");
    if (!parseStrategy(opts.getString("strategy"), cfg.strategy))
        fatal("unknown --strategy '%s' (greedy | anneal)",
              opts.getString("strategy").c_str());
    u32 baseline_n = static_cast<u32>(opts.getInt("baseline"));
    if (opts.getFlag("smoke")) {
        cfg.instructionBudget = 150'000;
        cfg.budget = 16;
        cfg.proposalsPerStep = 2;
        cfg.blameLayouts = 4; // Small seed pool: most of the budget walks.
        baseline_n = 16;
    }
    if (cfg.budget < 1)
        fatal("--budget must be >= 1");
    if (cfg.proposalsPerStep < 1)
        fatal("--proposals must be >= 1");

    workloads::WorkloadProfile profile =
        profileFor(opts.getString("profile"));

    FitnessOracle oracle(profile, cfg);
    auto optimizer = makeOptimizer(oracle, cfg);
    const u64 search_ns = telemetry::nowNs();
    OptResult res = optimizer->run();
    const double search_s = (telemetry::nowNs() - search_ns) / 1e9;

    bool have_baseline = baseline_n > 0;
    OptResult base;
    double base_s = 0.0;
    if (have_baseline) {
        OptConfig base_cfg = cfg;
        base_cfg.budget = baseline_n;
        const u64 base_ns = telemetry::nowNs();
        base = bestOfRandom(oracle, base_cfg);
        base_s = (telemetry::nowNs() - base_ns) / 1e9;
    }

    const std::string out_path = opts.getString("out");
    if (!out_path.empty())
        telemetry::writeFileAtomic(out_path, res.trajectory.dump());

    if (!telemetry_dir.empty() && telemetry::enabled())
        telemetry::writeChromeTrace(telemetry_dir + "/trace.json");

    const std::string manifest_path = opts.getString("manifest");
    if (!manifest_path.empty()) {
        telemetry::RunManifest manifest;
        manifest.benchmark = profile.name;
        manifest.configDigest = digestHex(oracle.baseKey());
        manifest.storeDir = cfg.storeDir;
        if (!cfg.storeDir.empty())
            manifest.storeKey = manifest.configDigest;
        manifest.instructionBudget = cfg.instructionBudget;
        manifest.jobs = exec::ThreadPool::resolveJobs(cfg.jobs);
        manifest.layoutsUsed =
            static_cast<u32>(res.freshEvals + res.cachedEvals +
                             base.freshEvals + base.cachedEvals);
        manifest.layoutsMeasured =
            static_cast<u32>(res.freshEvals + base.freshEvals);
        manifest.layoutsCached =
            static_cast<u32>(res.cachedEvals + base.cachedEvals);
        manifest.wallMs = (telemetry::nowNs() - start_ns) / 1e6;
        manifest.phases = telemetry::phaseStatsSince(phase_base);
        manifest.metrics =
            telemetry::Registry::global().snapshot().toJson();
        manifest.opt = optSummary(res);
        manifest.writeAtomic(manifest_path);
    }

    const SearchTrajectory &traj = res.trajectory;
    if (opts.getFlag("json")) {
        Json doc = Json::object();
        doc.set("schema", "interf-opt-result-1");
        doc.set("schema_version", 1);
        doc.set("benchmark", profile.name);
        doc.set("optimizer", resultJson(res, search_s));
        if (have_baseline) {
            doc.set("baseline", resultJson(base, base_s));
            doc.set("beats_baseline", res.bestSample.cycles <
                                          base.bestSample.cycles);
        }
        std::printf("%s\n", doc.dump(1).c_str());
    } else {
        std::printf("%s: %s search, budget %u, seed %llu\n",
                    profile.name.c_str(), traj.strategy.c_str(),
                    traj.budget,
                    static_cast<unsigned long long>(traj.seed));
        std::printf(
            "  start %llu cycles -> best %llu cycles (%.3f%% better)\n",
            static_cast<unsigned long long>(traj.initialCycles),
            static_cast<unsigned long long>(traj.finalCycles),
            improvementPct(traj.initialCycles, traj.finalCycles));
        std::printf("  %llu fresh + %llu cached evaluations, %zu "
                    "recorded proposals\n",
                    static_cast<unsigned long long>(res.freshEvals),
                    static_cast<unsigned long long>(res.cachedEvals),
                    traj.steps.size());
        if (have_baseline) {
            std::printf(
                "  best-of-%u random: %llu cycles -> optimizer %s\n",
                baseline_n,
                static_cast<unsigned long long>(base.bestSample.cycles),
                res.bestSample.cycles < base.bestSample.cycles
                    ? "WINS"
                    : "does not beat the baseline");
        }
        if (!out_path.empty())
            std::printf("  trajectory: %s\n", out_path.c_str());
        if (!manifest_path.empty())
            std::printf("  manifest:   %s\n", manifest_path.c_str());
    }
    flushLog();
    return 0;
}
