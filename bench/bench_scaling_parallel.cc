/**
 * @file
 * Parallel-executor scaling bench (google-benchmark): layouts/sec of
 * Campaign::measureLayouts at 1, 2, 4 and hardware_concurrency worker
 * threads, plus the raw dispatch overhead of the exec substrate.
 *
 * The interesting series is items_per_second (one item = one layout)
 * versus the jobs argument: on an N-core machine the figure-scale
 * campaign should scale near-linearly until jobs reaches N, because
 * layouts are embarrassingly parallel and workers share only immutable
 * state. Run with --benchmark_format=json to record the series;
 * --telemetry-out <dir> (ours, stripped before benchmark::Initialize
 * sees argv) also writes the phase trace.
 */

#include <algorithm>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_common.hh"

#include "exec/threadpool.hh"
#include "interferometry/campaign.hh"
#include "workloads/spec.hh"

namespace
{

using namespace interf;

/** Jobs axis: 1, 2, 4 and the machine's hardware concurrency. */
void
JobsArgs(benchmark::internal::Benchmark *b)
{
    std::vector<int> jobs = {1, 2, 4};
    int hw = static_cast<int>(exec::ThreadPool::hardwareWorkers());
    if (std::find(jobs.begin(), jobs.end(), hw) == jobs.end())
        jobs.push_back(hw);
    for (int j : jobs)
        b->Arg(j);
}

/**
 * A figure-scale campaign batch (40 layouts x 300k instructions, the
 * figure benches' default scale) at state.range(0) workers. Campaign
 * construction (program build + trace generation) is hoisted out of
 * the timed loop; each iteration measures the full 40-layout batch, so
 * items_per_second is layouts/sec.
 */
void
BM_CampaignMeasureLayouts(benchmark::State &state)
{
    const u32 layouts = 40;
    interferometry::CampaignConfig cfg;
    cfg.instructionBudget = 300000;
    cfg.initialLayouts = layouts;
    cfg.maxLayouts = layouts;
    cfg.jobs = static_cast<u32>(state.range(0));
    interferometry::Campaign camp(
        workloads::specFor("445.gobmk").profile, cfg);
    for (auto _ : state) {
        auto samples = camp.measureLayouts(0, layouts);
        benchmark::DoNotOptimize(samples.data());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            layouts);
}
BENCHMARK(BM_CampaignMeasureLayouts)
    ->Apply(JobsArgs)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/**
 * Pure fan-out/join cost of parallelFor over trivial tasks: the fixed
 * price a batch pays for using the pool at all. items = indices.
 */
void
BM_ParallelForDispatch(benchmark::State &state)
{
    const size_t n = 1024;
    exec::ThreadPool pool(static_cast<u32>(state.range(0)));
    std::vector<u64> out(n);
    for (auto _ : state) {
        exec::parallelFor(pool, n,
                          [&out](size_t i) { out[i] = i * i; });
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(n));
}
BENCHMARK(BM_ParallelForDispatch)->Apply(JobsArgs)->UseRealTime();

/**
 * Pull "<flag> <file>" / "<flag>=<file>" out of argv before
 * benchmark::Initialize (which rejects flags it doesn't know).
 */
std::string
extractPathFlag(int &argc, char **argv, const std::string &flag)
{
    const std::string prefix = flag + "=";
    std::string path;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == flag && i + 1 < argc) {
            path = argv[++i];
        } else if (arg.rfind(prefix, 0) == 0) {
            path = arg.substr(prefix.size());
        } else {
            argv[out++] = argv[i];
        }
    }
    argc = out;
    return path;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string telemetry_dir =
        extractPathFlag(argc, argv, "--telemetry-out");
    if (!telemetry_dir.empty())
        telemetry::setOutputDir(telemetry_dir);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    if (!telemetry_dir.empty() && telemetry::enabled())
        telemetry::writeChromeTrace(telemetry_dir + "/trace.json");
    return 0;
}
