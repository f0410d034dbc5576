/**
 * @file
 * The repository benchmark program. Run it through run.py, which builds
 * this package and passes the flags on:
 *
 *   perfbench --workload table1|opt_perlbench|opt_mcf --seed N
 *             --seconds S --trace 0|1 --pins pins.txt --trace-out F
 *
 * Workloads. Each is a closed loop driven by this one process: the next
 * unit of work starts when the previous one has returned.
 *  - table1: the Table-1 campaign over all 23 suite profiles with the
 *    paper's escalation rule (40 layouts, then 40 more at a time up to
 *    120), 300k instructions, jobs=4, seeded random layouts and a page
 *    map per layout, then the PerformanceModel fit per profile. The
 *    seed picks the layouts (layout seed base = 1000 x seed).
 *  - opt_perlbench / opt_mcf: four greedy searches (the interf_opt
 *    default strategy and budget, 64) at 1M instructions, jobs=1, one
 *    fixed page map, each set up and run on its own. Seed N gives the
 *    search seeds 4N-3 .. 4N; four of them even out how much of a
 *    search its memo serves, which differs by seed. perlbench is
 *    branch-bound and many of its moves change no executed address; mcf is
 *    memory-bound and few of its moves are no-ops. BENCHMARK.json lists
 *    table1 and opt_perlbench only: opt_mcf's host time is the most
 *    sensitive to other tenants' memory traffic, and its run-to-run
 *    spread on a shared host exceeds the bounds there. Run it by hand
 *    (spread.py takes any workload) for changes to the cache path.
 * Every other knob is the library's default: the benchmark names no
 * execution-path option (see banned_names.txt and run.py's audit).
 *
 * Timed run (--trace 0). Rounds repeat until --seconds have elapsed.
 * A round constructs each Campaign / FitnessOracle (timed as set-up),
 * then runs the workload (the timed phase). setup_s is the median over
 * set-ups, in host seconds. Throughput and CPU per layout come from the
 * lower quartile of each unit's times (a unit is a profile's campaign,
 * or one search) over the run's rounds, and are given in passes of a
 * fixed probe kernel (the lower quartile of the run's passes, one
 * before each unit) rather than in seconds. On a shared host other
 * tenants slow one CPU for seconds, which the lower quartile sidesteps,
 * and the whole host by up to 2x for minutes, which slows the probe
 * too. Telemetry off, no store. The host-time figures are printed
 * beside them.
 *
 * Traced run (--trace 1). One untraced round, then one pass at a single
 * thread that calls the public layer functions directly and records a
 * span around each call (ledger.hh). The pass must reproduce the
 * untraced round's digests (for opt_*, those of the round's first
 * search, the one it re-drives). Per-layer metrics come from its spans.
 *
 * Correctness. Per-profile sample digests (table1) and trajectory
 * digests (opt_*) must equal the pinned ones for seeds listed in the
 * pins file, and on every seed each round must reproduce the first.
 * In the first round a few layouts per profile, and each search's
 * champion, are replayed with Machine::runReference and compared with
 * the plan path and the delivered sample. Every mismatch is a failed
 * layout.
 */

#include <algorithm>
#include <cmath>
#include <cpuid.h>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sched.h>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/runner.hh"
#include "core/timing.hh"
#include "interferometry/campaign.hh"
#include "interferometry/model.hh"
#include "layout/heap.hh"
#include "layout/linker.hh"
#include "layout/pagemap.hh"
#include "ledger.hh"
#include "opt/neighborhood.hh"
#include "opt/optimizer.hh"
#include "stats/descriptive.hh"
#include "stats/hypothesis.hh"
#include "trace/generator.hh"
#include "trace/replay.hh"
#include "util/digest.hh"
#include "util/logging.hh"
#include "util/options.hh"
#include "util/random.hh"
#include "workloads/builder.hh"
#include "workloads/spec.hh"

using namespace interf;
using perfbench::cpuSeconds;
using perfbench::Ledger;
using perfbench::nowNs;

namespace
{

// ------------------------------------------------------------------
// Workload definitions.

constexpr u64 kTable1Instructions = 300'000;
constexpr u32 kTable1Batch = 40; ///< Initial batch and escalation step.
constexpr u32 kTable1Jobs = 4;
/** Set-up samples a timed run takes besides one per round. */
constexpr u32 kExtraSetups = 4;

constexpr u64 kOptInstructions = 1'000'000;
constexpr u32 kOptBudget = 64; ///< interf_opt's default budget.
/** Searches per round, each with its own search seed. */
constexpr u32 kOptSearches = 4;

enum class Workload
{
    Table1,
    OptPerlbench,
    OptMcf,
};

bool
parseWorkload(const std::string &name, Workload &out)
{
    if (name == "table1")
        out = Workload::Table1;
    else if (name == "opt_perlbench")
        out = Workload::OptPerlbench;
    else if (name == "opt_mcf")
        out = Workload::OptMcf;
    else
        return false;
    return true;
}

const char *
optProfileName(Workload w)
{
    return w == Workload::OptMcf ? "429.mcf" : "400.perlbench";
}

interferometry::CampaignConfig
table1Config(u64 seed, u32 jobs)
{
    interferometry::CampaignConfig cfg;
    cfg.instructionBudget = kTable1Instructions;
    cfg.initialLayouts = kTable1Batch;
    cfg.escalationStep = kTable1Batch;
    cfg.maxLayouts = 3 * kTable1Batch;
    cfg.jobs = jobs;
    cfg.layoutSeedBase = 1000 * seed;
    return cfg;
}

/** Search seed of search @p k of a round: seed N runs 4N-3 .. 4N. */
u64
searchSeed(u64 seed, u32 k)
{
    return (seed - 1) * kOptSearches + k + 1;
}

/** Digest item of search @p k of a round. */
std::string
searchItem(u32 k)
{
    return strprintf("search%u", k);
}

opt::OptConfig
optConfig(u64 seed)
{
    opt::OptConfig cfg;
    cfg.instructionBudget = kOptInstructions;
    cfg.seed = seed;
    cfg.budget = kOptBudget;
    cfg.jobs = 1;
    cfg.strategy = opt::Strategy::Greedy;
    return cfg;
}

layout::HeapKey
heapKeyFor(const opt::OptConfig &cfg, const opt::CandidateLayout &cand)
{
    layout::HeapKey key;
    key.randomize = cfg.randomizeHeap;
    key.seed = cand.heapSeed;
    return key;
}

// ------------------------------------------------------------------
// CPU placement of the single-threaded searches.

/**
 * The CPUs this process may run on, to spread the opt_* searches over.
 * On a shared host other tenants slow each CPU on its own, for seconds
 * at a time, and the kernel keeps a lone thread on one CPU, so searches
 * left where the last one ran can spend a whole run on a slowed CPU.
 * table1 (a pool of jobs threads) is left unpinned.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof set, &set) == 0)
            for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
                if (CPU_ISSET(cpu, &set))
                    cpus_.push_back(cpu);
    }

    /** Pin the calling thread to CPU @p i (mod the set's size). */
    void pin(u64 i) const
    {
        if (cpus_.empty())
            return;
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpus_[i % cpus_.size()], &set);
        // Best effort: where pinning is refused the search still runs.
        (void)sched_setaffinity(0, sizeof set, &set);
    }

  private:
    std::vector<int> cpus_;
};

/** The process's CPU set as it was before the first pin. */
const CpuRotation &
cpuRotation()
{
    static const CpuRotation rotation;
    return rotation;
}

// ------------------------------------------------------------------
// Host-speed probe.

/**
 * A fixed kernel with the replay's memory pattern: a stream through a
 * plan-sized array whose words drive data-dependent read-modify-writes
 * into a lane-state-sized table. It is the benchmark's own code, so no
 * change to src/ moves it. Other tenants of a shared host slow it and
 * the library alike, for minutes at a time; the throughput metrics are
 * given per probe pass (the lower quartile of the run's passes) so
 * that this cancels.
 */
class Probe
{
  public:
    Probe() : stream_(kStreamWords), state_(kStateWords)
    {
        Rng rng(0x9e3779b97f4a7c15ull);
        for (u32 &w : stream_)
            w = static_cast<u32>(rng.next());
        for (u64 &w : state_)
            w = rng.next();
    }

    /** Host seconds for one pass of the kernel. */
    double run()
    {
        const u64 t0 = nowNs();
        const size_t mask = state_.size() - 1;
        u64 acc = sink_;
        for (u32 rep = 0; rep < kPasses; ++rep) {
            for (const u32 w : stream_) {
                const size_t i = ((w * 2654435761u) ^ acc) & mask;
                const u64 v = state_[i];
                if ((v ^ w) & 4) {
                    state_[i] = v + w;
                    acc += v;
                } else {
                    acc ^= v >> 3;
                }
            }
        }
        sink_ = acc;
        return (nowNs() - t0) / 1e9;
    }

  private:
    static constexpr size_t kStreamWords = size_t{2} << 20; ///< 8 MiB.
    static constexpr size_t kStateWords = size_t{96} << 10; ///< 768 KiB.
    static constexpr u32 kPasses = 2;

    std::vector<u32> stream_;
    std::vector<u64> state_;
    u64 sink_ = 0; ///< Keeps the kernel's result live.
};

/** One probe pass, on whichever CPU the caller runs. */
double
probeOnce()
{
    static Probe probe;
    return probe.run();
}

// ------------------------------------------------------------------
// Digests and comparisons.

void
mixMeasurement(Digest &d, const core::Measurement &m)
{
    d.mix(m.layoutSeed);
    d.mixDouble(m.cpi);
    d.mixDouble(m.mpki);
    d.mixDouble(m.l1iMpki);
    d.mixDouble(m.l1dMpki);
    d.mixDouble(m.l2Mpki);
    d.mixDouble(m.btbMpki);
    for (u64 v : {m.cycles, m.instructions, m.condBranches, m.mispredicts,
                  m.l1iMisses, m.l1dMisses, m.l2Misses, m.btbMisses})
        d.mix(v);
}

/** A campaign's output: every sample, the verdict and the Table-1 row. */
u64
campaignDigest(const std::vector<core::Measurement> &samples,
               bool significant, const interferometry::Table1Row &row)
{
    Digest d;
    d.mix(samples.size());
    for (const auto &m : samples)
        mixMeasurement(d, m);
    d.mixBool(significant);
    d.mixDouble(row.slope);
    d.mixDouble(row.intercept);
    d.mixDouble(row.perfectLow);
    d.mixDouble(row.perfectHigh);
    return d.value();
}

u64
trajectoryDigest(const opt::SearchTrajectory &traj)
{
    Digest d;
    d.mixString(traj.dump());
    return d.value();
}

bool
sameRun(const core::RunResult &a, const core::RunResult &b)
{
    return a.cycles == b.cycles && a.instructions == b.instructions &&
           a.condBranches == b.condBranches &&
           a.mispredicts == b.mispredicts && a.l1iMisses == b.l1iMisses &&
           a.l1dMisses == b.l1dMisses && a.l2Misses == b.l2Misses &&
           a.l2InstMisses == b.l2InstMisses &&
           a.l2PrefMisses == b.l2PrefMisses &&
           a.l2DataMisses == b.l2DataMisses && a.btbMisses == b.btbMisses &&
           a.rasMispredicts == b.rasMispredicts;
}

bool
sameMeasurement(const core::Measurement &a, const core::Measurement &b)
{
    Digest da, db;
    mixMeasurement(da, a);
    mixMeasurement(db, b);
    return da.value() == db.value();
}

// ------------------------------------------------------------------
// Correctness bookkeeping.

/**
 * Expected digests by item (profile name or "search<k>"): the pinned
 * ones for this workload and seed, and otherwise the first round's.
 */
class DigestBook
{
  public:
    /** Load pins "workload seed item hex" for (@p workload, @p seed). */
    DigestBook(const std::string &path, const std::string &workload,
               u64 seed)
        : workload_(workload), seed_(seed)
    {
        std::ifstream in(path);
        if (!in)
            fatal("cannot read pins file '%s'", path.c_str());
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            std::istringstream fields(line);
            std::string w, item, hex;
            u64 s = 0;
            u64 digest = 0;
            if (!(fields >> w >> s >> item >> hex) ||
                !parseDigestHex(hex, digest))
                fatal("malformed pins line '%s'", line.c_str());
            if (w == workload && s == seed)
                expected_[item] = digest;
        }
        pinned_ = !expected_.empty();
    }

    bool pinned() const { return pinned_; }

    /**
     * Print @p digest as a pins line and check it; the first digest of
     * an unpinned item becomes its reference. False on a mismatch.
     */
    bool check(const std::string &item, u64 digest)
    {
        std::printf("digest %s %llu %s %s\n", workload_.c_str(),
                    static_cast<unsigned long long>(seed_), item.c_str(),
                    digestHex(digest).c_str());
        auto [it, inserted] = expected_.emplace(item, digest);
        return inserted || it->second == digest;
    }

  private:
    std::string workload_;
    u64 seed_;
    std::map<std::string, u64> expected_;
    bool pinned_ = false;
};

/** Layouts delivered and layouts that failed a check. */
struct Tally
{
    u64 attempted = 0;
    u64 failed = 0;
    u64 spotChecks = 0;

    void fail(u64 layouts, const std::string &why)
    {
        failed += layouts;
        std::printf("FAIL: %s\n", why.c_str());
    }
};

/**
 * Replay one layout on the plan path and on the reference model, and
 * re-run the measurement protocol on it. True when the two replays
 * agree on every counter and the protocol reproduces @p delivered.
 */
bool
spotCheck(const core::MachineConfig &machine,
          const core::RunnerConfig &runner_cfg, const trace::Program &prog,
          const trace::Trace &trace, const trace::ReplayPlan &plan,
          const layout::CodeLayout &code, const layout::HeapLayout &heap,
          const layout::PageMap &pages, u64 noise_seed,
          const core::Measurement &delivered)
{
    trace::LayoutTables tables(plan, code, heap, pages,
                               machine.hierarchy.l1i.lineBytes);
    core::Machine fast(machine);
    const core::RunResult planned = fast.replay(plan, tables);
    core::Machine slow(machine);
    const core::RunResult reference =
        slow.runReference(prog, trace, code, heap, pages);
    core::MeasurementRunner runner(machine, runner_cfg);
    const core::Measurement again = runner.measure(plan, tables, noise_seed);
    return sameRun(planned, reference) && sameMeasurement(again, delivered);
}

// ------------------------------------------------------------------
// Untraced rounds.

/**
 * One round of a timed run. The timed phase is split into units, the
 * same units in every round (one campaign per profile for table1, the
 * whole search for opt_*), so that rounds can be compared unit by unit.
 */
struct Round
{
    double setupS = 0.0; ///< Constructors (build, trace, plan, analysis).
    double workS = 0.0;  ///< Timed phase wall.
    double cpuS = 0.0;   ///< Process CPU time during the timed phase.
    std::vector<double> unitWorkS; ///< Timed phase wall per unit.
    std::vector<double> unitCpuS;  ///< Process CPU time per unit.
    std::vector<double> probeS; ///< Probe passes, one before each unit.
    u64 layouts = 0;     ///< Layouts (samples / evaluations) delivered.
    u64 cachedEvals = 0; ///< Search evaluations served from cache.
};

Round
table1Round(u64 seed, DigestBook &book, Tally &tally, bool spot_check)
{
    Round round;
    const auto cfg = table1Config(seed, kTable1Jobs);
    for (const auto &entry : workloads::specSuite()) {
        const std::string &name = entry.profile.name;
        round.probeS.push_back(probeOnce());
        const u64 t0 = nowNs();
        auto camp =
            std::make_unique<interferometry::Campaign>(entry.profile, cfg);
        const u64 t1 = nowNs();
        const double c1 = cpuSeconds();
        interferometry::CampaignResult res = camp->run();
        interferometry::PerformanceModel model(name, res.samples);
        const interferometry::Table1Row row = model.table1Row();
        const double c2 = cpuSeconds();
        const u64 t2 = nowNs();

        if (!book.check(name,
                        campaignDigest(res.samples, res.significant, row)))
            tally.fail(res.layoutsUsed,
                       name + ": sample digest differs from the expected "
                              "one");
        if (spot_check) {
            // First and last layout of the campaign, outside the timing.
            for (const u32 i : {0u, res.layoutsUsed - 1}) {
                ++tally.spotChecks;
                if (!spotCheck(cfg.machine, cfg.runner, camp->program(),
                               camp->trace(), camp->plan(),
                               camp->codeLayoutFor(i),
                               camp->heapLayoutFor(i), camp->pageMapFor(i),
                               cfg.layoutSeedBase + i, res.samples[i]))
                    tally.fail(1, strprintf("%s layout %u: reference "
                                            "spot check disagrees",
                                            name.c_str(), i));
            }
        }
        const u64 t3 = nowNs();
        camp.reset(); // Tearing down the pool is part of the workload.
        const u64 t4 = nowNs();

        round.setupS += (t1 - t0) / 1e9;
        round.unitWorkS.push_back((t2 - t1 + t4 - t3) / 1e9);
        round.unitCpuS.push_back(c2 - c1);
        round.workS += round.unitWorkS.back();
        round.cpuS += round.unitCpuS.back();
        round.layouts += res.layoutsUsed;
    }
    return round;
}

/** A profile's program, trace and plan, built by the benchmark itself. */
struct Compiled
{
    trace::Program program;
    trace::Trace trace;
    trace::ReplayPlan plan;
};

Compiled
compile(const workloads::WorkloadProfile &profile, u64 instructions)
{
    Compiled c;
    c.program = workloads::buildProgram(profile);
    trace::TraceGenerator gen(c.program, profile.behaviourSeed);
    c.trace = gen.makeTrace(instructions);
    c.trace.validate(c.program);
    c.plan = trace::ReplayPlan(c.program, c.trace);
    return c;
}

/**
 * One round of opt_*: the round's searches one after another. Search k
 * of round @p index runs on CPU index + k of the process's set, so each
 * search meets every CPU over a run; round 0 also spot-checks.
 */
Round
optRound(Workload w, u64 seed, u32 index, DigestBook &book, Tally &tally)
{
    Round round;
    const bool spot_check = index == 0;
    const auto &profile = workloads::specFor(optProfileName(w)).profile;
    for (u32 k = 0; k < kOptSearches; ++k) {
        cpuRotation().pin(index + k);
        round.probeS.push_back(probeOnce());
        const auto cfg = optConfig(searchSeed(seed, k));
        const u64 t0 = nowNs();
        auto oracle = std::make_unique<opt::FitnessOracle>(profile, cfg);
        const u64 t1 = nowNs();
        const double c1 = cpuSeconds();
        auto search = opt::makeOptimizer(*oracle, cfg);
        const opt::OptResult res = search->run();
        const double c2 = cpuSeconds();
        const u64 t2 = nowNs();

        const std::string item = searchItem(k);
        const u64 evals = res.freshEvals + res.cachedEvals;
        if (!book.check(item, trajectoryDigest(res.trajectory)))
            tally.fail(evals, item + ": search trajectory digest differs "
                                     "from the expected one");
        if (evals != cfg.budget)
            tally.fail(evals,
                       strprintf("%s: search delivered %llu of %u "
                                 "evaluations",
                                 item.c_str(),
                                 static_cast<unsigned long long>(evals),
                                 cfg.budget));
        if (spot_check) {
            const Compiled ref = compile(profile, cfg.instructionBudget);
            const auto &prog = oracle->program();
            ++tally.spotChecks;
            if (!spotCheck(cfg.machine, cfg.runner, prog, ref.trace,
                           ref.plan,
                           oracle->linker().link(prog, res.best.code),
                           layout::HeapLayout(prog,
                                              heapKeyFor(cfg, res.best)),
                           layout::PageMap(cfg.pageSeed),
                           oracle->digestOf(res.best), res.bestSample))
                tally.fail(1, item + ": search champion: reference spot "
                                     "check disagrees");
        }
        const u64 t3 = nowNs();
        search.reset();
        oracle.reset();
        const u64 t4 = nowNs();

        round.setupS += (t1 - t0) / 1e9;
        round.unitWorkS.push_back((t2 - t1 + t4 - t3) / 1e9);
        round.unitCpuS.push_back(c2 - c1);
        round.workS += round.unitWorkS.back();
        round.cpuS += round.unitCpuS.back();
        round.layouts += evals;
        round.cachedEvals += res.cachedEvals;
    }
    return round;
}

/** Round @p index of a run; round 0 also spot-checks. */
Round
runRound(Workload w, u64 seed, u32 index, DigestBook &book, Tally &tally)
{
    if (w == Workload::Table1)
        return table1Round(seed, book, tally, index == 0);
    return optRound(w, seed, index, book, tally);
}

/**
 * Host seconds to set the workload up once (the Campaign / FitnessOracle
 * constructors), teardown excluded. Timed runs take extra samples of
 * this beside their rounds, so the set-up median rests on more than the
 * few rounds a run fits. opt_* set-ups are placed like round @p index.
 */
double
setupOnce(Workload w, u64 seed, u32 index)
{
    u64 ns = 0;
    if (w == Workload::Table1) {
        const auto cfg = table1Config(seed, kTable1Jobs);
        for (const auto &entry : workloads::specSuite()) {
            const u64 t0 = nowNs();
            interferometry::Campaign camp(entry.profile, cfg);
            ns += nowNs() - t0;
        }
    } else {
        const auto &profile = workloads::specFor(optProfileName(w)).profile;
        for (u32 k = 0; k < kOptSearches; ++k) {
            cpuRotation().pin(index + k);
            const u64 t0 = nowNs();
            opt::FitnessOracle oracle(profile,
                                      optConfig(searchSeed(seed, k)));
            ns += nowNs() - t0;
        }
    }
    return ns / 1e9;
}

// ------------------------------------------------------------------
// Traced pass.

/** Per-layer results of the traced pass. */
struct LayerResults
{
    std::vector<core::Measurement> samples; ///< Every delivered sample.
    u64 replayEvents = 0;       ///< Events replayed by the probes.
    u64 replayInstructions = 0; ///< Instructions replayed by the probes.
    double planMb = 0.0;        ///< Largest plan (MB).
    std::vector<double> protocolUs; ///< measure minus replay, per layout.
    u64 proposals = 0;
    u64 noopProposals = 0;
};

/**
 * Span names of the calls the traced pass makes only to attribute time:
 * set-up repeated outside the constructors, and per-layout calls beside
 * the path that delivers the sample (on opt_*, FitnessOracle::evaluate
 * delivers it; on table1, MeasurementRunner::measure does).
 */
std::vector<std::string>
probeSpanNames(bool table1)
{
    std::vector<std::string> names = {
        "workloads::buildProgram", "trace::TraceGenerator::makeTrace",
        "trace::ReplayPlan", "core::Machine::replay"};
    if (!table1)
        names.insert(names.end(),
                     {"layout::Linker::link", "layout::HeapLayout",
                      "layout::PageMap", "trace::LayoutTables",
                      "core::MeasurementRunner::measure",
                      "perfbench::executedSites", "perfbench::noopCheck"});
    return names;
}

/**
 * Machine::replay and MeasurementRunner::measure on the same tables,
 * each under its own span. Their difference estimates the protocol's
 * cost; the call order alternates from layout to layout so the first
 * call's cold host caches cancel out of the mean difference.
 */
core::Measurement
replayAndMeasure(Ledger &ledger, core::Machine &probe,
                 core::MeasurementRunner &runner,
                 const trace::ReplayPlan &plan,
                 const trace::LayoutTables &tables, u64 noise_seed,
                 LayerResults &out)
{
    core::RunResult truth;
    core::Measurement m;
    u64 replay_ns = 0;
    u64 measure_ns = 0;
    auto replay = [&] {
        const u64 t0 = nowNs();
        truth = ledger.call("core::Machine::replay",
                            [&] { return probe.replay(plan, tables); });
        replay_ns = nowNs() - t0;
    };
    auto measure = [&] {
        const u64 t0 = nowNs();
        m = ledger.call("core::MeasurementRunner::measure", [&] {
            return runner.measure(plan, tables, noise_seed);
        });
        measure_ns = nowNs() - t0;
    };
    if (out.protocolUs.size() % 2 == 0) {
        replay();
        measure();
    } else {
        measure();
        replay();
    }
    out.protocolUs.push_back((static_cast<double>(measure_ns) -
                              static_cast<double>(replay_ns)) /
                             1e3);
    out.replayEvents += plan.eventCount();
    out.replayInstructions += truth.instructions;
    return m;
}

/** The addresses of the executed sites under one layout. */
std::vector<Addr>
codeImage(const trace::LayoutTables &tables, const std::vector<u32> &sites)
{
    std::vector<Addr> image;
    image.reserve(2 * sites.size());
    for (u32 s : sites) {
        image.push_back(tables.siteAddr[s]);
        image.push_back(tables.branchAddr[s]);
    }
    return image;
}

/** compile() with a span per layer; records the plan size in @p out. */
Compiled
tracedCompile(Ledger &ledger, const workloads::WorkloadProfile &profile,
              u64 instructions, LayerResults &out)
{
    Compiled c;
    c.program = ledger.call("workloads::buildProgram", [&] {
        return workloads::buildProgram(profile);
    });
    c.trace = ledger.call("trace::TraceGenerator::makeTrace", [&] {
        trace::TraceGenerator gen(c.program, profile.behaviourSeed);
        trace::Trace t = gen.makeTrace(instructions);
        t.validate(c.program);
        return t;
    });
    c.plan = ledger.call("trace::ReplayPlan", [&] {
        return trace::ReplayPlan(c.program, c.trace);
    });
    out.planMb =
        std::max(out.planMb, static_cast<double>(c.plan.memoryBytes()) / 1e6);
    return c;
}

/**
 * Table 1 at one thread: Campaign::plan() and the per-layout calls,
 * with Campaign::run()'s escalation rule re-driven here.
 */
void
tracedTable1(u64 seed, Ledger &ledger, DigestBook &book, Tally &tally,
             LayerResults &out)
{
    const auto cfg = table1Config(seed, 1);
    for (const auto &entry : workloads::specSuite()) {
        const std::string &name = entry.profile.name;
        ledger.beginRequest(name);
        Ledger::Scope profile_span(ledger, "perfbench::profile");
        // Attributes set-up to its layers; the constructor repeats it.
        tracedCompile(ledger, entry.profile, cfg.instructionBudget, out);
        auto camp = ledger.call("interferometry::Campaign", [&] {
            return std::make_unique<interferometry::Campaign>(entry.profile,
                                                              cfg);
        });
        const trace::ReplayPlan &plan = camp->plan();
        core::MeasurementRunner runner(cfg.machine, cfg.runner);
        core::Machine probe(cfg.machine);

        std::vector<core::Measurement> samples;
        std::vector<double> mpki, cpi;
        bool significant = false;
        u32 next = 0;
        u32 batch = cfg.initialLayouts;
        while (next < cfg.maxLayouts) {
            const u32 count = std::min(batch, cfg.maxLayouts - next);
            for (u32 i = next; i < next + count; ++i) {
                ledger.setItem(i);
                Ledger::Scope layout_span(ledger, "perfbench::layout");
                const auto code = ledger.call("Campaign::codeLayoutFor", [&] {
                    return camp->codeLayoutFor(i);
                });
                const auto heap = ledger.call("Campaign::heapLayoutFor", [&] {
                    return camp->heapLayoutFor(i);
                });
                const auto pages = ledger.call("Campaign::pageMapFor", [&] {
                    return camp->pageMapFor(i);
                });
                const auto tables = ledger.call("trace::LayoutTables", [&] {
                    return trace::LayoutTables(
                        plan, code, heap, pages,
                        cfg.machine.hierarchy.l1i.lineBytes);
                });
                const core::Measurement m = replayAndMeasure(
                    ledger, probe, runner, plan, tables,
                    cfg.layoutSeedBase + i, out);
                mpki.push_back(m.mpki);
                cpi.push_back(m.cpi);
                samples.push_back(m);
            }
            ledger.setItem(-1);
            next += count;
            Ledger::Scope s(ledger, "stats::correlationTTest");
            const auto test = stats::correlationTTest(mpki, cpi);
            const double mean_mpki = stats::mean(mpki);
            const double cv = mean_mpki > 0.0
                                  ? stats::sampleStdDev(mpki) / mean_mpki
                                  : 0.0;
            significant =
                test.significantAt(cfg.alpha) && cv >= cfg.minMpkiCv;
            if (significant)
                break;
            batch = cfg.escalationStep;
        }
        const auto row = ledger.call("interferometry::PerformanceModel", [&] {
            return interferometry::PerformanceModel(name, samples).table1Row();
        });
        if (!book.check(name, campaignDigest(samples, significant, row)))
            tally.fail(samples.size(),
                       name + ": traced pass does not reproduce the "
                              "untraced sample digest");
        ledger.call("interferometry::~Campaign", [&] { camp.reset(); });
        out.samples.insert(out.samples.end(), samples.begin(),
                           samples.end());
    }
}

/**
 * The greedy search at one thread, re-driven from the public layer
 * functions: the seed pool from seededCandidate, proposals from
 * Neighborhood::propose in batches of the search's proposals per step,
 * FitnessOracle::evaluate per batch. Mirrors opt's greedy loop step
 * for step, so it must reproduce the untraced trajectory digest.
 */
void
tracedOpt(Workload w, u64 seed, Ledger &ledger, DigestBook &book,
          Tally &tally, LayerResults &out)
{
    const auto cfg = optConfig(searchSeed(seed, 0));
    const auto &profile = workloads::specFor(optProfileName(w)).profile;
    ledger.beginRequest(profile.name);
    Ledger::Scope search_span(ledger, "perfbench::search");
    const Compiled c =
        tracedCompile(ledger, profile, cfg.instructionBudget, out);
    auto oracle = ledger.call("opt::FitnessOracle", [&] {
        return std::make_unique<opt::FitnessOracle>(profile, cfg);
    });
    const trace::Program &prog = oracle->program();
    std::vector<u32> executed;
    {
        Ledger::Scope s(ledger, "perfbench::executedSites");
        std::vector<bool> seen(c.plan.siteCount(), false);
        for (u32 site : c.plan.site)
            seen[site] = true;
        for (u32 site = 0; site < seen.size(); ++site)
            if (seen[site])
                executed.push_back(site);
    }
    core::Machine probe(cfg.machine);
    core::MeasurementRunner runner(cfg.machine, cfg.runner);
    std::unordered_set<u64> measured; ///< Mirror of the oracle's memo.
    i64 item = 0;

    // Per-layer calls for each candidate of a batch, then the oracle's
    // own evaluation of the batch. Returns the executed-site images.
    auto evaluate = [&](const std::vector<opt::CandidateLayout> &cands,
                        std::vector<std::vector<Addr>> &images) {
        images.clear();
        for (const auto &cand : cands) {
            ledger.setItem(item++);
            Ledger::Scope cand_span(ledger, "perfbench::candidate");
            const auto code = ledger.call("layout::Linker::link", [&] {
                return oracle->linker().link(prog, cand.code);
            });
            const auto heap = ledger.call("layout::HeapLayout", [&] {
                return layout::HeapLayout(prog, heapKeyFor(cfg, cand));
            });
            const auto pages = ledger.call("layout::PageMap", [&] {
                return layout::PageMap(cfg.pageSeed);
            });
            const auto tables = ledger.call("trace::LayoutTables", [&] {
                return trace::LayoutTables(
                    c.plan, code, heap, pages,
                    cfg.machine.hierarchy.l1i.lineBytes);
            });
            images.push_back(codeImage(tables, executed));
            const u64 digest = oracle->digestOf(cand);
            if (!measured.insert(digest).second)
                continue; // The oracle serves this one from its memo.
            replayAndMeasure(ledger, probe, runner, c.plan, tables, digest,
                             out);
        }
        ledger.setItem(-1);
        auto ms = ledger.call("opt::FitnessOracle::evaluate",
                              [&] { return oracle->evaluate(cands); });
        out.samples.insert(out.samples.end(), ms.begin(), ms.end());
        return ms;
    };

    opt::SearchTrajectory traj;
    traj.benchmark = profile.name;
    traj.strategy = opt::strategyName(cfg.strategy);
    traj.seed = cfg.seed;
    traj.budget = cfg.budget;
    traj.proposalsPerStep = std::max<u32>(1, cfg.proposalsPerStep);
    traj.baseKey = oracle->baseKey();

    Rng base(cfg.seed);
    Rng seed_rng = base.fork(1);
    Rng move_rng = base.fork(2);
    opt::Neighborhood nb(prog, cfg.randomizeHeap);
    u32 evals_left = cfg.budget;

    std::vector<opt::CandidateLayout> pool;
    {
        opt::CandidateLayout authored;
        authored.code = layout::LayoutSpec::authored(prog);
        authored.heapSeed = seed_rng.next();
        pool.push_back(std::move(authored));
    }
    for (u32 b = 0; b < cfg.blameLayouts && pool.size() < evals_left; ++b)
        pool.push_back(oracle->seededCandidate(seed_rng.next()));
    std::vector<std::vector<Addr>> images;
    const auto seed_ms = evaluate(pool, images);
    evals_left -= static_cast<u32>(pool.size());

    u32 best_seed = 0;
    for (u32 i = 1; i < seed_ms.size(); ++i)
        if (seed_ms[i].cycles < seed_ms[best_seed].cycles)
            best_seed = i;
    opt::CandidateLayout current = pool[best_seed];
    core::Measurement current_m = seed_ms[best_seed];
    std::vector<Addr> current_image = images[best_seed];
    opt::CandidateLayout best = current;
    core::Measurement best_m = current_m;
    if (seed_ms.size() >= 4) {
        Ledger::Scope s(ledger, "interferometry::PerformanceModel");
        interferometry::PerformanceModel model(traj.benchmark, seed_ms);
        nb.setBlame(model.blame());
    }
    traj.initialCycles = current_m.cycles;
    traj.initialDigest = oracle->digestOf(current);

    u32 step = 0;
    while (evals_left > 0) {
        Ledger::Scope step_span(ledger, "perfbench::step");
        const u32 p = std::min(traj.proposalsPerStep, evals_left);
        std::vector<opt::CandidateLayout> cands(p, current);
        std::vector<opt::Move> moves(p);
        ledger.call("opt::Neighborhood::propose", [&] {
            for (u32 i = 0; i < p; ++i)
                moves[i] = nb.propose(cands[i], move_rng);
        });
        const auto ms = evaluate(cands, images);
        evals_left -= p;
        ledger.call("perfbench::noopCheck", [&] {
            for (u32 i = 0; i < p; ++i) {
                ++out.proposals;
                if (images[i] == current_image)
                    ++out.noopProposals;
            }
        });
        u32 win = 0;
        for (u32 i = 1; i < p; ++i)
            if (ms[i].cycles < ms[win].cycles)
                win = i;
        const bool improves = ms[win].cycles < current_m.cycles;
        for (u32 i = 0; i < p; ++i) {
            if (ms[i].cycles < best_m.cycles) {
                best = cands[i];
                best_m = ms[i];
            }
            opt::TrajectoryStep ts;
            ts.step = step;
            ts.move = moves[i];
            ts.candDigest = oracle->digestOf(cands[i]);
            ts.cycles = ms[i].cycles;
            ts.accepted = improves && i == win;
            ts.bestCycles = best_m.cycles;
            traj.steps.push_back(ts);
        }
        if (improves) {
            current = cands[win];
            current_m = ms[win];
            current_image = images[win];
        }
        ++step;
    }
    traj.finalCycles = best_m.cycles;
    traj.finalDigest = oracle->digestOf(best);
    if (!book.check(searchItem(0), trajectoryDigest(traj)))
        tally.fail(cfg.budget, "traced pass does not reproduce the "
                               "untraced trajectory digest");
    ledger.call("opt::~FitnessOracle", [&] { oracle.reset(); });
}

// ------------------------------------------------------------------
// Reporting.

/** One named metric value with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

double
medianOf(const std::vector<double> &xs)
{
    return xs.empty() ? 0.0 : stats::median(xs);
}

double
percentileOf(const std::vector<double> &xs, double p)
{
    return xs.empty() ? 0.0 : stats::percentile(xs, p);
}

/** Medians of the simulated rates over the delivered samples. */
void
addSimMetrics(const std::vector<core::Measurement> &samples,
              std::vector<Metric> &metrics)
{
    std::vector<double> cpi, bmpki, l1i, l2, btb;
    for (const auto &m : samples) {
        cpi.push_back(m.cpi);
        bmpki.push_back(m.mpki);
        l1i.push_back(m.l1iMpki);
        l2.push_back(m.l2Mpki);
        btb.push_back(m.btbMpki);
    }
    metrics.push_back({"sim.cpi", medianOf(cpi), "cycles/inst"});
    metrics.push_back({"sim.branch_mpki", medianOf(bmpki), "1/kinst"});
    metrics.push_back({"sim.l1i_mpki", medianOf(l1i), "1/kinst"});
    metrics.push_back({"sim.l2_mpki", medianOf(l2), "1/kinst"});
    metrics.push_back({"sim.btb_mpki", medianOf(btb), "1/kinst"});
}

/** The CPU brand string from CPUID, or "unknown". */
std::string
cpuModel()
{
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i)
        if (!__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                         &regs[4 * i + 2], &regs[4 * i + 3]))
            return "unknown";
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const size_t first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
}

void
printPreamble(const std::string &workload, u64 seed, double seconds,
              bool traced, bool pinned)
{
    std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
                workload.c_str(), static_cast<unsigned long long>(seed),
                seconds, traced ? 1 : 0);
    std::printf("host: nproc=%u cpu=\"%s\" compiler=\"%s\" build=%s\n",
                std::thread::hardware_concurrency(), cpuModel().c_str(),
                PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
    std::printf(
        "model: the timing model stands in for the paper's Xeon E5440 "
        "and is unvalidated against hardware, so no error figure is "
        "reported; every simulated statistic is a deterministic count; "
        "each layout is replayed from power-on state, so the modelled "
        "caches start empty\n");
    std::printf("timing: host time; telemetry off; no store; library "
                "default execution path except jobs and the seed\n");
    std::printf("not exercised: store, pinsim (no metrics emitted)\n");
    std::printf("digests: %s\n",
                pinned ? "pinned for this seed"
                       : "no pins for this seed; correctness rests on "
                         "reference spot checks and round-to-round "
                         "agreement");
}

void
printResult(const Tally &tally, const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                tally.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed));
    for (size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
}

/**
 * The sum over units of the lower quartile of that unit's times over
 * the rounds. Every round repeats the same work (the digest checks hold
 * each round to the first), and other tenants of a shared host only
 * ever add time, in spells of seconds that a median over a run's rounds
 * follows; the lower quartile keeps to the least disturbed rounds
 * without resting on the single fastest one.
 */
double
lowQuartileRound(const std::vector<Round> &rounds,
                 std::vector<double> Round::*unit)
{
    double sum = 0.0;
    for (size_t u = 0; u < (rounds.front().*unit).size(); ++u) {
        std::vector<double> times;
        for (const Round &r : rounds)
            times.push_back((r.*unit)[u]);
        sum += percentileOf(times, 25);
    }
    return sum;
}

/** The timed run: rounds until @p seconds elapse; end-to-end metrics. */
std::vector<Metric>
timedRun(Workload w, u64 seed, double seconds, DigestBook &book,
         Tally &tally)
{
    std::vector<Round> rounds;
    std::vector<double> setup;
    const u64 start = nowNs();
    for (u32 i = 0; i < kExtraSetups; ++i)
        setup.push_back(setupOnce(w, seed, i));
    do {
        rounds.push_back(runRound(w, seed, static_cast<u32>(rounds.size()),
                                  book, tally));
        const Round &r = rounds.back();
        tally.attempted += r.layouts;
        std::printf("round %zu: setup %.4f s, %llu layouts in %.4f s "
                    "(%.2f layouts/s), cpu %.4f ms/layout\n",
                    rounds.size(), r.setupS,
                    static_cast<unsigned long long>(r.layouts), r.workS,
                    r.layouts / r.workS, 1e3 * r.cpuS / r.layouts);
    } while ((nowNs() - start) / 1e9 < seconds);

    std::vector<double> rate, probes;
    for (const Round &r : rounds) {
        setup.push_back(r.setupS);
        rate.push_back(r.layouts / r.workS);
        probes.insert(probes.end(), r.probeS.begin(), r.probeS.end());
        if (r.layouts != rounds.front().layouts ||
            r.unitWorkS.size() != rounds.front().unitWorkS.size())
            tally.fail(r.layouts, "a round did other work than the first");
    }
    const double layouts = static_cast<double>(rounds.front().layouts);
    const double layouts_per_s =
        layouts / lowQuartileRound(rounds, &Round::unitWorkS);
    const double cpu_s_per_layout =
        lowQuartileRound(rounds, &Round::unitCpuS) / layouts;
    const double probe_s = percentileOf(probes, 25);
    tally.failed = std::min(tally.failed, tally.attempted);
    const double fail_frac =
        static_cast<double>(tally.failed) / tally.attempted;
    const std::vector<Metric> metrics = {
        {"setup_s", medianOf(setup), "s"},
        {"layouts_per_probe", layouts_per_s * probe_s, "1/probe"},
        {"cpu_probes_per_layout", cpu_s_per_layout / probe_s, "probe"},
        {"peak_rss_mb", perfbench::peakRssMib(), "MiB"},
        {"pass_frac", 1.0 - fail_frac, "fraction"},
    };
    std::printf("spot checks: %llu layouts replayed on the reference "
                "model\n",
                static_cast<unsigned long long>(tally.spotChecks));
    std::printf("host time (lower quartile of %zu rounds per unit): "
                "layouts_per_s %.2f 1/s, cpu_ms_per_layout %.4f ms; "
                "median round %.2f layouts/s; probe pass %.4f s (lower "
                "quartile)\n",
                rounds.size(), layouts_per_s, 1e3 * cpu_s_per_layout,
                medianOf(rate), probe_s);
    std::printf("end to end (setup_s median of %zu set-ups): setup_s "
                "%.4f s, layouts_per_probe %.4f 1/probe, "
                "cpu_probes_per_layout %.5f probe, peak_rss_mb %.1f MiB, "
                "fail_frac %.6f (%llu of %llu)\n",
                setup.size(), metrics[0].value, metrics[1].value,
                metrics[2].value, metrics[3].value,
                fail_frac,
                static_cast<unsigned long long>(tally.failed),
                static_cast<unsigned long long>(tally.attempted));
    return metrics;
}

/**
 * The traced run: one untraced round for reference, then the traced
 * pass; per-layer metrics. Writes the spans to @p trace_out if set.
 */
std::vector<Metric>
tracedRun(Workload w, u64 seed, DigestBook &book, Tally &tally,
          const std::string &trace_out)
{
    const bool is_table1 = w == Workload::Table1;
    const u32 jobs = is_table1 ? kTable1Jobs : 1;
    const Round untraced = runRound(w, seed, 0, book, tally);
    tally.attempted += untraced.layouts;
    const double untraced_wall = untraced.setupS + untraced.workS;
    const double busy_frac = untraced.cpuS / (jobs * untraced.workS);

    Ledger ledger;
    LayerResults layers;
    const u64 w0 = nowNs();
    if (is_table1)
        tracedTable1(seed, ledger, book, tally, layers);
    else
        tracedOpt(w, seed, ledger, book, tally, layers);
    const u64 traced_ns = nowNs() - w0;
    tally.attempted += layers.samples.size();
    tally.failed = std::min(tally.failed, tally.attempted);

    // The ledger closes when the layers' self times (every span but the
    // benchmark's own perfbench:: grouping spans, whose self time is
    // loop bookkeeping) account for the traced wall.
    const auto self = ledger.selfNsByName();
    u64 layer_ns = 0;
    for (const auto &[name, ns] : self)
        if (name.rfind("perfbench::", 0) != 0)
            layer_ns += ns;
    const double closure = static_cast<double>(layer_ns) / traced_ns;
    constexpr double kClosureTolerance = 0.05;
    u64 probe_ns = 0;
    for (const auto &name : probeSpanNames(is_table1))
        probe_ns += ledger.totalNs(name);

    const auto ms_total = [&](const char *name) {
        return static_cast<double>(ledger.totalNs(name)) / 1e6;
    };
    const auto us_median = [&](const char *name) {
        return medianOf(ledger.durationsUs(name));
    };
    const char *link = is_table1 ? "Campaign::codeLayoutFor"
                                 : "layout::Linker::link";
    const char *heap = is_table1 ? "Campaign::heapLayoutFor"
                                 : "layout::HeapLayout";
    const char *pagemap =
        is_table1 ? "Campaign::pageMapFor" : "layout::PageMap";
    // The plan path's per-layout cost: layout, tables, then measure
    // (which replays and applies the protocol).
    u64 per_layout_ns = 0;
    for (const char *name : {link, heap, pagemap, "trace::LayoutTables",
                             "core::MeasurementRunner::measure"})
        per_layout_ns += ledger.totalNs(name);
    const u64 replay_ns = ledger.totalNs("core::Machine::replay");
    std::vector<double> eval_ms;
    for (double us : ledger.durationsUs("opt::FitnessOracle::evaluate"))
        eval_ms.push_back(us / 1e3);
    const double protocol_us = layers.protocolUs.empty()
                                   ? 0.0
                                   : stats::mean(layers.protocolUs);
    const double protocol_se =
        layers.protocolUs.size() < 2
            ? 0.0
            : stats::sampleStdDev(layers.protocolUs) /
                  std::sqrt(static_cast<double>(layers.protocolUs.size()));
    // The library's default machine, which every workload models.
    const core::Machine machine(interferometry::CampaignConfig().machine);

    std::vector<Metric> metrics = {
        {"workloads.build_ms", ms_total("workloads::buildProgram"), "ms"},
        {"trace.generate_ms", ms_total("trace::TraceGenerator::makeTrace"),
         "ms"},
        {"trace.plan_compile_ms", ms_total("trace::ReplayPlan"), "ms"},
        {"trace.plan_mb", layers.planMb, "MB"},
        {"core.lane_state_kb",
         static_cast<double>(machine.laneStateBytes()) / 1e3, "kB"},
        {"layout.link_us", us_median(link), "us"},
        {"layout.heap_us", us_median(heap), "us"},
        {"layout.pagemap_us", us_median(pagemap), "us"},
        {"trace.tables_us", us_median("trace::LayoutTables"), "us"},
        {"core.replay_us", us_median("core::Machine::replay"), "us"},
        {"core.replay_ns_per_event",
         static_cast<double>(replay_ns) /
             static_cast<double>(std::max<u64>(1, layers.replayEvents)),
         "ns"},
        {"core.replay_minst_per_s",
         static_cast<double>(layers.replayInstructions) /
             (static_cast<double>(std::max<u64>(1, replay_ns)) / 1e3),
         "Minst/s"},
        {"core.replay_share",
         static_cast<double>(replay_ns) /
             static_cast<double>(std::max<u64>(1, per_layout_ns)),
         "fraction"},
        {"core.protocol_us", protocol_us, "us"},
        {"exec.busy_frac", busy_frac, "fraction"},
        {"interferometry.fit_ms",
         ms_total("interferometry::PerformanceModel") /
             (is_table1 ? workloads::specSuite().size() : 1),
         "ms"},
        {"opt.evaluate_ms_p50", percentileOf(eval_ms, 50), "ms"},
        {"opt.evaluate_ms_p90", percentileOf(eval_ms, 90), "ms"},
        {"opt.cached_share",
         static_cast<double>(untraced.cachedEvals) / untraced.layouts,
         "fraction"},
        {"opt.noop_move_share",
         layers.proposals ? static_cast<double>(layers.noopProposals) /
                                layers.proposals
                          : 0.0,
         "fraction"},
    };
    addSimMetrics(layers.samples, metrics);
    metrics.push_back({"ledger.closure", closure, "fraction"});
    metrics.push_back({"ledger.traced_wall_s", traced_ns / 1e9, "s"});
    metrics.push_back({"ledger.untraced_wall_s", untraced_wall, "s"});

    std::printf("ledger (self time per span name, %zu spans):\n",
                ledger.spans().size());
    for (const auto &[name, ns] : self)
        std::printf("  %-36s %10.3f ms  %5.1f%%\n", name.c_str(), ns / 1e6,
                    100.0 * ns / traced_ns);
    std::printf("ledger closure: layer self times sum to %.2f%% of the "
                "traced wall (tolerance %.0f%%): %s\n",
                100.0 * closure, 100.0 * kClosureTolerance,
                std::abs(1.0 - closure) <= kClosureTolerance ? "closes"
                                                             : "OPEN");
    std::printf(
        "walls: traced %.3f s vs untraced %.3f s (ratio %.2f). The "
        "difference is tracing overhead plus the path difference: the "
        "traced pass runs at one thread on the unbatched plan path, "
        "repeats set-up outside the constructors, and makes per-layout "
        "probe calls beside the path that delivers each sample (%.3f s "
        "of probes; %.3f s without them)\n",
        traced_ns / 1e9, untraced_wall, traced_ns / 1e9 / untraced_wall,
        probe_ns / 1e9, (traced_ns - probe_ns) / 1e9);
    std::printf("core.replay_share: replay time over the plan path's "
                "per-layout time (layout, tables, measure)\n");
    std::printf("core.protocol_us: mean of measure minus replay over %zu "
                "layouts, standard error %.2f us\n",
                layers.protocolUs.size(), protocol_se);
    if (is_table1)
        std::printf("n/a on table1 (reported as 0): opt.evaluate_ms_p50, "
                    "opt.evaluate_ms_p90, opt.cached_share, "
                    "opt.noop_move_share\n");
    std::printf("spot checks: %llu layouts replayed on the reference "
                "model\n",
                static_cast<unsigned long long>(tally.spotChecks));
    if (!trace_out.empty()) {
        if (!ledger.writeJson(trace_out))
            fatal("cannot write spans to '%s'", trace_out.c_str());
        std::printf("spans written to %s\n", trace_out.c_str());
    }
    return metrics;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    OptionParser opts("perfbench",
                      "repository benchmark: Table-1 campaign and "
                      "optimizer-search throughput");
    opts.addString("workload", "table1",
                   "table1 | opt_perlbench | opt_mcf");
    opts.addInt("seed", 1, "input seed (layouts / search seed)");
    opts.addDouble("seconds", 10.0, "measure for this long");
    opts.addInt("trace", 0,
                "1 = one untraced round plus the traced per-layer pass");
    opts.addString("pins", "perfbench/pins.txt", "pinned digests file");
    opts.addString("trace-out", "", "write the traced pass's spans here");
    opts.parse(argc, argv);

    const std::string workload_name = opts.getString("workload");
    Workload workload;
    if (!parseWorkload(workload_name, workload))
        fatal("unknown --workload '%s'", workload_name.c_str());
    const u64 seed = static_cast<u64>(opts.getInt("seed"));
    const double seconds = opts.getDouble("seconds");
    const i64 trace_flag = opts.getInt("trace");
    if (trace_flag != 0 && trace_flag != 1)
        fatal("--trace must be 0 or 1");
    const bool traced = trace_flag == 1;

    DigestBook book(opts.getString("pins"), workload_name, seed);
    printPreamble(workload_name, seed, seconds, traced, book.pinned());
    Tally tally;
    const std::vector<Metric> metrics =
        traced ? tracedRun(workload, seed, book, tally,
                           opts.getString("trace-out"))
               : timedRun(workload, seed, seconds, book, tally);
    printResult(tally, metrics);
    return 0;
}
