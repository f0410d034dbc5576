#include "interferometry/campaign.hh"

#include <algorithm>

#include "stats/descriptive.hh"
#include "stats/hypothesis.hh"
#include "stats/regression.hh"
#include "store/store.hh"
#include "telemetry/metrics.hh"
#include "telemetry/span.hh"
#include "telemetry/telemetry.hh"
#include "telemetry/trace_ctx.hh"
#include "util/digest.hh"
#include "util/logging.hh"
#include "verify/verify.hh"
#include "workloads/builder.hh"

namespace interf::interferometry
{

Campaign::Campaign(const workloads::WorkloadProfile &profile,
                   const CampaignConfig &config)
    : profile_(profile),
      cfg_(config),
      program_(workloads::buildProgram(profile)),
      linker_(),
      runner_(config.machine, config.runner)
{
    startNs_ = telemetry::nowNs();
    phaseBase_ = telemetry::phaseStats();
    {
        INTERF_SPAN("trace.generate");
        trace::TraceGenerator gen(program_, profile.behaviourSeed);
        trace_ = gen.makeTrace(cfg_.instructionBudget);
        trace_.validate(program_);
    }
    // Trust boundary: Debug builds / INTERF_VERIFY=1 prove the built
    // program and generated trace before compiling anything from them.
    if (verify::verifyOnTrust()) {
        INTERF_SPAN("campaign.verify");
        auto prog_result = verify::verifyProgram(program_);
        auto trace_result = verify::verifyTrace(program_, trace_);
        verifyErrors_ =
            prog_result.errorCount() + trace_result.errorCount();
        verifyWarnings_ =
            prog_result.warningCount() + trace_result.warningCount();
        verify::requireClean(prog_result, "Campaign program");
        verify::requireClean(trace_result, "Campaign trace");
    }
    // Compile the trace once; every layout measurement replays the
    // plan through flat per-layout address tables (the ReplayPlan
    // constructor records the "plan.compile" span itself).
    plan_ = trace::ReplayPlan(program_, trace_);
    core::requireLruClockBound(cfg_.machine, plan_);
    campaignKey_ =
        store::campaignKey(program_, profile_.behaviourSeed, cfg_);
}

Campaign::~Campaign()
{
    if (!telemetry::enabled())
        return;
    telemetry::RunManifest manifest = buildManifest();
    if (store_)
        manifest.writeAtomic(store_->dir() + "/run-manifest.json");
    std::string out_dir = telemetry::outputDir();
    if (!out_dir.empty())
        manifest.writeAtomic(
            strprintf("%s/manifest-%s-%s.json", out_dir.c_str(),
                      profile_.name.c_str(),
                      digestHex(campaignKey_).c_str()));
}

store::CampaignStore *
Campaign::store()
{
    if (!storeOpened_) {
        storeOpened_ = true;
        if (!cfg_.storeDir.empty()) {
            store_ = std::make_unique<store::CampaignStore>(
                cfg_.storeDir, campaignKey_);
            cached_ = store_->loadSamples();
        }
    }
    return store_.get();
}

layout::CodeLayout
Campaign::codeLayoutFor(u32 index) const
{
    layout::LayoutKey key;
    key.seed = cfg_.layoutSeedBase + index;
    return linker_.link(program_, key);
}

layout::HeapLayout
Campaign::heapLayoutFor(u32 index) const
{
    layout::HeapKey key;
    key.randomize = cfg_.randomizeHeap;
    key.seed = cfg_.layoutSeedBase + index;
    return layout::HeapLayout(program_, key);
}

layout::PageMap
Campaign::pageMapFor(u32 index) const
{
    if (!cfg_.physicalPages)
        return layout::PageMap(); // identity: virtually-indexed L2
    return layout::PageMap(cfg_.layoutSeedBase + index);
}

core::Measurement
Campaign::measureOne(core::MeasurementRunner &runner, u32 index) const
{
    // Attribute the layout's spans to its seed (the campaign/batch ids
    // are already on the thread's context).
    telemetry::ScopedCandidateDigest candidate(cfg_.layoutSeedBase +
                                               index);
    trace::LayoutTables tables = [&] {
        INTERF_SPAN("layout.gen");
        layout::CodeLayout code = codeLayoutFor(index);
        layout::HeapLayout heap = heapLayoutFor(index);
        return trace::LayoutTables(plan_, code, heap, pageMapFor(index),
                                   cfg_.machine.hierarchy.l1i.lineBytes);
    }();
    INTERF_TELEM_COUNT("layout.tables_built", 1);
    return runner.measure(plan_, tables, cfg_.layoutSeedBase + index);
}

void
Campaign::measureRange(u32 first, u32 count,
                       std::vector<core::Measurement> &out,
                       u32 out_offset)
{
    const u32 jobs = exec::ThreadPool::resolveJobs(cfg_.jobs);
    // Progress tick per finished layout. Workers land here too, so the
    // tracker (not thread-safe by itself) is fed under a mutex; when no
    // tracker is installed (telemetry off) this is one pointer test.
    auto note_progress = [this] {
        if (!telemetry::enabled())
            return;
        std::lock_guard<std::mutex> lock(progressMutex_);
        if (progress_ == nullptr)
            return;
        ++progressDone_;
        progress_->update(progressDone_, progressCached_,
                          progressDone_ - progressCached_);
    };
    if (jobs <= 1 || count <= 1) {
        INTERF_SPAN_PHASE("replay.batch");
        for (u32 k = 0; k < count; ++k) {
            out[out_offset + k] = measureOne(runner_, first + k);
            note_progress();
        }
        return;
    }
    if (!pool_ || pool_->workers() != jobs)
        pool_ = std::make_unique<exec::ThreadPool>(jobs);
    // Workers share the immutable Program/Trace and own everything
    // mutable: a fresh MeasurementRunner (Machine) per chunk plus the
    // per-layout code/heap/page state derived inside measureOne. Slot
    // out_offset + k always holds layout first + k, so scheduling cannot
    // reorder or otherwise perturb the samples.
    exec::parallelForChunks(*pool_, count, [&](size_t begin, size_t end) {
        INTERF_SPAN_PHASE("replay.batch");
        core::MeasurementRunner runner(cfg_.machine, cfg_.runner);
        for (size_t k = begin; k < end; ++k) {
            out[out_offset + k] =
                measureOne(runner, first + static_cast<u32>(k));
            note_progress();
        }
    });
}

std::vector<core::Measurement>
Campaign::measureLayouts(u32 first, u32 count)
{
    // Every span recorded below (this thread and the pool workers, via
    // ThreadPool::submit's capture) carries this campaign/batch id.
    telemetry::ScopedTraceContext trace_ctx(campaignKey_, batchIndex_);
    ++batchIndex_;
    std::vector<core::Measurement> out(count);
    auto *st = store();

    // Serve the prefix that overlaps the store's persisted samples.
    u32 have = 0;
    if (st && first < cached_.size()) {
        have = std::min(count, static_cast<u32>(cached_.size()) - first);
        std::copy_n(cached_.begin() + first, have, out.begin());
    }
    cachedLayouts_ += have;
    measuredLayouts_ += count - have;
    INTERF_TELEM_COUNT("store.sample_hits", have);
    INTERF_TELEM_COUNT("store.sample_misses", count - have);
    telemetry::ProgressTracker tracker("campaign.measure", count);
    if (have == count) {
        tracker.update(have, have, 0);
        tracker.finish();
        return out;
    }

    // Install the tracker for the duration of the fresh measurements;
    // measureRange's completions (on any thread) tick it.
    if (telemetry::enabled()) {
        std::lock_guard<std::mutex> lock(progressMutex_);
        progress_ = &tracker;
        progressDone_ = have;
        progressCached_ = have;
        if (have > 0)
            tracker.update(have, have, 0);
    }
    const u64 measure_start = telemetry::nowNs();
    measureRange(first + have, count - have, out, have);
    measureNs_ += telemetry::nowNs() - measure_start;
    {
        std::lock_guard<std::mutex> lock(progressMutex_);
        progress_ = nullptr;
    }
    tracker.finish();

    // Checkpoint the fresh samples if they extend the persisted prefix
    // contiguously; a gap (a caller jumping ahead of the store) is
    // measured but not persisted, since resume relies on contiguity.
    if (st && first + have == st->storedCount()) {
        std::vector<core::Measurement> fresh(out.begin() + have,
                                             out.end());
        const u64 commit_start = telemetry::nowNs();
        st->appendBatch(first + have, fresh);
        ++storeBatches_;
        storeCommitMs_ +=
            (telemetry::nowNs() - commit_start) / 1e6;
        cached_.insert(cached_.end(), fresh.begin(), fresh.end());
    }
    return out;
}

CampaignResult
Campaign::run()
{
    INTERF_SPAN_PHASE("campaign.run");
    CampaignResult res;
    res.samples.reserve(cfg_.maxLayouts);
    const u32 measured_before = measuredLayouts_;
    const u32 cached_before = cachedLayouts_;
    // Escalation appends: the regression inputs grow with each batch
    // instead of being rebuilt from res.samples every round.
    std::vector<double> mpki, cpi;
    mpki.reserve(cfg_.maxLayouts);
    cpi.reserve(cfg_.maxLayouts);
    u32 next = 0;
    u32 batch = cfg_.initialLayouts;
    while (next < cfg_.maxLayouts) {
        u32 count = std::min(batch, cfg_.maxLayouts - next);
        auto batch_samples = measureLayouts(next, count);
        for (const auto &m : batch_samples) {
            mpki.push_back(m.mpki);
            cpi.push_back(m.cpi);
        }
        res.samples.insert(res.samples.end(), batch_samples.begin(),
                           batch_samples.end());
        next += count;

        INTERF_SPAN("campaign.regression");
        auto test = stats::correlationTTest(mpki, cpi);
        double mean_mpki = stats::mean(mpki);
        double cv = mean_mpki > 0.0
                        ? stats::sampleStdDev(mpki) / mean_mpki
                        : 0.0;
        res.enoughMpkiRange = cv >= cfg_.minMpkiCv;
        res.significant =
            test.significantAt(cfg_.alpha) && res.enoughMpkiRange;
        if (res.significant)
            break;
        batch = cfg_.escalationStep;
    }
    res.layoutsUsed = next;
    res.measuredLayouts = measuredLayouts_ - measured_before;
    res.cachedLayouts = cachedLayouts_ - cached_before;

    stats::LinearFit fit(mpki, cpi);
    regressionRan_ = true;
    lastSignificant_ = res.significant;
    lastEnoughRange_ = res.enoughMpkiRange;
    lastLayoutsUsed_ = res.layoutsUsed;
    lastSlope_ = fit.slope();
    lastIntercept_ = fit.intercept();
    lastR2_ = fit.r2();
    return res;
}

telemetry::RunManifest
Campaign::buildManifest() const
{
    telemetry::RunManifest m;
    m.benchmark = profile_.name;
    m.configDigest = digestHex(campaignKey_);
    if (store_) {
        m.storeKey = m.configDigest;
        m.storeDir = store_->dir();
        m.storeBatchesCommitted = storeBatches_;
        m.storeCommitMs = storeCommitMs_;
    }
    m.instructionBudget = cfg_.instructionBudget;
    m.jobs = exec::ThreadPool::resolveJobs(cfg_.jobs);
    m.layoutsUsed = regressionRan_ ? lastLayoutsUsed_
                                   : measuredLayouts_ + cachedLayouts_;
    m.layoutsMeasured = measuredLayouts_;
    m.layoutsCached = cachedLayouts_;
    m.wallMs = (telemetry::nowNs() - startNs_) / 1e6;
    m.layoutsPerSec = measureNs_ > 0
                          ? measuredLayouts_ / (measureNs_ / 1e9)
                          : 0.0;
    m.phases = telemetry::phaseStatsSince(phaseBase_);
    m.verifyErrors = verifyErrors_;
    m.verifyWarnings = verifyWarnings_;
    telemetry::LogCaptureSnapshot logs = telemetry::logCapture();
    m.logWarns = logs.warns;
    m.logInforms = logs.informs;
    m.recentWarnings = logs.recentWarnings;
    m.spansDropped = telemetry::droppedSpans();
    m.spansDroppedByName = telemetry::droppedSpansByName();
    m.regressionRan = regressionRan_;
    m.regressionSignificant = lastSignificant_;
    m.enoughMpkiRange = lastEnoughRange_;
    m.slope = lastSlope_;
    m.intercept = lastIntercept_;
    m.r2 = lastR2_;
    m.metrics = telemetry::Registry::global().snapshot().toJson();
    return m;
}

} // namespace interf::interferometry
