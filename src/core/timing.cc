#include "core/timing.hh"

#include <bit>

#include "bpred/factory.hh"
#include "bpred/hybrid.hh"
#include "core/refmodel.hh"
#include "telemetry/metrics.hh"
#include "util/logging.hh"

namespace interf::core
{

// Every address the caches see lies below kStackBase: code and data
// are placed under it, and the page map permutes only addresses below
// 2^(pageBits + permutedVpnBits). So even with 1-byte lines a line
// number stays below the 48-bit kNoTag sentinel, and the tag compare
// in a lookup can neither truncate a tag nor hit an invalid way.
static_assert((Addr{1} << (layout::PageMap::pageBits +
                           layout::PageMap::permutedVpnBits)) <=
              layout::kStackBase);
static_assert(layout::kStackBase <= cache::Cache::kNoTag);
// Branch PCs are text addresses, which Linker::link keeps below
// kMaxTextEnd, so the BTB's u32 tag compare can neither truncate a PC
// nor meet the all-ones sentinel.
static_assert(layout::kMaxTextEnd <= bpred::Btb::kNoTag);

double
RunResult::cpi() const
{
    INTERF_ASSERT(instructions > 0);
    return static_cast<double>(cycles) / static_cast<double>(instructions);
}

double
RunResult::mpki() const
{
    return perKilo(mispredicts);
}

double
RunResult::perKilo(Count events) const
{
    INTERF_ASSERT(instructions > 0);
    return 1000.0 * static_cast<double>(events) /
           static_cast<double>(instructions);
}

Machine::Machine(const MachineConfig &config)
    : cfg_(config),
      hierarchy_(config.hierarchy),
      predictor_(bpred::makePredictor(config.predictorSpec)),
      btb_(config.btbSets, config.btbWays),
      ras_(config.rasDepth)
{
    cfg_.validate();
}

void
Machine::resetState()
{
    hierarchy_.reset();
    predictor_->reset();
    btb_.reset();
    ras_.reset();
}

void
requireLruClockBound(const MachineConfig &machine,
                     const trace::ReplayPlan &plan)
{
    const u32 line = machine.hierarchy.l1i.lineBytes;
    u64 fetch_lines = 0;
    for (u32 b : plan.bytes)
        fetch_lines += b / line + 1;
    const u64 mem = plan.memCount();
    auto check = [&](const cache::CacheConfig &cfg, u64 advance) {
        if (cfg.replacement == cache::Replacement::Lru &&
            advance >= (u64{1} << 32))
            fatal("machine '%s': one replay of this plan can advance "
                  "the %s u32 LRU stamp clock %llu times (>= 2^32); "
                  "stamps could wrap and invert victim choice",
                  machine.name.c_str(), cfg.name.c_str(),
                  static_cast<unsigned long long>(advance));
    };
    check(machine.hierarchy.l1i, 2 * fetch_lines);
    check(machine.hierarchy.l1d, mem);
    check(machine.hierarchy.l2, 2 * fetch_lines + mem);
}

RunResult
Machine::run(const trace::Program &prog, const trace::Trace &trace,
             const layout::CodeLayout &code, const layout::HeapLayout &heap)
{
    return run(prog, trace, code, heap, layout::PageMap());
}

RunResult
Machine::run(const trace::Program &prog, const trace::Trace &trace,
             const layout::CodeLayout &code, const layout::HeapLayout &heap,
             const layout::PageMap &pages)
{
    trace::ReplayPlan plan(prog, trace);
    trace::LayoutTables tables(plan, code, heap, pages,
                               cfg_.hierarchy.l1i.lineBytes);
    return replay(plan, tables);
}

RunResult
Machine::runReference(const trace::Program &prog, const trace::Trace &trace,
                      const layout::CodeLayout &code,
                      const layout::HeapLayout &heap,
                      const layout::PageMap &pages)
{
    // Fresh reference components per run: power-on state, and fully
    // independent of the optimized SoA structures the replay kernel
    // uses (see core/refmodel.hh). The predictor is driven through its
    // virtual interface, as the pre-plan measurement path did.
    refmodel::RefHierarchy hierarchy(cfg_.hierarchy);
    refmodel::RefBtb btb(cfg_.btbSets, cfg_.btbWays);
    bpred::PredictorPtr predictor = bpred::makePredictor(cfg_.predictorSpec);
    bpred::ReturnAddressStack ras(cfg_.rasDepth);
    RunResult res;

    const u32 line_bytes = cfg_.hierarchy.l1i.lineBytes;
    const u64 line_mask = ~static_cast<u64>(line_bytes - 1);

    Cycle cycles = 0;
    u32 slot_carry = 0;          ///< Partial-width issue remainder.
    Addr last_fetch_line = ~Addr{0};

    // Data-miss overlap state: misses within robSize retired
    // instructions of the cluster leader share its latency (up to
    // maxMlp outstanding).
    u64 cluster_start_inst = 0;
    u32 cluster_outstanding = 0;

    size_t mem_cursor = 0;

    auto mem_latency = [&](cache::HitLevel level) -> u32 {
        switch (level) {
          case cache::HitLevel::L1:
            return cfg_.l1Latency;
          case cache::HitLevel::L2:
            return cfg_.l2Latency;
          case cache::HitLevel::Memory:
            return cfg_.memLatency;
        }
        panic("bad HitLevel");
    };

    // Warmup: execute the first part of the trace normally but start
    // the counters afterwards (see MachineConfig::warmupFraction).
    const size_t warmup_events = static_cast<size_t>(
        static_cast<double>(trace.events.size()) * cfg_.warmupFraction);

    for (size_t ev_idx = 0; ev_idx < trace.events.size(); ++ev_idx) {
        if (ev_idx == warmup_events) {
            res = RunResult();
            cycles = 0;
            slot_carry = 0;
            cluster_start_inst = 0;
            cluster_outstanding = 0;
            hierarchy.clearStats();
        }
        const auto &ev = trace.events[ev_idx];
        const trace::BasicBlock &bb = prog.block(ev.proc, ev.block);
        Addr addr = code.blockAddr(ev.proc, ev.block);

        // ---- Front end: fetch the lines this block occupies.
        Addr first_line = addr & line_mask;
        Addr last_line = (addr + bb.bytes - 1) & line_mask;
        for (Addr line = first_line; line <= last_line;
             line += line_bytes) {
            if (line == last_fetch_line)
                continue; // same fetch group continuing
            last_fetch_line = line;
            cache::HitLevel level =
                hierarchy.fetchInst(pages.translate(line));
            if (level != cache::HitLevel::L1) {
                // Demand I-miss stalls fetch; the decode queue hides a
                // few cycles of it.
                u32 lat = mem_latency(level);
                cycles += lat > 4 ? lat - 4 : 0;
            }
        }

        // ---- Issue/retire: width-limited plus intrinsic dependence
        // stalls.
        slot_carry += bb.nInsts;
        cycles += slot_carry / cfg_.width;
        slot_carry %= cfg_.width;
        cycles += bb.extraExecCycles;
        res.instructions += bb.nInsts;

        // ---- Data accesses.
        u32 last_load_latency = 0; ///< Resolution time of the newest load.
        for (const auto &ref : bb.memRefs) {
            Addr daddr = heap.dataAddr(trace.memIds[mem_cursor++]);
            cache::HitLevel level =
                hierarchy.accessData(pages.translate(daddr));
            u32 lat = mem_latency(level);
            if (!ref.isStore)
                last_load_latency = lat;
            if (level == cache::HitLevel::L1)
                continue; // L1 hits are hidden by the OoO window
            // Miss clustering: misses within the ROB reach of the
            // cluster leader (and below the MLP limit) ride the same
            // stall; the leader pays full latency.
            bool overlaps =
                res.instructions - cluster_start_inst <= cfg_.robSize &&
                cluster_outstanding > 0 &&
                cluster_outstanding < cfg_.maxMlp;
            if (overlaps) {
                ++cluster_outstanding;
            } else {
                cycles += lat;
                cluster_start_inst = res.instructions;
                cluster_outstanding = 1;
            }
        }

        // ---- Branch.
        const trace::StaticBranch &br = bb.branch;
        if (!br.exists())
            continue;
        Addr branch_pc = code.branchAddr(ev.proc, ev.block);
        bool mispredicted = false;

        if (br.isConditional()) {
            ++res.condBranches;
            bool taken = ev.taken != 0;
            bool pred = predictor->predictAndTrain(branch_pc, taken);
            if (pred != taken) {
                ++res.mispredicts;
                mispredicted = true;
                // Penalty: front-end refill plus the branch's
                // resolution time. A branch waiting on a missing load
                // resolves only when the load returns.
                u32 resolve = br.dependsOnLoad && last_load_latency > 0
                                  ? last_load_latency
                                  : bb.extraExecCycles + 1;
                cycles += cfg_.frontendDepth + resolve;
            }
        }

        // ---- Returns: predicted through the finite return-address
        // stack; a pop that disagrees with the actual fall-back target
        // (stack overflow on deep chains) costs a full redirect.
        if (br.kind == trace::OpClass::Return) {
            Addr predicted = ras.pop();
            Addr actual = 0;
            if (ev_idx + 1 < trace.events.size()) {
                const auto &next = trace.events[ev_idx + 1];
                actual = code.blockAddr(next.proc, next.block);
            }
            if (actual != 0 && predicted != actual) {
                ++res.rasMispredicts;
                cycles += cfg_.frontendDepth;
            }
            last_fetch_line = ~Addr{0};
            continue;
        }

        // ---- Target prediction (BTB) for taken redirects.
        if (ev.taken && br.kind != trace::OpClass::Return) {
            Addr target;
            switch (br.kind) {
              case trace::OpClass::Call: {
                target = code.procBase(br.targetProc);
                // Push the fall-through (return) address.
                u32 next_block = static_cast<u32>(ev.block) + 1;
                if (next_block < prog.proc(ev.proc).blocks.size())
                    ras.push(code.blockAddr(ev.proc, next_block));
                break;
              }
              case trace::OpClass::IndirectBranch:
                target = code.blockAddr(
                    br.targetProc,
                    static_cast<u32>(br.targetBlock) + ev.indirectChoice);
                break;
              default:
                target = code.blockAddr(br.targetProc, br.targetBlock);
            }
            refmodel::RefBtbResult hit = btb.lookup(branch_pc);
            bool target_ok = hit.hit && hit.target == target;
            if (!target_ok) {
                ++res.btbMisses;
                // A direction mispredict already paid the full redirect;
                // otherwise a taken branch with no (or a wrong) target
                // costs a misfetch, and a wrong *indirect* target costs
                // a full pipeline refill.
                if (!mispredicted) {
                    if (br.kind == trace::OpClass::IndirectBranch &&
                        hit.hit) {
                        cycles += cfg_.frontendDepth;
                    } else {
                        cycles += cfg_.misfetchPenalty;
                    }
                }
            }
            btb.update(branch_pc, target);
            // Any taken branch breaks the sequential fetch run.
            last_fetch_line = ~Addr{0};
        }
    }

    INTERF_ASSERT(mem_cursor == trace.memIds.size());

    auto hs = hierarchy.stats();
    res.l1iMisses = hs.l1i.misses;
    res.l1dMisses = hs.l1d.misses;
    res.l2Misses = hs.l2.misses;
    res.l2InstMisses = hs.l2InstMisses;
    res.l2PrefMisses = hs.l2PrefMisses;
    res.l2DataMisses = hs.l2DataMisses;
    res.cycles = cycles;
    return res;
}

u64
Machine::laneStateBytes() const
{
    return hierarchy_.hotStateBytes() + predictor_->stateBytes() +
           btb_.hotStateBytes() + ras_.stateBytes();
}

RunResult
Machine::replay(const trace::ReplayPlan &plan,
                const trace::LayoutTables &tables)
{
    INTERF_ASSERT(tables.hasData());
    INTERF_ASSERT(tables.siteAddr.size() == plan.siteCount());
    INTERF_ASSERT(tables.dataAddr.size() == plan.memCount());
    INTERF_TELEM_COUNT("replay.calls", 1);
    INTERF_TELEM_COUNT("replay.events", plan.eventCount());
    if (tables.identityPages())
        return replayImpl<true, false>(plan, tables);
    // The pre-translated fetch-line table only applies when it was
    // built for this machine's L1I line size.
    if (tables.fetchLineBytes() == cfg_.hierarchy.l1i.lineBytes &&
        tables.siteLineStart.size() == plan.siteCount() + 1)
        return replayImpl<false, true>(plan, tables);
    return replayImpl<false, false>(plan, tables);
}

/**
 * The dense replay kernel. Mirrors runReference() block for block —
 * the per-event model steps and their order are identical, only the
 * operand sources differ: flat plan/table arrays instead of Program
 * traversal and per-access address computation. Any behavioural edit
 * here must be made in runReference() too (test_replay.cc enforces
 * equality).
 */
template <bool IdentityPages, bool UseLineTable>
RunResult
Machine::replayImpl(const trace::ReplayPlan &plan,
                    const trace::LayoutTables &tables)
{
    using trace::ReplayPlan;

    resetState();
    RunResult res;

    const u32 line_bytes = cfg_.hierarchy.l1i.lineBytes;
    const u64 line_mask = ~static_cast<u64>(line_bytes - 1);

    Cycle cycles = 0;
    u32 slot_carry = 0;
    Addr last_fetch_line = ~Addr{0};
    u64 cluster_start_inst = 0;
    u32 cluster_outstanding = 0;
    size_t mem_cursor = 0;

    const layout::PageMap &pages = tables.pages();
    const Addr *site_addr = tables.siteAddr.data();
    const Addr *branch_addr = tables.branchAddr.data();
    const Addr *data_addr = tables.dataAddr.data();
    const Addr *line_phys = tables.linePhys.data();
    const u32 *site_line_start = tables.siteLineStart.data();
    const u32 *ev_site = plan.site.data();
    const u32 *ev_bytes = plan.bytes.data();
    const u16 *ev_insts = plan.nInsts.data();
    const u8 *ev_extra = plan.extraExecCycles.data();
    const u16 *ev_nmem = plan.nMem.data();
    const u8 *ev_flags = plan.flags.data();
    const u32 *ev_target = plan.targetSite.data();
    const u32 *ev_ras_push = plan.rasPushSite.data();
    const u32 *ev_return = plan.returnSite.data();
    const u8 *mem_is_store = plan.memIsStore.data();

    // Devirtualize the hottest polymorphic call: the standard machine
    // predictor is the hybrid, whose final class lets the direct call
    // inline the whole predict-and-train chain. Other predictors fall
    // back to the virtual dispatch; results are identical either way.
    auto *hybrid = dynamic_cast<bpred::HybridPredictor *>(predictor_.get());
    auto predict_and_train = [&](Addr pc, bool taken) -> bool {
        return hybrid ? hybrid->predictAndTrain(pc, taken)
                      : predictor_->predictAndTrain(pc, taken);
    };

    // HitLevel is a dense enum (L1, L2, Memory); lookups replace the
    // reference loop's switch and its fetch-stall conditional.
    const u32 lat_by_level[3] = {cfg_.l1Latency, cfg_.l2Latency,
                                 cfg_.memLatency};
    auto stall = [](u32 lat) -> Cycle { return lat > 4 ? lat - 4 : 0; };
    const Cycle fetch_stall_by_level[3] = {
        0, stall(cfg_.l2Latency), stall(cfg_.memLatency)};
    auto mem_latency = [&](cache::HitLevel level) -> u32 {
        return lat_by_level[static_cast<u32>(level)];
    };

    // Issue width is a runtime config value, so the reference loop's
    // `/ width` is a hardware divide on every event; all modeled
    // machines use a power-of-two width, which reduces to shift/mask.
    const u32 width = cfg_.width;
    const bool width_pow2 = (width & (width - 1)) == 0;
    const u32 width_shift =
        static_cast<u32>(std::countr_zero(width ? width : 1u));

    const size_t n = plan.eventCount();
    const size_t warmup_events = static_cast<size_t>(
        static_cast<double>(n) * cfg_.warmupFraction);

    // The event loop body, over [lo, hi). Split at the warmup boundary
    // so the boundary test is not paid per event (the reference loop
    // checks `ev_idx == warmup_events` each iteration; hoisting it is
    // behaviour-preserving).
    // lint:hot-begin replay event loop (tools/lint_hotpath.py)
    auto run_events = [&](size_t lo, size_t hi) {
    for (size_t ev_idx = lo; ev_idx < hi; ++ev_idx) {
        const u32 s = ev_site[ev_idx];
        const Addr addr = site_addr[s];

        // ---- Front end: fetch the lines this block occupies. The
        // last_fetch_line dedup runs on virtual lines; the hierarchy
        // sees physical ones (pre-translated per site when the line
        // table matches this machine's line size).
        Addr first_line = addr & line_mask;
        Addr last_line = (addr + ev_bytes[ev_idx] - 1) & line_mask;
        u32 li = UseLineTable ? site_line_start[s] : 0;
        for (Addr line = first_line; line <= last_line;
             line += line_bytes, ++li) {
            if (line == last_fetch_line)
                continue; // same fetch group continuing
            last_fetch_line = line;
            Addr paddr = IdentityPages
                             ? line
                             : (UseLineTable ? line_phys[li]
                                             : pages.translate(line));
            cache::HitLevel level = hierarchy_.fetchInst(paddr);
            // Demand I-miss stalls fetch; the decode queue hides a few
            // cycles (precomputed per level, zero for L1 hits).
            cycles += fetch_stall_by_level[static_cast<u32>(level)];
        }

        // ---- Issue/retire.
        slot_carry += ev_insts[ev_idx];
        if (width_pow2) {
            cycles += slot_carry >> width_shift;
            slot_carry &= width - 1;
        } else {
            cycles += slot_carry / width;
            slot_carry %= width;
        }
        cycles += ev_extra[ev_idx];
        res.instructions += ev_insts[ev_idx];

        // ---- Data accesses (addresses pre-translated in the tables).
        // L1D hits (the common, well-predicted case) skip the cluster
        // bookkeeping entirely; a select-based rewrite measured slower
        // because it puts the bookkeeping on every access's dependence
        // chain.
        u32 last_load_latency = 0;
        for (u32 m = ev_nmem[ev_idx]; m > 0; --m, ++mem_cursor) {
            cache::HitLevel level =
                hierarchy_.accessData(data_addr[mem_cursor]);
            u32 lat = mem_latency(level);
            // Loads update the resolution latency.
            last_load_latency =
                mem_is_store[mem_cursor] ? last_load_latency : lat;
            if (level != cache::HitLevel::L1) {
                bool overlaps =
                    res.instructions - cluster_start_inst <=
                        cfg_.robSize &&
                    cluster_outstanding > 0 &&
                    cluster_outstanding < cfg_.maxMlp;
                if (overlaps) {
                    ++cluster_outstanding;
                } else {
                    cycles += lat;
                    cluster_start_inst = res.instructions;
                    cluster_outstanding = 1;
                }
            }
        }

        // ---- Branch.
        const u8 f = ev_flags[ev_idx];
        if (!(f & ReplayPlan::kHasBranch))
            continue;
        Addr branch_pc = branch_addr[s];
        bool mispredicted = false;

        if (f & ReplayPlan::kCond) {
            ++res.condBranches;
            bool taken = (f & ReplayPlan::kTaken) != 0;
            bool pred = predict_and_train(branch_pc, taken);
            if (pred != taken) {
                ++res.mispredicts;
                mispredicted = true;
                u32 resolve = (f & ReplayPlan::kDependsOnLoad) &&
                                      last_load_latency > 0
                                  ? last_load_latency
                                  : static_cast<u32>(ev_extra[ev_idx]) + 1;
                cycles += cfg_.frontendDepth + resolve;
            }
        }

        // ---- Returns through the return-address stack.
        if (f & ReplayPlan::kReturn) {
            Addr predicted = ras_.pop();
            Addr actual = ev_return[ev_idx] != ReplayPlan::kNoSite
                              ? site_addr[ev_return[ev_idx]]
                              : 0;
            if (actual != 0 && predicted != actual) {
                ++res.rasMispredicts;
                cycles += cfg_.frontendDepth;
            }
            last_fetch_line = ~Addr{0};
            continue;
        }

        // ---- Target prediction (BTB) for taken redirects.
        if (f & ReplayPlan::kTaken) {
            const Addr target = site_addr[ev_target[ev_idx]];
            if ((f & ReplayPlan::kCall) &&
                ev_ras_push[ev_idx] != ReplayPlan::kNoSite)
                ras_.push(site_addr[ev_ras_push[ev_idx]]);
            // Fused lookup + update: one tag scan (same outcome as the
            // reference loop's separate calls).
            bpred::BtbResult hit = btb_.lookupUpdate(branch_pc, target);
            bool target_ok = hit.hit && hit.target == target;
            if (!target_ok) {
                ++res.btbMisses;
                if (!mispredicted) {
                    if ((f & ReplayPlan::kIndirect) && hit.hit) {
                        cycles += cfg_.frontendDepth;
                    } else {
                        cycles += cfg_.misfetchPenalty;
                    }
                }
            }
            last_fetch_line = ~Addr{0};
        }
    }
    };
    // lint:hot-end

    if (warmup_events < n) {
        run_events(0, warmup_events);
        // End of warmup: forget everything measured so far, keep the
        // microarchitectural state (exactly the reference loop's
        // mid-loop clear).
        res = RunResult();
        cycles = 0;
        slot_carry = 0;
        cluster_start_inst = 0;
        cluster_outstanding = 0;
        hierarchy_.clearStats();
        run_events(warmup_events, n);
    } else {
        run_events(0, n);
    }

    INTERF_ASSERT(mem_cursor == plan.memCount());

    auto hs = hierarchy_.stats();
    res.l1iMisses = hs.l1i.misses;
    res.l1dMisses = hs.l1d.misses;
    res.l2Misses = hs.l2.misses;
    res.l2InstMisses = hs.l2InstMisses;
    res.l2PrefMisses = hs.l2PrefMisses;
    res.l2DataMisses = hs.l2DataMisses;
    res.cycles = cycles;
    return res;
}

} // namespace interf::core
