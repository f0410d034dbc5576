#include "trace/replay.hh"

#include <unordered_map>

#include "telemetry/span.hh"
#include "util/logging.hh"
#include "verify/verify.hh"

namespace interf::trace
{

ReplayPlan::ReplayPlan(const Program &prog, const Trace &trace)
{
    INTERF_SPAN("plan.compile");
    const auto &procs = prog.procedures();

    // Site table: dense proc-major block numbering.
    procFirstSite.resize(procs.size());
    u64 site_cursor = 0;
    for (const auto &p : procs) {
        procFirstSite[p.id] = static_cast<u32>(site_cursor);
        site_cursor += p.blocks.size();
    }
    // Site ids are u32 and share their space with the kNoSite sentinel.
    if (site_cursor >= kNoSite)
        fatal("program has %llu block sites; u32 site ids must stay "
              "below the kNoSite sentinel",
              static_cast<unsigned long long>(site_cursor));
    siteProc.resize(site_cursor);
    siteBlock.resize(site_cursor);
    siteBytes.resize(site_cursor);
    for (const auto &p : procs)
        for (u32 b = 0; b < p.blocks.size(); ++b) {
            u32 s = procFirstSite[p.id] + b;
            siteProc[s] = p.id;
            siteBlock[s] = b;
            siteBytes[s] = p.blocks[b].bytes;
        }

    const size_t n = trace.events.size();
    site.resize(n);
    bytes.resize(n);
    nInsts.resize(n);
    extraExecCycles.resize(n);
    nMem.resize(n);
    flags.resize(n);
    targetSite.resize(n);
    rasPushSite.resize(n);
    returnSite.resize(n);

    memId = trace.memIds;
    memIsStore.resize(memId.size());

    // Rank the stream against its universe of distinct ids (first-
    // appearance order) so per-layout materialization decodes each
    // unique id once and gathers the stream.
    memRank.resize(memId.size());
    std::unordered_map<u64, u32> rank_of;
    rank_of.reserve(memId.size() / 4);
    for (size_t j = 0; j < memId.size(); ++j) {
        auto [it, fresh] = rank_of.try_emplace(
            memId[j], static_cast<u32>(memUniverse.size()));
        if (fresh)
            memUniverse.push_back(memId[j]);
        memRank[j] = it->second;
    }
    // Every rank must fit the u32 memRank it was narrowed into.
    if (memUniverse.size() > size_t{~u32{0}})
        fatal("trace has %zu distinct memory ids; u32 memory ranks "
              "cannot index them",
              memUniverse.size());
    condSite.reserve(trace.condBranches);
    condTaken.reserve(trace.condBranches);

    size_t mem_cursor = 0;
    for (size_t i = 0; i < n; ++i) {
        const BlockEvent &ev = trace.events[i];
        const BasicBlock &bb = prog.block(ev.proc, ev.block);
        const u32 s = siteOf(ev.proc, ev.block);
        site[i] = s;
        bytes[i] = bb.bytes;
        nInsts[i] = bb.nInsts;
        extraExecCycles[i] = bb.extraExecCycles;
        INTERF_ASSERT(bb.memRefs.size() <= 0xffff);
        nMem[i] = static_cast<u16>(bb.memRefs.size());
        for (const MemRef &ref : bb.memRefs)
            memIsStore[mem_cursor++] = ref.isStore ? 1 : 0;

        u8 f = 0;
        u32 target = kNoSite;
        u32 ras_push = kNoSite;
        u32 ret = kNoSite;
        if (ev.taken)
            f |= kTaken;
        const StaticBranch &br = bb.branch;
        if (br.exists()) {
            f |= kHasBranch;
            if (br.isConditional()) {
                f |= kCond;
                if (br.dependsOnLoad)
                    f |= kDependsOnLoad;
                condSite.push_back(s);
                condTaken.push_back(ev.taken);
            }
            switch (br.kind) {
              case OpClass::Return:
                f |= kReturn;
                if (i + 1 < n) {
                    const BlockEvent &next = trace.events[i + 1];
                    ret = siteOf(next.proc, next.block);
                }
                break;
              case OpClass::Call: {
                f |= kCall;
                // The call target is the callee's entry: its first
                // block starts at the procedure base (offset 0).
                INTERF_ASSERT(!procs[br.targetProc].blocks.empty());
                target = procFirstSite[br.targetProc];
                u32 next_block = static_cast<u32>(ev.block) + 1;
                if (next_block < procs[ev.proc].blocks.size())
                    ras_push = siteOf(ev.proc, next_block);
                break;
              }
              case OpClass::IndirectBranch:
                f |= kIndirect;
                target = siteOf(br.targetProc,
                                static_cast<u32>(br.targetBlock) +
                                    ev.indirectChoice);
                break;
              default:
                target = siteOf(br.targetProc, br.targetBlock);
            }
        }
        flags[i] = f;
        targetSite[i] = target;
        rasPushSite[i] = ras_push;
        returnSite[i] = ret;
    }
    INTERF_ASSERT(mem_cursor == memId.size());
    instCount = trace.instCount;

    // The sites the replay kernel reads, mirroring its branch logic:
    // returns read only their successor, other taken redirects their
    // target and, for calls, the pushed fall-through.
    std::vector<u8> visible(siteCount(), 0);
    for (size_t i = 0; i < n; ++i) {
        visible[site[i]] = 1;
        const u8 f = flags[i];
        if (!(f & kHasBranch))
            continue;
        if (f & kReturn) {
            if (returnSite[i] != kNoSite)
                visible[returnSite[i]] = 1;
        } else if (f & kTaken) {
            if (targetSite[i] != kNoSite)
                visible[targetSite[i]] = 1;
            if ((f & kCall) && rasPushSite[i] != kNoSite)
                visible[rasPushSite[i]] = 1;
        }
    }
    for (u32 s = 0; s < visible.size(); ++s)
        if (visible[s])
            visibleSites.push_back(s);

    // Trust boundary: everything downstream (layout tables, the replay
    // kernel, the campaign cache key) assumes this plan restates the
    // trace exactly. Debug builds / INTERF_VERIFY=1 prove it here.
    if (verify::verifyOnTrust())
        verify::requireClean(verify::verifyPlan(prog, trace, *this),
                             "ReplayPlan");
}

namespace
{

/** Bytes held by the elements of @p arrays (capacity slack excluded). */
template <typename... Vectors>
u64
elementBytes(const Vectors &...arrays)
{
    return (u64{0} + ... +
            (arrays.size() * sizeof(typename Vectors::value_type)));
}

} // anonymous namespace

u64
ReplayPlan::memoryBytes() const
{
    return elementBytes(site, bytes, nInsts, extraExecCycles, nMem, flags,
                        targetSite, rasPushSite, returnSite, memId,
                        memIsStore, memRank, memUniverse, condSite,
                        condTaken, siteProc, siteBlock, siteBytes,
                        procFirstSite, visibleSites);
}

void
LayoutTables::fillCode(const ReplayPlan &plan,
                       const layout::CodeLayout &code)
{
    const size_t n_sites = plan.siteCount();
    siteAddr.resize(n_sites);
    branchAddr.resize(n_sites);
    for (size_t s = 0; s < n_sites; ++s) {
        u32 proc = plan.siteProc[s];
        u32 block = plan.siteBlock[s];
        siteAddr[s] = code.blockAddr(proc, block);
        branchAddr[s] = code.branchAddr(proc, block);
    }
}

LayoutTables::LayoutTables(const ReplayPlan &plan,
                           const layout::CodeLayout &code)
{
    fillCode(plan, code);
}

LayoutTables::LayoutTables(const ReplayPlan &plan,
                           const layout::CodeLayout &code,
                           const layout::HeapLayout &heap,
                           const layout::PageMap &pages,
                           u32 fetch_line_bytes)
    : pages_(pages), hasData_(true)
{
    fillCode(plan, code);

    // Materialize the data-address table over the memory-id universe,
    // pre-translated: the physically-indexed hierarchy is the only
    // consumer of data addresses, so translating here is equivalent to
    // translating per access and moves the page permutation out of the
    // replay hot loop entirely. Each unique id is decoded once; the
    // stream gathers through the plan's rank table.
    std::vector<Addr> uni_addr(plan.memUniverse.size());
    if (pages_.isIdentity()) {
        for (size_t u = 0; u < uni_addr.size(); ++u)
            uni_addr[u] = heap.dataAddr(plan.memUniverse[u]);
    } else {
        for (size_t u = 0; u < uni_addr.size(); ++u)
            uni_addr[u] =
                pages_.translate(heap.dataAddr(plan.memUniverse[u]));
    }
    const size_t n_mem = plan.memCount();
    dataAddr.resize(n_mem);
    const u32 *rank = plan.memRank.data();
    for (size_t j = 0; j < n_mem; ++j)
        dataAddr[j] = uni_addr[rank[j]];

    buildLineTable(plan, fetch_line_bytes);
}

void
LayoutTables::buildLineTable(const ReplayPlan &plan, u32 fetch_line_bytes)
{
    // Pre-translate each site's fetch lines. Line membership depends
    // on where the layout put the block inside its first line, so the
    // table (counts included) is per layout.
    if (!pages_.isIdentity() && fetch_line_bytes != 0) {
        INTERF_ASSERT((fetch_line_bytes & (fetch_line_bytes - 1)) == 0);
        fetchLineBytes_ = fetch_line_bytes;
        const u64 line_mask = ~static_cast<u64>(fetch_line_bytes - 1);
        const size_t n_sites = plan.siteCount();
        siteLineStart.resize(n_sites + 1);
        u32 total = 0;
        for (size_t s = 0; s < n_sites; ++s) {
            siteLineStart[s] = total;
            Addr first = siteAddr[s] & line_mask;
            Addr last = (siteAddr[s] + plan.siteBytes[s] - 1) & line_mask;
            total += static_cast<u32>((last - first) / fetch_line_bytes) + 1;
        }
        siteLineStart[n_sites] = total;
        linePhys.resize(total);
        for (size_t s = 0; s < n_sites; ++s) {
            Addr line = siteAddr[s] & line_mask;
            for (u32 k = siteLineStart[s]; k < siteLineStart[s + 1];
                 ++k, line += fetch_line_bytes)
                linePhys[k] = pages_.translate(line);
        }
    }
}

} // namespace interf::trace
