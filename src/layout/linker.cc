#include "layout/linker.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/random.hh"

namespace interf::layout
{

LayoutKey
LayoutKey::identity()
{
    LayoutKey key;
    key.reorderProcedures = false;
    key.reorderObjectFiles = false;
    return key;
}

Addr
CodeLayout::procBase(u32 proc_id) const
{
    INTERF_ASSERT(proc_id < procBase_.size());
    return procBase_[proc_id];
}

Addr
CodeLayout::blockAddr(u32 proc_id, u32 block_id) const
{
    INTERF_ASSERT(proc_id < procBase_.size());
    u32 base = blockOffsetBase_[proc_id];
    return procBase_[proc_id] + blockOff_[base + block_id];
}

Addr
CodeLayout::branchAddr(u32 proc_id, u32 block_id) const
{
    INTERF_ASSERT(proc_id < procBase_.size());
    u32 base = blockOffsetBase_[proc_id];
    return procBase_[proc_id] + branchOff_[base + block_id];
}

LayoutSpec
LayoutSpec::authored(const trace::Program &prog)
{
    const auto &files = prog.files();
    LayoutSpec spec;
    spec.fileOrder.resize(files.size());
    spec.procOrder.resize(files.size());
    for (u32 i = 0; i < files.size(); ++i) {
        spec.fileOrder[i] = i;
        spec.procOrder[i] = files[i].procIds;
    }
    return spec;
}

void
LayoutSpec::validate(const trace::Program &prog) const
{
    const auto &files = prog.files();
    INTERF_ASSERT(fileOrder.size() == files.size());
    INTERF_ASSERT(procOrder.size() == files.size());
    std::vector<u8> seen_file(files.size(), 0);
    for (u32 fi : fileOrder) {
        INTERF_ASSERT(fi < files.size() && !seen_file[fi]);
        seen_file[fi] = 1;
    }
    for (u32 fi = 0; fi < files.size(); ++fi) {
        // Same multiset as the authored procIds: each file keeps
        // exactly its own procedures, only their order may differ.
        std::vector<u32> a = files[fi].procIds;
        std::vector<u32> b = procOrder[fi];
        std::sort(a.begin(), a.end());
        std::sort(b.begin(), b.end());
        INTERF_ASSERT(a == b);
    }
}

Linker::Linker(Addr text_base) : textBase_(text_base) {}

LayoutSpec
Linker::specFor(const trace::Program &prog, const LayoutKey &key) const
{
    const auto &files = prog.files();

    Rng rng(key.seed);
    // Independent substreams so toggling one reorder flag does not
    // change the other's permutation for the same seed.
    Rng file_rng = rng.fork(1);
    Rng proc_rng = rng.fork(2);

    LayoutSpec spec;
    spec.fileOrder.resize(files.size());
    for (u32 i = 0; i < files.size(); ++i)
        spec.fileOrder[i] = i;
    if (key.reorderObjectFiles)
        file_rng.shuffle(spec.fileOrder);

    // Per-file procedure shuffles are drawn in link-line order (the
    // historical sequence link(key) consumed its PRNG in), then stored
    // under the authored file index.
    spec.procOrder.resize(files.size());
    for (u32 fi : spec.fileOrder) {
        std::vector<u32> local = files[fi].procIds;
        if (key.reorderProcedures)
            proc_rng.shuffle(local);
        spec.procOrder[fi] = std::move(local);
    }
    return spec;
}

CodeLayout
Linker::link(const trace::Program &prog, const LayoutKey &key) const
{
    return link(prog, specFor(prog, key));
}

CodeLayout
Linker::link(const trace::Program &prog, const LayoutSpec &spec) const
{
    const auto &procs = prog.procedures();
#ifndef NDEBUG
    spec.validate(prog);
#endif

    CodeLayout out;
    out.textBase_ = textBase_;
    out.fileOrder_ = spec.fileOrder;

    // Files contribute their procedures in link-line order (the linker
    // lays code out in the order it is encountered on the command
    // line).
    out.procOrder_.reserve(procs.size());
    for (u32 fi : out.fileOrder_)
        for (u32 pid : spec.procOrder[fi])
            out.procOrder_.push_back(pid);
    INTERF_ASSERT(out.procOrder_.size() == procs.size());

    // Assign addresses.
    out.procBase_.resize(procs.size());
    out.blockOffsetBase_.resize(procs.size());
    u32 total_blocks = 0;
    for (const auto &p : procs)
        total_blocks += static_cast<u32>(p.blocks.size());
    out.blockOff_.resize(total_blocks);
    out.branchOff_.resize(total_blocks);

    // Precompute per-proc block offset tables (layout-invariant within
    // a procedure: blocks are contiguous in authored order).
    {
        u32 cursor = 0;
        for (const auto &p : procs) {
            out.blockOffsetBase_[p.id] = cursor;
            u32 off = 0;
            for (const auto &bb : p.blocks) {
                out.blockOff_[cursor] = off;
                // The terminator is the last instruction; approximate
                // its size as the final 2 bytes minimum, scaling with
                // the block's average instruction size.
                u32 avg = bb.bytes / bb.nInsts;
                u32 branch_bytes = avg > 0 ? avg : 2;
                out.branchOff_[cursor] =
                    off + bb.bytes - std::min(branch_bytes, bb.bytes);
                off += bb.bytes;
                ++cursor;
            }
        }
    }

    Addr cursor = textBase_;
    for (u32 pid : out.procOrder_) {
        const auto &p = procs[pid];
        Addr align = p.align;
        cursor = (cursor + align - 1) & ~(align - 1);
        out.procBase_[pid] = cursor;
        cursor += p.bytes();
    }
    if (cursor > kMaxTextEnd)
        fatal("linked text ends at %#llx, above %#llx: branch PCs must "
              "fit the BTB's u32 tags",
              static_cast<unsigned long long>(cursor),
              static_cast<unsigned long long>(kMaxTextEnd));
    out.textSize_ = cursor - textBase_;
    return out;
}

} // namespace interf::layout
