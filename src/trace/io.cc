#include "trace/io.hh"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>
#include <vector>

#include "util/digest.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "verify/verify.hh"

namespace interf::trace
{

namespace
{

constexpr u64 kMagic = 0x494e544652545243ULL; // "INTFRTRC"
constexpr u32 kVersion = 1;

template <typename T>
void
writePod(std::ostream &os, const T &value)
{
    os.write(reinterpret_cast<const char *>(&value), sizeof(T));
}

template <typename T>
void
readPod(std::istream &is, T &value)
{
    is.read(reinterpret_cast<char *>(&value), sizeof(T));
}

/**
 * Read @p count PODs into @p out a bounded chunk at a time, so memory
 * grows only with data that actually arrives: a corrupted count on a
 * stream of unknown size ends in a short read, not a huge allocation.
 * Returns false on a short read.
 */
template <typename T>
bool
readArray(std::istream &is, u64 count, std::vector<T> &out)
{
    constexpr u64 kChunk = (u64{1} << 20) / sizeof(T);
    out.clear();
    while (out.size() < count) {
        const size_t have = out.size();
        const size_t take = static_cast<size_t>(
            std::min<u64>(count - have, kChunk));
        out.resize(have + take);
        is.read(reinterpret_cast<char *>(out.data() + have),
                static_cast<std::streamsize>(take * sizeof(T)));
        if (!is)
            return false;
    }
    return true;
}

} // anonymous namespace

u64
programChecksum(const Program &prog)
{
    // Digest's default seed and mixer match this function's historical
    // definition, so existing trace files keep validating.
    Digest d;
    d.mix(prog.procedures().size());
    d.mix(prog.regions().size());
    for (const auto &region : prog.regions()) {
        d.mix(static_cast<u64>(region.kind));
        d.mix(region.size);
    }
    for (const auto &proc : prog.procedures()) {
        d.mix(proc.blocks.size());
        for (const auto &bb : proc.blocks) {
            d.mix(bb.bytes);
            d.mix(bb.nInsts);
            d.mix(static_cast<u64>(bb.branch.kind));
            d.mix(bb.branch.targetProc);
            d.mix(bb.branch.targetBlock);
            d.mix(bb.memRefs.size());
            for (const auto &ref : bb.memRefs) {
                d.mix(ref.regionId);
                d.mix(static_cast<u64>(ref.pattern));
            }
        }
    }
    return d.value();
}

u64
programStructureDigest(const Program &prog)
{
    Digest d;
    d.mix(prog.files().size());
    for (const auto &file : prog.files()) {
        d.mixString(file.name);
        d.mix(file.procIds.size());
        for (u32 proc_id : file.procIds)
            d.mix(proc_id);
    }
    d.mix(prog.regions().size());
    for (const auto &region : prog.regions()) {
        d.mix(region.id);
        d.mix(static_cast<u64>(region.kind));
        d.mix(region.size);
    }
    d.mix(prog.procedures().size());
    for (const auto &proc : prog.procedures()) {
        d.mixString(proc.name);
        d.mix(proc.id);
        d.mix(proc.fileIndex);
        d.mix(proc.align);
        d.mix(proc.blocks.size());
        for (const auto &bb : proc.blocks) {
            d.mix(bb.bytes);
            d.mix(bb.nInsts);
            d.mix(bb.extraExecCycles);
            const auto &br = bb.branch;
            d.mix(static_cast<u64>(br.kind));
            d.mix(static_cast<u64>(br.pattern));
            d.mixDouble(br.takenProb);
            d.mix(br.period);
            d.mix(br.historyBits);
            d.mixBool(br.dependsOnLoad);
            d.mix(br.targetProc);
            d.mix(br.targetBlock);
            d.mix(br.indirectTargets);
            d.mix(bb.memRefs.size());
            for (const auto &ref : bb.memRefs) {
                d.mix(ref.regionId);
                d.mixBool(ref.isStore);
                d.mix(static_cast<u64>(ref.pattern));
                d.mix(ref.stride);
                d.mix(ref.churnSpan);
                d.mix(ref.genId);
            }
        }
    }
    return d.value();
}

void
saveTrace(std::ostream &os, const Program &prog, const Trace &trace)
{
    writePod(os, kMagic);
    writePod(os, kVersion);
    writePod(os, programChecksum(prog));
    writePod(os, trace.instCount);
    writePod(os, trace.condBranches);
    writePod(os, trace.takenBranches);
    writePod(os, trace.loads);
    writePod(os, trace.stores);
    u64 n_events = trace.events.size();
    u64 n_mem = trace.memIds.size();
    writePod(os, n_events);
    writePod(os, n_mem);
    os.write(reinterpret_cast<const char *>(trace.events.data()),
             static_cast<std::streamsize>(n_events * sizeof(BlockEvent)));
    os.write(reinterpret_cast<const char *>(trace.memIds.data()),
             static_cast<std::streamsize>(n_mem * sizeof(u64)));
    if (!os)
        fatal("trace serialization failed (stream error)");
}

void
saveTrace(const std::string &path, const Program &prog, const Trace &trace)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("cannot open '%s' for writing", path.c_str());
    saveTrace(out, prog, trace);
}

bool
tryLoadTrace(std::istream &is, const Program &prog, Trace &trace,
             std::string &error)
{
    u64 magic = 0;
    u32 version = 0;
    u64 checksum = 0;
    readPod(is, magic);
    readPod(is, version);
    readPod(is, checksum);
    if (!is || magic != kMagic) {
        error = "not a trace file (bad magic)";
        return false;
    }
    if (version != kVersion) {
        error = strprintf("unsupported trace version %u", version);
        return false;
    }
    if (checksum != programChecksum(prog)) {
        error = "trace was generated from a different program "
                "(checksum mismatch)";
        return false;
    }

    readPod(is, trace.instCount);
    readPod(is, trace.condBranches);
    readPod(is, trace.takenBranches);
    readPod(is, trace.loads);
    readPod(is, trace.stores);
    u64 n_events = 0, n_mem = 0;
    readPod(is, n_events);
    readPod(is, n_mem);
    if (!is) {
        error = "truncated trace header";
        return false;
    }

    // Bound the counts against what the stream can actually hold, so a
    // corrupted count fails as "truncated" before any allocation.
    // Seekable streams only; on a pipe, readArray's chunked reads keep
    // memory proportional to the bytes that arrive.
    bool size_known = false;
    const auto body_start = is.tellg();
    if (body_start != std::istream::pos_type(-1)) {
        is.seekg(0, std::ios::end);
        const auto stream_end = is.tellg();
        is.seekg(body_start);
        if (is && stream_end != std::istream::pos_type(-1)) {
            const u64 remaining =
                static_cast<u64>(stream_end - body_start);
            if (n_events > remaining / sizeof(BlockEvent) ||
                n_mem > (remaining - n_events * sizeof(BlockEvent)) /
                            sizeof(u64)) {
                error = "truncated trace body (event/memory counts "
                        "overrun the stream)";
                return false;
            }
            size_known = true;
        } else {
            is.clear();
            is.seekg(body_start);
        }
    }

    if (size_known) {
        trace.events.reserve(n_events);
        trace.memIds.reserve(n_mem);
    }
    if (!readArray(is, n_events, trace.events) ||
        !readArray(is, n_mem, trace.memIds)) {
        error = "truncated trace body";
        return false;
    }
    return true;
}

Trace
loadTrace(std::istream &is, const Program &prog)
{
    Trace trace;
    std::string error;
    if (!tryLoadTrace(is, prog, trace, error))
        fatal("%s", error.c_str());
    trace.validate(prog);
    if (verify::verifyOnTrust()) {
        auto result = verify::verifyTrace(prog, trace, "<trace>");
        if (!result.ok()) {
            for (const auto &d : result.diagnostics())
                warn("%s", d.text().c_str());
            fatal("loaded trace failed verification: %s",
                  result.summary().c_str());
        }
    }
    return trace;
}

Trace
loadTrace(const std::string &path, const Program &prog)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot open '%s' for reading", path.c_str());
    return loadTrace(in, prog);
}

} // namespace interf::trace
