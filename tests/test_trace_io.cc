/** @file Tests for binary trace serialization. */

#include <cstring>
#include <sstream>
#include <streambuf>

#include <gtest/gtest.h>

#include "trace/generator.hh"
#include "trace/io.hh"
#include "util/random.hh"
#include "workloads/builder.hh"

namespace
{

using namespace interf;
using namespace interf::trace;

struct Fixture
{
    Program prog;
    Trace trace;

    Fixture()
        : prog(workloads::buildProgram(workloads::defaultProfile("io"))),
          trace(TraceGenerator(prog, 3).makeTrace(50000))
    {
    }
};

Fixture &
fixture()
{
    static Fixture f;
    return f;
}

std::string
savedBytes(const Fixture &f)
{
    std::stringstream buf;
    saveTrace(buf, f.prog, f.trace);
    return buf.str();
}

/** Read-only buffer that, like a pipe or FIFO, cannot seek: tellg()
 *  on a stream over it reports failure. */
class PipeBuf : public std::streambuf
{
  public:
    explicit PipeBuf(std::string data) : data_(std::move(data))
    {
        setg(data_.data(), data_.data(), data_.data() + data_.size());
    }

  private:
    std::string data_;
};

/** tryLoadTrace() over @p data through a seekable or a pipe-like
 *  stream. */
bool
tryLoadFrom(const std::string &data, bool seekable, const Program &prog,
            Trace &trace, std::string &error)
{
    if (seekable) {
        std::istringstream is(data);
        return tryLoadTrace(is, prog, trace, error);
    }
    PipeBuf pipe(data);
    std::istream is(&pipe);
    return tryLoadTrace(is, prog, trace, error);
}

/** Byte offset of the header's n_events field (n_mem follows it): the
 *  body after it holds n_events 8-byte events and n_mem u64 ids. */
size_t
eventCountOffset(const Fixture &f, const std::string &data)
{
    return data.size() - f.trace.events.size() * sizeof(BlockEvent) -
           f.trace.memIds.size() * sizeof(u64) - 2 * sizeof(u64);
}

TEST(TraceIo, RoundTripPreservesEverything)
{
    auto &f = fixture();
    std::stringstream buf;
    saveTrace(buf, f.prog, f.trace);
    Trace loaded = loadTrace(buf, f.prog);

    EXPECT_EQ(loaded.instCount, f.trace.instCount);
    EXPECT_EQ(loaded.condBranches, f.trace.condBranches);
    EXPECT_EQ(loaded.takenBranches, f.trace.takenBranches);
    EXPECT_EQ(loaded.loads, f.trace.loads);
    EXPECT_EQ(loaded.stores, f.trace.stores);
    ASSERT_EQ(loaded.events.size(), f.trace.events.size());
    EXPECT_EQ(loaded.memIds, f.trace.memIds);
    for (size_t i = 0; i < loaded.events.size(); ++i) {
        EXPECT_EQ(loaded.events[i].proc, f.trace.events[i].proc);
        EXPECT_EQ(loaded.events[i].block, f.trace.events[i].block);
        EXPECT_EQ(loaded.events[i].taken, f.trace.events[i].taken);
    }
}

TEST(TraceIo, ChecksumStableAndStructural)
{
    auto &f = fixture();
    EXPECT_EQ(programChecksum(f.prog), programChecksum(f.prog));
    // A different program hashes differently.
    auto profile = workloads::defaultProfile("io");
    profile.structureSeed += 1;
    auto other = workloads::buildProgram(profile);
    EXPECT_NE(programChecksum(f.prog), programChecksum(other));
}

TEST(TraceIo, FileRoundTrip)
{
    auto &f = fixture();
    std::string path = ::testing::TempDir() + "interf_trace_io_test.bin";
    saveTrace(path, f.prog, f.trace);
    Trace loaded = loadTrace(path, f.prog);
    EXPECT_EQ(loaded.instCount, f.trace.instCount);
    std::remove(path.c_str());
}

TEST(TraceIo, NonSeekableStreamRoundTrips)
{
    auto &f = fixture();
    PipeBuf pipe(savedBytes(f));
    std::istream is(&pipe);
    ASSERT_EQ(is.tellg(), std::istream::pos_type(-1));
    Trace loaded;
    std::string error;
    ASSERT_TRUE(tryLoadTrace(is, f.prog, loaded, error)) << error;
    EXPECT_EQ(loaded.instCount, f.trace.instCount);
    EXPECT_EQ(loaded.memIds, f.trace.memIds);
    ASSERT_EQ(loaded.events.size(), f.trace.events.size());
    EXPECT_EQ(std::memcmp(loaded.events.data(), f.trace.events.data(),
                          loaded.events.size() * sizeof(BlockEvent)),
              0);
}

TEST(TraceIo, CorruptCountIsTypedErrorOnEveryStream)
{
    // A count of 2^58 events must not reach an allocation of that
    // size: seekable streams bound it by the stream length, pipes by
    // the bytes that actually arrive.
    auto &f = fixture();
    std::string data = savedBytes(f);
    const u64 huge = u64{1} << 58;
    std::memcpy(&data[eventCountOffset(f, data)], &huge, sizeof(huge));
    for (bool seekable : {true, false}) {
        SCOPED_TRACE(seekable ? "seekable" : "pipe");
        Trace loaded;
        std::string error;
        EXPECT_FALSE(tryLoadFrom(data, seekable, f.prog, loaded, error));
        EXPECT_NE(error.find("truncated trace body"), std::string::npos)
            << error;
    }
}

TEST(TraceIo, HeaderMutationsSucceedOrFailTyped)
{
    auto &f = fixture();
    const std::string clean = savedBytes(f);
    const size_t header = eventCountOffset(f, clean) + 2 * sizeof(u64);
    Rng rng(0x10ad);
    int body_errors = 0;
    for (int iter = 0; iter < 300; ++iter) {
        std::string data = clean;
        const u64 flips = 1 + rng.uniformInt(4);
        for (u64 k = 0; k < flips; ++k)
            data[rng.uniformInt(header)] =
                static_cast<char>(rng.uniformInt(256));
        for (bool seekable : {true, false}) {
            Trace loaded;
            std::string error;
            if (!tryLoadFrom(data, seekable, f.prog, loaded, error)) {
                EXPECT_FALSE(error.empty()) << "iteration " << iter;
                body_errors +=
                    error.find("truncated trace body") != std::string::npos;
            }
        }
    }
    // The loop reached the count checks, not just the magic/checksum.
    EXPECT_GT(body_errors, 0);
}

TEST(TraceIoDeathTest, WrongProgramRejected)
{
    auto &f = fixture();
    std::stringstream buf;
    saveTrace(buf, f.prog, f.trace);
    auto profile = workloads::defaultProfile("io");
    profile.structureSeed += 7;
    auto other = workloads::buildProgram(profile);
    EXPECT_EXIT((void)loadTrace(buf, other),
                ::testing::ExitedWithCode(1), "checksum mismatch");
}

TEST(TraceIoDeathTest, GarbageRejected)
{
    auto &f = fixture();
    std::stringstream buf("this is not a trace file at all");
    EXPECT_EXIT((void)loadTrace(buf, f.prog),
                ::testing::ExitedWithCode(1), "bad magic");
}

TEST(TraceIoDeathTest, TruncationRejected)
{
    auto &f = fixture();
    std::stringstream buf;
    saveTrace(buf, f.prog, f.trace);
    std::string data = buf.str();
    std::stringstream cut(data.substr(0, data.size() / 2));
    EXPECT_EXIT((void)loadTrace(cut, f.prog),
                ::testing::ExitedWithCode(1), "truncated");
}

TEST(TraceIoDeathTest, MissingFileRejected)
{
    auto &f = fixture();
    EXPECT_EXIT((void)loadTrace("/nonexistent/trace.bin", f.prog),
                ::testing::ExitedWithCode(1), "cannot open");
}

} // anonymous namespace
