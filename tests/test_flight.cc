/** @file Tests for the crash-safe flight recorder: framing round-trip
 *  through the binary segment format, torn-tail tolerance, segment
 *  rotation bounds, sequence resume, and the death-path guarantee that
 *  a panicking process flushes its last words without corrupting the
 *  segments already committed. */

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "telemetry/progress.hh"
#include "telemetry/recorder.hh"
#include "telemetry/span.hh"
#include "telemetry/telemetry.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace
{

using namespace interf;
using namespace interf::telemetry;

/** RAII: telemetry enabled for one test, state cleared around it.
 *  resetForTest() also stops + seals any recorder the test started. */
struct TelemetryOn
{
    TelemetryOn()
    {
        telemetry::resetForTest();
        telemetry::enable();
    }
    ~TelemetryOn()
    {
        telemetry::disable();
        telemetry::resetForTest();
    }
};

std::string
tempDir(const char *tag)
{
    auto dir = std::filesystem::temp_directory_path() /
               (std::string("interf-flight-") + tag + "-" +
                std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

std::string
readBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(is),
                       std::istreambuf_iterator<char>());
}

std::vector<std::string>
segmentFiles(const std::string &dir)
{
    std::vector<std::string> out;
    for (const auto &f : std::filesystem::directory_iterator(dir))
        out.push_back(f.path().filename().string());
    std::sort(out.begin(), out.end());
    return out;
}

TEST(FlightRecorder, RoundTripsAllEventTypes)
{
    TelemetryOn on;
    const std::string dir = tempDir("roundtrip");
    recorder::start(dir);
    ASSERT_TRUE(recorder::active());

    SpanRecord span;
    span.name = "test.flight_span";
    span.tid = 3;
    span.startNs = 1000;
    span.wallNs = 250;
    span.threadNs = 200;
    span.spanId = 42;
    span.parentSpanId = 7;
    span.ctx.campaignId = 0xabcdefULL;
    span.ctx.batchIndex = 5;
    span.ctx.candidateDigest = 0x123456ULL;
    recorder::recordSpan(span);
    recorder::recordLog(static_cast<u8>(LogLevel::Warn), "warn words");
    ProgressEvent pe;
    pe.task = "test.progress";
    pe.tsNs = 2000;
    pe.done = 3;
    pe.total = 10;
    pe.cached = 1;
    pe.fresh = 2;
    pe.ratePerSec = 123.5;
    pe.etaSec = 0.25;
    recorder::recordProgress(pe);
    recorder::stop();
    EXPECT_FALSE(recorder::active());

    flight::ReadResult rr;
    ASSERT_TRUE(flight::readDir(dir, rr));
    EXPECT_EQ(rr.segments, 1u);
    EXPECT_FALSE(rr.tornTail);
    EXPECT_TRUE(rr.errors.empty());
    ASSERT_EQ(rr.events.size(), 3u);

    const flight::Event &s = rr.events[0];
    EXPECT_EQ(s.type, flight::EventType::Span);
    EXPECT_EQ(s.name, "test.flight_span");
    EXPECT_EQ(s.tid, 3u);
    EXPECT_EQ(s.tsNs, 1000u);
    EXPECT_EQ(s.wallNs, 250u);
    EXPECT_EQ(s.threadNs, 200u);
    EXPECT_EQ(s.spanId, 42u);
    EXPECT_EQ(s.parentSpanId, 7u);
    EXPECT_EQ(s.campaignId, 0xabcdefULL);
    EXPECT_EQ(s.batchIndex, 5u);
    EXPECT_EQ(s.candidateDigest, 0x123456ULL);

    const flight::Event &l = rr.events[1];
    EXPECT_EQ(l.type, flight::EventType::Log);
    EXPECT_EQ(l.logLevel, static_cast<u8>(LogLevel::Warn));
    EXPECT_EQ(l.name, "warn words");

    const flight::Event &p = rr.events[2];
    EXPECT_EQ(p.type, flight::EventType::Progress);
    EXPECT_EQ(p.name, "test.progress");
    EXPECT_EQ(p.done, 3u);
    EXPECT_EQ(p.total, 10u);
    EXPECT_EQ(p.cached, 1u);
    EXPECT_EQ(p.fresh, 2u);
    EXPECT_DOUBLE_EQ(p.ratePerSec, 123.5);
    EXPECT_DOUBLE_EQ(p.etaSec, 0.25);
    std::filesystem::remove_all(dir);
}

/** Finished spans reach the log only at close, so a phase span that
 *  outlives a SIGKILL must have announced its open — otherwise its
 *  recorded children would point at an id absent from the log. Read
 *  the log back while the phase span is still open and resolve the
 *  child's parent against the open marker. */
TEST(FlightRecorder, OpenMarkerResolvesParentOfKilledPhase)
{
    TelemetryOn on;
    const std::string dir = tempDir("openmarker");
    recorder::start(dir);
    {
        INTERF_SPAN_PHASE("test.phase");
        {
            INTERF_SPAN("test.child");
        }
        recorder::flushNow();

        // The "post-mortem": the phase span has not closed, exactly as
        // if the process had been killed here.
        flight::ReadResult rr;
        ASSERT_TRUE(flight::readDir(dir, rr));
        EXPECT_TRUE(rr.errors.empty());
        ASSERT_EQ(rr.events.size(), 2u);
        const flight::Event &open = rr.events[0];
        EXPECT_EQ(open.type, flight::EventType::SpanOpen);
        EXPECT_EQ(open.name, "test.phase");
        ASSERT_NE(open.spanId, 0u);
        const flight::Event &child = rr.events[1];
        EXPECT_EQ(child.type, flight::EventType::Span);
        EXPECT_EQ(child.name, "test.child");
        EXPECT_EQ(child.parentSpanId, open.spanId);
    }
    recorder::stop();
    std::filesystem::remove_all(dir);
}

/** A SIGKILL can cut the active segment mid-record. Everything before
 *  the tear must read back; the tear is reported, not an error. */
TEST(FlightRecorder, TornActiveTailIsToleratedNotAnError)
{
    TelemetryOn on;
    const std::string dir = tempDir("torn");
    recorder::start(dir);
    for (int i = 0; i < 10; ++i)
        recorder::recordLog(static_cast<u8>(LogLevel::Inform),
                            "message " + std::to_string(i));
    recorder::stop(); // Seals flight-000000.bin with 10 records.

    // Fake a killed successor: its active segment is a copy of the
    // sealed one, cut a few bytes short of the final record boundary.
    const std::string sealed = dir + "/flight-000000.bin";
    const std::string torn = dir + "/flight-000001.bin.tmp.9999";
    std::filesystem::copy_file(sealed, torn);
    const auto size = std::filesystem::file_size(torn);
    std::filesystem::resize_file(torn, size - 5);

    flight::ReadResult rr;
    ASSERT_TRUE(flight::readDir(dir, rr));
    EXPECT_EQ(rr.segments, 2u);
    EXPECT_TRUE(rr.tornTail);
    EXPECT_TRUE(rr.errors.empty()) << rr.errors[0];
    // 10 sealed + 9 complete before the tear.
    EXPECT_EQ(rr.events.size(), 19u);
    EXPECT_EQ(rr.events.back().name, "message 8");
    std::filesystem::remove_all(dir);
}

/** The same truncation inside a *sealed* segment is corruption and
 *  must surface as an error (exit 1 through interf_trace). */
TEST(FlightRecorder, TruncatedSealedSegmentIsAnError)
{
    TelemetryOn on;
    const std::string dir = tempDir("corrupt");
    recorder::start(dir);
    for (int i = 0; i < 10; ++i)
        recorder::recordLog(static_cast<u8>(LogLevel::Inform),
                            "message " + std::to_string(i));
    recorder::stop();
    const std::string sealed = dir + "/flight-000000.bin";
    // A later sealed segment makes the truncated one a non-tail file.
    std::filesystem::copy_file(sealed, dir + "/flight-000001.bin");
    const auto size = std::filesystem::file_size(sealed);
    std::filesystem::resize_file(sealed, size - 5);

    flight::ReadResult rr;
    ASSERT_TRUE(flight::readDir(dir, rr));
    EXPECT_FALSE(rr.errors.empty());
    std::filesystem::remove_all(dir);
}

/** Random byte corruption of a sealed segment never crashes the
 *  reader: every mutant parses to events, reports an error, or both. */
TEST(FlightRecorder, SegmentMutationsParseOrReportErrors)
{
    TelemetryOn on;
    const std::string dir = tempDir("mutate");
    recorder::start(dir);
    for (int i = 0; i < 4; ++i) {
        SpanRecord span;
        span.name = "test.mutate_span";
        span.startNs = 100 * static_cast<u64>(i);
        span.wallNs = 50;
        span.spanId = static_cast<u64>(i) + 1;
        recorder::recordSpan(span);
        recorder::recordLog(static_cast<u8>(LogLevel::Inform),
                            "message " + std::to_string(i));
    }
    ProgressEvent pe;
    pe.task = "test.mutate_progress";
    pe.done = 1;
    pe.total = 2;
    recorder::recordProgress(pe);
    recorder::stop();

    const std::string sealed = dir + "/flight-000000.bin";
    const std::string original = readBytes(sealed);
    ASSERT_GT(original.size(), flight::kSegmentHeaderBytes);
    // A later, header-only segment makes the mutated one sealed (its
    // corruption is an error, not a torn tail) and adds no events.
    {
        std::ofstream os(dir + "/flight-000001.bin", std::ios::binary);
        os.write(original.data(), flight::kSegmentHeaderBytes);
    }
    flight::ReadResult clean;
    ASSERT_TRUE(flight::readDir(dir, clean));
    ASSERT_TRUE(clean.errors.empty());
    ASSERT_EQ(clean.events.size(), 9u);

    Rng rng(2024);
    u32 with_errors = 0;
    for (int iter = 0; iter < 400; ++iter) {
        std::string bytes = original;
        const u64 flips = 1 + rng.uniformInt(4);
        for (u64 k = 0; k < flips; ++k)
            bytes[rng.uniformInt(bytes.size())] =
                static_cast<char>(rng.uniformInt(256));
        {
            std::ofstream os(sealed, std::ios::binary | std::ios::trunc);
            os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        }
        flight::ReadResult rr;
        ASSERT_TRUE(flight::readDir(dir, rr)) << "iteration " << iter;
        EXPECT_TRUE(!rr.events.empty() || !rr.errors.empty())
            << "iteration " << iter;
        with_errors += rr.errors.empty() ? 0 : 1;
    }
    // Most mutants hit a checksummed payload or a length field.
    EXPECT_GT(with_errors, 200u);
    std::filesystem::remove_all(dir);
}

/** Rotation caps the log: at most kMaxSealedSegments sealed segments
 *  survive (oldest pruned), each about kSegmentBytes long. */
TEST(FlightRecorder, RotationBoundsDiskUsage)
{
    TelemetryOn on;
    const std::string dir = tempDir("rotate");
    recorder::start(dir);
    const std::string payload(4096, 'x');
    // ~6 MiB through 1 MiB segments; flush often enough that nothing
    // is dropped by the bounded queue.
    for (int i = 0; i < 1536; ++i) {
        recorder::recordLog(static_cast<u8>(LogLevel::Inform), payload);
        if (i % 8 == 7)
            recorder::flushNow();
    }
    recorder::stop();
    EXPECT_EQ(recorder::droppedEvents(), 0u);

    const auto files = segmentFiles(dir);
    ASSERT_FALSE(files.empty());
    // Rotation prunes to kMaxSealedSegments; the final seal may add one.
    EXPECT_LE(files.size(), flight::kMaxSealedSegments + 1);
    for (const auto &f : files) {
        // Rotation triggers between record batches, so a segment can
        // overshoot by one flush batch (8 records here) at most.
        EXPECT_LE(std::filesystem::file_size(dir + "/" + f),
                  flight::kSegmentBytes + 64 * 1024);
        // The earliest segments must be gone.
        EXPECT_NE(f, "flight-000000.bin");
    }
    flight::ReadResult rr;
    ASSERT_TRUE(flight::readDir(dir, rr));
    EXPECT_TRUE(rr.errors.empty()) << rr.errors[0];
    EXPECT_FALSE(rr.tornTail);
    EXPECT_GT(rr.events.size(), 0u);
    std::filesystem::remove_all(dir);
}

/** Restarting a recorder over an existing log appends after the
 *  highest sequence number instead of clobbering history. */
TEST(FlightRecorder, RestartResumesSequence)
{
    TelemetryOn on;
    const std::string dir = tempDir("resume");
    recorder::start(dir);
    recorder::recordLog(static_cast<u8>(LogLevel::Inform), "first run");
    recorder::stop();
    recorder::start(dir);
    recorder::recordLog(static_cast<u8>(LogLevel::Inform), "second run");
    recorder::stop();

    const auto files = segmentFiles(dir);
    EXPECT_EQ(files, (std::vector<std::string>{"flight-000000.bin",
                                               "flight-000001.bin"}));
    flight::ReadResult rr;
    ASSERT_TRUE(flight::readDir(dir, rr));
    EXPECT_TRUE(rr.errors.empty());
    ASSERT_EQ(rr.events.size(), 2u);
    EXPECT_EQ(rr.events[0].name, "first run");
    EXPECT_EQ(rr.events[1].name, "second run");
    std::filesystem::remove_all(dir);
}

/** A panicking process flushes its last words into the flight log and
 *  leaves every previously committed segment byte-for-byte intact. */
TEST(FlightRecorderDeathTest, PanicFlushKeepsCommittedSegmentIntact)
{
    TelemetryOn on;
    const std::string dir = tempDir("death");
    recorder::start(dir);
    recorder::recordLog(static_cast<u8>(LogLevel::Inform),
                        "calm before");
    recorder::stop(); // Seals flight-000000.bin.
    const std::string sealed = dir + "/flight-000000.bin";
    const std::string before = readBytes(sealed);
    ASSERT_FALSE(before.empty());

    EXPECT_DEATH(
        {
            recorder::start(dir);
            recorder::recordLog(static_cast<u8>(LogLevel::Inform),
                                "queued in the doomed child");
            panic("flight death test");
        },
        "flight death test");

    // The committed segment is untouched...
    EXPECT_EQ(readBytes(sealed), before);
    // ...and the whole directory (including the dead child's tail)
    // still reads cleanly, ending with the panic's last words.
    flight::ReadResult rr;
    ASSERT_TRUE(flight::readDir(dir, rr));
    EXPECT_TRUE(rr.errors.empty()) << rr.errors[0];
    ASSERT_GE(rr.events.size(), 3u);
    EXPECT_EQ(rr.events[0].name, "calm before");
    bool saw_queued = false, saw_panic = false;
    for (const auto &ev : rr.events) {
        if (ev.name == "queued in the doomed child")
            saw_queued = true;
        if (ev.type == flight::EventType::Log &&
            ev.logLevel == static_cast<u8>(LogLevel::Panic) &&
            ev.name.find("flight death test") != std::string::npos)
            saw_panic = true;
    }
    EXPECT_TRUE(saw_queued);
    EXPECT_TRUE(saw_panic);
    std::filesystem::remove_all(dir);
}

} // anonymous namespace
