/**
 * @file
 * Tests for trace capture and replay.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "cpu/system.hh"
#include "workload/trace.hh"

using namespace nocstar;
using namespace nocstar::workload;

namespace
{

std::string
tempPath(const char *name)
{
    return (std::filesystem::temp_directory_path() / name).string();
}

} // namespace

TEST(TraceFile, RoundTripsThroughDisk)
{
    TraceFile trace;
    trace.append(0, 0x1000);
    trace.append(1, 0xdeadbeef000);
    trace.append(0, 0x2000);
    std::string path = tempPath("nocstar_trace_roundtrip.txt");
    trace.save(path);

    TraceFile loaded = TraceFile::load(path);
    EXPECT_EQ(loaded.totalRecords(), 3u);
    EXPECT_EQ(loaded.recordCount(0), 2u);
    EXPECT_EQ(loaded.recordCount(1), 1u);
    EXPECT_EQ(loaded.threads(), (std::vector<unsigned>{0, 1}));

    auto source = loaded.sourceFor(0);
    EXPECT_EQ(source->next(), 0x1000u);
    EXPECT_EQ(source->next(), 0x2000u);
    EXPECT_EQ(source->next(), 0x1000u); // loops
    std::remove(path.c_str());
}

TEST(TraceFile, MissingFileIsFatal)
{
    EXPECT_THROW(TraceFile::load("/nonexistent/nocstar.trace"),
                 FatalError);
}

TEST(TraceFile, MalformedRecordIsFatal)
{
    std::string path = tempPath("nocstar_trace_bad.txt");
    // Each record is not exactly `THREAD HEXADDR`: a non-hex address,
    // a hex prefix with trailing garbage, a third field, a negative
    // thread, a thread past 32 bits and a lone field.
    for (const char *record :
         {"0 zzz-not-hex", "0 12zz", "0 1000 extra", "-1 2000",
          "4294967296 1000", "0"}) {
        {
            std::ofstream out(path);
            out << "0 1000\n" << record << "\n";
        }
        EXPECT_THROW(TraceFile::load(path), FatalError) << record;
    }
    std::remove(path.c_str());
}

TEST(TraceFile, UnknownThreadIsFatal)
{
    TraceFile trace;
    trace.append(0, 0x1000);
    EXPECT_THROW(trace.sourceFor(7), FatalError);
}

TEST(TraceFile, CommentsAndBlankLinesIgnored)
{
    std::string path = tempPath("nocstar_trace_comments.txt");
    {
        std::ofstream out(path);
        out << "# a comment\n\n0 1000\n# another\n0 2000\n";
    }
    TraceFile loaded = TraceFile::load(path);
    EXPECT_EQ(loaded.totalRecords(), 2u);
    std::remove(path.c_str());
}

TEST(TraceReplay, CaptureThenReplayReproducesMissStream)
{
    std::string path = tempPath("nocstar_trace_capture.txt");

    cpu::SystemConfig config;
    config.org.kind = core::OrgKind::Nocstar;
    config.org.numCores = 4;
    {
        cpu::AppConfig app_config;
        app_config.spec = workload::testWorkload();
        app_config.threads = 4;
        config.apps.push_back(std::move(app_config));
    }
    config.seed = 31;
    config.captureTracePath = path;

    cpu::RunResult captured;
    {
        cpu::System system(config);
        captured = system.run(1500);
    }

    // Replay the captured trace: the address stream, and hence the
    // entire TLB behaviour, must reproduce exactly. The seed stays
    // fixed because it also drives the page table's superpage layout
    // and the per-thread start stagger, which a trace does not carry.
    config.captureTracePath.clear();
    config.apps[0].traceFile = path;
    cpu::System replay_system(config);
    cpu::RunResult replayed = replay_system.run(1500);

    EXPECT_EQ(replayed.l1Misses, captured.l1Misses);
    EXPECT_EQ(replayed.l2Misses, captured.l2Misses);
    EXPECT_EQ(replayed.cycles, captured.cycles);
    std::remove(path.c_str());
}

TEST(TraceReplay, ShortTraceLoops)
{
    std::string path = tempPath("nocstar_trace_short.txt");
    {
        TraceFile trace;
        for (unsigned t = 0; t < 2; ++t)
            for (Addr page = 0; page < 8; ++page)
                trace.append(t, (page + 1) << 12);
        trace.save(path);
    }

    cpu::SystemConfig config;
    config.org.kind = core::OrgKind::Private;
    config.org.numCores = 2;
    cpu::AppConfig app;
    app.spec = workload::testWorkload();
    app.threads = 2;
    app.traceFile = path;
    config.apps.push_back(app);
    cpu::System system(config);
    // Far more accesses than trace records: the source must loop.
    cpu::RunResult result = system.run(4000);
    EXPECT_EQ(result.l1Accesses, 8000u);
    // Only 8 distinct pages per thread: everything hits after warmup.
    EXPECT_LT(result.l1Misses, 100u);
    std::remove(path.c_str());
}
