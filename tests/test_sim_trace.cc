/**
 * @file
 * Unit tests for the structured trace recorder (ring buffer, Chrome
 * JSON export, JSON escaping) and for what a simulation records into
 * it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string_view>

#include "cpu/system.hh"
#include "sim/json.hh"
#include "sim/trace_recorder.hh"

using namespace nocstar;

TEST(TraceRecorderTest, DisabledRecorderIgnoresRecords)
{
    sim::TraceRecorder rec;
    EXPECT_FALSE(rec.enabled());
    rec.span(sim::Lane::Link, 0, "held", 0, 5);
    EXPECT_EQ(rec.size(), 0u);
    EXPECT_EQ(rec.recorded(), 0u);
}

TEST(TraceRecorderTest, RecordsSpansAndInstants)
{
    sim::TraceRecorder rec;
    rec.start(16);
    rec.span(sim::Lane::Translation, 2, "translation", 10, 25, 0xabc,
             5, "vaddr", "thread");
    rec.instant(sim::Lane::Message, 3, "setup denied", 12);
    EXPECT_EQ(rec.size(), 2u);
    EXPECT_EQ(rec.dropped(), 0u);
    auto records = rec.snapshot();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_STREQ(records[0].name, "translation");
    EXPECT_EQ(records[0].start, 10u);
    EXPECT_EQ(records[0].duration, 15u);
    EXPECT_EQ(records[0].track, 2u);
    EXPECT_EQ(records[0].kind, sim::TraceRecorder::Kind::Span);
    EXPECT_EQ(records[1].kind, sim::TraceRecorder::Kind::Instant);
    EXPECT_EQ(records[1].duration, 0u);
}

TEST(TraceRecorderTest, RingWrapsOverwritingOldest)
{
    sim::TraceRecorder rec;
    rec.start(4);
    for (std::uint64_t i = 0; i < 6; ++i)
        rec.span(sim::Lane::Link, 0, "held", i, i + 1, i);
    EXPECT_EQ(rec.size(), 4u);
    EXPECT_EQ(rec.dropped(), 2u);
    EXPECT_EQ(rec.recorded(), 6u);
    auto records = rec.snapshot();
    ASSERT_EQ(records.size(), 4u);
    // Oldest two (start 0, 1) were overwritten; order is chronological.
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(records[i].start, i + 2);
}

TEST(TraceRecorderTest, StopFreezesCapture)
{
    sim::TraceRecorder rec;
    rec.start(8);
    rec.span(sim::Lane::Walker, 1, "walk", 0, 30);
    rec.stop();
    rec.span(sim::Lane::Walker, 1, "walk", 40, 70);
    EXPECT_EQ(rec.size(), 1u);
    // start() resets the buffer for a fresh capture.
    rec.start(8);
    EXPECT_EQ(rec.size(), 0u);
    rec.stop();
}

TEST(TraceRecorderTest, ChromeExportShape)
{
    sim::TraceRecorder rec;
    rec.start(8);
    rec.span(sim::Lane::Slice, 4, "lookup hit", 100, 103, 7, 0,
             "req", nullptr);
    rec.instant(sim::Lane::Message, 1, "setup denied", 101, 9, 2,
                "dst", "retries");
    rec.stop();

    std::ostringstream os;
    rec.exportChromeJson(os);
    std::string text = os.str();
    // Complete event with duration on the slice lane.
    EXPECT_NE(text.find("\"name\":\"lookup hit\""), std::string::npos)
        << text;
    EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos) << text;
    EXPECT_NE(text.find("\"ts\":100"), std::string::npos) << text;
    EXPECT_NE(text.find("\"dur\":3"), std::string::npos) << text;
    EXPECT_NE(text.find("\"args\":{\"req\":7}"), std::string::npos)
        << text;
    // Instant event.
    EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos) << text;
    EXPECT_NE(text.find("\"s\":\"t\""), std::string::npos) << text;
    EXPECT_NE(text.find("\"args\":{\"dst\":9,\"retries\":2}"),
              std::string::npos)
        << text;
    // Lane metadata.
    EXPECT_NE(text.find("\"process_name\""), std::string::npos) << text;
    EXPECT_NE(text.find("L2 TLB slices"), std::string::npos) << text;
    // Balanced object/array delimiters (cheap well-formedness check).
    EXPECT_EQ(std::count(text.begin(), text.end(), '{'),
              std::count(text.begin(), text.end(), '}'));
    EXPECT_EQ(std::count(text.begin(), text.end(), '['),
              std::count(text.begin(), text.end(), ']'));
}

TEST(TraceRecorderTest, CounterSamplesExportAsCounterEvents)
{
    sim::TraceRecorder rec;
    rec.start(8);
    rec.counter(0, "queue depth", 10, 3);
    rec.counter(1, "in-flight", 10, 7);
    rec.counter(0, "queue depth", 20, 0);
    rec.stop();

    auto records = rec.snapshot();
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(records[0].kind, sim::TraceRecorder::Kind::Counter);
    EXPECT_EQ(records[0].lane, sim::Lane::Counter);
    EXPECT_EQ(records[0].arg0, 3u);
    EXPECT_EQ(records[1].track, 1u);

    std::ostringstream os;
    rec.exportChromeJson(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("\"ph\":\"C\""), std::string::npos) << text;
    EXPECT_NE(text.find("\"name\":\"queue depth\""), std::string::npos)
        << text;
    // A zero sample still exports (drops the track to the axis).
    EXPECT_NE(text.find("\"ts\":20"), std::string::npos) << text;
    EXPECT_EQ(std::count(text.begin(), text.end(), '{'),
              std::count(text.begin(), text.end(), '}'));
}

TEST(TraceRecorderTest, CounterRingWrapKeepsNewestSamples)
{
    sim::TraceRecorder rec;
    rec.start(4);
    for (std::uint64_t i = 0; i < 10; ++i)
        rec.counter(0, "depth", i * 5, i);
    EXPECT_EQ(rec.size(), 4u);
    EXPECT_EQ(rec.dropped(), 6u);
    auto records = rec.snapshot();
    ASSERT_EQ(records.size(), 4u);
    // Oldest samples were overwritten; survivors stay chronological,
    // so the exported counter track still has monotonic timestamps.
    for (std::uint64_t i = 0; i < 4; ++i) {
        EXPECT_EQ(records[i].start, (i + 6) * 5);
        EXPECT_EQ(records[i].arg0, i + 6);
    }
    rec.stop();
}

TEST(TraceRecorderTest, GlobalGateTracksStartStop)
{
    EXPECT_FALSE(sim::recording());
    sim::TraceRecorder::global().start(16);
    EXPECT_TRUE(sim::recording());
    sim::recorder().span(sim::Lane::Link, 1, "held", 0, 2);
    EXPECT_EQ(sim::TraceRecorder::global().size(), 1u);
    sim::TraceRecorder::global().stop();
    EXPECT_FALSE(sim::recording());
    sim::TraceRecorder::global().clear();
}

TEST(TraceRecorderTest, LocalRecorderLeavesGlobalGateAlone)
{
    sim::TraceRecorder rec;
    EXPECT_FALSE(sim::recording());
    rec.start(4);
    EXPECT_TRUE(rec.enabled());
    EXPECT_FALSE(sim::recording());
    rec.stop();
    EXPECT_FALSE(sim::recording());
}

TEST(TraceRecorderTest, TracedRunSamplesCountersEvery500Cycles)
{
    cpu::SystemConfig config;
    config.org.kind = core::OrgKind::Nocstar;
    config.org.numCores = 16;
    cpu::AppConfig app;
    app.spec = workload::findWorkload("graph500");
    app.threads = 16;
    config.apps.push_back(app);

    sim::TraceRecorder &rec = sim::TraceRecorder::global();
    rec.start();
    cpu::System system(config);
    system.run(2000);
    rec.stop();
    const auto records = rec.snapshot();
    rec.clear();

    // Queue depth, in-flight L2 misses and fabric links held, each
    // sampled at every multiple of 500 cycles while the run lasts.
    std::map<std::string_view, std::vector<Cycle>> tracks;
    for (const sim::TraceRecorder::Record &r : records)
        if (r.kind == sim::TraceRecorder::Kind::Counter)
            tracks[r.name].push_back(r.start);
    EXPECT_EQ(tracks.size(), 3u);
    for (const auto &[name, cycles] : tracks) {
        EXPECT_GT(cycles.size(), 1u) << name;
        for (std::size_t i = 0; i < cycles.size(); ++i)
            EXPECT_EQ(cycles[i], 500 * (i + 1)) << name;
    }
}

TEST(TraceRecorderTest, NocstarStormRunRecordsEveryEventKind)
{
    // A 16-core NOCSTAR run with storm remaps under CI's smoke fault
    // plan, which isolates tile 9 at cycle 0.
    std::istringstream plan_text("link 9 E 0 permanent\n"
                                 "link 9 W 0 permanent\n"
                                 "link 9 N 0 permanent\n"
                                 "link 9 S 0 permanent\n"
                                 "grant-loss 0.01\n"
                                 "slice-ecc 0.002\n"
                                 "walk-ecc 0.002\n"
                                 "seed 7\n");
    cpu::SystemConfig config;
    config.org.kind = core::OrgKind::Nocstar;
    config.org.numCores = 16;
    config.org.faults = sim::FaultPlan::parse(plan_text, "smoke.plan");
    cpu::AppConfig app;
    app.spec = workload::findWorkload("graph500");
    app.threads = 16;
    config.apps.push_back(app);
    config.stormRemapInterval = 2000;

    sim::TraceRecorder &rec = sim::TraceRecorder::global();
    rec.start();
    cpu::System system(config);
    system.run(2000);
    rec.stop();
    const auto records = rec.snapshot();
    EXPECT_EQ(rec.dropped(), 0u);
    rec.clear();

    const core::TlbOrganization &org = system.organization();
    std::size_t storms = 0, shootdowns = 0, lookups = 0;
    std::set<std::uint32_t> faulted_links;
    std::set<std::uint64_t> unreachable;
    for (const sim::TraceRecorder::Record &r : records) {
        const std::string_view name = r.name;
        if (name == "storm remap") {
            ++storms;
            EXPECT_EQ(r.lane, sim::Lane::Translation);
            EXPECT_EQ(r.kind, sim::TraceRecorder::Kind::Instant);
        } else if (name == "shootdown") {
            ++shootdowns;
            EXPECT_EQ(r.lane, sim::Lane::Slice);
            EXPECT_EQ(r.kind, sim::TraceRecorder::Kind::Instant);
            EXPECT_STREQ(r.arg0Name, "vaddr");
            // One track per home array: the page's home slice.
            EXPECT_EQ(r.track, org.homeArrayOf(0, r.arg0));
        } else if (name == "link fault") {
            EXPECT_EQ(r.lane, sim::Lane::Link);
            EXPECT_EQ(r.start, 0u);
            EXPECT_EQ(r.arg0, 0u) << "permanent: no duration";
            faulted_links.insert(r.track);
        } else if (name == "no surviving path") {
            EXPECT_EQ(r.lane, sim::Lane::Message);
            EXPECT_EQ(r.track, 9u) << "only the isolated tile is cut off";
            EXPECT_EQ(r.start, 0u);
            unreachable.insert(r.arg0);
        } else if (name == "lookup hit" || name == "lookup miss") {
            ++lookups;
            EXPECT_EQ(r.lane, sim::Lane::Slice);
            ASSERT_STREQ(r.arg0Name, "vaddr");
            ASSERT_STREQ(r.arg1Name, "core");
            EXPECT_LT(r.arg1, 16u);
            EXPECT_EQ(r.track,
                      org.homeArrayOf(static_cast<CoreId>(r.arg1),
                                      r.arg0));
        }
    }
    EXPECT_GT(storms, 0u);
    EXPECT_GT(shootdowns, 0u);
    EXPECT_GT(lookups, 0u);
    // Tile 9's four output links (E, W, N, S), and every destination
    // but tile 9 itself left without a path from it.
    EXPECT_EQ(faulted_links, (std::set<std::uint32_t>{36, 37, 38, 39}));
    EXPECT_EQ(unreachable.size(), 15u);
    EXPECT_EQ(unreachable.count(9), 0u);
}

TEST(JsonHelpers, EscapeHandlesSpecials)
{
    EXPECT_EQ(json::escape("plain"), "plain");
    EXPECT_EQ(json::escape("a\"b"), "a\\\"b");
    EXPECT_EQ(json::escape("back\\slash"), "back\\\\slash");
    EXPECT_EQ(json::escape("line\nbreak"), "line\\nbreak");
    EXPECT_EQ(json::escape("tab\there"), "tab\\there");
    EXPECT_EQ(json::escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(JsonHelpers, NumberFormatting)
{
    auto render = [](double v) {
        std::ostringstream os;
        json::number(os, v);
        return os.str();
    };
    EXPECT_EQ(render(0), "0");
    EXPECT_EQ(render(42), "42");
    EXPECT_EQ(render(-3), "-3");
    EXPECT_EQ(render(2.5), "2.5");
    EXPECT_EQ(render(1.0 / 0.0), "0"); // JSON has no Infinity
    double parsed = std::strtod(render(0.1).c_str(), nullptr);
    EXPECT_DOUBLE_EQ(parsed, 0.1); // round-trips
}
