/**
 * @file
 * The parallel-sweep stats guarantee: with --stats-json (and epoch
 * snapshots) active, a sweep's JSONL output is byte-identical at any
 * job count -- parallel sweeps write per-simulation temp files that
 * SweepHarness concatenates in input order.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.hh"
#include "workload/spec.hh"

using namespace nocstar;
using namespace nocstar::bench;

namespace
{

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

std::vector<SimJob>
sweepJobs()
{
    std::vector<SimJob> jobs;
    for (unsigned i = 0; i < 4; ++i)
        jobs.push_back({makeConfig(core::OrgKind::Nocstar, 8,
                                   workload::testWorkload(), true, 100 + i),
                        1200});
    return jobs;
}

/** Run the sweep at @p jobs workers and return the JSONL bytes. */
std::string
sweepDocument(unsigned jobs)
{
    const std::string sink = "test_sweep_stats.jsonl";
    std::remove(sink.c_str());
    RunOptions options;
    options.statsJson = sink;
    options.epoch = 3000;
    {
        SweepHarness harness("test_sweep_stats_j" + std::to_string(jobs),
                             options, jobs);
        harness.runMany(sweepJobs());
    }
    std::string doc = slurp(sink);
    std::remove(sink.c_str());
    return doc;
}

} // namespace

TEST(SweepStatsJson, ByteIdenticalAtAnyJobCount)
{
    const std::string serial = sweepDocument(1);
    ASSERT_FALSE(serial.empty());
    // One JSONL line per simulation, each a full stats document with
    // epoch snapshots.
    EXPECT_EQ(std::count(serial.begin(), serial.end(), '\n'), 4);
    EXPECT_NE(serial.find("\"epochs\":[{"), std::string::npos);

    EXPECT_EQ(serial, sweepDocument(2));
    EXPECT_EQ(serial, sweepDocument(4));

    // No temp files left behind.
    for (unsigned i = 0; i < 8; ++i) {
        std::ifstream tmp("test_sweep_stats.jsonl.tmp" +
                          std::to_string(i));
        EXPECT_FALSE(tmp.good()) << "stale temp file " << i;
    }
}
