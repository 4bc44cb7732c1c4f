/**
 * @file
 * SweepHarness guarantees. With --stats-json (and epoch snapshots)
 * active, a sweep's JSONL output is byte-identical at any job count --
 * parallel sweeps write per-simulation temp files that SweepHarness
 * concatenates in input order. runVsPrivate() pairs every variant with
 * its own baseline exactly as runMany() over the hand-laid-out jobs
 * would, and summarize() sums a column the way the figures always
 * have. The pool never outgrows the host.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
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

namespace
{

/** A 2-row x 2-variant grid on 8 cores: each row's private baseline
 * against NOCSTAR and distributed, with distinct seeds per row. */
std::vector<VsPrivateRow>
gridRows()
{
    std::vector<VsPrivateRow> rows;
    for (std::uint64_t seed : {7u, 8u})
        rows.push_back(orgsRow(
            makeConfig(core::OrgKind::Private, 8, workload::testWorkload(),
                       true, seed),
            1200, {core::OrgKind::Nocstar, core::OrgKind::Distributed}));
    return rows;
}

std::vector<VsPrivateResult>
runGrid(unsigned jobs)
{
    SweepHarness harness("test_sweep_grid_j" + std::to_string(jobs), {},
                         jobs);
    return harness.runVsPrivate(gridRows());
}

} // namespace

TEST(RunVsPrivate, SpeedupsMatchRunManyOverTheSameJobs)
{
    const std::vector<VsPrivateResult> grid = runGrid(2);

    std::vector<SimJob> jobs;
    for (const VsPrivateRow &row : gridRows()) {
        jobs.push_back(row.baseline);
        jobs.insert(jobs.end(), row.variants.begin(), row.variants.end());
    }
    SweepHarness harness("test_sweep_grid_many", {}, 1);
    const std::vector<cpu::RunResult> flat = harness.runMany(jobs);
    ASSERT_EQ(flat.size(), 6u);

    ASSERT_EQ(grid.size(), 2u);
    for (std::size_t r = 0; r < grid.size(); ++r) {
        const cpu::RunResult &base = flat[r * 3];
        EXPECT_EQ(grid[r].baseline.meanCycles, base.meanCycles);
        ASSERT_EQ(grid[r].variants.size(), 2u);
        for (std::size_t v = 0; v < 2; ++v) {
            const cpu::RunResult &variant = flat[r * 3 + 1 + v];
            EXPECT_EQ(grid[r].variants[v].cycles, variant.cycles);
            EXPECT_EQ(grid[r].speedup(v), speedupVsPrivate(base, variant))
                << "row " << r << " variant " << v;
        }
    }
    // The rows differ, so a mispaired baseline would show.
    EXPECT_NE(grid[0].baseline.meanCycles, grid[1].baseline.meanCycles);
}

TEST(RunVsPrivate, IdenticalAtAnyJobCount)
{
    const std::vector<VsPrivateResult> serial = runGrid(1);
    const std::vector<VsPrivateResult> parallel = runGrid(2);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t r = 0; r < serial.size(); ++r) {
        EXPECT_EQ(serial[r].baseline.cycles, parallel[r].baseline.cycles);
        for (std::size_t v = 0; v < serial[r].variants.size(); ++v) {
            EXPECT_EQ(serial[r].variants[v].cycles,
                      parallel[r].variants[v].cycles);
            EXPECT_EQ(serial[r].speedup(v), parallel[r].speedup(v));
        }
    }
}

TEST(RunVsPrivate, NestedRowsKeepTheirShape)
{
    SweepHarness harness("test_sweep_grid_nested", {}, 1);
    const auto nested = harness.runVsPrivate(
        std::vector<std::vector<VsPrivateRow>>{gridRows(), {}});
    const std::vector<VsPrivateResult> flat = runGrid(1);
    ASSERT_EQ(nested.size(), 2u);
    ASSERT_EQ(nested[0].size(), flat.size());
    EXPECT_TRUE(nested[1].empty());
    for (std::size_t r = 0; r < flat.size(); ++r)
        EXPECT_EQ(nested[0][r].speedup(1), flat[r].speedup(1));
}

TEST(ColumnSummary, MeanIsTheRowOrderSumOfShares)
{
    const std::vector<VsPrivateResult> grid = runGrid(1);
    for (std::size_t v = 0; v < 2; ++v) {
        double mean = 0;
        for (const VsPrivateResult &row : grid)
            mean += row.speedup(v) / 2.0;
        const ColumnSummary s = speedupSummary(grid, v);
        EXPECT_EQ(s.mean, mean); // bit for bit, not approximately
        EXPECT_EQ(s.min, std::min(grid[0].speedup(v), grid[1].speedup(v)));
        EXPECT_EQ(s.max, std::max(grid[0].speedup(v), grid[1].speedup(v)));
    }
    // For these eleven values the shares summed in order differ in the
    // last bit from the sum divided once; summarize() keeps the order
    // the figures have always summed in.
    const std::vector<double> values = {1.1,  0.97, 1.03, 1.2,
                                        0.99, 1.07, 1.01, 0.93,
                                        1.15, 1.04, 0.98};
    double shares = 0, sum = 0;
    for (double v : values) {
        shares += v / 11.0;
        sum += v;
    }
    const double mean =
        summarize(values, [](double v) { return v; }).mean;
    EXPECT_EQ(mean, shares);
    EXPECT_NE(mean, sum / 11.0);
}

TEST(SweepHarness, PoolNeverOutgrowsTheHost)
{
    // Only the count is computed: no pool of this size is ever built.
    EXPECT_EQ(sweepWorkers(1000000, 4), 4u);
    EXPECT_EQ(sweepWorkers(3, 4), 3u);
    EXPECT_EQ(sweepWorkers(4, 4), 4u);
    EXPECT_EQ(sweepWorkers(8, 0), 1u); // hardware count unknown
    ::setenv("NOCSTAR_JOBS", "1000000", 1);
    EXPECT_EQ(sweepWorkers(0, 4), 4u);
    EXPECT_EQ(sweepWorkers(2, 4), 2u); // --jobs wins over the variable
    ::unsetenv("NOCSTAR_JOBS");
}
