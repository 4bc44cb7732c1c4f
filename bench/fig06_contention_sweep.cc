/**
 * @file
 * Fig 6 (left): concurrency distribution averaged across workloads as
 * the L1 TLB size scales (0.5x / baseline / 1.5x) and as the core
 * count grows (64-512). (Right): per-slice concurrency for a
 * distributed shared L2 TLB with one slice per core, 32-512 slices.
 */

#include <cstdio>
#include <iterator>

#include "bench/bench_common.hh"

using namespace nocstar;

namespace
{

constexpr const char *bucketNames[] = {"1", "2-4", "5-8", "9-12",
                                       "13-16", "17-20", "21-24",
                                       "25-28", "29+"};

/** Queue one distributed-L2 run per workload. */
void
addWorkloads(std::vector<bench::SimJob> &jobs, unsigned cores,
             double l1_scale, std::uint64_t accesses)
{
    for (const auto &spec : workload::paperWorkloads()) {
        auto config = bench::makeConfig(core::OrgKind::Distributed,
                                        cores, spec);
        config.l1.scale = l1_scale;
        jobs.push_back({config, accesses});
    }
}

/** Print the buckets of one addWorkloads() block, averaged. */
void
printBuckets(const char *label, const cpu::RunResult *block,
             bool per_slice)
{
    std::vector<double> avg(9, 0.0);
    for (std::size_t w = 0; w < workload::paperWorkloads().size(); ++w) {
        const auto &buckets = per_slice
            ? block[w].sliceConcurrencyBuckets
            : block[w].concurrencyBuckets;
        for (std::size_t i = 0; i < 9; ++i)
            avg[i] += buckets[i] / 11.0;
    }
    std::printf("%-12s", label);
    for (double b : avg)
        std::printf("%8.3f", b);
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchArgs args = bench::parseBenchArgs(
        argc, argv, 4000,
        "Fig 6: chip-wide / per-slice concurrency vs core count");
    std::uint64_t base = args.accesses;
    // One slice per core: the right panel's rows are core counts too,
    // and its 64-512 rows are the left panel's 64-512 core runs.
    const unsigned sliceCounts[] = {32u, 64u, 128u, 256u, 512u};

    std::vector<bench::SimJob> jobs;
    for (double l1_scale : {1.0, 0.5, 1.5})
        addWorkloads(jobs, 32, l1_scale, base);
    for (unsigned cores : sliceCounts)
        addWorkloads(jobs, cores, 1.0, base * 32 / cores + 500);
    bench::SweepHarness harness("fig06_contention_sweep", args.run,
                                args.jobs);
    auto results = harness.runMany(jobs);
    const std::size_t block = workload::paperWorkloads().size();
    const cpu::RunResult *l1_rows = results.data();
    const cpu::RunResult *core_rows = l1_rows + 3 * block;

    std::printf("Fig 6 (left): chip-wide concurrency, averaged across "
                "workloads\n");
    std::printf("%-12s", "config");
    for (const char *b : bucketNames)
        std::printf("%8s", b);
    std::printf("\n");

    printBuckets("baseline", l1_rows, false);
    printBuckets("0.5x-L1", l1_rows + block, false);
    printBuckets("1.5x-L1", l1_rows + 2 * block, false);
    for (std::size_t i = 1; i < std::size(sliceCounts); ++i) {
        char label[32];
        std::snprintf(label, sizeof(label), "%u-cores", sliceCounts[i]);
        printBuckets(label, core_rows + i * block, false);
    }

    std::printf("\nFig 6 (right): per-slice concurrency, distributed "
                "shared L2 TLB\n");
    std::printf("%-12s", "slices");
    for (const char *b : bucketNames)
        std::printf("%8s", b);
    std::printf("\n");
    for (std::size_t i = 0; i < std::size(sliceCounts); ++i) {
        char label[32];
        std::snprintf(label, sizeof(label), "%u", sliceCounts[i]);
        printBuckets(label, core_rows + i * block, true);
    }
    return 0;
}
