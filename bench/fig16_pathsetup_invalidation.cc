/**
 * @file
 * Fig 16: (left) NOCSTAR link acquisition modes -- one round-trip
 * acquisition versus two one-way acquisitions -- across core counts;
 * (right) TLB invalidation relay policies (leader groups of 4 / 8 /
 * all cores) versus each core sending its own invalidation, under a
 * shootdown-heavy run.
 */

#include <cstdio>

#include "bench/bench_common.hh"

using namespace nocstar;

namespace
{

const char *focusWorkloads[] = {"canneal", "graph500", "gups",
                                "xsbench"};

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchArgs args = bench::parseBenchArgs(
        argc, argv, 8000,
        "Fig 16: path-setup frequency and invalidation overheads");
    const unsigned coreCounts[] = {16u, 32u, 64u};

    // Per panel and core count, one row per workload. Left: one-way
    // then round-trip NOCSTAR. Right, all under the shootdown storm:
    // NOCSTAR with each invalidation leader group.
    std::vector<std::vector<bench::VsPrivateRow>> left, right;
    for (unsigned cores : coreCounts) {
        std::uint64_t accesses = args.accesses * 16 / cores + 2000;
        auto &acquire = left.emplace_back();
        auto &inval = right.emplace_back();
        for (const char *name : focusWorkloads) {
            auto config = bench::makeConfig(
                core::OrgKind::Private, cores, workload::findWorkload(name));
            auto storm = config;
            bench::VsPrivateRow &paths = acquire.emplace_back();
            paths.baseline = {config, accesses};
            config.org.kind = core::OrgKind::Nocstar;
            paths.variants.push_back({config, accesses});
            config.org.pathAcquire = core::PathAcquire::RoundTrip;
            paths.variants.push_back({config, accesses});

            storm.stormRemapInterval = 4000;
            storm.stormMessagesPerOp = 8;
            bench::VsPrivateRow &leaders = inval.emplace_back();
            leaders.baseline = {storm, accesses};
            storm.org.kind = core::OrgKind::Nocstar;
            for (unsigned group : {0u, 4u, 8u, cores}) {
                storm.org.invalLeaderGroup = group;
                leaders.variants.push_back({storm, accesses});
            }
        }
    }
    bench::SweepHarness harness("fig16_pathsetup_invalidation",
                                args.run, args.jobs);
    const auto results = harness.runVsPrivate(
        std::vector<std::vector<std::vector<bench::VsPrivateRow>>>{
            left, right});

    std::printf("Fig 16 (left): speedup vs private; 1x two-way vs 2x "
                "one-way link acquisition\n");
    std::printf("%8s %-12s %10s %10s\n", "cores", "workload",
                "2x1-way", "1x2-way");
    for (std::size_t c = 0; c < std::size(coreCounts); ++c)
        for (std::size_t w = 0; w < std::size(focusWorkloads); ++w)
            std::printf("%8u %-12s %10.3f %10.3f\n", coreCounts[c],
                        focusWorkloads[w], results[0][c][w].speedup(0),
                        results[0][c][w].speedup(1));

    std::printf("\nFig 16 (right): speedup vs private under shootdown "
                "load, invalidation policies\n");
    std::printf("%8s %-12s %10s %10s %10s %10s\n", "cores", "workload",
                "direct", "per-4", "per-8", "per-N");
    for (std::size_t c = 0; c < std::size(coreCounts); ++c) {
        for (std::size_t w = 0; w < std::size(focusWorkloads); ++w) {
            const bench::VsPrivateResult &r = results[1][c][w];
            std::printf("%8u %-12s", coreCounts[c], focusWorkloads[w]);
            for (std::size_t g = 0; g < r.variants.size(); ++g)
                std::printf("%10.3f", r.speedup(g));
            std::printf("\n");
        }
    }
    return 0;
}
