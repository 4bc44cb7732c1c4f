/**
 * @file
 * Fig 17: page-table walks performed at the requesting core versus at
 * the remote core that owns the missing slice, for 16/32/64-core
 * NOCSTAR systems (speedups vs private L2 TLBs).
 */

#include <cstdio>

#include "bench/bench_common.hh"

using namespace nocstar;

int
main(int argc, char **argv)
{
    bench::BenchArgs args = bench::parseBenchArgs(
        argc, argv, 8000,
        "Fig 17: page-table-walker placement (local vs remote walk)");
    const unsigned coreCounts[] = {16u, 32u, 64u};
    const char *focus[] = {"canneal", "graph500", "gups", "xsbench"};

    // Per core count, one row per workload: NOCSTAR walking at the
    // requester, then at the remote slice owner.
    std::vector<std::vector<bench::VsPrivateRow>> rows;
    for (unsigned cores : coreCounts) {
        std::uint64_t accesses = args.accesses * 16 / cores + 2000;
        auto &byWorkload = rows.emplace_back();
        for (const char *name : focus) {
            auto config = bench::makeConfig(
                core::OrgKind::Private, cores,
                workload::findWorkload(name));
            bench::VsPrivateRow &row = byWorkload.emplace_back();
            row.baseline = {config, accesses};
            config.org.kind = core::OrgKind::Nocstar;
            for (auto placement : {core::PtwPlacement::Requester,
                                   core::PtwPlacement::Remote}) {
                config.org.ptwPlacement = placement;
                row.variants.push_back({config, accesses});
            }
        }
    }
    bench::SweepHarness harness("fig17_ptw_placement", args.run,
                                args.jobs);
    const auto results = harness.runVsPrivate(rows);

    std::printf("Fig 17: page walk placement, speedup vs private\n");
    std::printf("%8s %-12s %10s %10s\n", "cores", "workload",
                "request", "remote");
    for (std::size_t c = 0; c < std::size(coreCounts); ++c) {
        for (std::size_t w = 0; w < std::size(focus); ++w)
            std::printf("%8u %-12s %10.3f %10.3f\n", coreCounts[c],
                        focus[w], results[c][w].speedup(0),
                        results[c][w].speedup(1));
        std::printf("%8u %-12s %10.3f %10.3f\n", coreCounts[c],
                    "average", bench::speedupSummary(results[c], 0).mean,
                    bench::speedupSummary(results[c], 1).mean);
    }
    return 0;
}
