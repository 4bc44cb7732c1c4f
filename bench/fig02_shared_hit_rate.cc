/**
 * @file
 * Fig 2: percentage of private L2 TLB misses eliminated by replacing
 * private L2 TLBs with a shared L2 TLB, for 16/32/64-core systems.
 */

#include <cstdio>

#include "bench/bench_common.hh"

using namespace nocstar;

int
main(int argc, char **argv)
{
    bench::BenchArgs args = bench::parseBenchArgs(
        argc, argv, 12000,
        "Fig 2: private L2 TLB misses eliminated by a shared L2");
    const unsigned coreCounts[] = {16u, 32u, 64u};

    // Per workload, one row per core count: the distributed shared L2
    // against the private baseline.
    const auto &specs = workload::paperWorkloads();
    std::vector<std::vector<bench::VsPrivateRow>> rows(specs.size());
    for (std::size_t w = 0; w < specs.size(); ++w)
        for (unsigned cores : coreCounts)
            rows[w].push_back(bench::orgsRow(
                bench::makeConfig(core::OrgKind::Private, cores, specs[w]),
                args.accesses * 16 / cores, {core::OrgKind::Distributed}));
    bench::SweepHarness harness("fig02_shared_hit_rate", args.run,
                                args.jobs);
    const auto results = harness.runVsPrivate(rows);

    std::printf("Fig 2: %% of private L2 TLB misses eliminated by a "
                "shared L2 TLB\n");
    bench::printHeader("workload", {"16-core", "32-core", "64-core"});

    auto eliminated = [](const bench::VsPrivateResult &r) {
        return r.baseline.l2Misses
            ? 100.0 * (1.0 -
                       static_cast<double>(r.variants[0].l2Misses) /
                           static_cast<double>(r.baseline.l2Misses))
            : 0.0;
    };
    std::vector<double> averages;
    for (std::size_t c = 0; c < std::size(coreCounts); ++c)
        averages.push_back(
            bench::summarize(results, [&](const auto &byCores) {
                return eliminated(byCores[c]);
            }).mean);
    for (std::size_t w = 0; w < specs.size(); ++w) {
        std::vector<double> row;
        for (const bench::VsPrivateResult &r : results[w])
            row.push_back(eliminated(r));
        bench::printRow(specs[w].name, row, "%10.1f");
    }
    bench::printRow("Avg", averages, "%10.1f");
    return 0;
}
