/**
 * @file
 * Fig 14: (left) average / min / max speedups of the shared
 * organizations versus private L2 TLBs for 16/32/64-core systems with
 * transparent superpages; (right) percent of address-translation
 * energy saved versus the private baseline.
 */

#include <cstdio>

#include "bench/bench_common.hh"

using namespace nocstar;

int
main(int argc, char **argv)
{
    auto args = bench::parseBenchArgs(argc, argv, 10000);

    const unsigned coreCounts[] = {16u, 32u, 64u};
    const char *names[] = {"monolithic", "distributed", "nocstar"};

    // Per core count, one row per workload.
    std::vector<std::vector<bench::VsPrivateRow>> rows;
    for (unsigned cores : coreCounts) {
        std::uint64_t accesses = args.accesses * 16 / cores + 2000;
        auto &byWorkload = rows.emplace_back();
        for (const auto &spec : workload::paperWorkloads())
            byWorkload.push_back(bench::orgsRow(
                bench::makeConfig(core::OrgKind::Private, cores, spec),
                accesses,
                {core::OrgKind::MonolithicMesh,
                 core::OrgKind::Distributed, core::OrgKind::Nocstar}));
    }

    bench::SweepHarness harness("fig14_scalability_energy", args.run,
                                args.jobs);
    const auto results = harness.runVsPrivate(rows);

    std::printf("Fig 14: scalability and translation energy savings\n");
    std::printf("%8s %-12s %8s %8s %8s %14s\n", "cores", "org", "min",
                "avg", "max", "energy saved%");

    for (std::size_t c = 0; c < std::size(coreCounts); ++c) {
        for (std::size_t k = 0; k < std::size(names); ++k) {
            bench::ColumnSummary speedup =
                bench::speedupSummary(results[c], k);
            double saved =
                bench::summarize(results[c], [k](const auto &r) {
                    return 100.0 * (1.0 - r.variants[k].energyPj /
                                              r.baseline.energyPj);
                }).mean;
            std::printf("%8u %-12s %8.3f %8.3f %8.3f %14.1f\n",
                        coreCounts[c], names[k], speedup.min,
                        speedup.mean, speedup.max, saved);
        }
    }
    return 0;
}
