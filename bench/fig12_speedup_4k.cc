/**
 * @file
 * Fig 12: speedups of the monolithic, distributed, NOCSTAR and ideal
 * (zero-interconnect-latency) shared L2 TLBs over private L2 TLBs on
 * a 16-core system using only 4 KB pages.
 */

#include <cstdio>

#include "bench/bench_common.hh"

using namespace nocstar;

int
main(int argc, char **argv)
{
    constexpr unsigned cores = 16;
    auto args = bench::parseBenchArgs(argc, argv, 12000);

    std::printf("Fig 12: speedup vs private L2 TLBs, 16 cores, 4 KB "
                "pages only\n");
    bench::printHeader("workload",
                       {"mono", "dist", "nocstar", "ideal"});

    // Per workload: the private baseline then the four shared
    // organizations, all independent simulations.
    const core::OrgKind kinds[] = {
        core::OrgKind::Private, core::OrgKind::MonolithicMesh,
        core::OrgKind::Distributed, core::OrgKind::Nocstar,
        core::OrgKind::IdealShared};
    constexpr std::size_t numKinds = 5;

    const auto &specs = workload::paperWorkloads();
    std::vector<bench::SimJob> jobs;
    for (const auto &spec : specs)
        for (core::OrgKind kind : kinds)
            jobs.push_back({bench::makeConfig(kind, cores, spec,
                                              /*superpages=*/false),
                            args.accesses});

    bench::SweepHarness harness("fig12_speedup_4k", args.run, args.jobs);
    auto results = harness.runMany(jobs);

    std::vector<double> averages(4, 0.0);
    for (std::size_t w = 0; w < specs.size(); ++w) {
        const auto &priv = results[w * numKinds];
        std::vector<double> row;
        for (std::size_t i = 1; i < numKinds; ++i) {
            double speedup = bench::speedupVsPrivate(
                priv, results[w * numKinds + i]);
            row.push_back(speedup);
            averages[i - 1] += speedup / 11.0;
        }
        bench::printRow(specs[w].name, row);
    }
    bench::printRow("average", averages);
    return 0;
}
