/**
 * @file
 * Fig 15: teasing apart slicing versus interconnect on a 32-core
 * system. Speedups over private L2 TLBs for: monolithic over a
 * multi-hop mesh, monolithic over SMART, distributed slices over a
 * mesh, NOCSTAR, NOCSTAR with a contention-free fabric, and the ideal
 * zero-interconnect-latency shared TLB.
 */

#include <cstdio>

#include "bench/bench_common.hh"

using namespace nocstar;

int
main(int argc, char **argv)
{
    constexpr unsigned cores = 32;
    auto args = bench::parseBenchArgs(argc, argv, 8000);

    std::printf("Fig 15: speedup vs private L2 TLBs, 32 cores\n");
    bench::printHeader("workload",
                       {"monoMesh", "monoSMART", "dist", "nocstar",
                        "nstarIdl", "ideal"});

    const core::OrgKind kinds[] = {
        core::OrgKind::Private, core::OrgKind::MonolithicMesh,
        core::OrgKind::MonolithicSmart, core::OrgKind::Distributed,
        core::OrgKind::Nocstar, core::OrgKind::NocstarIdeal,
        core::OrgKind::IdealShared};
    constexpr std::size_t numKinds = 7;

    const auto &specs = workload::paperWorkloads();
    std::vector<bench::SimJob> jobs;
    for (const auto &spec : specs)
        for (core::OrgKind kind : kinds)
            jobs.push_back(
                {bench::makeConfig(kind, cores, spec), args.accesses});

    bench::SweepHarness harness("fig15_interconnect_breakdown",
                                args.run, args.jobs);
    auto results = harness.runMany(jobs);

    std::vector<double> averages(6, 0.0);
    double avg_net_latency = 0;
    for (std::size_t w = 0; w < specs.size(); ++w) {
        const auto &priv = results[w * numKinds];
        std::vector<double> row;
        for (std::size_t i = 1; i < numKinds; ++i) {
            const auto &result = results[w * numKinds + i];
            double speedup = bench::speedupVsPrivate(priv, result);
            row.push_back(speedup);
            averages[i - 1] += speedup / 11.0;
            if (kinds[i] == core::OrgKind::Nocstar)
                avg_net_latency += result.fabricAvgLatency / 11.0;
        }
        bench::printRow(specs[w].name, row);
    }
    bench::printRow("average", averages);
    std::printf("\nNOCSTAR average fabric latency: %.2f cycles "
                "(paper: 1-3)\n",
                avg_net_latency);
    return 0;
}
