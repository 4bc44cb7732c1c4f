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

    const std::size_t nocstarColumn = 3;
    std::vector<bench::VsPrivateRow> rows;
    for (const auto &spec : workload::paperWorkloads())
        rows.push_back(bench::orgsRow(
            bench::makeConfig(core::OrgKind::Private, cores, spec),
            args.accesses,
            {core::OrgKind::MonolithicMesh, core::OrgKind::MonolithicSmart,
             core::OrgKind::Distributed, core::OrgKind::Nocstar,
             core::OrgKind::NocstarIdeal, core::OrgKind::IdealShared}));

    bench::SweepHarness harness("fig15_interconnect_breakdown",
                                args.run, args.jobs);
    const auto results = harness.runVsPrivate(rows);

    std::printf("Fig 15: speedup vs private L2 TLBs, 32 cores\n");
    bench::printWorkloadTable({"monoMesh", "monoSMART", "dist", "nocstar",
                               "nstarIdl", "ideal"},
                              results);
    std::printf("\nNOCSTAR average fabric latency: %.2f cycles "
                "(paper: 1-3)\n",
                bench::summarize(results, [nocstarColumn](const auto &r) {
                    return r.variants[nocstarColumn].fabricAvgLatency;
                }).mean);
    return 0;
}
