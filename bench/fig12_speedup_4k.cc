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

    std::vector<bench::VsPrivateRow> rows;
    for (const auto &spec : workload::paperWorkloads())
        rows.push_back(bench::orgsRow(
            bench::makeConfig(core::OrgKind::Private, cores, spec,
                              /*superpages=*/false),
            args.accesses,
            {core::OrgKind::MonolithicMesh, core::OrgKind::Distributed,
             core::OrgKind::Nocstar, core::OrgKind::IdealShared}));

    bench::SweepHarness harness("fig12_speedup_4k", args.run, args.jobs);
    const auto results = harness.runVsPrivate(rows);

    std::printf("Fig 12: speedup vs private L2 TLBs, 16 cores, 4 KB "
                "pages only\n");
    bench::printWorkloadTable({"mono", "dist", "nocstar", "ideal"},
                              results);
    return 0;
}
