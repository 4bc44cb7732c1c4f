/**
 * @file
 * Fig 13: companion to Fig 12 with Linux-style transparent 2 MB
 * superpages enabled (50-80 % of each workload's footprint is
 * superpage-backed).
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
            bench::makeConfig(core::OrgKind::Private, cores, spec),
            args.accesses,
            {core::OrgKind::MonolithicMesh, core::OrgKind::Distributed,
             core::OrgKind::Nocstar, core::OrgKind::IdealShared}));

    bench::SweepHarness harness("fig13_speedup_superpages", args.run,
                                args.jobs);
    const auto results = harness.runVsPrivate(rows);

    std::printf("Fig 13: speedup vs private L2 TLBs, 16 cores, "
                "transparent superpages\n");
    bench::printWorkloadTable({"mono", "dist", "nocstar", "ideal"},
                              results);
    return 0;
}
