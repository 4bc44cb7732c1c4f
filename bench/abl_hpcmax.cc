/**
 * @file
 * Ablation (§III-B3): NOCSTAR's sensitivity to the maximum hops
 * traversed per cycle (HPCmax). At high clock frequencies or large
 * dies, pipeline latches cap HPCmax; this sweep shows how much of the
 * benefit survives.
 */

#include <cstdio>

#include "bench/bench_common.hh"

using namespace nocstar;

int
main(int argc, char **argv)
{
    bench::BenchArgs args = bench::parseBenchArgs(
        argc, argv, 5000,
        "NOCSTAR speedup vs private as HPCmax varies (64 cores)");
    const unsigned hpcs[] = {1, 2, 4, 8, 16};

    // Per workload: NOCSTAR at each HPCmax against private.
    std::vector<bench::VsPrivateRow> rows;
    for (const auto &spec : workload::paperWorkloads()) {
        auto config = bench::makeConfig(core::OrgKind::Private, 64, spec);
        bench::VsPrivateRow &row = rows.emplace_back();
        row.baseline = {config, args.accesses};
        config.org.kind = core::OrgKind::Nocstar;
        for (unsigned hpc : hpcs) {
            config.org.hpcMax = hpc;
            row.variants.push_back({config, args.accesses});
        }
    }
    bench::SweepHarness harness("abl_hpcmax", args.run, args.jobs);
    const auto results = harness.runVsPrivate(rows);

    std::printf("Ablation: NOCSTAR speedup vs private as HPCmax "
                "varies (64 cores)\n");
    bench::printWorkloadTable({"hpc1", "hpc2", "hpc4", "hpc8", "hpc16"},
                              results);
    return 0;
}
