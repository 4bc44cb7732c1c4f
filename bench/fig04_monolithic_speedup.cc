/**
 * @file
 * Fig 4: speedup of a monolithic multi-banked shared L2 TLB over
 * private L2 TLBs on a 32-core system, as the shared TLB's total
 * access latency varies from 25 cycles (realistic SRAM + interconnect)
 * down to 9 cycles (unrealizable ideal matching the private arrays).
 */

#include <cstdio>

#include "bench/bench_common.hh"

using namespace nocstar;

int
main(int argc, char **argv)
{
    constexpr unsigned cores = 32;
    bench::BenchArgs args = bench::parseBenchArgs(
        argc, argv, 6000,
        "Fig 4: ideal monolithic shared-L2 speedup vs access latency");
    const Cycle latencies[] = {25, 16, 11, 9};

    // Per workload: the monolithic shared L2 at each access latency.
    std::vector<bench::VsPrivateRow> rows;
    for (const auto &spec : workload::paperWorkloads()) {
        auto config =
            bench::makeConfig(core::OrgKind::Private, cores, spec);
        bench::VsPrivateRow &row = rows.emplace_back();
        row.baseline = {config, args.accesses};
        config.org.kind = core::OrgKind::MonolithicMesh;
        for (Cycle latency : latencies) {
            config.org.monolithicAccessOverride = latency;
            row.variants.push_back({config, args.accesses});
        }
    }
    bench::SweepHarness harness("fig04_monolithic_speedup", args.run,
                                args.jobs);
    const auto results = harness.runVsPrivate(rows);

    std::printf("Fig 4: monolithic shared L2 TLB speedup vs private, "
                "32 cores\n");
    bench::printWorkloadTable({"25-cc", "16-cc", "11-cc", "9-cc"},
                              results);
    return 0;
}
