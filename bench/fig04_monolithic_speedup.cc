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

    // Per workload: the private baseline, then the monolithic shared
    // L2 at each access latency.
    std::vector<bench::SimJob> jobs;
    for (const auto &spec : workload::paperWorkloads()) {
        jobs.push_back({bench::makeConfig(core::OrgKind::Private, cores,
                                          spec),
                        args.accesses});
        for (Cycle latency : latencies) {
            auto config = bench::makeConfig(
                core::OrgKind::MonolithicMesh, cores, spec);
            config.org.monolithicAccessOverride = latency;
            jobs.push_back({config, args.accesses});
        }
    }
    bench::SweepHarness harness("fig04_monolithic_speedup", args.run,
                                args.jobs);
    auto results = harness.runMany(jobs);
    const cpu::RunResult *next = results.data();

    std::printf("Fig 4: monolithic shared L2 TLB speedup vs private, "
                "32 cores\n");
    bench::printHeader("workload",
                       {"25-cc", "16-cc", "11-cc", "9-cc"});

    std::vector<double> averages(4, 0.0);
    for (const auto &spec : workload::paperWorkloads()) {
        const cpu::RunResult &priv = *next++;
        std::vector<double> row;
        for (std::size_t i = 0; i < 4; ++i) {
            double speedup = bench::speedupVsPrivate(priv, *next++);
            row.push_back(speedup);
            averages[i] += speedup / 11.0;
        }
        bench::printRow(spec.name, row);
    }
    bench::printRow("average", averages);
    return 0;
}
