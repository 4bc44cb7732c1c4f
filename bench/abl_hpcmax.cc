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

    // Per workload: private, then NOCSTAR at each HPCmax.
    std::vector<bench::SimJob> jobs;
    for (const auto &spec : workload::paperWorkloads()) {
        jobs.push_back({bench::makeConfig(core::OrgKind::Private, 64,
                                          spec),
                        args.accesses});
        for (unsigned hpc : hpcs) {
            auto config =
                bench::makeConfig(core::OrgKind::Nocstar, 64, spec);
            config.org.hpcMax = hpc;
            jobs.push_back({config, args.accesses});
        }
    }
    bench::SweepHarness harness("abl_hpcmax", args.run, args.jobs);
    auto results = harness.runMany(jobs);
    const cpu::RunResult *next = results.data();

    std::printf("Ablation: NOCSTAR speedup vs private as HPCmax "
                "varies (64 cores)\n");
    bench::printHeader("workload",
                       {"hpc1", "hpc2", "hpc4", "hpc8", "hpc16"});

    std::vector<double> averages(5, 0.0);
    for (const auto &spec : workload::paperWorkloads()) {
        const cpu::RunResult &priv = *next++;
        std::vector<double> row;
        for (std::size_t i = 0; i < 5; ++i) {
            double s = bench::speedupVsPrivate(priv, *next++);
            row.push_back(s);
            averages[i] += s / 11.0;
        }
        bench::printRow(spec.name, row);
    }
    bench::printRow("average", averages);
    return 0;
}
