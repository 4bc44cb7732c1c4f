/**
 * @file
 * Ablation (§III-B2): the arbitration priority rotation epoch. The
 * paper rotates the chip-wide static priority every 1000 cycles to
 * avoid starvation; this sweep measures fabric fairness (worst-case
 * retries) and performance across epochs under a hot-slice load.
 */

#include <cstdio>

#include "bench/bench_common.hh"

using namespace nocstar;

int
main(int argc, char **argv)
{
    bench::BenchArgs args = bench::parseBenchArgs(
        argc, argv, 5000,
        "NOCSTAR rotating-priority epoch sweep (gups, 64 cores)");
    const auto &spec = workload::findWorkload("gups");
    const Cycle epochs[] = {10u, 100u, 1000u, 10000u, 1000000u};

    // The private baseline, then one NOCSTAR run per epoch; every run
    // sends a share of its accesses to slice 0 to concentrate
    // contention.
    std::vector<bench::SimJob> jobs;
    auto priv_config =
        bench::makeConfig(core::OrgKind::Private, 32, spec);
    priv_config.hotspotSlice = 0;
    jobs.push_back({priv_config, args.accesses});
    for (Cycle epoch : epochs) {
        auto config = bench::makeConfig(core::OrgKind::Nocstar, 32,
                                        spec);
        config.org.priorityEpoch = epoch;
        config.hotspotSlice = 0;
        jobs.push_back({config, args.accesses});
    }
    bench::SweepHarness harness("abl_priority_epoch", args.run,
                                args.jobs);
    auto results = harness.runMany(jobs);
    const cpu::RunResult &priv = results.front();

    std::printf("Ablation: priority rotation epoch (gups, 32 cores, "
                "hot slice 0)\n");
    std::printf("%10s %12s %12s %14s\n", "epoch", "speedup",
                "avg net lat", "max retries");
    const cpu::RunResult *next = &results[1];
    for (Cycle epoch : epochs) {
        const cpu::RunResult &result = *next++;
        std::printf("%10llu %12.3f %12.2f %14.0f\n",
                    static_cast<unsigned long long>(epoch),
                    bench::speedupVsPrivate(priv, result),
                    result.fabricAvgLatency, result.fabricMaxRetries);
    }
    return 0;
}
