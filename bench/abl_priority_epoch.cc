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

    // One row: a NOCSTAR run per epoch against private; every run
    // sends a share of its accesses to slice 0 to concentrate
    // contention.
    auto config = bench::makeConfig(core::OrgKind::Private, 32, spec);
    config.hotspotSlice = 0;
    bench::VsPrivateRow row{{config, args.accesses}, {}};
    config.org.kind = core::OrgKind::Nocstar;
    for (Cycle epoch : epochs) {
        config.org.priorityEpoch = epoch;
        row.variants.push_back({config, args.accesses});
    }
    bench::SweepHarness harness("abl_priority_epoch", args.run,
                                args.jobs);
    const bench::VsPrivateResult result = harness.runVsPrivate(row);

    std::printf("Ablation: priority rotation epoch (gups, 32 cores, "
                "hot slice 0)\n");
    std::printf("%10s %12s %12s %14s\n", "epoch", "speedup",
                "avg net lat", "max retries");
    for (std::size_t e = 0; e < std::size(epochs); ++e)
        std::printf("%10llu %12.3f %12.2f %14.0f\n",
                    static_cast<unsigned long long>(epochs[e]),
                    result.speedup(e),
                    result.variants[e].fabricAvgLatency,
                    result.variants[e].fabricMaxRetries);
    return 0;
}
