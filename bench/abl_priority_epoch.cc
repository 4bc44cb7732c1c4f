/**
 * @file
 * Ablation (§III-B2): the arbitration priority rotation epoch. The
 * paper rotates the chip-wide static priority every 1000 cycles to
 * avoid starvation; this sweep measures fabric fairness (worst-case
 * retries) and performance across epochs under a hot-slice load.
 */

#include <cstdio>

#include "bench/bench_common.hh"
#include "core/nocstar_org.hh"

using namespace nocstar;

int
main(int argc, char **argv)
{
    bench::BenchArgs args = bench::parseBenchArgs(
        argc, argv, 5000,
        "NOCSTAR rotating-priority epoch sweep (gups, 64 cores)");
    const auto &spec = workload::findWorkload("gups");
    bench::SweepHarness harness("abl_priority_epoch", args.run,
                                args.jobs);

    std::printf("Ablation: priority rotation epoch (gups, 32 cores, "
                "hot slice 0)\n");
    std::printf("%10s %12s %12s %14s\n", "epoch", "speedup",
                "avg net lat", "max retries");
    auto priv_config =
        bench::makeConfig(core::OrgKind::Private, 32, spec);
    priv_config.hotspotSlice = 0;
    auto priv = harness.runMany({{priv_config, args.accesses}}).front();

    for (Cycle epoch : {10u, 100u, 1000u, 10000u, 1000000u}) {
        auto config = bench::makeConfig(core::OrgKind::Nocstar, 32,
                                        spec);
        config.org.priorityEpoch = epoch;
        config.hotspotSlice = 0; // concentrate contention
        // Held here, not run through runMany(), so the fabric's
        // fairness stats can be read back after the run.
        bench::exitOnFatal("abl_priority_epoch", [&] {
            cpu::System system(harness.prepare(config));
            auto result = system.run(args.accesses);
            auto &org =
                dynamic_cast<core::NocstarOrg &>(system.organization());
            std::printf("%10llu %12.3f %12.2f %14.0f\n",
                        static_cast<unsigned long long>(epoch),
                        bench::speedupVsPrivate(priv, result),
                        org.fabric().averageLatency(),
                        org.fabric().retryDistribution.maxSample());
        });
    }
    return 0;
}
