/**
 * @file
 * Fig 17: page-table walks performed at the requesting core versus at
 * the remote core that owns the missing slice, for 16/32/64-core
 * NOCSTAR systems (speedups vs private L2 TLBs).
 */

#include <cstdio>

#include "bench/bench_common.hh"

using namespace nocstar;

int
main(int argc, char **argv)
{
    bench::BenchArgs args = bench::parseBenchArgs(
        argc, argv, 8000,
        "Fig 17: page-table-walker placement (local vs remote walk)");
    const unsigned coreCounts[] = {16u, 32u, 64u};
    const char *focus[] = {"canneal", "graph500", "gups", "xsbench"};
    const core::PtwPlacement placements[] = {
        core::PtwPlacement::Requester, core::PtwPlacement::Remote};

    // Per core count and workload: private, then NOCSTAR walking at
    // the requester and at the remote slice owner.
    std::vector<bench::SimJob> jobs;
    for (unsigned cores : coreCounts) {
        std::uint64_t accesses = args.accesses * 16 / cores + 2000;
        for (const char *name : focus) {
            const auto &spec = workload::findWorkload(name);
            jobs.push_back({bench::makeConfig(core::OrgKind::Private,
                                              cores, spec),
                            accesses});
            for (auto placement : placements) {
                auto config = bench::makeConfig(core::OrgKind::Nocstar,
                                                cores, spec);
                config.org.ptwPlacement = placement;
                jobs.push_back({config, accesses});
            }
        }
    }
    bench::SweepHarness harness("fig17_ptw_placement", args.run,
                                args.jobs);
    auto results = harness.runMany(jobs);
    const cpu::RunResult *next = results.data();

    std::printf("Fig 17: page walk placement, speedup vs private\n");
    std::printf("%8s %-12s %10s %10s\n", "cores", "workload",
                "request", "remote");
    for (unsigned cores : coreCounts) {
        double avg[2] = {0, 0};
        for (const char *name : focus) {
            const cpu::RunResult &priv = *next++;
            double speedups[2];
            for (int i = 0; i < 2; ++i) {
                speedups[i] = bench::speedupVsPrivate(priv, *next++);
                avg[i] += speedups[i] / 4.0;
            }
            std::printf("%8u %-12s %10.3f %10.3f\n", cores, name,
                        speedups[0], speedups[1]);
        }
        std::printf("%8u %-12s %10.3f %10.3f\n", cores, "average",
                    avg[0], avg[1]);
    }
    return 0;
}
