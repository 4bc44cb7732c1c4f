/**
 * @file
 * Fig 2: percentage of private L2 TLB misses eliminated by replacing
 * private L2 TLBs with a shared L2 TLB, for 16/32/64-core systems.
 */

#include <cstdio>

#include "bench/bench_common.hh"

using namespace nocstar;

int
main(int argc, char **argv)
{
    bench::BenchArgs args = bench::parseBenchArgs(
        argc, argv, 12000,
        "Fig 2: private L2 TLB misses eliminated by a shared L2");
    const unsigned coreCounts[] = {16u, 32u, 64u};

    // Per workload and core count: the private baseline, then the
    // distributed shared L2.
    std::vector<bench::SimJob> jobs;
    for (const auto &spec : workload::paperWorkloads())
        for (unsigned cores : coreCounts)
            for (core::OrgKind kind :
                 {core::OrgKind::Private, core::OrgKind::Distributed})
                jobs.push_back({bench::makeConfig(kind, cores, spec),
                                args.accesses * 16 / cores});
    bench::SweepHarness harness("fig02_shared_hit_rate", args.run,
                                args.jobs);
    auto results = harness.runMany(jobs);
    const cpu::RunResult *next = results.data();

    std::printf("Fig 2: %% of private L2 TLB misses eliminated by a "
                "shared L2 TLB\n");
    bench::printHeader("workload", {"16-core", "32-core", "64-core"});

    std::vector<double> averages(3, 0.0);
    for (const auto &spec : workload::paperWorkloads()) {
        std::vector<double> row;
        for (std::size_t i = 0; i < 3; ++i) {
            const cpu::RunResult &priv = *next++;
            const cpu::RunResult &shared = *next++;
            double elim = priv.l2Misses
                ? 100.0 * (1.0 -
                           static_cast<double>(shared.l2Misses) /
                               static_cast<double>(priv.l2Misses))
                : 0.0;
            row.push_back(elim);
            averages[i] += elim / 11.0;
        }
        bench::printRow(spec.name, row, "%10.1f");
    }
    bench::printRow("Avg", averages, "%10.1f");
    return 0;
}
