/**
 * @file
 * Fig 14: (left) average / min / max speedups of the shared
 * organizations versus private L2 TLBs for 16/32/64-core systems with
 * transparent superpages; (right) percent of address-translation
 * energy saved versus the private baseline.
 */

#include <algorithm>
#include <cstdio>

#include "bench/bench_common.hh"

using namespace nocstar;

int
main(int argc, char **argv)
{
    auto args = bench::parseBenchArgs(argc, argv, 10000);

    const unsigned coreCounts[] = {16u, 32u, 64u};
    const core::OrgKind kinds[] = {core::OrgKind::MonolithicMesh,
                                   core::OrgKind::Distributed,
                                   core::OrgKind::Nocstar};
    const char *names[] = {"monolithic", "distributed", "nocstar"};

    // Per core count: 11 private baselines then 3 x 11 shared runs,
    // all independent. Index layout within a core-count block:
    // [w] private, [11 + k*11 + w] shared org k on workload w.
    const auto &specs = workload::paperWorkloads();
    const std::size_t numSpecs = specs.size();
    const std::size_t block = numSpecs * 4;

    std::vector<bench::SimJob> jobs;
    for (unsigned cores : coreCounts) {
        std::uint64_t accesses = args.accesses * 16 / cores + 2000;
        for (const auto &spec : specs)
            jobs.push_back({bench::makeConfig(core::OrgKind::Private,
                                              cores, spec),
                            accesses});
        for (core::OrgKind kind : kinds)
            for (const auto &spec : specs)
                jobs.push_back(
                    {bench::makeConfig(kind, cores, spec), accesses});
    }

    bench::SweepHarness harness("fig14_scalability_energy", args.run, args.jobs);
    auto results = harness.runMany(jobs);

    std::printf("Fig 14: scalability and translation energy savings\n");
    std::printf("%8s %-12s %8s %8s %8s %14s\n", "cores", "org", "min",
                "avg", "max", "energy saved%");

    for (std::size_t c = 0; c < 3; ++c) {
        const cpu::RunResult *base = results.data() + c * block;
        for (std::size_t k = 0; k < 3; ++k) {
            const cpu::RunResult *shared =
                base + numSpecs * (1 + k);
            double min_speedup = 1e9, max_speedup = 0, avg_speedup = 0;
            double avg_saved = 0;
            for (std::size_t w = 0; w < numSpecs; ++w) {
                double speedup =
                    bench::speedupVsPrivate(base[w], shared[w]);
                min_speedup = std::min(min_speedup, speedup);
                max_speedup = std::max(max_speedup, speedup);
                avg_speedup += speedup / 11.0;
                avg_saved += 100.0 *
                             (1.0 - shared[w].energyPj /
                                        base[w].energyPj) /
                             11.0;
            }
            std::printf("%8u %-12s %8.3f %8.3f %8.3f %14.1f\n",
                        coreCounts[c], names[k], min_speedup,
                        avg_speedup, max_speedup, avg_saved);
        }
    }
    return 0;
}
