/**
 * @file
 * Ablation (Table II): the NOCSTAR slice capacity. The paper
 * conservatively shrinks slices from 1024 to 920 entries to pay for
 * the interconnect; this sweep quantifies how sensitive the speedup
 * actually is to slice capacity.
 */

#include <cstdio>

#include "bench/bench_common.hh"

using namespace nocstar;

int
main(int argc, char **argv)
{
    bench::BenchArgs args = bench::parseBenchArgs(
        argc, argv, 6000,
        "NOCSTAR slice-entries ablation (32 cores)");
    const std::uint32_t sliceEntries[] = {512u,  768u,  920u,
                                          1024u, 1536u, 2048u};

    // Per slice size and workload: private, then NOCSTAR.
    std::vector<bench::SimJob> jobs;
    for (std::uint32_t entries : sliceEntries) {
        for (const auto &spec : workload::paperWorkloads()) {
            jobs.push_back({bench::makeConfig(core::OrgKind::Private,
                                              32, spec),
                            args.accesses});
            auto config =
                bench::makeConfig(core::OrgKind::Nocstar, 32, spec);
            config.org.nocstarSliceEntries = entries;
            jobs.push_back({config, args.accesses});
        }
    }
    bench::SweepHarness harness("abl_slice_size", args.run, args.jobs);
    auto results = harness.runMany(jobs);
    const cpu::RunResult *next = results.data();

    std::printf("Ablation: NOCSTAR slice entries (32 cores, average "
                "across workloads)\n");
    std::printf("%10s %12s %12s\n", "entries", "speedup",
                "l2 missrate");

    for (std::uint32_t entries : sliceEntries) {
        double avg_speedup = 0, avg_missrate = 0;
        for (std::size_t w = 0; w < workload::paperWorkloads().size();
             ++w) {
            const cpu::RunResult &priv = *next++;
            const cpu::RunResult &result = *next++;
            avg_speedup += bench::speedupVsPrivate(priv, result) / 11.0;
            avg_missrate += result.l2MissRate / 11.0;
        }
        std::printf("%10u %12.3f %12.3f\n", entries, avg_speedup,
                    avg_missrate);
    }
    return 0;
}
