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

    // One private baseline per workload, then per slice size one
    // NOCSTAR run per workload.
    const auto &workloads = workload::paperWorkloads();
    std::vector<bench::SimJob> jobs;
    for (const auto &spec : workloads)
        jobs.push_back({bench::makeConfig(core::OrgKind::Private, 32,
                                          spec),
                        args.accesses});
    for (std::uint32_t entries : sliceEntries) {
        for (const auto &spec : workloads) {
            auto config =
                bench::makeConfig(core::OrgKind::Nocstar, 32, spec);
            config.org.nocstarSliceEntries = entries;
            jobs.push_back({config, args.accesses});
        }
    }
    bench::SweepHarness harness("abl_slice_size", args.run, args.jobs);
    auto results = harness.runMany(jobs);
    const cpu::RunResult *privs = results.data();
    const cpu::RunResult *next = privs + workloads.size();

    std::printf("Ablation: NOCSTAR slice entries (32 cores, average "
                "across workloads)\n");
    std::printf("%10s %12s %12s\n", "entries", "speedup",
                "l2 missrate");

    for (std::uint32_t entries : sliceEntries) {
        double avg_speedup = 0, avg_missrate = 0;
        for (std::size_t w = 0; w < workloads.size(); ++w) {
            const cpu::RunResult &result = *next++;
            avg_speedup +=
                bench::speedupVsPrivate(privs[w], result) / 11.0;
            avg_missrate += result.l2MissRate / 11.0;
        }
        std::printf("%10u %12.3f %12.3f\n", entries, avg_speedup,
                    avg_missrate);
    }
    return 0;
}
