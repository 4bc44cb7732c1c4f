/**
 * @file
 * Fig 19 + §V pathological workloads. First section: the TLB-storm
 * microbenchmark (aggressive context switches flushing every TLB plus
 * a promote/demote remap loop firing shootdown storms) run
 * concurrently with the workloads; average speedups vs private for
 * monolithic / distributed / NOCSTAR at 16/32/64 cores, alone and
 * with the microbenchmark. Second section: the slice-hotspot
 * microbenchmark where every thread directs a share of its accesses
 * at one slice.
 */

#include <cstdio>

#include "bench/bench_common.hh"

using namespace nocstar;

namespace
{

const core::OrgKind orgKinds[] = {core::OrgKind::MonolithicMesh,
                                  core::OrgKind::Distributed,
                                  core::OrgKind::Nocstar};

cpu::SystemConfig
makeStormConfig(core::OrgKind kind, unsigned cores,
                const workload::WorkloadSpec &spec, bool with_storm,
                int hotspot_slice)
{
    auto config = bench::makeConfig(kind, cores, spec);
    if (with_storm) {
        config.contextSwitchInterval = 50000; // ~0.5ms-scale
        config.stormRemapInterval = 5000;
        config.stormMessagesPerOp = 8;
    }
    config.hotspotSlice = hotspot_slice;
    return config;
}

/**
 * One sweep block: the 11 private baselines followed by the 11 runs
 * of each shared organization, all with the same storm/hotspot knobs.
 */
std::vector<bench::SimJob>
makeBlock(unsigned cores, std::uint64_t accesses, bool with_storm,
          int hotspot_slice = -1)
{
    std::vector<bench::SimJob> jobs;
    for (const auto &spec : workload::paperWorkloads())
        jobs.push_back({makeStormConfig(core::OrgKind::Private, cores,
                                        spec, with_storm,
                                        hotspot_slice),
                        accesses});
    for (core::OrgKind kind : orgKinds)
        for (const auto &spec : workload::paperWorkloads())
            jobs.push_back({makeStormConfig(kind, cores, spec,
                                            with_storm, hotspot_slice),
                            accesses});
    return jobs;
}

/** Average speedup of shared org @p k over private within a block. */
double
blockAverage(const cpu::RunResult *block, std::size_t k)
{
    double avg = 0;
    for (std::size_t w = 0; w < 11; ++w)
        avg += bench::speedupVsPrivate(block[w],
                                       block[11 * (1 + k) + w]) /
               11.0;
    return avg;
}

} // namespace

int
main(int argc, char **argv)
{
    auto args = bench::parseBenchArgs(argc, argv, 6000);

    const char *names[] = {"monolithic", "distributed", "nocstar"};
    const unsigned coreCounts[] = {16u, 32u, 64u};
    constexpr std::size_t block = 44; // 11 private + 3 x 11 shared

    // Blocks 0-5: (16/32/64 cores) x (alone, with storm); block 6:
    // the 32-core slice-hotspot microbenchmark.
    std::vector<bench::SimJob> jobs;
    for (unsigned cores : coreCounts) {
        std::uint64_t accesses = args.accesses * 16 / cores + 2000;
        for (bool with_storm : {false, true}) {
            auto blockJobs = makeBlock(cores, accesses, with_storm);
            jobs.insert(jobs.end(), blockJobs.begin(),
                        blockJobs.end());
        }
    }
    std::uint64_t hotspot_accesses = args.accesses / 2 + 2000;
    auto hotspotJobs = makeBlock(32, hotspot_accesses, false,
                                 /*hotspot_slice=*/0);
    jobs.insert(jobs.end(), hotspotJobs.begin(), hotspotJobs.end());

    bench::SweepHarness harness("fig19_tlb_storm", args.run, args.jobs);
    auto results = harness.runMany(jobs);

    std::printf("Fig 19: TLB storm microbenchmark, average speedup vs "
                "private\n");
    std::printf("%8s %-12s %10s %10s\n", "cores", "org", "alone",
                "w/ub");
    for (std::size_t c = 0; c < 3; ++c) {
        const cpu::RunResult *alone = results.data() + 2 * c * block;
        const cpu::RunResult *storm = alone + block;
        for (std::size_t k = 0; k < 3; ++k) {
            std::printf("%8u %-12s %10.3f %10.3f\n", coreCounts[c],
                        names[k], blockAverage(alone, k),
                        blockAverage(storm, k));
        }
    }

    std::printf("\nSlice-hotspot microbenchmark (30%% of accesses "
                "directed at slice 0), 32 cores\n");
    std::printf("%-12s %10s\n", "org", "speedup");
    const cpu::RunResult *hotspot = results.data() + 6 * block;
    for (std::size_t k = 0; k < 3; ++k)
        std::printf("%-12s %10.3f\n", names[k],
                    blockAverage(hotspot, k));
    return 0;
}
