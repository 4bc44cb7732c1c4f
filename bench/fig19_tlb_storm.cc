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

/**
 * One row per workload: the shared organizations against private,
 * all with the same storm/hotspot knobs.
 */
std::vector<bench::VsPrivateRow>
workloadRows(unsigned cores, std::uint64_t accesses, bool with_storm,
             int hotspot_slice = -1)
{
    std::vector<bench::VsPrivateRow> rows;
    for (const auto &spec : workload::paperWorkloads()) {
        auto config =
            bench::makeConfig(core::OrgKind::Private, cores, spec);
        if (with_storm) {
            config.contextSwitchInterval = 50000; // ~0.5ms-scale
            config.stormRemapInterval = 5000;
            config.stormMessagesPerOp = 8;
        }
        config.hotspotSlice = hotspot_slice;
        rows.push_back(bench::orgsRow(
            config, accesses,
            {core::OrgKind::MonolithicMesh, core::OrgKind::Distributed,
             core::OrgKind::Nocstar}));
    }
    return rows;
}

} // namespace

int
main(int argc, char **argv)
{
    auto args = bench::parseBenchArgs(argc, argv, 6000);

    const char *names[] = {"monolithic", "distributed", "nocstar"};
    const unsigned coreCounts[] = {16u, 32u, 64u};

    // Per core count: the workloads alone, then with the storm.
    std::vector<std::vector<std::vector<bench::VsPrivateRow>>> storm;
    for (unsigned cores : coreCounts) {
        std::uint64_t accesses = args.accesses * 16 / cores + 2000;
        storm.push_back({workloadRows(cores, accesses, false),
                         workloadRows(cores, accesses, true)});
    }
    bench::SweepHarness harness("fig19_tlb_storm", args.run, args.jobs);
    const auto stormResults = harness.runVsPrivate(storm);
    const auto hotspot = harness.runVsPrivate(
        workloadRows(32, args.accesses / 2 + 2000, false,
                     /*hotspot_slice=*/0));

    std::printf("Fig 19: TLB storm microbenchmark, average speedup vs "
                "private\n");
    std::printf("%8s %-12s %10s %10s\n", "cores", "org", "alone",
                "w/ub");
    for (std::size_t c = 0; c < std::size(coreCounts); ++c)
        for (std::size_t k = 0; k < std::size(names); ++k)
            std::printf(
                "%8u %-12s %10.3f %10.3f\n", coreCounts[c], names[k],
                bench::speedupSummary(stormResults[c][0], k).mean,
                bench::speedupSummary(stormResults[c][1], k).mean);

    std::printf("\nSlice-hotspot microbenchmark (30%% of accesses "
                "directed at slice 0), 32 cores\n");
    std::printf("%-12s %10s\n", "org", "speedup");
    for (std::size_t k = 0; k < std::size(names); ++k)
        std::printf("%-12s %10.3f\n", names[k],
                    bench::speedupSummary(hotspot, k).mean);
    return 0;
}
