/**
 * @file
 * Fig 16: (left) NOCSTAR link acquisition modes -- one round-trip
 * acquisition versus two one-way acquisitions -- across core counts;
 * (right) TLB invalidation relay policies (leader groups of 4 / 8 /
 * all cores) versus each core sending its own invalidation, under a
 * shootdown-heavy run.
 */

#include <cstdio>

#include "bench/bench_common.hh"

using namespace nocstar;

namespace
{

const char *focusWorkloads[] = {"canneal", "graph500", "gups",
                                "xsbench"};

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchArgs args = bench::parseBenchArgs(
        argc, argv, 8000,
        "Fig 16: path-setup frequency and invalidation overheads");
    const unsigned coreCounts[] = {16u, 32u, 64u};

    // Left, per core count and workload: private, one-way NOCSTAR,
    // round-trip NOCSTAR. Right: private, then NOCSTAR with each
    // invalidation leader group, all under the shootdown storm.
    std::vector<bench::SimJob> jobs;
    auto add = [&](const cpu::SystemConfig &config) {
        jobs.push_back({config,
                        args.accesses * 16 / config.org.numCores + 2000});
    };
    for (unsigned cores : coreCounts) {
        for (const char *name : focusWorkloads) {
            const auto &spec = workload::findWorkload(name);
            add(bench::makeConfig(core::OrgKind::Private, cores, spec));
            auto config =
                bench::makeConfig(core::OrgKind::Nocstar, cores, spec);
            add(config);
            config.org.pathAcquire = core::PathAcquire::RoundTrip;
            add(config);
        }
    }
    for (unsigned cores : coreCounts) {
        for (const char *name : focusWorkloads) {
            const auto &spec = workload::findWorkload(name);
            auto storm = [&](core::OrgKind kind, unsigned group) {
                auto config = bench::makeConfig(kind, cores, spec);
                config.org.invalLeaderGroup = group;
                config.stormRemapInterval = 4000;
                config.stormMessagesPerOp = 8;
                add(config);
            };
            storm(core::OrgKind::Private, 0);
            for (unsigned group : {0u, 4u, 8u, cores})
                storm(core::OrgKind::Nocstar, group);
        }
    }
    bench::SweepHarness harness("fig16_pathsetup_invalidation",
                                args.run, args.jobs);
    auto results = harness.runMany(jobs);
    const cpu::RunResult *next = results.data();

    std::printf("Fig 16 (left): speedup vs private; 1x two-way vs 2x "
                "one-way link acquisition\n");
    std::printf("%8s %-12s %10s %10s\n", "cores", "workload",
                "2x1-way", "1x2-way");
    for (unsigned cores : coreCounts) {
        for (const char *name : focusWorkloads) {
            const cpu::RunResult &priv = *next++;
            const cpu::RunResult &one_way = *next++;
            const cpu::RunResult &round_trip = *next++;
            std::printf("%8u %-12s %10.3f %10.3f\n", cores, name,
                        bench::speedupVsPrivate(priv, one_way),
                        bench::speedupVsPrivate(priv, round_trip));
        }
    }

    std::printf("\nFig 16 (right): speedup vs private under shootdown "
                "load, invalidation policies\n");
    std::printf("%8s %-12s %10s %10s %10s %10s\n", "cores", "workload",
                "direct", "per-4", "per-8", "per-N");
    for (unsigned cores : coreCounts) {
        for (const char *name : focusWorkloads) {
            const cpu::RunResult &priv = *next++;
            std::printf("%8u %-12s", cores, name);
            for (int group = 0; group < 4; ++group)
                std::printf("%10.3f",
                            bench::speedupVsPrivate(priv, *next++));
            std::printf("\n");
        }
    }
    return 0;
}
