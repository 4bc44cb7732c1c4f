/**
 * @file
 * Fig 11(c): uniform-random synthetic traffic on a 64-tile system.
 * Average network latency versus injection rate for the NOCSTAR
 * fabric and a multi-hop mesh, plus the percentage of NOCSTAR
 * messages that acquire their full path with no contention delay.
 */

#include <cstdio>
#include <initializer_list>

#include "bench/arg_parser.hh"
#include "core/interconnect.hh"
#include "noc/queued_mesh.hh"
#include "sim/random.hh"

using namespace nocstar;

namespace
{

struct SweepPoint
{
    double nocstarLatency;
    double nocstarNoContention;
    double meshLatency;
};

SweepPoint
runPoint(double rate, Cycle horizon)
{
    SweepPoint point{};
    noc::GridTopology topo = noc::GridTopology::forCores(64);

    // NOCSTAR fabric, cycle-accurate arbitration.
    {
        EventQueue queue;
        stats::StatGroup root("root");
        core::Interconnect fabric("fabric", queue, topo,
                                  core::OrgConfig{}, &root);
        Random rng(1234);
        for (Cycle t = 0; t < horizon; ++t) {
            for (CoreId src = 0; src < 64; ++src) {
                if (rng.uniform() >= rate)
                    continue;
                CoreId dst = static_cast<CoreId>(rng.below(64));
                if (dst == src)
                    continue;
                fabric.send(src, dst, t, [](Cycle) {});
            }
        }
        queue.run();
        point.nocstarLatency = fabric.averageLatency();
        point.nocstarNoContention = fabric.noContentionFraction();
    }

    // Multi-hop mesh with per-link serialization.
    {
        stats::StatGroup root("root");
        noc::QueuedMeshNetwork mesh("mesh", topo, &root);
        Random rng(1234);
        double total = 0;
        std::uint64_t count = 0;
        for (Cycle t = 0; t < horizon; ++t) {
            for (CoreId src = 0; src < 64; ++src) {
                if (rng.uniform() >= rate)
                    continue;
                CoreId dst = static_cast<CoreId>(rng.below(64));
                if (dst == src)
                    continue;
                total += static_cast<double>(mesh.traverse(src, dst,
                                                           t));
                ++count;
            }
        }
        point.meshLatency = count ? total / count : 0.0;
    }
    return point;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t horizon = 20000;
    bench::ArgParser parser(
        "fig11c_injection_sweep",
        "Fig 11c: NOCSTAR vs mesh latency under uniform random "
        "traffic");
    parser.positional("HORIZON", &horizon,
                      "simulated cycles per injection rate "
                      "(default 20000)");
    parser.parseOrExit(argc, argv);

    std::printf("Fig 11c: 64-node uniform random traffic\n");
    std::printf("%10s %14s %16s %12s\n", "inj rate", "nocstar (cyc)",
                "no-contention %", "mesh (cyc)");
    for (double rate : {0.01, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35,
                        0.4}) {
        SweepPoint p = runPoint(rate, horizon);
        std::printf("%10.2f %14.2f %16.1f %12.2f\n", rate,
                    p.nocstarLatency, 100.0 * p.nocstarNoContention,
                    p.meshLatency);
    }
    return 0;
}
