/**
 * @file
 * Ablation: NOCSTAR under fabric faults. Left sweep: permanently dead
 * links (route-around + mesh fallback) -- speedup over a healthy
 * private baseline and the fraction of messages that had to take the
 * store-and-forward mesh. Right sweep: transient grant loss -- the
 * retry/backoff machinery's cost as the loss rate rises. All plans are
 * built programmatically and seeded, so every row is reproducible.
 */

#include <cstdio>

#include "bench/bench_common.hh"
#include "noc/topology.hh"

using namespace nocstar;

namespace
{

/**
 * A plan with @p dead interior east-links out permanently from cycle
 * 0, spread deterministically across the grid so consecutive counts
 * keep earlier links dead (monotone damage).
 */
sim::FaultPlan
deadLinkPlan(const noc::GridTopology &topo, unsigned dead)
{
    sim::FaultPlan plan;
    unsigned placed = 0;
    for (unsigned i = 0; placed < dead; ++i) {
        unsigned x = 1 + (i * 3) % (topo.width() - 1);
        unsigned y = (i * 5 + 2) % topo.height();
        noc::LinkId link{y * topo.width() + x, noc::Direction::East};
        bool duplicate = false;
        for (const sim::LinkFaultSpec &f : plan.linkFaults)
            duplicate |= f.link == link.flatten();
        if (duplicate)
            continue;
        plan.linkFaults.push_back({link.flatten(), 0, 0});
        ++placed;
    }
    return plan;
}

} // namespace

int
main(int argc, char **argv)
{
    constexpr unsigned cores = 32;
    bench::BenchArgs args{/*accesses=*/6000};
    bench::ArgParser parser = bench::makeBenchParser(
        argc, argv,
        "NOCSTAR resilience: dead fabric links and transient grant "
        "loss (32 cores)",
        args);
    // A run-wide plan would replace every row's, the private
    // baseline's included.
    bench::rejectSweptFlag(parser, "fault-plan", "the fault plan");
    parser.parseOrExit(argc, argv);

    const noc::GridTopology topo = noc::GridTopology::forCores(cores);
    const unsigned deadCounts[] = {0, 1, 2, 4, 8, 16};
    const double lossRates[] = {0.001, 0.01, 0.05, 0.1};
    const char *focus[] = {"gups", "graph500", "xsbench"};
    constexpr std::size_t numFocus = 3;

    std::vector<bench::SimJob> jobs;
    for (const char *name : focus) {
        const auto &spec = workload::findWorkload(name);
        jobs.push_back({bench::makeConfig(core::OrgKind::Private,
                                          cores, spec),
                        args.accesses});
        for (unsigned dead : deadCounts) {
            auto config =
                bench::makeConfig(core::OrgKind::Nocstar, cores, spec);
            config.org.faults = deadLinkPlan(topo, dead);
            jobs.push_back({config, args.accesses});
        }
        for (double rate : lossRates) {
            auto config =
                bench::makeConfig(core::OrgKind::Nocstar, cores, spec);
            config.org.faults.grantLossProb = rate;
            jobs.push_back({config, args.accesses});
        }
    }

    bench::SweepHarness harness("fault", args.run, args.jobs);
    auto results = harness.runMany(jobs);

    constexpr std::size_t perWorkload = 1 + 6 + 4;

    std::printf("Ablation: NOCSTAR speedup vs healthy private as "
                "links die (%u cores)\n",
                cores);
    bench::printHeader("workload", {"dead0", "dead1", "dead2", "dead4",
                                    "dead8", "dead16", "degr16%"});
    for (std::size_t w = 0; w < numFocus; ++w) {
        const auto &priv = results[w * perWorkload];
        std::vector<double> row;
        double degraded16 = 0;
        for (std::size_t i = 0; i < 6; ++i) {
            const auto &r = results[w * perWorkload + 1 + i];
            row.push_back(bench::speedupVsPrivate(priv, r));
            degraded16 = 100.0 * r.degradedFraction;
        }
        row.push_back(degraded16);
        bench::printRow(focus[w], row);
    }

    std::printf("\nAblation: transient grant loss (retry + backoff)\n");
    bench::printHeader("workload", {"p.001", "p.01", "p.05", "p.1"});
    for (std::size_t w = 0; w < numFocus; ++w) {
        const auto &priv = results[w * perWorkload];
        std::vector<double> row;
        for (std::size_t i = 0; i < 4; ++i)
            row.push_back(bench::speedupVsPrivate(
                priv, results[w * perWorkload + 7 + i]));
        bench::printRow(focus[w], row);
    }
    return 0;
}
