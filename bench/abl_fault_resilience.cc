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
 * A plan with @p dead east-links out permanently from cycle 0, spread
 * deterministically across the grid so consecutive counts keep earlier
 * links dead (monotone damage). Placements on the east edge, where no
 * east link exists, are skipped like duplicates.
 */
sim::FaultPlan
deadLinkPlan(const noc::GridTopology &topo, unsigned dead)
{
    sim::FaultPlan plan;
    unsigned placed = 0;
    for (unsigned i = 0; placed < dead; ++i) {
        unsigned x = 1 + (i * 3) % (topo.width() - 1);
        unsigned y = (i * 5 + 2) % topo.height();
        std::uint32_t link =
            noc::LinkId{y * topo.width() + x, noc::Direction::East}
                .flatten();
        bool skip = !topo.hasLink(link);
        for (const sim::LinkFaultSpec &f : plan.linkFaults)
            skip |= f.link == link;
        if (skip)
            continue;
        plan.linkFaults.push_back({link, 0, 0});
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

    // Per workload, against a healthy private baseline: NOCSTAR with
    // each dead-link count, then with each grant-loss rate.
    std::vector<bench::VsPrivateRow> rows;
    for (const char *name : focus) {
        auto config = bench::makeConfig(core::OrgKind::Private, cores,
                                        workload::findWorkload(name));
        bench::VsPrivateRow &row = rows.emplace_back();
        row.baseline = {config, args.accesses};
        config.org.kind = core::OrgKind::Nocstar;
        for (unsigned dead : deadCounts) {
            config.org.faults = deadLinkPlan(topo, dead);
            row.variants.push_back({config, args.accesses});
        }
        config.org.faults = {};
        for (double rate : lossRates) {
            config.org.faults.grantLossProb = rate;
            row.variants.push_back({config, args.accesses});
        }
    }

    bench::SweepHarness harness("fault", args.run, args.jobs);
    const auto results = harness.runVsPrivate(rows);

    // Each row's variants: the dead-link runs, then the loss runs.
    const std::size_t numDead = std::size(deadCounts);
    std::printf("Ablation: NOCSTAR speedup vs healthy private as "
                "links die (%u cores)\n",
                cores);
    bench::printHeader("workload", {"dead0", "dead1", "dead2", "dead4",
                                    "dead8", "dead16", "degr16%"});
    for (std::size_t w = 0; w < rows.size(); ++w) {
        std::vector<double> row;
        double degraded = 0; // of the most links dead
        for (std::size_t i = 0; i < numDead; ++i) {
            row.push_back(results[w].speedup(i));
            degraded = 100.0 * results[w].variants[i].degradedFraction;
        }
        row.push_back(degraded);
        bench::printRow(focus[w], row);
    }

    std::printf("\nAblation: transient grant loss (retry + backoff)\n");
    bench::printHeader("workload", {"p.001", "p.01", "p.05", "p.1"});
    for (std::size_t w = 0; w < rows.size(); ++w) {
        std::vector<double> row;
        for (std::size_t i = numDead; i < results[w].variants.size(); ++i)
            row.push_back(results[w].speedup(i));
        bench::printRow(focus[w], row);
    }
    return 0;
}
