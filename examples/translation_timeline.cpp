/**
 * @file
 * Reconstructs the paper's Fig 10: the cycle-by-cycle timeline of a
 * virtual-address translation that misses the L1 TLB and is serviced
 * by a remote NOCSTAR L2 TLB slice. The timeline is driven by a live
 * simulation of a 16-core fabric, so the printed completion cycle is
 * the measured one, not a formula.
 */

#include <cstdio>

#include "bench/arg_parser.hh"
#include "core/nocstar_org.hh"
#include "mem/cache_model.hh"
#include "mem/page_walker.hh"

using namespace nocstar;
using namespace nocstar::core;

int
main(int argc, char **argv)
{
    bench::ArgParser parser(
        "translation_timeline",
        "cycle-by-cycle walkthrough of one NOCSTAR translation");
    parser.parseOrExit(argc, argv);
    EventQueue queue;
    stats::StatGroup root("root");
    mem::PageTable table(0.0, 1);
    mem::CacheModel caches("caches", 16, mem::CacheModelConfig{},
                           &root);

    OrgConfig config;
    config.kind = OrgKind::Nocstar;
    config.numCores = 16;

    OrgContext context;
    context.queue = &queue;
    context.pageTable = &table;
    std::vector<std::unique_ptr<mem::PageTableWalker>> walkers;
    for (CoreId c = 0; c < 16; ++c) {
        walkers.push_back(std::make_unique<mem::PageTableWalker>(
            "walker" + std::to_string(c), c, table, caches,
            mem::WalkerConfig{}, &root));
        context.walkers.push_back(walkers.back().get());
    }
    NocstarOrg org(config, std::move(context), &root);

    // An address homed on slice 1, requested by core 0 (one hop).
    Addr vaddr = Addr{1} << pageShift(PageSize::FourKB);
    org.preload(0, 1, vaddr, table.translate(1, vaddr));

    Cycle completed = 0;
    org.translate(0, 1, vaddr, 0, [&](const TranslationResult &r) {
        completed = r.completedAt;
    });
    queue.run();

    Cycle lookup = org.sliceLatency();
    std::printf("Fig 10: timeline of an L1-miss remote L2 slice access "
                "(core 0 -> slice 1)\n\n");
    std::printf("  cycle %2u  L1 TLB miss detected\n", 0u);
    std::printf("  cycle %2u  path setup: requests to every link "
                "arbiter on the XY path\n", 1u);
    std::printf("  cycle %2u  single-cycle traversal through latchless "
                "switches\n", 2u);
    std::printf("  cycle %2u..%2llu  L2 TLB slice SRAM access "
                "(%llu cycles)\n", 3u,
                static_cast<unsigned long long>(2 + lookup),
                static_cast<unsigned long long>(lookup));
    std::printf("  (response path setup overlaps the lookup, "
                "speculative)\n");
    std::printf("  cycle %2llu  response traversal back to core 0\n",
                static_cast<unsigned long long>(completed));
    std::printf("  cycle %2llu  translation inserted into the L1 TLB\n",
                static_cast<unsigned long long>(completed));
    std::printf("\nmeasured completion: cycle %llu "
                "(paper Fig 10: cycle 13)\n",
                static_cast<unsigned long long>(completed));
    std::printf("fabric network latency: %.1f cycles per message "
                "(setup + traversal)\n",
                org.fabric().averageLatency());
    return completed == 13 ? 0 : 1;
}
