/**
 * @file
 * TLB shootdown scenario: an OS-driven page remap storm (promotions /
 * demotions of 2 MB regions firing inter-processor interrupts and
 * shared-slice invalidations) running against the canneal workload
 * model. Compares the invalidation relay policies of §III-G: direct
 * per-core messages versus invalidation leaders for groups of 4 / 8 /
 * all cores.
 *
 *   ./examples/shootdown_storm [cores] [accesses-per-thread]
 */

#include <cstdio>
#include <cstdlib>

#include "bench/bench_common.hh"
#include "cpu/system.hh"

using namespace nocstar;

int
main(int argc, char **argv)
{
    unsigned cores = 32;
    std::uint64_t accesses = 8000;
    bench::ArgParser parser(
        "shootdown_storm",
        "remap-storm shootdown scenario across invalidation-relay "
        "policies");
    parser.positional("CORES", &cores, "core count (default 32)");
    parser.positional("ACCESSES", &accesses,
                      "accesses per thread (default 8000)");
    parser.parseOrExit(argc, argv);

    const auto &spec = workload::findWorkload("canneal");

    std::printf("Shootdown storm on %u cores (canneal + remap storm)\n",
                cores);
    std::printf("%-10s %12s %14s %16s %12s\n", "policy", "cycles",
                "shootdowns", "avg shoot lat", "slowdown%");

    double quiet_cycles = 0;
    {
        cpu::System system(bench::makeConfig(core::OrgKind::Nocstar,
                                             cores, spec,
                                             /*superpages=*/true,
                                             /*seed=*/5));
        auto result = system.run(accesses);
        quiet_cycles = result.meanCycles;
        std::printf("%-10s %12.0f %14llu %16s %12s\n", "no-storm",
                    result.meanCycles,
                    static_cast<unsigned long long>(result.shootdowns),
                    "-", "-");
    }

    struct Policy
    {
        const char *name;
        unsigned group;
    };
    const Policy policies[] = {
        {"direct", 0}, {"per-4", 4}, {"per-8", 8}, {"per-N", cores}};

    for (const Policy &policy : policies) {
        cpu::SystemConfig config = bench::makeConfig(
            core::OrgKind::Nocstar, cores, spec, /*superpages=*/true,
            /*seed=*/5);
        config.org.invalLeaderGroup = policy.group;
        config.contextSwitchInterval = 50000;
        config.stormRemapInterval = 3000;
        config.stormMessagesPerOp = 8;
        cpu::System system(config);
        auto result = system.run(accesses);
        std::printf("%-10s %12.0f %14llu %16.1f %12.1f\n", policy.name,
                    result.meanCycles,
                    static_cast<unsigned long long>(result.shootdowns),
                    result.avgShootdownLatency,
                    100.0 * (result.meanCycles / quiet_cycles - 1.0));
    }
    return 0;
}
