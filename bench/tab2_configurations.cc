/**
 * @file
 * Table II: the simulated last-level TLB configurations -- entry
 * counts, physical organization and interconnect -- as instantiated by
 * this library for a given core count.
 */

#include <cstdio>

#include "bench/bench_common.hh"
#include "core/monolithic_org.hh"
#include "energy/sram_model.hh"

using namespace nocstar;
using namespace nocstar::core;

int
main(int argc, char **argv)
{
    unsigned cores = 32;
    bench::ArgParser parser(
        "tab2_configurations",
        "Table II: simulated last-level TLB configurations");
    parser.positional("CORES", &cores, "core count (default 32)");
    parser.parseOrExit(argc, argv);
    unsigned banks = bench::banksFor(cores);

    std::printf("Table II: simulated TLB configurations (%u cores)\n",
                cores);
    std::printf("%-14s %16s %18s %-22s %8s\n", "config",
                "L2 entries", "physical org", "interconnect",
                "lookup");

    auto lookup = [](std::uint64_t entries) {
        return static_cast<unsigned long long>(
            energy::SramModel::accessLatency(entries));
    };
    const unsigned long long entries = OrgConfig::l2Entries;
    const unsigned long long slice = OrgConfig{}.nocstarSliceEntries;

    std::printf("%-14s %16llu %18s %-22s %8llu\n", "private", entries,
                "1 TLB per core", "-", lookup(entries));
    std::printf("%-14s %12llux%-3u %18s %-22s %8llu\n", "monolithic",
                entries, cores, "banked monolithic",
                "mesh (multi-hop), SMART",
                static_cast<unsigned long long>(
                    MonolithicOrg::lookupLatency(cores)));
    std::printf("%-14s %12llux%-3u %18s %-22s %8llu\n", "distributed",
                entries, cores, "1 slice per core", "mesh (multi-hop)",
                lookup(entries));
    std::printf("%-14s %12llux%-3u %18s %-22s %8llu\n", "NOCSTAR",
                slice, cores, "1 slice per core", "NOCSTAR fabric",
                lookup(slice));
    std::printf("\nmonolithic banks: %u; NOCSTAR slice is "
                "area-equivalent (interconnect area deducted)\n",
                banks);
    return 0;
}
