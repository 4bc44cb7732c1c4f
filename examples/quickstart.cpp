/**
 * @file
 * Quickstart: build a 16-core Haswell-like system with a NOCSTAR
 * shared last-level TLB, run the graph500 workload model, and print
 * the headline numbers plus a full statistics dump.
 *
 *   ./examples/quickstart [workload] [accesses-per-thread]
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "bench/bench_common.hh"
#include "cpu/system.hh"

using namespace nocstar;

int
main(int argc, char **argv)
{
    std::string name = "graph500";
    std::uint64_t accesses = 20000;
    bench::ArgParser parser(
        "quickstart",
        "16-core NOCSTAR system running one workload model");
    parser.positional("WORKLOAD", &name,
                      "workload name (default graph500)");
    parser.positional("ACCESSES", &accesses,
                      "accesses per thread (default 20000)");
    parser.check([&name] { return workload::unknownWorkloadError(name); });
    parser.parseOrExit(argc, argv);

    // 1. Pick a workload model (the 11 paper workloads are built in).
    const workload::WorkloadSpec &spec = workload::findWorkload(name);

    // 2. Describe the machine: 16 cores, one thread per core, NOCSTAR
    //    organization with its 920-entry area-normalized slices over
    //    the single-cycle circuit-switched fabric.
    cpu::SystemConfig config = bench::makeConfig(
        core::OrgKind::Nocstar, 16, spec, /*superpages=*/true, /*seed=*/1);

    // 3. Run, and compare against the private-L2-TLB baseline.
    cpu::System nocstar_system(config);
    cpu::RunResult nocstar = nocstar_system.run(accesses);

    config.org.kind = core::OrgKind::Private;
    cpu::System private_system(config);
    cpu::RunResult baseline = private_system.run(accesses);

    std::printf("workload            : %s\n", spec.name.c_str());
    std::printf("cores               : %u\n", config.org.numCores);
    std::printf("accesses per thread : %llu\n",
                static_cast<unsigned long long>(accesses));
    std::printf("\n%-28s %14s %14s\n", "", "private", "nocstar");
    std::printf("%-28s %14.0f %14.0f\n", "mean thread cycles",
                baseline.meanCycles, nocstar.meanCycles);
    std::printf("%-28s %14llu %14llu\n", "L2 TLB misses (walks)",
                static_cast<unsigned long long>(baseline.l2Misses),
                static_cast<unsigned long long>(nocstar.l2Misses));
    std::printf("%-28s %14.1f %14.1f\n", "avg L2 access latency",
                baseline.avgL2AccessLatency,
                nocstar.avgL2AccessLatency);
    std::printf("%-28s %14.2f %14.2f\n", "translation energy (uJ)",
                baseline.energyPj * 1e-6, nocstar.energyPj * 1e-6);
    std::printf("\nspeedup             : %.3fx\n",
                baseline.meanCycles / nocstar.meanCycles);
    std::printf("misses eliminated   : %.1f %%\n",
                100.0 * (1.0 - static_cast<double>(nocstar.l2Misses) /
                                   static_cast<double>(
                                       baseline.l2Misses)));
    std::printf("fabric avg latency  : %.2f cycles "
                "(%.0f %% messages contention-free)\n",
                nocstar.fabricAvgLatency,
                100.0 * nocstar.fabricNoContention);

    std::printf("\n--- full statistics dump (nocstar run) ---\n");
    nocstar_system.dumpAll(std::cout);
    return 0;
}
