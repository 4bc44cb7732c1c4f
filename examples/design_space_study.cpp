/**
 * @file
 * Architecture design study: evaluate all last-level TLB organizations
 * on one workload across core counts, printing the paper's key
 * metrics side by side -- the kind of sweep an architect would run
 * before committing to a TLB organization.
 *
 *   ./examples/design_space_study [workload] [accesses-per-thread]
 */

#include <cstdio>
#include <cstdlib>

#include "bench/bench_common.hh"
#include "cpu/system.hh"

using namespace nocstar;

namespace
{

cpu::RunResult
run(core::OrgKind kind, unsigned cores,
    const workload::WorkloadSpec &spec, std::uint64_t accesses)
{
    cpu::System system(bench::makeConfig(kind, cores, spec,
                                         /*superpages=*/true,
                                         /*seed=*/21));
    return system.run(accesses);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string name = "xsbench";
    std::uint64_t base_accesses = 10000;
    bench::ArgParser parser(
        "design_space_study",
        "all organizations at 16/32/64 cores for one workload");
    parser.positional("WORKLOAD", &name,
                      "workload name (default xsbench)");
    parser.positional("ACCESSES", &base_accesses,
                      "base accesses per thread (default 10000)");
    parser.check([&name] { return workload::unknownWorkloadError(name); });
    parser.parseOrExit(argc, argv);
    const workload::WorkloadSpec &spec = workload::findWorkload(name);

    const core::OrgKind kinds[] = {
        core::OrgKind::Private, core::OrgKind::MonolithicMesh,
        core::OrgKind::MonolithicSmart, core::OrgKind::Distributed,
        core::OrgKind::Nocstar, core::OrgKind::NocstarIdeal,
        core::OrgKind::IdealShared};

    std::printf("Design study: workload %s\n\n", spec.name.c_str());
    for (unsigned cores : {16u, 32u, 64u}) {
        std::uint64_t accesses = base_accesses * 16 / cores + 2000;
        std::printf("--- %u cores ---\n", cores);
        std::printf("%-18s %9s %9s %9s %10s %10s\n", "organization",
                    "speedup", "l2miss%", "lat(cyc)", "walks",
                    "energy(uJ)");
        cpu::RunResult baseline;
        for (core::OrgKind kind : kinds) {
            cpu::RunResult result = run(kind, cores, spec, accesses);
            if (kind == core::OrgKind::Private)
                baseline = result;
            std::printf("%-18s %9.3f %9.2f %9.1f %10llu %10.2f\n",
                        core::orgKindName(kind),
                        baseline.meanCycles / result.meanCycles,
                        100.0 * result.l2MissRate,
                        result.avgL2AccessLatency,
                        static_cast<unsigned long long>(result.walks),
                        result.energyPj * 1e-6);
        }
        std::printf("\n");
    }
    return 0;
}
