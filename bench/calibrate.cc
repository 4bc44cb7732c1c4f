/**
 * @file
 * Calibration harness (not a paper figure): prints, for each workload,
 * the statistics the paper's text pins down -- L1 miss rate, private L2
 * TLB miss rate (target 5-18 %), percent of private misses eliminated
 * by sharing (target 70-90 %), walk latency, fraction of walks past the
 * L2 (target 70-87 %), and speedups of the four organizations -- so the
 * workload generator parameters can be tuned honestly.
 */

#include <cstdio>

#include "bench/bench_common.hh"

using namespace nocstar;

int
main(int argc, char **argv)
{
    unsigned cores = 32;
    bench::BenchArgs args{bench::defaultAccesses};
    bench::ArgParser parser = bench::makeBenchParser(
        argc, argv,
        "calibration harness: per-workload statistics the paper pins "
        "down, for tuning the workload generator",
        args, /*with_accesses=*/false);
    parser.positional("CORES", &cores, "core count (default 32)");
    parser.positional("ACCESSES", &args.accesses,
                      "accesses per thread (default " +
                          std::to_string(args.accesses) + ")");
    parser.parseOrExit(argc, argv);

    // Per workload: the four shared organizations against private.
    const auto &specs = workload::paperWorkloads();
    std::vector<bench::VsPrivateRow> rows;
    for (const auto &spec : specs)
        rows.push_back(bench::orgsRow(
            bench::makeConfig(core::OrgKind::Private, cores, spec),
            args.accesses,
            {core::OrgKind::MonolithicMesh, core::OrgKind::Distributed,
             core::OrgKind::Nocstar, core::OrgKind::IdealShared}));
    bench::SweepHarness harness("calibrate", args.run, args.jobs);
    const auto results = harness.runVsPrivate(rows);

    std::printf("calibration @ %u cores, %llu accesses/thread\n", cores,
                static_cast<unsigned long long>(args.accesses));
    std::printf("%-16s %6s %6s %6s %6s %6s %6s | %6s %6s %6s %6s\n",
                "workload", "l1m%", "l2m%", "elim%", "walk", ">L2%",
                "ipcP", "mono", "dist", "nstar", "ideal");

    for (std::size_t w = 0; w < specs.size(); ++w) {
        const bench::VsPrivateResult &r = results[w];
        const cpu::RunResult &priv = r.baseline;
        const cpu::RunResult &mono = r.variants[0];
        const cpu::RunResult &dist = r.variants[1];
        const cpu::RunResult &nstar = r.variants[2];
        const cpu::RunResult &ideal = r.variants[3];

        double l1m = priv.l1Accesses
            ? 100.0 * static_cast<double>(priv.l1Misses) /
                  static_cast<double>(priv.l1Accesses)
            : 0.0;
        double elim = priv.l2Misses
            ? 100.0 * (1.0 - static_cast<double>(nstar.l2Misses) /
                                 static_cast<double>(priv.l2Misses))
            : 0.0;

        std::printf(
            "%-16s %6.2f %6.2f %6.1f %6.1f %6.1f %6.3f | %6.3f %6.3f "
            "%6.3f %6.3f | lat %5.1f %5.1f %5.1f %5.1f %5.1f net %4.2f\n",
            specs[w].name.c_str(), l1m, 100.0 * priv.l2MissRate, elim,
            priv.avgWalkLatency, 100.0 * priv.beyondL2Fraction,
            priv.ipc, r.speedup(0), r.speedup(1), r.speedup(2),
            r.speedup(3), priv.avgL2AccessLatency, mono.avgL2AccessLatency,
            dist.avgL2AccessLatency, nstar.avgL2AccessLatency,
            ideal.avgL2AccessLatency, nstar.fabricAvgLatency);
    }
    return 0;
}
