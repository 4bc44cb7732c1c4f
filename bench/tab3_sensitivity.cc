/**
 * @file
 * Table III: sensitivity of the 32-core speedups to TLB prefetching
 * (+-1, +-1..2, +-1..3 pages), hyperthreading (2 and 4 threads per
 * core) and page-table-walk latency (variable vs fixed 10/20/40/80
 * cycles). Min / avg / max speedups across workloads for monolithic,
 * distributed and NOCSTAR versus private L2 TLBs with the same
 * feature set.
 */

#include <cstdio>
#include <functional>

#include "bench/bench_common.hh"

using namespace nocstar;

namespace
{

struct Row
{
    const char *pref;
    const char *smt;
    const char *ptw;
    std::function<void(cpu::SystemConfig &)> tweak;
};

} // namespace

int
main(int argc, char **argv)
{
    auto args = bench::parseBenchArgs(argc, argv, 3000);

    std::printf("Table III: 32-core sensitivity (speedups vs private "
                "with the same features)\n");
    std::printf("%-6s %-4s %-10s %-12s %7s %7s %7s\n", "pref", "smt",
                "ptw", "org", "min", "avg", "max");

    std::vector<Row> rows;
    rows.push_back({"no", "1", "variable", nullptr});
    for (unsigned d : {1u, 2u, 3u}) {
        static const char *labels[] = {"", "+-1", "+-1,2", "+-1..3"};
        rows.push_back({labels[d], "1", "variable",
                        [d](cpu::SystemConfig &config) {
                            config.org.prefetchDistance = d;
                        }});
    }
    for (unsigned smt : {2u, 4u}) {
        static const char *labels[] = {"", "", "2", "", "4"};
        rows.push_back({"no", labels[smt], "variable",
                        [smt](cpu::SystemConfig &config) {
                            config.smtPerCore = smt;
                            config.apps[0].threads =
                                config.org.numCores * smt;
                        }});
    }
    for (Cycle fixed : {10u, 20u, 40u, 80u}) {
        static char label[4][24];
        static int idx = 0;
        std::snprintf(label[idx], sizeof(label[idx]), "fixed-%llu",
                      static_cast<unsigned long long>(fixed));
        rows.push_back({"no", "1", label[idx],
                        [fixed](cpu::SystemConfig &config) {
                            config.walker.fixedLatency = fixed;
                        }});
        ++idx;
    }

    // Per table row, one row per workload: the three shared
    // organizations against private, all with the table row's tweak.
    const char *names[] = {"monolithic", "distributed", "nocstar"};
    std::vector<std::vector<bench::VsPrivateRow>> sweep;
    for (const Row &row : rows) {
        auto &byWorkload = sweep.emplace_back();
        for (const auto &spec : workload::paperWorkloads()) {
            auto config = bench::makeConfig(core::OrgKind::Private, 32,
                                            spec);
            if (row.tweak)
                row.tweak(config);
            byWorkload.push_back(bench::orgsRow(
                std::move(config), args.accesses,
                {core::OrgKind::MonolithicMesh,
                 core::OrgKind::Distributed, core::OrgKind::Nocstar}));
        }
    }

    bench::SweepHarness harness("tab3_sensitivity", args.run, args.jobs);
    const auto results = harness.runVsPrivate(sweep);

    for (std::size_t r = 0; r < rows.size(); ++r) {
        for (std::size_t k = 0; k < std::size(names); ++k) {
            bench::ColumnSummary s = bench::speedupSummary(results[r], k);
            std::printf("%-6s %-4s %-10s %-12s %7.2f %7.2f %7.2f\n",
                        rows[r].pref, rows[r].smt, rows[r].ptw,
                        names[k], s.min, s.mean, s.max);
        }
    }
    return 0;
}
