/**
 * @file
 * Fig 18: multiprogrammed combinations of sequential workloads on a
 * 32-core system. All C(11,4) = 330 combinations of four applications
 * (8 threads each). Top: overall throughput speedup versus private L2
 * TLBs, sorted per organization. Bottom: the speedup of the
 * worst-performing application in each combination.
 *
 * Output prints the sorted curves at sampled percentiles plus the
 * headline statistics the paper quotes (fraction of combinations
 * degraded, worst case). The 1,320 simulations are independent and
 * run across the sweep thread pool.
 */

#include <algorithm>
#include <array>
#include <cstdio>
#include <vector>

#include "bench/bench_common.hh"

using namespace nocstar;

namespace
{

void
printCurve(const char *label, std::vector<double> values)
{
    if (values.empty()) {
        std::printf("%-12s (no data)\n", label);
        return;
    }
    std::sort(values.begin(), values.end());
    std::printf("%-12s", label);
    for (double pct : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
        auto idx = static_cast<std::size_t>(
            pct * static_cast<double>(values.size() - 1));
        std::printf("%9.3f", values[idx]);
    }
    double degraded = 0;
    for (double v : values)
        degraded += v < 1.0 ? 1 : 0;
    std::printf("  degraded: %4.1f%%\n",
                100.0 * degraded / static_cast<double>(values.size()));
}

} // namespace

int
main(int argc, char **argv)
{
    auto args = bench::parseBenchArgs(argc, argv, 2500);

    // Enumerate all C(11,4) combinations.
    std::vector<std::array<std::size_t, 4>> combos;
    for (std::size_t a = 0; a < 11; ++a)
        for (std::size_t b = a + 1; b < 11; ++b)
            for (std::size_t c = b + 1; c < 11; ++c)
                for (std::size_t d = c + 1; d < 11; ++d)
                    combos.push_back({a, b, c, d});
    std::printf("Fig 18: %zu multiprogrammed combinations, 32 cores\n",
                combos.size());

    // Per combo: the three shared organizations against private.
    const char *names[] = {"monolithic", "distributed", "nocstar"};
    std::vector<bench::VsPrivateRow> rows;
    for (const auto &combo : combos)
        rows.push_back(bench::orgsRow(
            bench::makeMixConfig(combo, core::OrgKind::Private, 32),
            args.accesses,
            {core::OrgKind::MonolithicMesh, core::OrgKind::Distributed,
             core::OrgKind::Nocstar}));

    bench::SweepHarness harness("fig18_multiprogrammed", args.run,
                                args.jobs);
    const auto results = harness.runVsPrivate(rows);

    std::vector<std::vector<double>> throughput(3), min_app(3);
    for (const bench::VsPrivateResult &r : results) {
        for (std::size_t k = 0; k < 3; ++k) {
            throughput[k].push_back(r.speedup(k));
            double min_ratio = 1e9;
            for (std::size_t a = 0; a < 4; ++a) {
                double ratio = r.variants[k].appIpc[a] > 0
                    ? r.variants[k].appIpc[a] / r.baseline.appIpc[a]
                    : 0.0;
                min_ratio = std::min(min_ratio, ratio);
            }
            min_app[k].push_back(min_ratio);
        }
    }

    std::printf("\nOverall throughput speedup (sorted percentiles)\n");
    std::printf("%-12s%9s%9s%9s%9s%9s%9s%9s\n", "org", "min", "p10",
                "p25", "p50", "p75", "p90", "max");
    for (std::size_t k = 0; k < 3; ++k)
        printCurve(names[k], throughput[k]);

    std::printf("\nMinimum achieved per-app speedup (sorted "
                "percentiles)\n");
    std::printf("%-12s%9s%9s%9s%9s%9s%9s%9s\n", "org", "min", "p10",
                "p25", "p50", "p75", "p90", "max");
    for (std::size_t k = 0; k < 3; ++k)
        printCurve(names[k], min_app[k]);
    return 0;
}
