/**
 * @file
 * Ablation (Table II): the NOCSTAR slice capacity. The paper
 * conservatively shrinks slices from 1024 to 920 entries to pay for
 * the interconnect; this sweep quantifies how sensitive the speedup
 * actually is to slice capacity.
 */

#include <cstdio>

#include "bench/bench_common.hh"

using namespace nocstar;

int
main(int argc, char **argv)
{
    bench::BenchArgs args = bench::parseBenchArgs(
        argc, argv, 6000,
        "NOCSTAR slice-entries ablation (32 cores)");
    const std::uint32_t sliceEntries[] = {512u,  768u,  920u,
                                          1024u, 1536u, 2048u};

    // Per workload: NOCSTAR at each slice size against private.
    std::vector<bench::VsPrivateRow> rows;
    for (const auto &spec : workload::paperWorkloads()) {
        auto config = bench::makeConfig(core::OrgKind::Private, 32, spec);
        bench::VsPrivateRow &row = rows.emplace_back();
        row.baseline = {config, args.accesses};
        config.org.kind = core::OrgKind::Nocstar;
        for (std::uint32_t entries : sliceEntries) {
            config.org.nocstarSliceEntries = entries;
            row.variants.push_back({config, args.accesses});
        }
    }
    bench::SweepHarness harness("abl_slice_size", args.run, args.jobs);
    const auto results = harness.runVsPrivate(rows);

    std::printf("Ablation: NOCSTAR slice entries (32 cores, average "
                "across workloads)\n");
    std::printf("%10s %12s %12s\n", "entries", "speedup",
                "l2 missrate");
    for (std::size_t e = 0; e < std::size(sliceEntries); ++e)
        std::printf("%10u %12.3f %12.3f\n", sliceEntries[e],
                    bench::speedupSummary(results, e).mean,
                    bench::summarize(results, [e](const auto &r) {
                        return r.variants[e].l2MissRate;
                    }).mean);
    return 0;
}
