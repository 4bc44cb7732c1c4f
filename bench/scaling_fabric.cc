/**
 * @file
 * Fabric scaling study for the 256-1024-tile design points: NOCSTAR's
 * speedup over the private-L2-TLB baseline, path-setup retry rate and
 * per-tile grant-wait p99 fairness versus tile count.
 *
 * Runs are serial and in ascending tile order (--tiles is sorted) so
 * the getrusage() peak RSS snapshot taken after each tile count
 * attributes memory to the largest system simulated so far; the
 * 1024-tile figure lands in BENCH_scale.json, which CI gates against
 * regression.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.hh"

using namespace nocstar;

namespace
{

/** Process peak RSS in KB (ru_maxrss is KB on Linux). */
long
peakRssKb()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss;
}

struct Row
{
    unsigned tiles;
    double speedup;
    double retryRate;
    double p99Max;
    double p99Mean;
};

bool
parseTilesList(const std::string &value, std::vector<unsigned> &out)
{
    out.clear();
    std::size_t pos = 0;
    while (pos < value.size()) {
        std::size_t comma = value.find(',', pos);
        std::string item = value.substr(
            pos, comma == std::string::npos ? comma : comma - pos);
        std::uint64_t n = 0;
        if (!sim::parseUnsigned(item, n) || n < 4)
            return false;
        out.push_back(static_cast<unsigned>(n));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return !out.empty();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchArgs args{/*accesses=*/2000};
    std::vector<unsigned> tileCounts{64, 256, 1024};
    bench::ArgParser parser = bench::makeBenchParser(
        argc, argv, "fabric scaling: NOCSTAR at 64-1024 tiles", args);
    parser.option(
        "tiles",
        [&tileCounts](const std::string &value) {
            return parseTilesList(value, tileCounts);
        },
        "comma-separated tile counts, run in ascending order "
        "(default 64,256,1024)",
        "LIST");
    parser.parseOrExit(argc, argv);
    // Serial whatever --jobs says (a single job runs on this thread),
    // so each peak-RSS snapshot belongs to one system at a time.
    bench::SweepHarness harness("scaling_fabric", args.run, 1);

    const auto &spec = workload::paperWorkloads()[0];
    std::vector<Row> rows;
    std::vector<std::pair<unsigned, long>> rssByTiles;

    auto nocstarConfig = [&spec](unsigned tiles) {
        cpu::SystemConfig config =
            bench::makeConfig(core::OrgKind::Nocstar, tiles, spec);
        config.org.recordGrantWait = true;
        return config;
    };

    for (unsigned tiles : tileCounts) {
        // Keep total simulated accesses roughly constant across tile
        // counts so the 1024-tile rows stay tractable on one host core.
        std::uint64_t accesses = args.accesses * 64 / tiles + 500;

        std::fprintf(stderr, "[scaling_fabric] %u tiles, %llu accesses "
                     "per thread...\n", tiles,
                     static_cast<unsigned long long>(accesses));
        const bench::VsPrivateResult result =
            harness.runVsPrivate(bench::VsPrivateRow{
                {bench::makeConfig(core::OrgKind::Private, tiles, spec),
                 accesses},
                {{nocstarConfig(tiles), accesses}}});
        const cpu::RunResult &r = result.variants[0];
        rows.push_back({tiles, result.speedup(0), r.fabricRetryRate,
                        r.fabricGrantWaitP99Max,
                        r.fabricGrantWaitP99Mean});
        rssByTiles.push_back({tiles, peakRssKb()});
    }

    // Per-component byte accounting at the largest tile count: where
    // the 1024-tile footprint actually lives (TLB set blocks,
    // page-table pool, walk caches, path tables).
    const unsigned auditTiles = tileCounts.back();
    const cpu::System::MemoryAudit audit =
        bench::exitOnFatal("scaling_fabric", [&] {
            cpu::System system(harness.prepare(nocstarConfig(auditTiles)));
            return system.memoryAudit();
        });

    std::printf("Fabric scaling: NOCSTAR (speedup vs private)\n");
    std::printf("%8s %10s %12s %14s %14s\n", "tiles", "speedup",
                "retry rate", "p99 wait max", "p99 wait mean");
    for (const Row &r : rows)
        std::printf("%8u %10.3f %12.4f %14.1f %14.1f\n", r.tiles,
                    r.speedup, r.retryRate, r.p99Max, r.p99Mean);
    for (auto [tiles, kb] : rssByTiles)
        std::printf("peak RSS through %4u tiles: %ld KB\n", tiles, kb);
    std::printf("%u-tile memory: org arrays %zu KB, L1 %zu KB, "
                "page table %zu KB, walk caches %zu KB, "
                "fabric %zu KB (total %zu KB)\n",
                auditTiles, audit.orgArrayBytes / 1024,
                audit.l1Bytes / 1024, audit.pageTableBytes / 1024,
                audit.cacheModelBytes / 1024, audit.fabricBytes / 1024,
                audit.total() / 1024);

    // Machine-readable record; CI gates peak_rss_kb at the largest
    // tile count and the audit's total against the committed baseline.
    if (std::FILE *f = std::fopen("BENCH_scale.json", "w")) {
        std::fprintf(f, "{\"bench\": \"scaling_fabric\", "
                     "\"accesses\": %llu, \"rows\": [",
                     static_cast<unsigned long long>(args.accesses));
        for (std::size_t i = 0; i < rows.size(); ++i)
            std::fprintf(f,
                         "%s{\"tiles\": %u, "
                         "\"speedup\": %.4f, \"retry_rate\": %.6f, "
                         "\"grant_wait_p99_max\": %.1f, "
                         "\"grant_wait_p99_mean\": %.1f}",
                         i ? ", " : "", rows[i].tiles, rows[i].speedup,
                         rows[i].retryRate, rows[i].p99Max,
                         rows[i].p99Mean);
        std::fprintf(f, "], \"peak_rss_kb\": {");
        for (std::size_t i = 0; i < rssByTiles.size(); ++i)
            std::fprintf(f, "%s\"%u\": %ld", i ? ", " : "",
                         rssByTiles[i].first, rssByTiles[i].second);
        std::fprintf(f,
                     "}, \"memory_bytes\": {\"tiles\": %u, "
                     "\"org_arrays\": %zu, \"l1\": %zu, "
                     "\"page_table\": %zu, \"cache_model\": %zu, "
                     "\"fabric\": %zu, \"total\": %zu}}\n",
                     auditTiles, audit.orgArrayBytes, audit.l1Bytes,
                     audit.pageTableBytes, audit.cacheModelBytes,
                     audit.fabricBytes, audit.total());
        std::fclose(f);
        std::fprintf(stderr,
                     "[scaling_fabric] wrote BENCH_scale.json\n");
    } else {
        std::fprintf(stderr,
                     "[scaling_fabric] cannot write BENCH_scale.json\n");
        return 1;
    }
    return 0;
}
