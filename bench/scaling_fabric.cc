/**
 * @file
 * Fabric scaling study for the 256-1024-tile design points: speedup
 * over the private-L2-TLB baseline, path-setup retry rate and per-tile
 * grant-wait p99 fairness versus tile count, for the flat NOCSTAR
 * fabric against the hierarchical crossbar-of-clusters hybrid, plus
 * the row-major vs cluster-local slice-placement ablation.
 *
 * Runs are serial and in ascending tile order so the getrusage() peak
 * RSS snapshot taken after each tile count attributes memory to the
 * largest system simulated so far; the 1024-tile figure lands in
 * BENCH_scale.json, which CI gates against regression.
 */

#include <sys/resource.h>

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
    const char *fabric;
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
        if (!bench::parseUnsigned(item, n) || n < 4)
            return false;
        out.push_back(static_cast<unsigned>(n));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return !out.empty();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchArgs args{/*accesses=*/2000};
    std::vector<unsigned> tileCounts{64, 256, 1024};
    bench::ArgParser parser = bench::makeBenchParser(
        argc, argv,
        "fabric scaling: flat vs hierarchical NOCSTAR at 64-1024 tiles",
        args);
    parser.option(
        "tiles",
        [&tileCounts](const std::string &value) {
            return parseTilesList(value, tileCounts);
        },
        "comma-separated tile counts (default 64,256,1024)", "LIST");
    bench::rejectSweptFlag(parser, "fabric", "the fabric");
    parser.parseOrExit(argc, argv);
    // Serial whatever --jobs says (a single job runs on this thread),
    // so each peak-RSS snapshot belongs to one system at a time.
    bench::SweepHarness harness("scaling_fabric", args.run, 1);

    const auto &spec = workload::paperWorkloads()[0];
    std::vector<Row> rows;
    std::vector<std::pair<unsigned, long>> rssByTiles;

    auto nocstarConfig = [&spec](unsigned tiles, core::FabricKind kind,
                                 core::SliceMapping mapping) {
        cpu::SystemConfig config =
            bench::makeConfig(core::OrgKind::Nocstar, tiles, spec);
        config.org.fabricKind = kind;
        config.org.sliceMapping = mapping;
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
        cpu::SystemConfig priv =
            bench::makeConfig(core::OrgKind::Private, tiles, spec);
        cpu::RunResult base = harness.runMany({{priv, accesses}}).front();
        struct Variant
        {
            const char *name;
            core::FabricKind kind;
            core::SliceMapping mapping;
        };
        const Variant variants[] = {
            {"flat", core::FabricKind::Flat,
             core::SliceMapping::RowMajor},
            {"hier", core::FabricKind::Hierarchical,
             core::SliceMapping::RowMajor},
            {"hier+local", core::FabricKind::Hierarchical,
             core::SliceMapping::ClusterLocal},
        };
        for (const Variant &v : variants) {
            cpu::SystemConfig config =
                nocstarConfig(tiles, v.kind, v.mapping);
            cpu::RunResult r =
                harness.runMany({{config, accesses}}).front();
            rows.push_back({tiles, v.name,
                            bench::speedupVsPrivate(base, r),
                            r.fabricRetryRate, r.fabricGrantWaitP99Max,
                            r.fabricGrantWaitP99Mean});
        }
        rssByTiles.push_back({tiles, peakRssKb()});
    }

    // Per-component byte accounting at the largest tile count, for
    // both fabrics: where the 1024-tile footprint actually lives
    // (SoA TLB arrays, page-table pool, walk caches, path tables).
    struct AuditRow
    {
        const char *fabric;
        cpu::System::MemoryAudit audit;
    };
    std::vector<AuditRow> audits;
    {
        unsigned tiles = tileCounts.back();
        for (auto [label, kind] :
             {std::pair{"flat", core::FabricKind::Flat},
              std::pair{"hier", core::FabricKind::Hierarchical}}) {
            cpu::System system(harness.prepare(
                nocstarConfig(tiles, kind, core::SliceMapping::RowMajor)));
            audits.push_back({label, system.memoryAudit()});
        }
    }

    std::printf("Fabric scaling: NOCSTAR flat vs hierarchical "
                "(speedup vs private)\n");
    std::printf("%8s %-12s %10s %12s %14s %14s\n", "tiles", "fabric",
                "speedup", "retry rate", "p99 wait max",
                "p99 wait mean");
    for (const Row &r : rows)
        std::printf("%8u %-12s %10.3f %12.4f %14.1f %14.1f\n", r.tiles,
                    r.fabric, r.speedup, r.retryRate, r.p99Max,
                    r.p99Mean);
    for (auto [tiles, kb] : rssByTiles)
        std::printf("peak RSS through %4u tiles: %ld KB\n", tiles, kb);
    for (const AuditRow &a : audits)
        std::printf("%u-tile %s memory: org arrays %zu KB, L1 %zu KB, "
                    "page table %zu KB, walk caches %zu KB, "
                    "fabric %zu KB (total %zu KB)\n",
                    tileCounts.back(), a.fabric,
                    a.audit.orgArrayBytes / 1024,
                    a.audit.l1Bytes / 1024,
                    a.audit.pageTableBytes / 1024,
                    a.audit.cacheModelBytes / 1024,
                    a.audit.fabricBytes / 1024,
                    a.audit.total() / 1024);

    // Machine-readable record; CI gates peak_rss_kb at the largest
    // tile count against the committed baseline.
    if (std::FILE *f = std::fopen("BENCH_scale.json", "w")) {
        std::fprintf(f, "{\"bench\": \"scaling_fabric\", "
                     "\"accesses\": %llu, \"rows\": [",
                     static_cast<unsigned long long>(args.accesses));
        for (std::size_t i = 0; i < rows.size(); ++i)
            std::fprintf(f,
                         "%s{\"tiles\": %u, \"fabric\": \"%s\", "
                         "\"speedup\": %.4f, \"retry_rate\": %.6f, "
                         "\"grant_wait_p99_max\": %.1f, "
                         "\"grant_wait_p99_mean\": %.1f}",
                         i ? ", " : "", rows[i].tiles, rows[i].fabric,
                         rows[i].speedup, rows[i].retryRate,
                         rows[i].p99Max, rows[i].p99Mean);
        std::fprintf(f, "], \"peak_rss_kb\": {");
        for (std::size_t i = 0; i < rssByTiles.size(); ++i)
            std::fprintf(f, "%s\"%u\": %ld", i ? ", " : "",
                         rssByTiles[i].first, rssByTiles[i].second);
        std::fprintf(f, "}, \"memory_bytes\": {");
        for (std::size_t i = 0; i < audits.size(); ++i) {
            const cpu::System::MemoryAudit &a = audits[i].audit;
            std::fprintf(f,
                         "%s\"%s\": {\"tiles\": %u, "
                         "\"org_arrays\": %zu, \"l1\": %zu, "
                         "\"page_table\": %zu, \"cache_model\": %zu, "
                         "\"fabric\": %zu, \"total\": %zu}",
                         i ? ", " : "", audits[i].fabric,
                         tileCounts.back(), a.orgArrayBytes, a.l1Bytes,
                         a.pageTableBytes, a.cacheModelBytes,
                         a.fabricBytes, a.total());
        }
        std::fprintf(f, "}}\n");
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
