/**
 * @file
 * Sampled-simulation accuracy and speedup study on the Fig 12
 * configurations (16 cores, 4 KB pages): one long full-detail run per
 * organization against a SMARTS-style sampled run (functional
 * fast-forward between detail windows), reporting wall-clock speedup
 * and the relative error of the sampled IPC and L2-latency estimates.
 *
 * The NOCSTAR row at the full run length is the CI gate: the bench
 * exits nonzero if its speedup falls below 5x or its errors exceed
 * the tolerances, and the row lands in BENCH_sample.json, which CI
 * also checks in committed form. The shorter per-organization rows
 * feed the EXPERIMENTS.md error table.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_common.hh"

using namespace nocstar;

namespace
{

/** Sampling plan used for every row (1% detail at the gated length). */
constexpr unsigned kWindows = 10;
constexpr std::uint64_t kDetailAccesses = 2000;
constexpr std::uint64_t kWarmupAccesses = 10000;

/** CI gates on the full-length NOCSTAR row. */
constexpr double kSpeedupFloor = 5.0;
constexpr double kMaxIpcError = 0.10;
constexpr double kMaxLatencyError = 0.05;

struct Row
{
    const char *org;
    std::uint64_t accesses;
    double fullSeconds;
    double sampledSeconds;
    double speedup;
    double fullIpc;
    double sampledIpc;
    double sampledIpcCi95;
    double ipcError;
    double fullLatency;
    double sampledLatency;
    double sampledLatencyCi95;
    double latencyError;
};

double
wallSeconds(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

Row
measure(bench::SweepHarness &harness, const char *name,
        core::OrgKind kind, std::uint64_t accesses)
{
    const auto &spec = workload::paperWorkloads()[0];
    cpu::SystemConfig config =
        bench::makeConfig(kind, 16, spec, /*superpages=*/false);

    // One job per runMany() call, so each timed run is alone on this
    // thread.
    auto start = std::chrono::steady_clock::now();
    cpu::RunResult full = harness.runMany({{config, accesses}}).front();
    double full_seconds = wallSeconds(start);

    cpu::SystemConfig sampled_config = config;
    sampled_config.sampling.windows = kWindows;
    sampled_config.sampling.detailAccesses = kDetailAccesses;
    sampled_config.sampling.warmupAccesses = kWarmupAccesses;
    start = std::chrono::steady_clock::now();
    cpu::RunResult sampled =
        harness.runMany({{sampled_config, accesses}}).front();
    double sampled_seconds = wallSeconds(start);

    Row row;
    row.org = name;
    row.accesses = accesses;
    row.fullSeconds = full_seconds;
    row.sampledSeconds = sampled_seconds;
    row.speedup =
        sampled_seconds > 0 ? full_seconds / sampled_seconds : 0;
    row.fullIpc = full.ipc;
    row.sampledIpc = sampled.sampledIpcMean;
    row.sampledIpcCi95 = sampled.sampledIpcCi95;
    row.ipcError = full.ipc > 0
                       ? std::abs(sampled.sampledIpcMean - full.ipc) /
                             full.ipc
                       : 0;
    row.fullLatency = full.avgL2AccessLatency;
    row.sampledLatency = sampled.sampledLatencyMean;
    row.sampledLatencyCi95 = sampled.sampledLatencyCi95;
    row.latencyError =
        full.avgL2AccessLatency > 0
            ? std::abs(sampled.sampledLatencyMean -
                       full.avgL2AccessLatency) /
                  full.avgL2AccessLatency
            : 0;
    return row;
}

void
printRow(const Row &r)
{
    std::printf("%-12s %9llu %8.2fs %8.2fs %7.2fx "
                "%6.3f %6.3f+-%.3f %5.1f%% "
                "%6.1f %6.1f+-%.1f %5.1f%%\n",
                r.org, static_cast<unsigned long long>(r.accesses),
                r.fullSeconds, r.sampledSeconds, r.speedup, r.fullIpc,
                r.sampledIpc, r.sampledIpcCi95, 100 * r.ipcError,
                r.fullLatency, r.sampledLatency, r.sampledLatencyCi95,
                100 * r.latencyError);
}

void
jsonRow(std::FILE *f, const Row &r, bool first)
{
    std::fprintf(
        f,
        "%s{\"org\": \"%s\", \"accesses\": %llu, "
        "\"full_seconds\": %.3f, \"sampled_seconds\": %.3f, "
        "\"speedup\": %.3f, "
        "\"full_ipc\": %.4f, \"sampled_ipc\": %.4f, "
        "\"sampled_ipc_ci95\": %.4f, \"ipc_rel_error\": %.4f, "
        "\"full_latency\": %.2f, \"sampled_latency\": %.2f, "
        "\"sampled_latency_ci95\": %.2f, \"latency_rel_error\": %.4f}",
        first ? "" : ", ", r.org,
        static_cast<unsigned long long>(r.accesses), r.fullSeconds,
        r.sampledSeconds, r.speedup, r.fullIpc, r.sampledIpc,
        r.sampledIpcCi95, r.ipcError, r.fullLatency, r.sampledLatency,
        r.sampledLatencyCi95, r.latencyError);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchArgs args{/*accesses=*/2000000};
    bench::ArgParser parser = bench::makeBenchParser(
        argc, argv,
        "sampled-simulation accuracy and speedup on Fig 12 configs",
        args);
    // --sample would turn the full-detail baseline into a sampled run.
    bench::rejectSweptFlag(parser, "sample", "sampling");
    parser.parseOrExit(argc, argv);
    bench::SweepHarness harness("sampling_accuracy", args.run, 1);

    std::printf("Sampled simulation vs full detail, 16 cores, 4 KB "
                "pages, %u windows x %llu accesses/thread detail\n",
                kWindows,
                static_cast<unsigned long long>(kDetailAccesses));
    std::printf("%-12s %9s %9s %9s %8s %6s %12s %6s %6s %11s %6s\n",
                "org", "accesses", "full", "sampled", "speedup", "ipc",
                "ipc est", "err", "lat", "lat est", "err");

    // The gated row: the paper's headline organization at the full
    // run length, where fast-forward dominates wall clock.
    std::fprintf(stderr, "[sampling_accuracy] gated NOCSTAR run, %llu "
                         "accesses per thread...\n",
                 static_cast<unsigned long long>(args.accesses));
    Row gate = measure(harness, "nocstar", core::OrgKind::Nocstar,
                       args.accesses);
    printRow(gate);

    // Per-organization error table at an eighth of the length (the
    // errors are window-count dominated, not length dominated).
    struct Kind
    {
        const char *name;
        core::OrgKind kind;
    };
    const Kind kinds[] = {
        {"private", core::OrgKind::Private},
        {"monolithic", core::OrgKind::MonolithicMesh},
        {"distributed", core::OrgKind::Distributed},
        {"nocstar", core::OrgKind::Nocstar},
        {"ideal", core::OrgKind::IdealShared},
    };
    std::vector<Row> rows;
    for (const Kind &k : kinds) {
        std::fprintf(stderr, "[sampling_accuracy] %s error row...\n",
                     k.name);
        rows.push_back(
            measure(harness, k.name, k.kind, args.accesses / 8));
        printRow(rows.back());
    }

    if (std::FILE *f = std::fopen("BENCH_sample.json", "w")) {
        std::fprintf(f, "{\"bench\": \"sampling_accuracy\", "
                        "\"windows\": %u, \"detail_accesses\": %llu, "
                        "\"warmup_accesses\": %llu, "
                        "\"speedup_floor\": %.1f, "
                        "\"max_ipc_rel_error\": %.2f, "
                        "\"max_latency_rel_error\": %.2f, "
                        "\"gate\": ",
                     kWindows,
                     static_cast<unsigned long long>(kDetailAccesses),
                     static_cast<unsigned long long>(kWarmupAccesses),
                     kSpeedupFloor, kMaxIpcError, kMaxLatencyError);
        jsonRow(f, gate, true);
        std::fprintf(f, ", \"rows\": [");
        for (std::size_t i = 0; i < rows.size(); ++i)
            jsonRow(f, rows[i], i == 0);
        std::fprintf(f, "]}\n");
        std::fclose(f);
        std::fprintf(stderr,
                     "[sampling_accuracy] wrote BENCH_sample.json\n");
    } else {
        std::fprintf(stderr,
                     "[sampling_accuracy] cannot write "
                     "BENCH_sample.json\n");
        return 1;
    }

    bool ok = true;
    if (gate.speedup < kSpeedupFloor) {
        std::fprintf(stderr,
                     "[sampling_accuracy] FAIL: speedup %.2fx below "
                     "the %.1fx floor\n",
                     gate.speedup, kSpeedupFloor);
        ok = false;
    }
    if (gate.ipcError > kMaxIpcError) {
        std::fprintf(stderr,
                     "[sampling_accuracy] FAIL: IPC error %.1f%% "
                     "above %.0f%%\n",
                     100 * gate.ipcError, 100 * kMaxIpcError);
        ok = false;
    }
    if (gate.latencyError > kMaxLatencyError) {
        std::fprintf(stderr,
                     "[sampling_accuracy] FAIL: latency error %.1f%% "
                     "above %.0f%%\n",
                     100 * gate.latencyError, 100 * kMaxLatencyError);
        ok = false;
    }
    return ok ? 0 : 1;
}
