/**
 * @file
 * Simulator-throughput benchmark: how many simulated memory accesses
 * per wall-clock second the per-access hot path sustains.
 *
 * Runs a fig18-style multiprogrammed four-app mix serially (no worker
 * pool, so the number measures the single-stream hot path: event
 * queue, fabric delivery, organization continuations, page-table
 * translation) once on the private baseline and once on NOCSTAR, then
 * reports simulated accesses per second and writes the machine-
 * readable BENCH_hotpath.json used to track the perf trajectory
 * across PRs. The JSON also carries each run's hit-streak bypass
 * length distribution so the bypass's coverage is observable.
 *
 * Usage: bench_hotpath [accesses-per-thread] [--baseline-json FILE]
 * (default 20000 accesses). --baseline-json loads a previously
 * committed BENCH_hotpath.json and prints the speedup against it.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_common.hh"

using namespace nocstar;
using namespace nocstar::bench;

namespace
{

struct Measurement
{
    const char *org;
    std::uint64_t accesses = 0;
    Cycle simCycles = 0;
    double wallSeconds = 0;
    /** Bypass streak-length Distribution, JSON-rendered. */
    std::string streakJson;
    double streakMean = 0;

    double
    accessesPerSec() const
    {
        return wallSeconds > 0
            ? static_cast<double>(accesses) / wallSeconds : 0.0;
    }
};

Measurement
measure(SweepHarness &harness, const char *label, core::OrgKind kind,
        std::uint64_t accesses)
{
    // Fig 18 methodology: four paper apps, cores/4 threads each.
    cpu::SystemConfig config =
        makeMixConfig({0, 3, 6, 9}, kind, 32);

    // Untimed warmup run absorbs first-touch page-table allocation,
    // cold branch predictors and allocator warmup.
    harness.runMany({{config, accesses / 4}});

    // The timed run holds its System, so the bypass streak stat can
    // be read back after run().
    return exitOnFatal("bench_hotpath", [&] {
        cpu::System system(harness.prepare(config));
        auto start = std::chrono::steady_clock::now();
        cpu::RunResult result = system.run(accesses);
        double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();

        Measurement m;
        m.org = label;
        m.accesses = result.l1Accesses;
        m.simCycles = result.cycles;
        m.wallSeconds = wall;
        std::ostringstream streaks;
        system.bypassStreaks().dumpJson(streaks);
        m.streakJson = streaks.str();
        m.streakMean = system.bypassStreaks().mean();
        return m;
    });
}

/**
 * Pull "aggregate_accesses_per_sec" out of a BENCH_hotpath.json
 * written by any prior revision of this bench. @return 0 on failure.
 */
double
loadBaselineAggregate(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot read baseline json '%s'\n",
                     path.c_str());
        return 0;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string text = buffer.str();
    const std::string tag = "\"aggregate_accesses_per_sec\":";
    std::size_t at = text.find(tag);
    if (at == std::string::npos) {
        std::fprintf(stderr,
                     "no aggregate_accesses_per_sec in '%s'\n",
                     path.c_str());
        return 0;
    }
    return std::strtod(text.c_str() + at + tag.size(), nullptr);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchArgs args{20000};
    std::string baseline_path;
    bench::ArgParser parser = bench::makeBenchParser(
        argc, argv,
        "simulator hot-path throughput guard (sim-cycles/s)", args);
    parser.option("baseline-json", &baseline_path,
                  "prior BENCH_hotpath.json to print the speedup "
                  "against");
    parser.parseOrExit(argc, argv);
    std::uint64_t accesses = args.accesses;
    // One job whatever --jobs says: the number measures the
    // single-stream hot path, and a single job runs on this thread.
    bench::SweepHarness harness("bench_hotpath", args.run, 1);

    std::printf("Simulator hot-path throughput "
                "(fig18-style mix, 32 cores, serial)\n");
    std::printf("%-10s %14s %14s %10s %16s %12s\n", "org", "accesses",
                "sim cycles", "wall s", "accesses/sec",
                "mean streak");

    Measurement runs[] = {
        measure(harness, "private", core::OrgKind::Private, accesses),
        measure(harness, "nocstar", core::OrgKind::Nocstar, accesses),
    };
    double total_accesses = 0, total_wall = 0;
    for (const Measurement &m : runs) {
        std::printf("%-10s %14llu %14llu %10.3f %16.0f %12.2f\n",
                    m.org, static_cast<unsigned long long>(m.accesses),
                    static_cast<unsigned long long>(m.simCycles),
                    m.wallSeconds, m.accessesPerSec(), m.streakMean);
        total_accesses += static_cast<double>(m.accesses);
        total_wall += m.wallSeconds;
    }
    double aggregate = total_wall > 0 ? total_accesses / total_wall : 0;
    std::printf("%-10s %14.0f %14s %10.3f %16.0f\n", "aggregate",
                total_accesses, "-", total_wall, aggregate);

    if (!baseline_path.empty()) {
        double base = loadBaselineAggregate(baseline_path);
        if (base > 0)
            std::printf("baseline   %16.0f accesses/sec -> speedup "
                        "%.2fx\n", base, aggregate / base);
    }

    if (std::FILE *f = std::fopen("BENCH_hotpath.json", "w")) {
        std::fprintf(f,
                     "{\"bench\": \"hotpath\", "
                     "\"accesses_per_thread\": %llu, "
                     "\"private_accesses_per_sec\": %.1f, "
                     "\"nocstar_accesses_per_sec\": %.1f, "
                     "\"aggregate_accesses_per_sec\": %.1f, "
                     "\"total_accesses\": %.0f, "
                     "\"wall_seconds\": %.6f, "
                     "\"private_streak_length\": %s, "
                     "\"nocstar_streak_length\": %s}\n",
                     static_cast<unsigned long long>(accesses),
                     runs[0].accessesPerSec(), runs[1].accessesPerSec(),
                     aggregate, total_accesses, total_wall,
                     runs[0].streakJson.c_str(),
                     runs[1].streakJson.c_str());
        std::fclose(f);
    } else {
        std::fprintf(stderr, "cannot write BENCH_hotpath.json\n");
    }
    return 0;
}
