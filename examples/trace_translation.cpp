/**
 * @file
 * Observability walkthrough: runs a 16-core NOCSTAR system with the
 * structured trace recorder and epoch stats snapshots enabled, then
 * writes
 *
 *   trace_translation.json        Chrome trace-event JSON -- open in
 *                                 Perfetto / chrome://tracing to see
 *                                 translation lifecycles, slice
 *                                 occupancy, page walks, fabric link
 *                                 holds and message spans on separate
 *                                 lanes;
 *   trace_translation_stats.json  the machine-readable stats document
 *                                 (epoch snapshots + final tree).
 *
 * Also prints the per-link occupancy heatmap.
 *
 * Exits nonzero unless the captured trace actually contains
 * translation spans, fabric link spans, walker spans and counter-track
 * samples, so CI can run this as a smoke test of the whole
 * observability layer.
 */

#include <cstdio>
#include <iostream>

#include "bench/bench_common.hh"
#include "core/nocstar_org.hh"
#include "cpu/system.hh"
#include "sim/trace_recorder.hh"
#include "workload/spec.hh"

using namespace nocstar;

int
main(int argc, char **argv)
{
    bench::ArgParser parser(
        "trace_translation",
        "structured-event capture demo: Chrome trace + link heatmap");
    parser.parseOrExit(argc, argv);

    // 1. Turn on structured capture before building the system.
    sim::TraceRecorder::global().start();

    // 2. Configure a small NOCSTAR system: one app, 16 threads on
    //    16 cores, epoch snapshots every 2000 cycles. The active
    //    recorder makes the run sample its counter tracks.
    cpu::SystemConfig config;
    config.org.kind = core::OrgKind::Nocstar;
    config.org.numCores = 16;
    cpu::AppConfig app;
    app.spec = workload::paperWorkloads()[0];
    app.threads = 16;
    config.apps.push_back(std::move(app));
    config.seed = 12345;
    config.statsEpochInterval = 2000;
    config.statsJsonPath = "trace_translation_stats.json";

    // Fresh stats file: System::run appends (JSONL across a sweep).
    if (std::FILE *f = std::fopen("trace_translation_stats.json", "w"))
        std::fclose(f);

    cpu::System system(config);
    std::uint64_t accesses = 2000;
    cpu::RunResult result = system.run(accesses);

    // 3. Export the Chrome trace.
    const sim::TraceRecorder &rec = sim::TraceRecorder::global();
    if (!rec.exportChromeJson("trace_translation.json")) {
        std::fprintf(stderr, "cannot write trace_translation.json\n");
        return 1;
    }

    // 4. Count what was captured, per lane.
    std::uint64_t per_lane[sim::numLanes] = {};
    for (const auto &r : rec.snapshot())
        ++per_lane[static_cast<unsigned>(r.lane)];

    std::printf("ran %llu cycles, %llu L2 accesses "
                "(%.1f%% L2 hit rate)\n",
                static_cast<unsigned long long>(result.cycles),
                static_cast<unsigned long long>(result.l2Accesses),
                100.0 * (1.0 - result.l2MissRate));
    std::printf("captured %llu trace events (%llu dropped):\n",
                static_cast<unsigned long long>(rec.size()),
                static_cast<unsigned long long>(rec.dropped()));
    for (unsigned l = 0; l < sim::numLanes; ++l)
        std::printf("  %-12s %llu\n",
                    sim::laneName(static_cast<sim::Lane>(l)),
                    static_cast<unsigned long long>(per_lane[l]));
    std::printf("wrote trace_translation.json "
                "(open in Perfetto / chrome://tracing)\n");
    std::printf("wrote trace_translation_stats.json "
                "(epoch snapshots + final stats)\n");

    // 5. The per-link occupancy heatmap from the fabric's vectors.
    if (auto *org = dynamic_cast<core::NocstarOrg *>(
            &system.organization())) {
        const core::Interconnect &fabric = org->fabric();
        double busiest = 0;
        std::uint32_t busiest_link = 0;
        for (std::uint32_t l = 0; l < fabric.linkHoldCycles.size();
             ++l) {
            if (fabric.linkHoldCycles[l] > busiest) {
                busiest = fabric.linkHoldCycles[l];
                busiest_link = l;
            }
        }
        std::printf("busiest link: tile %u dir %u, held %.0f of %llu "
                    "cycles (%.1f%%)\n",
                    busiest_link / 4, busiest_link % 4, busiest,
                    static_cast<unsigned long long>(result.cycles),
                    result.cycles
                        ? 100.0 * busiest /
                              static_cast<double>(result.cycles)
                        : 0.0);
        bench::printLinkHeatmap(std::cout, fabric.topology(),
                                fabric.linkHoldCycles, result.cycles);
    }

    bool ok = per_lane[static_cast<unsigned>(
                  sim::Lane::Translation)] > 0 &&
              per_lane[static_cast<unsigned>(sim::Lane::Link)] > 0 &&
              per_lane[static_cast<unsigned>(sim::Lane::Walker)] > 0 &&
              per_lane[static_cast<unsigned>(sim::Lane::Counter)] > 0;
    if (!ok) {
        std::fprintf(stderr,
                     "expected translation, link, walker and counter "
                     "events in the capture\n");
        return 1;
    }
    return 0;
}
