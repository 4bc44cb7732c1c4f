/**
 * @file
 * General-purpose simulation driver: every organization and policy
 * knob behind command-line flags, for design exploration without
 * writing code.
 *
 *   ./examples/simulate --org nocstar --cores 32 --workload gups \
 *       --accesses 20000 --smt 2 --prefetch 2 --ptw remote \
 *       --no-superpages --capture trace.txt --stats \
 *       --fault-plan outage.plan
 *
 * Run with --help for the full flag list. Both `--flag value` and
 * `--flag=value` spellings work. The observability, fault, sampling
 * and checkpoint flags are bench::RunOptions, the same set every
 * bench takes.
 */

#include <climits>
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>

#include "bench/bench_common.hh"
#include "cpu/system.hh"
#include "sim/trace_recorder.hh"

using namespace nocstar;

namespace
{

bool
parseOrg(const std::string &name, core::OrgKind &out)
{
    if (name == "private")
        out = core::OrgKind::Private;
    else if (name == "monolithic")
        out = core::OrgKind::MonolithicMesh;
    else if (name == "monolithic-smart")
        out = core::OrgKind::MonolithicSmart;
    else if (name == "distributed")
        out = core::OrgKind::Distributed;
    else if (name == "ideal")
        out = core::OrgKind::IdealShared;
    else if (name == "nocstar")
        out = core::OrgKind::Nocstar;
    else if (name == "nocstar-ideal")
        out = core::OrgKind::NocstarIdeal;
    else
        return false;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    cpu::SystemConfig config;
    config.org.kind = core::OrgKind::Nocstar;
    config.org.numCores = 16;
    std::string workload_name = "graph500";
    std::string trace_file;
    std::uint64_t accesses = 20000;
    unsigned threads = 0;
    bool no_superpages = false;
    bool storm = false;
    bool dump_stats = false;
    bench::RunOptions options;

    bench::ArgParser parser(
        "simulate",
        "single-run simulation driver: every organization and policy "
        "knob behind a flag");
    parser.option(
        "org",
        [&config](const std::string &value) {
            return parseOrg(value, config.org.kind);
        },
        "private | monolithic | monolithic-smart | distributed | "
        "ideal | nocstar | nocstar-ideal (default nocstar)",
        "KIND");
    parser.option("cores", &config.org.numCores,
                  "core count (default 16)");
    parser.option("workload", &workload_name,
                  "one of the 11 paper workloads (default graph500)",
                  "NAME");
    parser.option(
        "accesses",
        [&accesses](const std::string &value) {
            return sim::parseUnsigned(value, accesses) && accesses > 0;
        },
        "accesses per thread, >= 1 (default 20000)", "N");
    parser.option("threads", &threads, "app threads (default = cores)");
    parser.option("smt", &config.smtPerCore,
                  "SMT slots per core (default 1)");
    parser.option("prefetch", &config.org.prefetchDistance,
                  "TLB prefetch distance 0..3 (default 0)");
    parser.option(
        "ptw",
        [&config](const std::string &value) {
            if (value != "requester" && value != "remote")
                return false;
            config.org.ptwPlacement = value == "remote"
                ? core::PtwPlacement::Remote
                : core::PtwPlacement::Requester;
            return true;
        },
        "requester | remote (default requester; remote needs "
        "per-tile slices, so not monolithic)",
        "WHERE");
    parser.option(
        "acquire",
        [&config](const std::string &value) {
            if (value != "oneway" && value != "roundtrip")
                return false;
            config.org.pathAcquire = value == "roundtrip"
                ? core::PathAcquire::RoundTrip
                : core::PathAcquire::OneWay;
            return true;
        },
        "oneway | roundtrip (default oneway)", "MODE");
    parser.option("hpcmax", &config.org.hpcMax,
                  "fabric hops per cycle (default 16)");
    parser.option("leaders", &config.org.invalLeaderGroup,
                  "invalidation leader group (default 0; > 0 needs "
                  "per-tile slices, so not private or monolithic)");
    parser.option("fixed-ptw", &config.walker.fixedLatency,
                  "fixed walk latency in cycles (default variable)");
    parser.option("seed", &config.seed, "random seed (default 1)");
    parser.option(
        "hotspot",
        [&config](const std::string &value) {
            std::uint64_t slice;
            if (!sim::parseUnsigned(value, slice) || slice > INT_MAX)
                return false;
            config.hotspotSlice = static_cast<int>(slice);
            return true;
        },
        "warp a fraction of all traffic onto one slice", "SLICE");
    parser.option("replay", &trace_file, "replay a captured trace",
                  "FILE");
    parser.option("capture", &config.captureTracePath,
                  "capture the address trace to FILE", "FILE");
    parser.flag("no-superpages", &no_superpages, "4 KB pages only");
    parser.flag("storm", &storm,
                "enable the TLB-storm microbenchmark");
    parser.flag("stats", &dump_stats, "dump the full statistics tree");
    options.addTo(parser);
    parser.check(
        [&workload_name] {
            return workload::unknownWorkloadError(workload_name);
        });
    parser.parseOrExit(argc, argv);

    if (no_superpages)
        config.superpages = false;
    if (storm) {
        config.contextSwitchInterval = 50000;
        config.stormRemapInterval = 5000;
    }

    config.org.banks = bench::banksFor(config.org.numCores);
    cpu::AppConfig app{workload::findWorkload(workload_name),
                       threads ? threads : config.org.numCores};
    app.traceFile = trace_file;
    config.apps.push_back(app);
    config = options.apply(config);

    if (std::vector<std::string> errors = config.validate();
        !errors.empty()) {
        for (const std::string &error : errors)
            std::fprintf(stderr, "simulate: invalid config: %s\n",
                         error.c_str());
        return 2;
    }

    if (options.trace)
        sim::TraceRecorder::global().start();

    std::optional<cpu::System> system;
    cpu::RunResult result = bench::exitOnFatal("simulate", [&] {
        system.emplace(config);
        return system->run(accesses);
    });

    if (options.trace)
        bench::exportTrace("simulate", options.traceOut);

    std::printf("org                 : %s\n",
                core::orgKindName(config.org.kind));
    std::printf("cores / threads     : %u / %u\n", config.org.numCores,
                config.apps[0].threads);
    std::printf("cycles (max / mean) : %llu / %.0f\n",
                static_cast<unsigned long long>(result.cycles),
                result.meanCycles);
    std::printf("chip IPC            : %.3f\n", result.ipc);
    if (result.sampled) {
        std::printf("sampled IPC         : %.3f +/- %.3f (95%% CI, "
                    "%u windows)\n",
                    result.sampledIpcMean, result.sampledIpcCi95,
                    result.sampleWindows);
        std::printf("sampled L2 latency  : %.1f +/- %.1f cycles\n",
                    result.sampledLatencyMean,
                    result.sampledLatencyCi95);
        std::printf("fast-forwarded      : %llu accesses\n",
                    static_cast<unsigned long long>(
                        result.sampledFfAccesses));
    }
    std::printf("L1 miss rate        : %.2f %%\n",
                100.0 * static_cast<double>(result.l1Misses) /
                    static_cast<double>(result.l1Accesses));
    std::printf("L2 miss rate        : %.2f %%\n",
                100.0 * result.l2MissRate);
    std::printf("avg L2 latency      : %.1f cycles\n",
                result.avgL2AccessLatency);
    std::printf("page walks          : %llu (avg %.1f cycles)\n",
                static_cast<unsigned long long>(result.walks),
                result.avgWalkLatency);
    std::printf("translation energy  : %.2f uJ\n",
                result.energyPj * 1e-6);
    if (result.fabricAvgLatency > 0)
        std::printf("fabric latency      : %.2f cycles (%.0f %% "
                    "contention-free)\n",
                    result.fabricAvgLatency,
                    100.0 * result.fabricNoContention);
    if (result.shootdowns)
        std::printf("shootdowns          : %llu (avg %.1f cycles)\n",
                    static_cast<unsigned long long>(result.shootdowns),
                    result.avgShootdownLatency);
    if (!config.org.faults.empty())
        std::printf("faults              : %llu injected, %llu "
                    "degraded msgs (%.2f %%), %llu ECC rewalks\n",
                    static_cast<unsigned long long>(
                        result.faultsInjected),
                    static_cast<unsigned long long>(
                        result.degradedMessages),
                    100.0 * result.degradedFraction,
                    static_cast<unsigned long long>(result.eccRewalks));

    if (dump_stats) {
        std::printf("\n--- statistics ---\n");
        system->dumpAll(std::cout);
    }
    return 0;
}
