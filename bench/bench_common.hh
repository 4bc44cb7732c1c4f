/**
 * @file
 * Shared helpers for the figure/table regeneration harnesses: standard
 * system configurations (paper Table II / §IV methodology), simple
 * fixed-width table printing, and the parallel sweep runner.
 *
 * Sweeps run through SweepHarness::runMany(), which fans the
 * independent simulations out over a thread pool (--jobs flag /
 * NOCSTAR_JOBS env var, hardware concurrency by default). Results come
 * back in input order and each simulation is deterministic given its
 * config, so a bench's stdout is byte-identical at any job count; all
 * timing output goes to stderr and a machine-readable BENCH_<name>.json
 * so the perf trajectory can be tracked across PRs without perturbing
 * the tables.
 */

#ifndef NOCSTAR_BENCH_COMMON_HH
#define NOCSTAR_BENCH_COMMON_HH

#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/build_info.hh"

#include "arg_parser.hh"
#include "cpu/system.hh"
#include "sim/parallel.hh"
#include "sim/trace.hh"
#include "sim/trace_recorder.hh"
#include "workload/spec.hh"

namespace nocstar::bench
{

/** Default accesses per thread for full-system runs. */
constexpr std::uint64_t defaultAccesses = 30000;

/** Monolithic banking per the paper: 4 banks up to 32 cores, 8 at 64. */
inline unsigned
banksFor(unsigned cores)
{
    return cores >= 64 ? 8 : 4;
}

/**
 * Baseline system configuration for one multithreaded workload running
 * one thread per core, per the paper's single-workload experiments.
 */
inline cpu::SystemConfig
makeConfig(core::OrgKind kind, unsigned cores,
           const workload::WorkloadSpec &spec, bool superpages = true,
           std::uint64_t seed = 12345)
{
    cpu::SystemConfig config;
    config.org.kind = kind;
    config.org.numCores = cores;
    config.org.banks = banksFor(cores);
    cpu::AppConfig app;
    app.spec = spec;
    app.threads = cores;
    config.apps.push_back(std::move(app));
    config.superpages = superpages;
    config.seed = seed;
    return config;
}

/**
 * Multiprogrammed-mix configuration (Fig 18 and friends): the apps
 * named by @p combo, each running cores/4 threads, with the seed the
 * paper sweep derives from the combination itself.
 */
inline cpu::SystemConfig
makeMixConfig(const std::array<std::size_t, 4> &combo, core::OrgKind kind,
              unsigned cores)
{
    cpu::SystemConfig config;
    config.org.kind = kind;
    config.org.numCores = cores;
    config.org.banks = banksFor(cores);
    for (std::size_t w : combo) {
        cpu::AppConfig app;
        app.spec = workload::paperWorkloads()[w];
        app.threads = cores / 4;
        config.apps.push_back(std::move(app));
    }
    config.seed = 9000 + combo[0] * 1331 + combo[1] * 121 +
                  combo[2] * 11 + combo[3];
    return config;
}

/**
 * Observability options shared by every bench, filled in by
 * parseBenchArgs(). All default off; the hot path is untouched (and a
 * sweep's stdout byte-identical) unless one is requested.
 */
struct Observability
{
    /** --trace: capture structured events into the global recorder. */
    bool trace = false;
    /** --trace-out FILE: Chrome trace JSON destination. */
    std::string traceOut;
    /** --stats-json FILE: per-run stats JSON (JSONL across a sweep). */
    std::string statsJson;
    /** --epoch N: snapshot the stats tree every N cycles. */
    Cycle epoch = 0;
    /** --epoch-reset: epoch snapshots are deltas, not totals. */
    bool epochReset = false;
    /** --lat-hist: per-class translation-latency histograms. */
    bool latHist = false;
    /** --lat-hist=ctx: additionally split by workload context. */
    bool latPerCtx = false;
    /** --counters N: Perfetto counter-track samples every N cycles. */
    Cycle counterInterval = 0;
    /** --progress[=S]: heartbeat period in seconds; < 0 = off. */
    double progressSeconds = -1.0;

    bool
    any() const
    {
        return trace || !traceOut.empty() || !statsJson.empty() ||
               epoch != 0 || latHist || counterInterval != 0 ||
               progressSeconds >= 0;
    }
};

/** The process-wide observability selection (set once at startup). */
inline Observability &
observability()
{
    static Observability obs;
    return obs;
}

/**
 * Fault-injection selection shared by every bench, filled in by the
 * --fault-plan / --fault-seed options. When configured, runOnce()
 * applies the plan to every simulated configuration; otherwise no
 * fault machinery is instantiated anywhere.
 */
struct FaultSelection
{
    sim::FaultPlan plan;
    bool planLoaded = false;
    bool seedSet = false;
    std::uint64_t seed = 0;
    /** Finalized: the plan should be applied to every run. */
    bool configured = false;
};

/** The process-wide fault selection (set once at startup). */
inline FaultSelection &
faultSelection()
{
    static FaultSelection faults;
    return faults;
}

/**
 * Fabric selection, filled in by the --fabric option. When set, every
 * NOCSTAR configuration a bench runs uses this fabric (flat
 * circuit-switched mesh or the hierarchical crossbar-of-clusters
 * hybrid); organizations without a fabric ignore it, so the flag is
 * safe to apply sweep-wide.
 */
struct FabricSelection
{
    core::FabricKind kind = core::FabricKind::Flat;
    unsigned clusterWidth = 0;
    unsigned clusterHeight = 0;
    bool set = false;
};

/** The process-wide fabric selection (set once at startup). */
inline FabricSelection &
fabricSelection()
{
    static FabricSelection sel;
    return sel;
}

/**
 * Sampled-simulation / checkpoint selection, filled in by the
 * --sample, --checkpoint and --restore options. When set, every
 * configuration a bench runs uses SMARTS-style sampling (functional
 * fast-forward between detailed measurement windows) and/or anchors
 * at a checkpoint of the warmed functional state.
 */
struct SamplingSelection
{
    cpu::SamplingConfig sampling;
    bool samplingSet = false;
    std::string checkpointSave;
    std::string checkpointRestore;
};

/** The process-wide sampling selection (set once at startup). */
inline SamplingSelection &
samplingSelection()
{
    static SamplingSelection sel;
    return sel;
}

/**
 * Parse a --sample spec `WINDOWS,DETAIL[,FF[,WARMUP]]` into @p out.
 * FF defaults to 0 (derive the gap from the run length); WARMUP
 * defaults to FF (one gap's worth of warming before window 1).
 */
inline bool
parseSampleSpec(const std::string &spec, cpu::SamplingConfig &out)
{
    std::vector<std::uint64_t> parts;
    std::size_t start = 0;
    while (start <= spec.size()) {
        std::size_t comma = spec.find(',', start);
        std::string field = spec.substr(
            start, comma == std::string::npos ? std::string::npos
                                              : comma - start);
        std::uint64_t v = 0;
        if (!parseUnsigned(field, v))
            return false;
        parts.push_back(v);
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    if (parts.size() < 2 || parts.size() > 4)
        return false;
    out.windows = static_cast<unsigned>(parts[0]);
    out.detailAccesses = parts[1];
    out.ffAccesses = parts.size() > 2 ? parts[2] : 0;
    out.warmupAccesses = parts.size() > 3 ? parts[3] : out.ffAccesses;
    return true;
}

/**
 * Apply the process-wide command-line selections (observability,
 * fault plan) to a copy of @p config.
 */
inline cpu::SystemConfig
applySelections(const cpu::SystemConfig &config)
{
    const Observability &obs = observability();
    cpu::SystemConfig cfg = config;
    cfg.statsEpochInterval = obs.epoch;
    cfg.statsEpochReset = obs.epochReset;
    cfg.statsJsonPath = obs.statsJson;
    cfg.latencyStats = obs.latHist;
    cfg.latencyPerContext = obs.latPerCtx;
    cfg.counterInterval = obs.counterInterval;
    cfg.progressSeconds = obs.progressSeconds;
    if (faultSelection().configured)
        cfg.org.faults = faultSelection().plan;
    if (fabricSelection().set &&
        (cfg.org.kind == core::OrgKind::Nocstar ||
         cfg.org.kind == core::OrgKind::NocstarIdeal)) {
        cfg.org.fabricKind = fabricSelection().kind;
        cfg.org.clusterWidth = fabricSelection().clusterWidth;
        cfg.org.clusterHeight = fabricSelection().clusterHeight;
    }
    const SamplingSelection &sample = samplingSelection();
    if (sample.samplingSet)
        cfg.sampling = sample.sampling;
    if (!sample.checkpointSave.empty())
        cfg.checkpointSavePath = sample.checkpointSave;
    if (!sample.checkpointRestore.empty())
        cfg.checkpointRestorePath = sample.checkpointRestore;
    return cfg;
}

/**
 * Validate and run a configuration that already has the command-line
 * selections applied (SweepHarness pre-applies them so it can redirect
 * each simulation's stats stream when the sweep is parallel).
 */
inline cpu::RunResult
runApplied(const cpu::SystemConfig &cfg,
           std::uint64_t accesses = defaultAccesses)
{
    if (std::vector<std::string> errors = cfg.validate();
        !errors.empty()) {
        for (const std::string &e : errors)
            std::fprintf(stderr, "invalid config: %s\n", e.c_str());
        std::exit(2);
    }
    cpu::System system(cfg);
    return system.run(accesses);
}

/**
 * Run one configuration and return the result. Command-line
 * observability and fault-plan selections are applied to a copy of
 * the configuration, which is validated before the system is built.
 */
inline cpu::RunResult
runOnce(const cpu::SystemConfig &config,
        std::uint64_t accesses = defaultAccesses)
{
    return runApplied(applySelections(config), accesses);
}

/** One simulation of a sweep: a configuration plus its run length. */
struct SimJob
{
    cpu::SystemConfig config;
    std::uint64_t accesses = defaultAccesses;
};

/** Command-line arguments shared by every sweep bench. */
struct BenchArgs
{
    std::uint64_t accesses;
    unsigned jobs;
};

/**
 * Register the options every bench shares on @p parser: --jobs, the
 * observability group (`--trace[=FLAGS]`, `--trace-out FILE`,
 * `--stats-json FILE`, `--epoch N`, `--epoch-reset`), the fault group
 * (`--fault-plan FILE`, `--fault-seed N`) and
 * `--fabric flat|hier[:WxH]`. All of them write into the process-wide
 * singletons; --jobs writes into @p args.
 */
inline void
addStandardBenchOptions(ArgParser &parser, BenchArgs &args)
{
    parser.option("jobs", &args.jobs,
                  "parallel sweep workers (default: NOCSTAR_JOBS, "
                  "then hardware concurrency)");
    parser.optionalValue(
        "trace", [] { observability().trace = true; },
        [](const std::string &flags) {
            observability().trace = true;
            if (!trace::setFlags(flags))
                std::fprintf(stderr,
                             "warning: unknown debug flag in '%s'\n",
                             flags.c_str());
            return true;
        },
        "capture structured events (optionally set debug flags)",
        "FLAGS");
    parser.option(
        "trace-out",
        [](const std::string &file) {
            observability().trace = true;
            observability().traceOut = file;
            return true;
        },
        "write the Chrome trace JSON to FILE (implies --trace)",
        "FILE");
    parser.option("stats-json", &observability().statsJson,
                  "append per-run stats JSON to FILE (JSONL)");
    parser.option("epoch", &observability().epoch,
                  "snapshot the stats tree every N cycles");
    parser.flag("epoch-reset", &observability().epochReset,
                "epoch snapshots are per-interval deltas, not totals");
    parser.optionalValue(
        "lat-hist", [] { observability().latHist = true; },
        [](const std::string &mode) {
            observability().latHist = true;
            if (mode == "ctx") {
                observability().latPerCtx = true;
                return true;
            }
            std::fprintf(stderr,
                         "--lat-hist only accepts 'ctx' (got '%s')\n",
                         mode.c_str());
            return false;
        },
        "record per-class translation-latency histograms "
        "(=ctx adds a per-context split)",
        "ctx");
    parser.option(
        "counters",
        [](const std::string &value) {
            std::uint64_t n = 0;
            if (!parseUnsigned(value, n))
                return false;
            observability().counterInterval = n;
            return true;
        },
        "sample Perfetto counter tracks every N cycles "
        "(needs --trace)",
        "N");
    parser.optionalValue(
        "progress", [] { observability().progressSeconds = 2.0; },
        [](const std::string &value) {
            char *end = nullptr;
            double s = std::strtod(value.c_str(), &end);
            if (!end || *end != '\0' || s < 0)
                return false;
            observability().progressSeconds = s;
            return true;
        },
        "print a heartbeat line to stderr every SECONDS "
        "(default 2; =0 emits at every check)",
        "SECONDS");
    parser.option(
        "fault-plan",
        [](const std::string &file) {
            try {
                faultSelection().plan = sim::FaultPlan::parseFile(file);
            } catch (const FatalError &err) {
                std::fprintf(stderr, "%s\n", err.what());
                return false;
            }
            faultSelection().planLoaded = true;
            return true;
        },
        "inject faults per this plan file (see docs)", "FILE");
    parser.option(
        "fabric",
        [](const std::string &spec) {
            core::OrgConfig probe;
            if (std::string err = core::parseFabricSpec(spec, probe);
                !err.empty()) {
                std::fprintf(stderr, "--fabric: %s\n", err.c_str());
                return false;
            }
            FabricSelection &sel = fabricSelection();
            sel.kind = probe.fabricKind;
            sel.clusterWidth = probe.clusterWidth;
            sel.clusterHeight = probe.clusterHeight;
            sel.set = true;
            return true;
        },
        "NOCSTAR interconnect: flat (default), hier, or hier:WxH "
        "(cluster geometry; hier alone picks it per mesh)",
        "KIND");
    parser.option(
        "sample",
        [](const std::string &spec) {
            SamplingSelection &sel = samplingSelection();
            if (!parseSampleSpec(spec, sel.sampling)) {
                std::fprintf(
                    stderr,
                    "--sample expects WINDOWS,DETAIL[,FF[,WARMUP]] "
                    "(got '%s')\n",
                    spec.c_str());
                return false;
            }
            sel.samplingSet = true;
            return true;
        },
        "SMARTS-style sampled simulation: WINDOWS detail windows of "
        "DETAIL accesses/thread, fast-forwarding ~FF accesses/thread "
        "between them (0 = derive from run length) after WARMUP "
        "functional warming",
        "SPEC");
    parser.option(
        "checkpoint",
        [](const std::string &file) {
            samplingSelection().checkpointSave = file;
            return true;
        },
        "save a checkpoint of the warmed functional state to FILE, "
        "then keep running",
        "FILE");
    parser.option(
        "restore",
        [](const std::string &file) {
            samplingSelection().checkpointRestore = file;
            return true;
        },
        "restore warmed state from FILE instead of re-warming "
        "(config fingerprint must match)",
        "FILE");
    parser.option(
        "fault-seed",
        [](const std::string &value) {
            FaultSelection &faults = faultSelection();
            if (!parseUnsigned(value, faults.seed))
                return false;
            faults.seedSet = true;
            return true;
        },
        "override the fault plan's random seed", "N");
}

/**
 * Build a parser preloaded with the standard bench surface: the
 * optional ACCESSES positional (unless @p with_accesses is false)
 * plus everything addStandardBenchOptions() registers. Benches with
 * extra knobs add their own specs to the returned parser, then call
 * finalizeBenchArgs().
 */
inline ArgParser
makeBenchParser(int argc, char **argv, const std::string &description,
                BenchArgs &args, bool with_accesses = true)
{
    (void)argc;
    std::string program =
        argc > 0 && argv && argv[0] ? argv[0] : "bench";
    if (std::size_t slash = program.rfind('/');
        slash != std::string::npos)
        program.erase(0, slash + 1);
    ArgParser parser(program, description);
    if (with_accesses)
        parser.positional("ACCESSES", &args.accesses,
                          "accesses per thread (default " +
                              std::to_string(args.accesses) + ")");
    addStandardBenchOptions(parser, args);
    return parser;
}

/**
 * parseOrExit() and apply the cross-option rules: --trace forces a
 * single job (the structured recorder is one process-wide ring, so
 * concurrent simulations would interleave their events); the fault
 * seed override lands on the loaded plan regardless of option order;
 * an absent --jobs falls back to NOCSTAR_JOBS, then hardware
 * concurrency. (Stats JSON / epoch snapshots do NOT force one job:
 * SweepHarness redirects each parallel simulation to its own temp
 * file and merges them in input order, so the JSONL is byte-identical
 * at any job count. A fault plan doesn't force one job either --
 * fault injection is deterministic at any sweep parallelism.)
 */
inline BenchArgs
finalizeBenchArgs(ArgParser &parser, int argc, char **argv,
                  BenchArgs &args)
{
    parser.parseOrExit(argc, argv);
    Observability &obs = observability();
    if (obs.trace) {
        if (args.jobs > 1)
            std::fprintf(stderr,
                         "note: --trace forces --jobs 1\n");
        args.jobs = 1;
        sim::TraceRecorder::global().start();
    }
    FaultSelection &faults = faultSelection();
    if (faults.seedSet)
        faults.plan.seed = faults.seed;
    faults.configured = faults.planLoaded;
    if (args.jobs == 0)
        args.jobs = sim::defaultJobs();
    return args;
}

/**
 * The standard bench command line: `[ACCESSES] [--jobs N]` plus the
 * observability and fault-injection options, with auto-generated
 * --help. Unknown flags and non-numeric values are fatal (exit 2).
 */
inline BenchArgs
parseBenchArgs(int argc, char **argv, std::uint64_t default_accesses,
               const std::string &description = "")
{
    BenchArgs args{default_accesses, 0};
    ArgParser parser = makeBenchParser(argc, argv, description, args);
    return finalizeBenchArgs(parser, argc, argv, args);
}

/**
 * Wall-clock accounting and the worker pool for one bench's sweeps.
 * On finish() (or destruction) it prints a summary to stderr and
 * writes BENCH_<name>.json into the working directory.
 */
class SweepHarness
{
  public:
    SweepHarness(std::string name, unsigned jobs)
        : name_(std::move(name)), pool_(jobs),
          start_(std::chrono::steady_clock::now())
    {}

    ~SweepHarness() { finish(); }

    SweepHarness(const SweepHarness &) = delete;
    SweepHarness &operator=(const SweepHarness &) = delete;

    unsigned jobs() const { return pool_.size() > 0 ? pool_.size() : 1; }

    /**
     * Run every job on the pool; results are returned in input order,
     * so downstream printing is independent of the job count. All
     * configurations are validated up front, so a bad sweep reports
     * every problem and exits before burning any simulation time.
     *
     * When --stats-json is active on a parallel sweep, each
     * simulation appends to its own temp file (sink + ".tmpN", N a
     * sweep-wide sim index) instead of racing on the shared sink; the
     * temp files are then concatenated onto the sink in input order
     * and removed, so the JSONL bytes match a --jobs 1 run exactly.
     */
    std::vector<cpu::RunResult>
    runMany(const std::vector<SimJob> &jobs)
    {
        const Observability &obs = observability();
        const bool split_stats =
            !obs.statsJson.empty() && pool_.size() > 1;
        std::vector<SimJob> applied;
        applied.reserve(jobs.size());
        std::vector<std::string> errors;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            cpu::SystemConfig cfg = applySelections(jobs[i].config);
            for (const std::string &e : cfg.validate())
                errors.push_back("job #" + std::to_string(i) + ": " +
                                 e);
            if (split_stats)
                cfg.statsJsonPath =
                    obs.statsJson + ".tmp" +
                    std::to_string(simIndex_ + i);
            applied.push_back(SimJob{std::move(cfg),
                                     jobs[i].accesses});
        }
        if (!errors.empty()) {
            for (const std::string &e : errors)
                std::fprintf(stderr, "[%s] invalid config: %s\n",
                             name_.c_str(), e.c_str());
            std::exit(2);
        }
        auto results = pool_.map(applied, [](const SimJob &job) {
            return runApplied(job.config, job.accesses);
        });
        if (split_stats)
            mergeStatsTemps(applied);
        simIndex_ += jobs.size();
        simsRun_ += results.size();
        for (const cpu::RunResult &r : results)
            simCycles_ += r.cycles;
        return results;
    }

    /** Write the timing artifacts; idempotent. */
    void
    finish()
    {
        if (finished_)
            return;
        finished_ = true;
        double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
        double rate = wall > 0 ? static_cast<double>(simCycles_) / wall
                               : 0.0;
        std::fprintf(stderr,
                     "[%s] %llu sims on %u jobs in %.2fs "
                     "(%.3g sim-cycles/s)\n",
                     name_.c_str(),
                     static_cast<unsigned long long>(simsRun_), jobs(),
                     wall, rate);

        std::string path = "BENCH_" + name_ + ".json";
        if (std::FILE *f = std::fopen(path.c_str(), "w")) {
            std::fprintf(f,
                         "{\"bench\": \"%s\", \"jobs\": %u, "
                         "\"sims\": %llu, \"wall_seconds\": %.6f, "
                         "\"sim_cycles\": %llu, "
                         "\"sim_cycles_per_sec\": %.1f, "
                         "\"git_sha\": \"%s\", "
                         "\"compiler\": \"%s %s\", "
                         "\"build_type\": \"%s\", "
                         "\"host_cores\": %u}\n",
                         name_.c_str(), jobs(),
                         static_cast<unsigned long long>(simsRun_),
                         wall,
                         static_cast<unsigned long long>(simCycles_),
                         rate, build::kGitSha, build::kCompilerId,
                         build::kCompilerVersion, build::kBuildType,
                         std::thread::hardware_concurrency());
            std::fclose(f);
        } else {
            std::fprintf(stderr, "[%s] cannot write %s\n",
                         name_.c_str(), path.c_str());
        }

        // Export the structured trace if --trace captured anything.
        const Observability &obs = observability();
        if (obs.trace) {
            const sim::TraceRecorder &rec = sim::TraceRecorder::global();
            std::string tpath = obs.traceOut.empty()
                                    ? "TRACE_" + name_ + ".json"
                                    : obs.traceOut;
            if (rec.recorded() == 0) {
                std::fprintf(stderr, "[%s] no trace events captured\n",
                             name_.c_str());
            } else if (rec.exportChromeJson(tpath)) {
                std::fprintf(
                    stderr,
                    "[%s] wrote %llu trace events to %s "
                    "(%llu dropped)\n",
                    name_.c_str(),
                    static_cast<unsigned long long>(rec.size()),
                    tpath.c_str(),
                    static_cast<unsigned long long>(rec.dropped()));
            } else {
                std::fprintf(stderr, "[%s] cannot write %s\n",
                             name_.c_str(), tpath.c_str());
            }
        }
    }

  private:
    /** Concatenate the per-sim stats temp files onto the shared sink
     * in input order, then remove them. */
    void
    mergeStatsTemps(const std::vector<SimJob> &applied)
    {
        const std::string &sink = observability().statsJson;
        std::ofstream out(sink, std::ios::app | std::ios::binary);
        if (!out) {
            std::fprintf(stderr, "[%s] cannot append to %s\n",
                         name_.c_str(), sink.c_str());
            return;
        }
        for (const SimJob &job : applied) {
            const std::string &tmp = job.config.statsJsonPath;
            {
                std::ifstream in(tmp, std::ios::binary);
                // A run that produced no stats leaves no file behind.
                if (in)
                    out << in.rdbuf();
            }
            std::remove(tmp.c_str());
        }
    }

    std::string name_;
    sim::ThreadPool pool_;
    std::chrono::steady_clock::time_point start_;
    /** Sweep-wide sim counter: unique temp-file suffixes across
     * multiple runMany() calls. */
    std::uint64_t simIndex_ = 0;
    std::uint64_t simsRun_ = 0;
    std::uint64_t simCycles_ = 0;
    bool finished_ = false;
};

/** Speedup of @p config against a private-L2-TLB baseline. */
inline double
speedupVsPrivate(const cpu::RunResult &baseline,
                 const cpu::RunResult &other)
{
    return other.meanCycles > 0 ? baseline.meanCycles / other.meanCycles
                                : 0.0;
}

/**
 * Render the per-link occupancy heatmap from a fabric's
 * link_hold_cycles vector: one row per tile, the E/W/N/S output links
 * of each tile as the fraction of @p cycles they were held. Written to
 * @p os (use stderr / a file -- sweep stdout is reserved for tables).
 */
inline void
printLinkHeatmap(std::ostream &os, const noc::GridTopology &topo,
                 const stats::Vector &hold_cycles, Cycle cycles)
{
    os << "link occupancy (E/W/N/S per tile, fraction of "
       << cycles << " cycles)\n";
    char cell[64];
    for (unsigned y = 0; y < topo.height(); ++y) {
        for (unsigned x = 0; x < topo.width(); ++x) {
            CoreId tile = topo.tileAt({x, y});
            double denom = cycles ? static_cast<double>(cycles) : 1.0;
            std::snprintf(
                cell, sizeof(cell), "  [%3u] %.2f/%.2f/%.2f/%.2f",
                tile, hold_cycles[tile * 4 + 0] / denom,
                hold_cycles[tile * 4 + 1] / denom,
                hold_cycles[tile * 4 + 2] / denom,
                hold_cycles[tile * 4 + 3] / denom);
            os << cell;
        }
        os << "\n";
    }
}

/** Print a row of fixed-width cells. */
inline void
printRow(const std::string &label, const std::vector<double> &values,
         const char *fmt = "%10.3f")
{
    std::printf("%-16s", label.c_str());
    for (double v : values)
        std::printf(fmt, v);
    std::printf("\n");
}

inline void
printHeader(const std::string &label,
            const std::vector<std::string> &columns, int width = 10)
{
    std::printf("%-16s", label.c_str());
    for (const std::string &c : columns)
        std::printf("%*s", width, c.c_str());
    std::printf("\n");
}

} // namespace nocstar::bench

#endif // NOCSTAR_BENCH_COMMON_HH
