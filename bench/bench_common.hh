/**
 * @file
 * Shared helpers for the figure/table regeneration harnesses: standard
 * system configurations (paper Table II / §IV methodology), the run
 * options every bench shares with examples/simulate, simple fixed-width
 * table printing, and the parallel sweep runner.
 *
 * A bench parses its command line into a BenchArgs value it owns (run
 * length, --jobs, and the RunOptions) and hands the options to a
 * SweepHarness. SweepHarness::runMany() is the only way a bench runs
 * simulations: it lays the options over every configuration,
 * validates them, and fans the independent simulations out over a
 * thread pool (--jobs flag / NOCSTAR_JOBS env var, hardware
 * concurrency by default, never more than the host's hardware
 * threads). Results come back in input order and each simulation is
 * deterministic given its config, so a bench's stdout is
 * byte-identical at any job count; all timing output goes to stderr
 * and a machine-readable BENCH_<name>.json so the perf trajectory can
 * be tracked across changes without perturbing the tables.
 *
 * Nearly every figure reports speedups over private L2 TLBs. Those
 * benches describe rows -- a private baseline plus the variants
 * compared against it -- and SweepHarness::runVsPrivate() lays the rows
 * out, runs them as one sweep and pairs each variant with its
 * baseline; summarize() and printWorkloadTable() condense the rows.
 */

#ifndef NOCSTAR_BENCH_COMMON_HH
#define NOCSTAR_BENCH_COMMON_HH

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/build_info.hh"

#include "arg_parser.hh"
#include "cpu/system.hh"
#include "sim/fault.hh"
#include "sim/parallel.hh"
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
        if (!sim::parseUnsigned(field, v))
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
 * The run options every bench and examples/simulate share:
 * observability, fault injection, sampled simulation and checkpoints.
 * The caller owns the value; addTo() registers its flags on a parser
 * and apply() lays it over one configuration. Everything defaults off,
 * so the hot path is untouched (and a sweep's stdout byte-identical)
 * unless an option is requested.
 */
struct RunOptions
{
    bool trace = false;           ///< --trace or --trace-out
    std::string traceOut;         ///< --trace-out; see exportTrace()
    std::string statsJson;        ///< --stats-json (JSONL per sweep)
    Cycle epoch = 0;              ///< --epoch: stats snapshot period
    bool latHist = false;         ///< --lat-hist
    double progressSeconds = -1;  ///< --progress[=S]; < 0 = off
    std::optional<sim::FaultPlan> faultPlan; ///< --fault-plan
    /** --fault-seed: replaces the plan's seed, in either flag order. */
    std::optional<std::uint64_t> faultSeed;
    std::optional<cpu::SamplingConfig> sampling; ///< --sample
    std::string checkpointSave;    ///< --checkpoint
    std::string checkpointRestore; ///< --restore

    /** Register every run option on @p parser, which must not outlive
     * this value. */
    void addTo(ArgParser &parser);

    /** @p config with these options laid over it. */
    cpu::SystemConfig
    apply(cpu::SystemConfig config) const
    {
        config.statsEpochInterval = epoch;
        config.statsJsonPath = statsJson;
        config.latencyStats = latHist;
        config.progressSeconds = progressSeconds;
        if (faultPlan) {
            config.org.faults = *faultPlan;
            if (faultSeed)
                config.org.faults.seed = *faultSeed;
        }
        if (sampling)
            config.sampling = *sampling;
        if (!checkpointSave.empty())
            config.checkpointSavePath = checkpointSave;
        if (!checkpointRestore.empty())
            config.checkpointRestorePath = checkpointRestore;
        return config;
    }
};

inline void
RunOptions::addTo(ArgParser &parser)
{
    parser.flag("trace", &trace,
                "capture structured events and counter tracks as "
                "Chrome trace JSON");
    parser.option(
        "trace-out",
        [this](const std::string &file) {
            trace = true;
            traceOut = file;
            return true;
        },
        "write the Chrome trace JSON to FILE (implies --trace)",
        "FILE");
    parser.option("stats-json", &statsJson,
                  "append per-run stats JSON to FILE (JSONL)");
    parser.option("epoch", &epoch,
                  "snapshot the stats tree every N cycles (cumulative)");
    parser.flag("lat-hist", &latHist,
                "record per-class translation-latency histograms");
    parser.optionalValue(
        "progress", [this] { progressSeconds = 2.0; },
        [this](const std::string &value) {
            double seconds = 0;
            if (!sim::parseDouble(value, seconds) || seconds < 0)
                return false;
            progressSeconds = seconds;
            return true;
        },
        "print a heartbeat line to stderr every SECONDS "
        "(default 2; =0 emits at every check)",
        "SECONDS");
    parser.option(
        "fault-plan",
        [this](const std::string &file) {
            try {
                faultPlan = sim::FaultPlan::parseFile(file);
            } catch (const FatalError &err) {
                std::fprintf(stderr, "%s\n", err.what());
                return false;
            }
            return true;
        },
        "inject faults per this plan file (see docs)", "FILE");
    parser.option(
        "sample",
        [this](const std::string &spec) {
            cpu::SamplingConfig parsed;
            if (!parseSampleSpec(spec, parsed)) {
                std::fprintf(
                    stderr,
                    "--sample expects WINDOWS,DETAIL[,FF[,WARMUP]] "
                    "(got '%s')\n",
                    spec.c_str());
                return false;
            }
            sampling = parsed;
            return true;
        },
        "SMARTS-style sampled simulation: WINDOWS detail windows of "
        "DETAIL accesses/thread, fast-forwarding ~FF accesses/thread "
        "between them (0 = derive from run length) after WARMUP "
        "functional warming",
        "SPEC");
    parser.option("checkpoint", &checkpointSave,
                  "save a checkpoint of the warmed functional state to "
                  "FILE, then keep running");
    parser.option("restore", &checkpointRestore,
                  "restore warmed state from FILE instead of re-warming "
                  "(config fingerprint must match)");
    parser.option(
        "fault-seed",
        [this](const std::string &value) {
            std::uint64_t seed = 0;
            if (!sim::parseUnsigned(value, seed))
                return false;
            faultSeed = seed;
            return true;
        },
        "override the fault plan's random seed", "N");
    parser.check([this]() -> std::string {
        return faultSeed && !faultPlan
                   ? "--fault-seed needs --fault-plan (there is no "
                     "plan whose seed it could override)"
                   : "";
    });
}

/**
 * Run @p body and return what it returns. A FatalError it raises
 * (invalid user input: a missing or mismatched checkpoint, an
 * unwritable path, a malformed trace) prints its message after
 * @p program and exits 2 instead of aborting; a PanicError, a
 * simulator bug, still propagates.
 */
template <typename F>
decltype(auto)
exitOnFatal(const std::string &program, F &&body)
{
    try {
        return body();
    } catch (const FatalError &err) {
        std::fprintf(stderr, "%s: %s\n", program.c_str(), err.what());
        std::exit(2);
    }
}

/** One simulation of a sweep: a configuration plus its run length. */
struct SimJob
{
    cpu::SystemConfig config;
    std::uint64_t accesses = defaultAccesses;
};

/**
 * Speedup of @p other against a private-L2-TLB @p baseline, as the
 * ratio of mean thread finish times. A sampled run's meanCycles
 * includes its nominal fast-forward advance, so the ratio would be
 * wrong: a sampled result on either side exits 2.
 */
inline double
speedupVsPrivate(const cpu::RunResult &baseline,
                 const cpu::RunResult &other)
{
    if (baseline.sampled || other.sampled) {
        std::fprintf(stderr,
                     "error: speedups need full-detail runs, and --sample "
                     "inflates mean cycles with its fast-forward "
                     "advance\n");
        std::exit(2);
    }
    return other.meanCycles > 0 ? baseline.meanCycles / other.meanCycles
                                : 0.0;
}

/** One row of a figure: a private-L2-TLB baseline and the variants
 * compared against it. */
struct VsPrivateRow
{
    SimJob baseline;
    std::vector<SimJob> variants;
};

/**
 * The row comparing organizations @p kinds with private L2 TLBs on
 * @p config: the baseline is @p config as a private organization, each
 * variant @p config as one of @p kinds, all run for @p accesses.
 */
inline VsPrivateRow
orgsRow(cpu::SystemConfig config, std::uint64_t accesses,
        const std::vector<core::OrgKind> &kinds)
{
    VsPrivateRow row;
    for (core::OrgKind kind : kinds) {
        config.org.kind = kind;
        row.variants.push_back({config, accesses});
    }
    config.org.kind = core::OrgKind::Private;
    row.baseline = {std::move(config), accesses};
    return row;
}

/** The results of one VsPrivateRow. */
struct VsPrivateResult
{
    cpu::RunResult baseline;
    std::vector<cpu::RunResult> variants;

    /** Speedup of variant @p i over the baseline. */
    double
    speedup(std::size_t i) const
    {
        return speedupVsPrivate(baseline, variants.at(i));
    }
};

/** Min, mean and max of one column over a range of rows. */
struct ColumnSummary
{
    double min = std::numeric_limits<double>::infinity();
    double mean = 0;
    double max = -std::numeric_limits<double>::infinity();
};

/**
 * Summary of @p value (one number per row) over @p rows. The mean adds
 * value / n row by row, in row order -- the sum the figures have always
 * printed, so an average keeps every digit.
 */
template <typename Rows, typename Value>
ColumnSummary
summarize(const Rows &rows, Value value)
{
    ColumnSummary summary;
    const double n = static_cast<double>(std::size(rows));
    for (const auto &row : rows) {
        const double v = value(row);
        summary.min = std::min(summary.min, v);
        summary.max = std::max(summary.max, v);
        summary.mean += v / n;
    }
    return summary;
}

/** summarize() of variant @p k's speedups. */
inline ColumnSummary
speedupSummary(const std::vector<VsPrivateResult> &rows, std::size_t k)
{
    return summarize(rows, [k](const VsPrivateResult &row) {
        return row.speedup(k);
    });
}

/**
 * Workers for a sweep: @p requested (0 = NOCSTAR_JOBS, then hardware
 * concurrency) capped at the host's @p hardware threads, at least 1.
 * More workers than hardware threads only contend, and an unbounded
 * count would exhaust the process's threads before the first run.
 */
inline unsigned
sweepWorkers(unsigned requested, unsigned hardware)
{
    const unsigned wanted = requested ? requested : sim::defaultJobs();
    return std::min(wanted, std::max(hardware, 1u));
}

/** The command line of a sweep bench: run length, pool size, and the
 * run options it shares with examples/simulate. */
struct BenchArgs
{
    std::uint64_t accesses;
    /** --jobs N; 0 = NOCSTAR_JOBS, then hardware concurrency. */
    unsigned jobs = 0;
    RunOptions run = {};
};

/**
 * Build a parser preloaded with the standard bench surface: the
 * optional ACCESSES positional (unless @p with_accesses is false),
 * --jobs, and every RunOptions flag, all writing into @p args. Benches
 * with extra knobs add their own specs to the returned parser, then
 * call parseOrExit().
 */
inline ArgParser
makeBenchParser(int argc, char **argv, const std::string &description,
                BenchArgs &args, bool with_accesses = true)
{
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
    parser.option("jobs", &args.jobs,
                  "parallel sweep workers (default: NOCSTAR_JOBS, "
                  "then hardware concurrency)");
    args.run.addTo(parser);
    return parser;
}

/**
 * The standard bench command line: `[ACCESSES] [--jobs N]` plus the
 * run options, with auto-generated --help. Unknown flags and
 * non-numeric values are fatal (exit 2).
 */
inline BenchArgs
parseBenchArgs(int argc, char **argv, std::uint64_t default_accesses,
               const std::string &description = "")
{
    BenchArgs args{default_accesses};
    ArgParser parser = makeBenchParser(argc, argv, description, args);
    parser.parseOrExit(argc, argv);
    return args;
}

/**
 * Refuse @p flag on a bench that sets @p axis per row itself: the
 * run-wide option would override every row, whatever its label says.
 * @p parser must stay where it is until it has parsed.
 */
inline void
rejectSweptFlag(ArgParser &parser, const std::string &flag,
                const std::string &axis)
{
    parser.check([&parser, flag, axis]() -> std::string {
        if (!parser.seen(flag))
            return "";
        return "--" + flag + " is not accepted here: this bench sets " +
               axis + " per row itself";
    });
}

/**
 * Stop the structured-trace recorder and write what it captured as
 * Chrome trace JSON to @p path, or `<name>_trace.json` when @p path is
 * empty. The file is written even when nothing was captured, so
 * `--trace-out FILE` always leaves FILE behind.
 */
inline void
exportTrace(const std::string &name, const std::string &path)
{
    const std::string file = path.empty() ? name + "_trace.json" : path;
    sim::TraceRecorder &rec = sim::TraceRecorder::global();
    rec.stop();
    if (rec.exportChromeJson(file))
        std::fprintf(stderr,
                     "[%s] wrote %llu trace events to %s "
                     "(%llu dropped)\n",
                     name.c_str(),
                     static_cast<unsigned long long>(rec.size()),
                     file.c_str(),
                     static_cast<unsigned long long>(rec.dropped()));
    else
        std::fprintf(stderr, "[%s] cannot write %s\n", name.c_str(),
                     file.c_str());
}

/**
 * The one way a bench runs simulations: the run options, the worker
 * pool, and wall-clock accounting for one bench. On finish() (or
 * destruction) it prints a summary to stderr, writes BENCH_<name>.json
 * into the working directory and exports the --trace capture.
 */
class SweepHarness
{
  public:
    /**
     * @p jobs sizes the pool through sweepWorkers(). --trace forces one
     * worker: the structured recorder is one process-wide ring, so
     * concurrent simulations would interleave their events.
     */
    SweepHarness(std::string name, RunOptions options, unsigned jobs)
        : name_(std::move(name)), options_(std::move(options)),
          pool_(options_.trace
                    ? 1
                    : sweepWorkers(jobs,
                                   std::thread::hardware_concurrency())),
          start_(std::chrono::steady_clock::now())
    {
        if (options_.trace) {
            if (jobs > 1)
                std::fprintf(stderr, "note: --trace forces --jobs 1\n");
            sim::TraceRecorder::global().start();
        } else if (const unsigned wanted = jobs ? jobs : sim::defaultJobs();
                   this->jobs() < wanted) {
            std::fprintf(stderr,
                         "note: %u jobs capped at the host's %u hardware "
                         "threads\n",
                         wanted, this->jobs());
        }
    }

    ~SweepHarness() { finish(); }

    SweepHarness(const SweepHarness &) = delete;
    SweepHarness &operator=(const SweepHarness &) = delete;

    unsigned jobs() const { return pool_.size() > 0 ? pool_.size() : 1; }

    /**
     * @p config with the run options applied and validated: the step
     * runMany() takes for every job, for the callers that must hold
     * the cpu::System themselves. Exits 2 on an invalid config.
     */
    cpu::SystemConfig
    prepare(const cpu::SystemConfig &config) const
    {
        return prepare(std::vector<SimJob>{SimJob{config}}).front().config;
    }

    /**
     * Run every job on the pool; results are returned in input order,
     * so downstream printing is independent of the job count. All
     * configurations are validated up front, so a bad sweep reports
     * every problem and exits before burning any simulation time. A
     * single job always runs on the calling thread. A FatalError from
     * any job (the pool rethrows it here) exits 2 with its message.
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
        std::vector<SimJob> applied = prepare(jobs);
        const bool split_stats =
            !options_.statsJson.empty() && pool_.size() > 1;
        if (split_stats)
            for (std::size_t i = 0; i < applied.size(); ++i)
                applied[i].config.statsJsonPath =
                    options_.statsJson + ".tmp" +
                    std::to_string(simIndex_ + i);
        auto results = exitOnFatal(name_, [&] {
            return pool_.map(applied, [](const SimJob &job) {
                cpu::System system(job.config);
                return system.run(job.accesses);
            });
        });
        if (split_stats)
            mergeStatsTemps(applied);
        simIndex_ += jobs.size();
        simsRun_ += results.size();
        for (const cpu::RunResult &r : results)
            simCycles_ += r.cycles;
        return results;
    }

    /**
     * Run @p rows -- one VsPrivateRow, or a std::vector of them nested
     * to any depth -- as one sweep and return the same shape with each
     * row's VsPrivateResult. The jobs are laid out row by row (the
     * baseline, then its variants) in the order the rows are given, so
     * --stats-json lines follow that order.
     */
    template <typename Rows>
    auto
    runVsPrivate(const Rows &rows)
    {
        std::vector<SimJob> jobs;
        layOut(rows, jobs);
        std::vector<cpu::RunResult> results = runMany(jobs);
        auto next = results.begin();
        return pairUp(rows, next);
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

        if (options_.trace)
            exportTrace(name_, options_.traceOut);
    }

  private:
    using ResultIt = std::vector<cpu::RunResult>::iterator;

    static void
    layOut(const VsPrivateRow &row, std::vector<SimJob> &jobs)
    {
        jobs.push_back(row.baseline);
        jobs.insert(jobs.end(), row.variants.begin(), row.variants.end());
    }

    template <typename Rows>
    static void
    layOut(const std::vector<Rows> &rows, std::vector<SimJob> &jobs)
    {
        for (const Rows &row : rows)
            layOut(row, jobs);
    }

    /** Take @p row's results from @p next, in layOut() order. */
    static VsPrivateResult
    pairUp(const VsPrivateRow &row, ResultIt &next)
    {
        VsPrivateResult result{std::move(*next++), {}};
        for (std::size_t i = 0; i < row.variants.size(); ++i)
            result.variants.push_back(std::move(*next++));
        return result;
    }

    template <typename Rows>
    static auto
    pairUp(const std::vector<Rows> &rows, ResultIt &next)
    {
        std::vector<decltype(pairUp(std::declval<const Rows &>(), next))>
            results;
        for (const Rows &row : rows)
            results.push_back(pairUp(row, next));
        return results;
    }

    /** Lay the run options over every job and validate the lot;
     * exits 2 listing every problem. */
    std::vector<SimJob>
    prepare(const std::vector<SimJob> &jobs) const
    {
        std::vector<SimJob> applied;
        applied.reserve(jobs.size());
        std::vector<std::string> errors;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            cpu::SystemConfig cfg = options_.apply(jobs[i].config);
            for (const std::string &e : cfg.validate())
                errors.push_back("job #" + std::to_string(i) + ": " +
                                 e);
            applied.push_back(SimJob{std::move(cfg), jobs[i].accesses});
        }
        if (!errors.empty()) {
            for (const std::string &e : errors)
                std::fprintf(stderr, "[%s] invalid config: %s\n",
                             name_.c_str(), e.c_str());
            std::exit(2);
        }
        return applied;
    }

    /** Concatenate the per-sim stats temp files onto the shared sink
     * in input order, then remove them. */
    void
    mergeStatsTemps(const std::vector<SimJob> &applied)
    {
        const std::string &sink = options_.statsJson;
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
    RunOptions options_;
    sim::ThreadPool pool_;
    std::chrono::steady_clock::time_point start_;
    /** Sweep-wide sim counter: unique temp-file suffixes across
     * multiple runMany() calls. */
    std::uint64_t simIndex_ = 0;
    std::uint64_t simsRun_ = 0;
    std::uint64_t simCycles_ = 0;
    bool finished_ = false;
};

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

/**
 * The table most speedup figures print: a header of @p columns, one row
 * of variant speedups per paper workload (@p rows in paperWorkloads()
 * order) and an `average` row.
 */
inline void
printWorkloadTable(const std::vector<std::string> &columns,
                   const std::vector<VsPrivateResult> &rows)
{
    printHeader("workload", columns);
    std::vector<double> averages;
    for (std::size_t k = 0; k < columns.size(); ++k)
        averages.push_back(speedupSummary(rows, k).mean);
    for (std::size_t w = 0; w < rows.size(); ++w) {
        std::vector<double> speedups;
        for (std::size_t k = 0; k < columns.size(); ++k)
            speedups.push_back(rows[w].speedup(k));
        printRow(workload::paperWorkloads().at(w).name, speedups);
    }
    printRow("average", averages);
}

} // namespace nocstar::bench

#endif // NOCSTAR_BENCH_COMMON_HH
