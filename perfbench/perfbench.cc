/**
 * @file
 * Simulator benchmark: host throughput of two workloads on the
 * single-queue engine, plus a per-layer ledger taken from outside the
 * simulator.
 *
 * An untraced run (--trace 0) builds and runs a fresh cpu::System of
 * each of the workload's simulator seeds, round after round, for
 * --seconds, and reports accesses per host second (fast tail, see
 * fastTail()), the median set-up time, the peak RSS and the simulated
 * IPC. Every run is checked (see Checks).
 *
 * A traced run (--trace 1) checks two untraced rounds, then makes at
 * least five traced rounds. Each round runs the workload with spans
 * around set-up and run, and then replays the workload's own address
 * stream through each simulator layer's public functions on the warmed
 * System that run left behind. Each replay is timed from here, so the
 * simulator needs no instrumentation; its ns per call times the number
 * of calls the run made gives the layer's share of run time (see
 * README.md).
 *
 * Usage:
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--smoke] [--out-dir DIR] [--source-digest HEX]
 *
 * The last line of stdout is one JSON object with the keys correct,
 * attempted, failed and metrics. A failed check exits 1.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/interconnect.hh"
#include "core/nocstar_org.hh"
#include "cpu/system.hh"
#include "mem/cache_model.hh"
#include "mem/page_walker.hh"
#include "noc/topology.hh"
#include "sim/build_info.hh"
#include "sim/event_queue.hh"
#include "workload/generator.hh"
#include "workload/spec.hh"

using namespace nocstar;

namespace
{

using Clock = std::chrono::steady_clock;

double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** Keeps replay results observable so no timed loop is elided. */
volatile std::uint64_t g_sink = 0;

/** Linearly interpolated @p q-quantile (0 <= q <= 1) of @p v. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    auto lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/**
 * Host time of repeated identical work: its 10th percentile. Other
 * tenants of a shared host only ever slow this process down (on a
 * shared 4-core cloud VM, by up to 40 % for tens of seconds), so the
 * fast tail tracks the simulator's own speed where the median tracks
 * the neighbours' load.
 */
double
fastTail(const std::vector<double> &times)
{
    return quantile(times, 0.1);
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

struct Workload
{
    const char *name;
    /**
     * Simulator seeds one benchmark seed stands for. The mix's chip IPC
     * and host rate move by ~20 % from one simulator seed to the next
     * (the seed decides which 2 MB regions, among them each thread's
     * hot pool, are superpage-backed), so one mix input is 48 seeds.
     * The storm varies ~2 % per seed and keeps one, which is then the
     * benchmark seed itself, as `simulate --seed` takes it.
     */
    unsigned subSeeds;
    /** Accesses per thread of one timed run (one simulator seed). */
    std::uint64_t accesses;
    /** Accesses per thread replayed through the layers (traced run). */
    std::uint64_t replayAccesses;
    cpu::SystemConfig (*make)(std::uint64_t seed);

    /**
     * Simulator seed @p j (< subSeeds) of benchmark seed @p seed. The
     * page table XORs the seed into region keys, so nearby seeds back
     * nearby regions alike; a splitmix64 step keeps sub-seeds apart.
     */
    std::uint64_t
    simSeed(std::uint64_t seed, unsigned j) const
    {
        if (subSeeds == 1)
            return seed;
        std::uint64_t z = seed * subSeeds + j + 0x9e3779b97f4a7c15ULL;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
};

/** Fig 18 mix: graph500, datacaching, nutch, mongodb; 32 private L2s. */
cpu::SystemConfig
mixConfig(std::uint64_t seed)
{
    cpu::SystemConfig config;
    config.org.kind = core::OrgKind::Private;
    config.org.numCores = 32;
    config.org.banks = 4;
    for (std::size_t w : {0, 3, 6, 9}) {
        cpu::AppConfig app;
        app.spec = workload::paperWorkloads().at(w);
        app.threads = 8;
        config.apps.push_back(std::move(app));
    }
    config.seed = seed;
    return config;
}

/**
 * gups on 64-core NOCSTAR, 4 KB pages only, plus the TLB storm (Fig 19):
 * what `simulate --org nocstar --cores 64 --workload gups
 * --no-superpages --storm` runs.
 */
cpu::SystemConfig
stormConfig(std::uint64_t seed)
{
    cpu::SystemConfig config;
    config.org.kind = core::OrgKind::Nocstar;
    config.org.numCores = 64;
    config.org.banks = 8;
    config.apps.push_back(cpu::AppConfig{workload::findWorkload("gups"),
                                         64, {}});
    config.superpages = false;
    config.seed = seed;
    config.contextSwitchInterval = 50000;
    config.stormRemapInterval = 5000;
    return config;
}

const Workload kWorkloads[] = {
    {"mix32-private", 48, 5000, 20000, mixConfig},
    {"storm64-nocstar", 1, 4000, 2000, stormConfig},
};

/** A hardware thread as System places it (app-major, slot % cores). */
struct ThreadInfo
{
    ContextId ctx;
    unsigned indexInApp;
    CoreId core;
    const workload::WorkloadSpec *spec;
};

std::vector<ThreadInfo>
threadLayout(const cpu::SystemConfig &config)
{
    std::vector<ThreadInfo> threads;
    unsigned slot = 0;
    for (std::size_t a = 0; a < config.apps.size(); ++a)
        for (unsigned t = 0; t < config.apps[a].threads; ++t, ++slot)
            threads.push_back({static_cast<ContextId>(a), t,
                               static_cast<CoreId>(slot %
                                                   config.org.numCores),
                               &config.apps[a].spec});
    return threads;
}

// ---------------------------------------------------------------------
// Correctness checks
// ---------------------------------------------------------------------

/** Every RunResult field a run determines, rendered exactly. */
std::string
fingerprint(const cpu::RunResult &r)
{
    std::ostringstream os;
    os.precision(17);
    os << r.cycles << ' ' << r.meanCycles << ' ' << r.instructions << ' '
       << r.ipc << ' ' << r.l1Accesses << ' ' << r.l1Misses << ' '
       << r.l2Accesses << ' ' << r.l2Hits << ' ' << r.l2Misses << ' '
       << r.walks << ' ' << r.avgL2AccessLatency << ' '
       << r.avgWalkLatency << ' ' << r.l2MissRate << ' ' << r.energyPj
       << ' ' << r.beyondL2Fraction << ' ' << r.fabricAvgLatency << ' '
       << r.fabricNoContention << ' ' << r.fabricSetupAttempts << ' '
       << r.fabricSetupFailures << ' ' << r.shootdowns << ' '
       << r.avgShootdownLatency;
    for (Cycle c : r.appCycles)
        os << ' ' << c;
    for (double v : r.appIpc)
        os << ' ' << v;
    for (double v : r.concurrencyBuckets)
        os << ' ' << v;
    for (double v : r.sliceConcurrencyBuckets)
        os << ' ' << v;
    return os.str();
}

/**
 * Per-run invariants: every thread issued its quota, the L2 outcome
 * counts add up, misses never exceed accesses, and every run of one
 * config and seed in this process yields the identical RunResult.
 */
class Checks
{
  public:
    Checks(std::uint64_t threads, std::uint64_t accesses, unsigned seeds)
        : expectedAccesses_(threads * accesses), reference_(seeds)
    {}

    /** Check @p r, a run of simulator seed number @p seed. */
    void
    check(const cpu::RunResult &r, unsigned seed, const char *what)
    {
        ++attempted_;
        std::vector<std::string> bad;
        if (r.l1Accesses != expectedAccesses_)
            bad.push_back("l1Accesses " + std::to_string(r.l1Accesses) +
                          " != threads x accesses " +
                          std::to_string(expectedAccesses_));
        if (r.l2Hits + r.l2Misses != r.l2Accesses)
            bad.push_back("l2Hits + l2Misses != l2Accesses");
        if (r.l1Misses > r.l1Accesses)
            bad.push_back("l1Misses > l1Accesses");
        std::string fp = fingerprint(r);
        if (reference_.at(seed).empty())
            reference_[seed] = fp;
        else if (fp != reference_[seed])
            bad.push_back("RunResult differs from the first run of the "
                          "same config and seed");
        if (!bad.empty()) {
            ++failed_;
            for (const std::string &b : bad)
                std::fprintf(stderr, "check failed (%s run %llu): %s\n",
                             what,
                             static_cast<unsigned long long>(attempted_),
                             b.c_str());
        }
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

  private:
    std::uint64_t expectedAccesses_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    /** Fingerprint of the first run of each simulator seed. */
    std::vector<std::string> reference_;
};

// ---------------------------------------------------------------------
// Timed runs
// ---------------------------------------------------------------------

struct TimedRun
{
    cpu::RunResult result;
    double setupSeconds = 0;
    double runSeconds = 0;
};

std::unique_ptr<cpu::System>
buildSystem(const cpu::SystemConfig &config)
{
    if (std::vector<std::string> errors = config.validate();
        !errors.empty()) {
        for (const std::string &e : errors)
            std::fprintf(stderr, "invalid config: %s\n", e.c_str());
        std::exit(2);
    }
    return std::make_unique<cpu::System>(config);
}

/** set-up = validate() + construction; run = System::run(). The
 * System is destroyed outside both timings. */
TimedRun
timedRun(const cpu::SystemConfig &config, std::uint64_t accesses)
{
    TimedRun out;
    Clock::time_point t0 = Clock::now();
    std::unique_ptr<cpu::System> system = buildSystem(config);
    Clock::time_point t1 = Clock::now();
    out.result = system->run(accesses);
    Clock::time_point t2 = Clock::now();
    out.setupSeconds = seconds(t0, t1);
    out.runSeconds = seconds(t1, t2);
    return out;
}

// ---------------------------------------------------------------------
// Spans (traced run only), kept in memory, written as Chrome JSON
// ---------------------------------------------------------------------

class SpanLog
{
  public:
    explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

    void
    add(const std::string &name, Clock::time_point start,
        Clock::time_point end, std::uint64_t calls)
    {
        spans_.push_back({name, seconds(origin_, start) * 1e6,
                          seconds(start, end) * 1e6, calls});
    }

    bool
    writeChromeJson(const std::string &path,
                    const std::string &metadata) const
    {
        std::ofstream out(path);
        if (!out)
            return false;
        out << "{\"displayTimeUnit\":\"ns\",\"metadata\":" << metadata
            << ",\"traceEvents\":[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            char buf[256];
            std::snprintf(buf, sizeof(buf),
                          "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                          "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                          "\"args\":{\"calls\":%llu}}",
                          i ? "," : "", s.name.c_str(), s.startUs,
                          s.durUs,
                          static_cast<unsigned long long>(s.calls));
            out << buf;
        }
        out << "]}\n";
        return static_cast<bool>(out);
    }

  private:
    struct Span
    {
        std::string name;
        double startUs;
        double durUs;
        std::uint64_t calls;
    };

    Clock::time_point origin_;
    std::vector<Span> spans_;
};

// ---------------------------------------------------------------------
// Per-layer replays on the warmed System of the traced run
// ---------------------------------------------------------------------

/** One layer replay: calls per repetition and its host seconds. */
struct LayerTiming
{
    std::uint64_t calls = 0;
    double seconds = 0;

    double nsPerCall() const { return calls ? seconds * 1e9 / calls : 0; }
};

struct Miss
{
    std::uint32_t thread;
    Addr vaddr;
};

class LayerReplay
{
  public:
    LayerReplay(cpu::System &system, const cpu::RunResult &run,
                std::uint64_t replay_accesses, SpanLog &spans)
        : sys_(system), config_(system.config()), run_(run),
          threads_(threadLayout(system.config())),
          replayAccesses_(replay_accesses), spans_(spans)
    {}

    /**
     * workload.gen: AccessGenerator::nextBatch in batches of 16, as the
     * System draws them, over fresh generators of the run's streams.
     * Keeps the addresses as the stream every other replay uses.
     */
    LayerTiming
    generate()
    {
        std::vector<std::unique_ptr<workload::AccessGenerator>> gens;
        for (const ThreadInfo &t : threads_)
            gens.push_back(std::make_unique<workload::AccessGenerator>(
                *t.spec, t.ctx, t.indexInApp, config_.seed));
        streams_.assign(threads_.size(),
                        std::vector<Addr>(replayAccesses_, 0));
        Clock::time_point t0 = Clock::now();
        for (std::size_t t = 0; t < threads_.size(); ++t) {
            workload::AddressSource &src = *gens[t];
            Addr *out = streams_[t].data();
            for (std::uint64_t i = 0; i < replayAccesses_; i += 16)
                src.nextBatch(out + i,
                              static_cast<std::size_t>(std::min<
                                  std::uint64_t>(16,
                                                 replayAccesses_ - i)));
        }
        return finish("workload.gen", t0, accessCount());
    }

    /** mem.pt_translate: PageTable::translate in issue order. */
    LayerTiming
    pageTableTranslate()
    {
        mem::PageTable &pt = sys_.pageTable();
        std::uint64_t sink = 0;
        Clock::time_point t0 = Clock::now();
        for (std::uint64_t i = 0; i < replayAccesses_; ++i)
            for (std::size_t t = 0; t < threads_.size(); ++t)
                sink += pt.translate(threads_[t].ctx, streams_[t][i]).ppn;
        g_sink = g_sink + sink;
        return finish("mem.pt_translate", t0, accessCount());
    }

    /** tlb.l1_probe: L1TlbGroup::touchAnySize on each thread's core. */
    LayerTiming
    l1Probe()
    {
        std::vector<tlb::L1TlbGroup *> l1;
        for (const ThreadInfo &t : threads_)
            l1.push_back(&sys_.l1Of(t.core));
        std::uint64_t hits = 0;
        Clock::time_point t0 = Clock::now();
        for (std::uint64_t i = 0; i < replayAccesses_; ++i)
            for (std::size_t t = 0; t < threads_.size(); ++t)
                hits += l1[t]->touchAnySize(threads_[t].ctx,
                                            streams_[t][i]) != nullptr;
        g_sink = g_sink + hits;
        return finish("tlb.l1_probe", t0, accessCount());
    }

    /**
     * sim.stats_record: what System::step records per access besides
     * the L1 probe's own counters: one Scalar increment, one energy
     * model L1 lookup and one bypass-streak Distribution sample, on
     * stats of the System's kinds.
     */
    LayerTiming
    statsRecord()
    {
        stats::StatGroup group("bench_stats");
        stats::Scalar accesses(&group, "accesses", "accesses");
        stats::Distribution streaks(&group, "streaks", "streaks", 0, 63,
                                    1);
        energy::TranslationEnergyModel energy;
        const std::uint64_t calls = accessCount();
        Clock::time_point t0 = Clock::now();
        for (std::uint64_t i = 0; i < calls; ++i) {
            ++accesses;
            energy.addL1Lookup();
            streaks.sample(static_cast<double>(i & 1));
        }
        g_sink = g_sink + static_cast<std::uint64_t>(
                              accesses.value() + energy.totalPj() +
                              streaks.mean());
        return finish("sim.stats_record", t0, calls);
    }

    /**
     * Untimed: the stream's L1 misses, found by probing and refilling
     * the run's own L1 groups in issue order as System::step does.
     */
    void
    deriveMisses()
    {
        mem::PageTable &pt = sys_.pageTable();
        for (std::uint64_t i = 0; i < replayAccesses_; ++i) {
            for (std::size_t t = 0; t < threads_.size(); ++t) {
                const ThreadInfo &th = threads_[t];
                Addr vaddr = streams_[t][i];
                tlb::L1TlbGroup &l1 = sys_.l1Of(th.core);
                if (l1.touchAnySize(th.ctx, vaddr))
                    continue;
                misses_.push_back({static_cast<std::uint32_t>(t), vaddr});
                mem::Translation tr = pt.translate(th.ctx, vaddr);
                tlb::TlbEntry entry;
                entry.valid = true;
                entry.size = tr.size;
                entry.vpn = pageNumber(vaddr, tr.size);
                entry.ppn = tr.ppn;
                entry.ctx = th.ctx;
                l1.insert(entry);
            }
        }
    }

    /**
     * sim.eventq_dispatch: what System::step asks of the queue per
     * dispatch -- quietUntil, schedule, then the dispatch itself --
     * over one self-rescheduling event per hardware thread, spaced by
     * the run's mean cycles between step dispatches.
     */
    LayerTiming
    eventQueue(std::uint64_t run_dispatches)
    {
        struct Ticker : Event
        {
            EventQueue *queue = nullptr;
            std::uint64_t *budget = nullptr;
            std::uint64_t quiet = 0;
            Cycle gap = 1;
            Cycle odd = 0;

            void
            process() override
            {
                if (*budget == 0)
                    return;
                --*budget;
                odd ^= 1;
                Cycle next = queue->curCycle() + gap + odd;
                quiet += queue->quietUntil(next);
                queue->schedule(this, next);
            }
        };

        double per_thread = static_cast<double>(run_dispatches) /
                            static_cast<double>(threads_.size());
        auto gap = static_cast<Cycle>(std::max(
            1.0, run_.meanCycles / std::max(1.0, per_thread)));
        std::uint64_t budget = accessCount();
        EventQueue queue;
        std::deque<Ticker> tickers(threads_.size());
        for (std::size_t t = 0; t < tickers.size(); ++t) {
            tickers[t].queue = &queue;
            tickers[t].budget = &budget;
            tickers[t].gap = gap;
            queue.schedule(&tickers[t], t % 8);
        }
        Clock::time_point t0 = Clock::now();
        std::uint64_t processed = queue.run();
        LayerTiming timing = finish("sim.eventq_dispatch", t0, processed);
        for (const Ticker &t : tickers)
            g_sink = g_sink + t.quiet;
        return timing;
    }

    /**
     * core.translate: TlbOrganization::translate plus the queue drain
     * on the run's own organization and queue, closed loop: each thread
     * re-issues its next L1 miss the run's mean miss gap after the last
     * one completed, so the fabric sees the run's injection rate. The
     * re-issue event is the harness's, so its dispatch cost (sim.eventq
     * @p dispatch_ns) is taken out. Collects the misses that walked, for
     * walk().
     */
    LayerTiming
    translate(double dispatch_ns)
    {
        core::TlbOrganization &org = sys_.organization();
        EventQueue &queue = sys_.queue();
        double misses_per_thread = static_cast<double>(run_.l1Misses) /
                                   static_cast<double>(threads_.size());
        double cycles_per_miss =
            run_.meanCycles / std::max(1.0, misses_per_thread);
        Cycle gap = static_cast<Cycle>(
            std::max(1.0, cycles_per_miss - run_.avgL2AccessLatency));

        struct Loop
        {
            LayerReplay *self;
            core::TlbOrganization *org;
            EventQueue *queue;
            Cycle gap;
            std::vector<std::vector<Addr>> perThread;
            std::vector<std::size_t> next;
            std::uint64_t issued = 0;

            void
            issue(std::uint32_t t)
            {
                if (next[t] == perThread[t].size())
                    return;
                Addr vaddr = perThread[t][next[t]++];
                const ThreadInfo &th = self->threads_[t];
                ++issued;
                org->translate(
                    th.core, th.ctx, vaddr, queue->curCycle(),
                    [this, t, vaddr](const core::TranslationResult &r) {
                        if (r.walked)
                            self->walked_.push_back({t, vaddr});
                        Cycle at = std::max(r.completedAt,
                                            queue->curCycle()) + gap;
                        queue->scheduleLambda(at,
                                              [this, t] { issue(t); });
                    });
            }
        };

        Loop loop{this, &org, &queue, gap, {}, {}, 0};
        loop.perThread.resize(threads_.size());
        loop.next.assign(threads_.size(), 0);
        for (const Miss &m : misses_)
            loop.perThread[m.thread].push_back(m.vaddr);

        core::Interconnect *fabric = fabricOf(org);
        double attempts0 = fabric ? fabric->setupAttempts.value() : 0;
        double failures0 = fabric ? fabric->setupFailures.value() : 0;

        Clock::time_point t0 = Clock::now();
        for (std::uint32_t t = 0; t < threads_.size(); ++t)
            queue.scheduleLambda(queue.curCycle() + t % 8,
                                 [&loop, t] { loop.issue(t); });
        queue.run();
        LayerTiming timing = finish("core.translate", t0, loop.issued);
        timing.seconds = std::max(
            0.0, timing.seconds -
                     static_cast<double>(loop.issued) * dispatch_ns * 1e-9);

        if (fabric) {
            double attempts = fabric->setupAttempts.value() - attempts0;
            double failures = fabric->setupFailures.value() - failures0;
            replayRetryRate_ = attempts > 0 ? failures / attempts : 0;
        }
        return timing;
    }

    /**
     * mem.walk: PageTableWalker::walk (cache model included) over the
     * misses the translate replay walked, on fresh walkers and caches
     * over the run's page table, warmed by one untimed pass. Each
     * walker's clock advances by the run's mean cycles between walks
     * per core. Passes repeat until @p min_calls walks.
     */
    LayerTiming
    walk(std::uint64_t min_calls)
    {
        if (walked_.empty())
            return {};
        unsigned cores = config_.org.numCores;
        mem::CacheModel caches("bench_caches", cores, config_.caches);
        std::vector<std::unique_ptr<mem::PageTableWalker>> walkers;
        for (CoreId c = 0; c < cores; ++c)
            walkers.push_back(std::make_unique<mem::PageTableWalker>(
                "bench_walker" + std::to_string(c), c, sys_.pageTable(),
                caches, config_.walker));
        double walks_per_core = static_cast<double>(run_.walks) / cores;
        auto gap = static_cast<Cycle>(std::max(
            1.0, run_.meanCycles / std::max(1.0, walks_per_core)));
        std::vector<Cycle> now(cores, sys_.queue().curCycle());
        auto pass = [&] {
            for (const Miss &m : walked_) {
                const ThreadInfo &th = threads_[m.thread];
                mem::WalkResult r = walkers[th.core]->walk(
                    th.ctx, m.vaddr, th.core, now[th.core]);
                now[th.core] += gap;
                g_sink = g_sink + r.walkLatency;
            }
        };
        pass();
        std::uint64_t calls = 0;
        Clock::time_point t0 = Clock::now();
        do {
            pass();
            calls += walked_.size();
        } while (calls < min_calls);
        return finish("mem.walk", t0, calls);
    }

    /**
     * core.fabric_send: Interconnect::send plus drain on a fresh
     * makeInterconnect fabric of the run's topology and config, driven
     * closed loop by the stream's core -> home-array pairs at the run's
     * per-core message rate (@p run_messages over the run). The
     * re-issue event's dispatch cost is taken out, as in translate().
     */
    LayerTiming
    fabricSend(double run_messages, double dispatch_ns)
    {
        core::TlbOrganization &org = sys_.organization();
        unsigned cores = config_.org.numCores;
        EventQueue queue;
        std::unique_ptr<core::Interconnect> fabric =
            core::makeInterconnect("bench_fabric", queue,
                                   noc::GridTopology::forCores(cores),
                                   config_.org);

        Cycle gap = 1;
        if (run_messages > 0)
            gap = static_cast<Cycle>(
                std::max(1.0, run_.meanCycles / (run_messages / cores) -
                                  run_.fabricAvgLatency));

        struct Loop
        {
            core::Interconnect *fabric;
            EventQueue *queue;
            Cycle gap;
            std::vector<std::vector<CoreId>> dsts;
            std::vector<std::size_t> next;
            std::uint64_t sent = 0;

            void
            send(CoreId src)
            {
                if (next[src] == dsts[src].size())
                    return;
                CoreId dst = dsts[src][next[src]++];
                ++sent;
                fabric->send(src, dst, queue->curCycle(),
                             [this, src](Cycle arrival) {
                                 Cycle at = std::max(arrival,
                                                     queue->curCycle()) +
                                            gap;
                                 queue->scheduleLambda(
                                     at, [this, src] { send(src); });
                             });
            }
        };

        Loop loop{fabric.get(), &queue, gap, {}, {}, 0};
        loop.dsts.resize(cores);
        loop.next.assign(cores, 0);
        for (const Miss &m : misses_) {
            CoreId src = threads_[m.thread].core;
            loop.dsts[src].push_back(
                static_cast<CoreId>(org.homeArrayOf(src, m.vaddr)));
        }
        Clock::time_point t0 = Clock::now();
        for (CoreId c = 0; c < cores; ++c)
            queue.scheduleLambda(c % 8, [&loop, c] { loop.send(c); });
        queue.run();
        LayerTiming timing = finish("core.fabric_send", t0, loop.sent);
        timing.seconds = std::max(
            0.0, timing.seconds -
                     static_cast<double>(loop.sent) * dispatch_ns * 1e-9);
        double attempts = fabric->setupAttempts.value();
        fabricSetupSuccess_ =
            attempts > 0 ? 1.0 - fabric->setupFailures.value() / attempts
                         : 1.0;
        return timing;
    }

    /**
     * core.shootdown: TlbOrganization::shootdown plus drain, in the
     * storm microbenchmark's pattern: ops of 16 pages of one 2 MB
     * region of the last context, every sharer core IPI'd.
     */
    LayerTiming
    shootdown(std::uint64_t calls)
    {
        core::TlbOrganization &org = sys_.organization();
        EventQueue &queue = sys_.queue();
        auto ctx = static_cast<ContextId>(config_.apps.size() - 1);
        std::vector<CoreId> sharers;
        for (const ThreadInfo &t : threads_)
            if (t.ctx == ctx &&
                std::find(sharers.begin(), sharers.end(), t.core) ==
                    sharers.end())
                sharers.push_back(t.core);
        std::uint64_t regions = std::max<std::uint64_t>(
            1, config_.apps.back().spec.warmPages / 512);
        constexpr unsigned perOp = 16;
        std::uint64_t done = 0;
        Clock::time_point t0 = Clock::now();
        for (std::uint64_t op = 0; done < calls; ++op) {
            Addr base = workload::AccessGenerator::sharedBase(ctx) +
                        ((op % regions) << pageShift(PageSize::TwoMB));
            for (unsigned m = 0; m < perOp; ++m)
                org.shootdown(sharers[m % sharers.size()], ctx,
                              base + (static_cast<Addr>(m)
                                      << pageShift(PageSize::FourKB)),
                              sharers, queue.curCycle(), nullptr);
            queue.run();
            done += perOp;
        }
        return finish("core.shootdown", t0, done);
    }

    /** core.flush: one flushAll plus every core's L1 invalidateAll,
     * as the context-switch event does, of the warm state. */
    LayerTiming
    flush()
    {
        core::TlbOrganization &org = sys_.organization();
        std::uint64_t n = 0;
        Clock::time_point t0 = Clock::now();
        org.flushAll();
        for (CoreId c = 0; c < config_.org.numCores; ++c)
            n += sys_.l1Of(c).invalidateAll();
        LayerTiming timing = finish("core.flush", t0, 1);
        g_sink = g_sink + n;
        return timing;
    }

    static core::Interconnect *
    fabricOf(core::TlbOrganization &org)
    {
        auto *nocstar = dynamic_cast<core::NocstarOrg *>(&org);
        return nocstar ? &nocstar->fabric() : nullptr;
    }

    std::size_t misses() const { return misses_.size(); }
    double replayRetryRate() const { return replayRetryRate_; }
    double fabricSetupSuccess() const { return fabricSetupSuccess_; }

  private:
    std::uint64_t
    accessCount() const
    {
        return replayAccesses_ * threads_.size();
    }

    /** Close the timing begun at @p t0 and log its span. */
    LayerTiming
    finish(const char *layer, Clock::time_point t0, std::uint64_t calls)
    {
        Clock::time_point t1 = Clock::now();
        spans_.add(std::string("replay ") + layer, t0, t1, calls);
        return {calls, seconds(t0, t1)};
    }

    cpu::System &sys_;
    const cpu::SystemConfig &config_;
    const cpu::RunResult &run_;
    std::vector<ThreadInfo> threads_;
    std::uint64_t replayAccesses_;
    SpanLog &spans_;

    /** streams_[thread][i]: the thread's i-th address. */
    std::vector<std::vector<Addr>> streams_;
    /** L1 misses of the stream, in issue order. */
    std::vector<Miss> misses_;
    /** Misses the first translate replay resolved by a page walk. */
    std::vector<Miss> walked_;
    double replayRetryRate_ = 0;
    double fabricSetupSuccess_ = 1;
};

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = 0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
               jsonNumber(metrics[i].value) + ", \"unit\": \"" +
               metrics[i].unit + "\"}";
    }
    return out + "}";
}

std::string
provenanceJson(const std::string &source_digest)
{
    return std::string("{\"git_sha\": \"") + build::kGitSha +
           "\", \"source_digest\": \"" + source_digest +
           "\", \"build_type\": \"" + build::kBuildType +
           "\", \"compiler\": \"" + build::kCompilerId + " " +
           build::kCompilerVersion + "\", \"host_cores\": " +
           std::to_string(std::thread::hardware_concurrency()) + "}";
}

double
peakRssMb()
{
    struct rusage usage;
    std::memset(&usage, 0, sizeof(usage));
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    int trace = 0;
    bool smoke = false;
    std::string outDir = ".";
    std::string sourceDigest = "unknown";
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME "
                 "--seed N --seconds S --trace 0|1 [--smoke] "
                 "[--out-dir DIR] [--source-digest HEX]\n",
                 msg);
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--smoke") {
            o.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            o.workload = value;
        } else if (arg == "--seed") {
            o.seed = std::strtoull(value.c_str(), &end, 10);
            have_seed = true;
        } else if (arg == "--seconds") {
            o.seconds = std::strtod(value.c_str(), &end);
        } else if (arg == "--trace") {
            o.trace = static_cast<int>(std::strtol(value.c_str(), &end,
                                                   10));
            if (o.trace != 0 && o.trace != 1)
                usage("--trace must be 0 or 1");
        } else if (arg == "--out-dir") {
            o.outDir = value;
        } else if (arg == "--source-digest") {
            o.sourceDigest = value;
        } else {
            usage(("unknown option " + arg).c_str());
        }
        if (end && *end != '\0')
            usage(("bad number for " + arg).c_str());
    }
    if (o.workload.empty() || !have_seed)
        usage("--workload and --seed are required");
    if (!(o.seconds > 0))
        usage("--seconds must be positive");
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseOptions(argc, argv);
    const Workload *wl = nullptr;
    for (const Workload &w : kWorkloads)
        if (opt.workload == w.name)
            wl = &w;
    if (!wl)
        usage(("unknown workload " + opt.workload).c_str());

    const std::uint64_t accesses = opt.smoke ? 300 : wl->accesses;
    const std::uint64_t replay = opt.smoke ? 200 : wl->replayAccesses;
    const unsigned sub_seeds = opt.smoke ? std::min(2u, wl->subSeeds)
                                         : wl->subSeeds;
    std::vector<cpu::SystemConfig> configs;
    for (unsigned j = 0; j < sub_seeds; ++j)
        configs.push_back(wl->make(wl->simSeed(opt.seed, j)));
    const cpu::SystemConfig &config = configs.front();
    const std::uint64_t threads = threadLayout(config).size();
    Checks checks(threads, accesses, sub_seeds);

    // Timed, untraced runs for --seconds. A round runs every simulator
    // seed once; at least two rounds, so the same-seed determinism check
    // always has a pair. --trace 1 makes just those two rounds: its
    // timings come from the traced rounds below.
    double budget = opt.trace ? 0 : opt.seconds;
    std::vector<std::vector<double>> rates(sub_seeds);
    std::vector<double> setups;
    std::vector<double> ipcs(sub_seeds, 0);
    cpu::RunResult first;
    std::size_t rounds = 0;
    Clock::time_point start = Clock::now();
    for (; rounds < 2 || seconds(start, Clock::now()) < budget; ++rounds) {
        for (unsigned j = 0; j < sub_seeds; ++j) {
            TimedRun r = timedRun(configs[j], accesses);
            checks.check(r.result, j, "timed");
            rates[j].push_back(static_cast<double>(r.result.l1Accesses) /
                               r.runSeconds);
            setups.push_back(r.setupSeconds);
            if (rounds == 0) {
                ipcs[j] = r.result.ipc;
                if (j == 0)
                    first = r.result;
            }
        }
    }
    // The rate of the whole input is its accesses over the time all its
    // seeds take, each seed timed by the 90th percentile of its rates
    // (the fast tail; see fastTail()).
    std::vector<double> seed_rates;
    double inverse_sum = 0, mean_ipc = 0;
    for (unsigned j = 0; j < sub_seeds; ++j) {
        seed_rates.push_back(quantile(rates[j], 0.9));
        inverse_sum += 1.0 / seed_rates.back();
        mean_ipc += ipcs[j] / static_cast<double>(sub_seeds);
    }
    const double untraced_rate =
        static_cast<double>(sub_seeds) / inverse_sum;

    std::printf("workload %s seed %llu: %zu rounds of %u simulator "
                "seed(s) x %llu accesses/thread x %llu threads\n",
                wl->name, static_cast<unsigned long long>(opt.seed),
                rounds, sub_seeds,
                static_cast<unsigned long long>(accesses),
                static_cast<unsigned long long>(threads));
    std::printf("provenance: %s\n",
                provenanceJson(opt.sourceDigest).c_str());

    std::vector<Metric> metrics;
    if (!opt.trace) {
        metrics = {
            {"accesses_per_s", untraced_rate, "accesses/s"},
            {"setup_s", median(setups), "s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"sim_ipc", mean_ipc, "insn/cycle"},
        };
    } else {
        // The traced rounds, of the first simulator seed (at least five,
        // and four seconds' worth). Each makes one untraced run, then
        // builds and runs a System with spans around set-up and run,
        // replays every layer on the System that leaves warmed, and
        // prewarms one more fresh System. Interleaving spreads every
        // sample over the whole traced period, so all fast tails come
        // from the same quiet spells of the host, and the untraced run
        // beside each traced one makes the tracing overhead a paired
        // comparison.
        struct Round
        {
            double plain, run;
            LayerTiming gen, pt, l1, stats, evq, xlate, walk, fabric,
                shoot, flush, prewarm;
            double retryRate, setupSuccess;
        };
        SpanLog spans(Clock::now());
        std::vector<Round> samples;
        cpu::RunResult run;
        double dispatches = 0, run_messages = 0;
        std::size_t replay_misses = 0;
        Clock::time_point traced_start = Clock::now();
        for (int r = 0;
             opt.smoke ? r < 1
                       : r < 5 || (r < 20 && seconds(traced_start,
                                                     Clock::now()) < 4.0);
             ++r) {
            Round round;
            TimedRun plain = timedRun(config, accesses);
            checks.check(plain.result, 0, "timed");
            round.plain = plain.runSeconds;
            Clock::time_point t0 = Clock::now();
            std::unique_ptr<cpu::System> system = buildSystem(config);
            Clock::time_point t1 = Clock::now();
            run = system->run(accesses);
            Clock::time_point t2 = Clock::now();
            spans.add("setup", t0, t1, 1);
            spans.add("run", t1, t2, run.l1Accesses);
            checks.check(run, 0, "traced");
            round.run = seconds(t1, t2);
            dispatches =
                static_cast<double>(system->bypassStreaks().numSamples());
            core::Interconnect *run_fabric =
                LayerReplay::fabricOf(system->organization());
            run_messages =
                run_fabric ? run_fabric->messagesSent.value() : 0;

            LayerReplay replayer(*system, run, replay, spans);
            round.gen = replayer.generate();
            round.pt = replayer.pageTableTranslate();
            round.l1 = replayer.l1Probe();
            round.stats = replayer.statsRecord();
            replayer.deriveMisses();
            round.evq = replayer.eventQueue(
                static_cast<std::uint64_t>(dispatches));
            round.xlate = replayer.translate(round.evq.nsPerCall());
            round.walk = replayer.walk(opt.smoke ? 100 : 20000);
            round.fabric =
                replayer.fabricSend(run_messages, round.evq.nsPerCall());
            round.shoot = replayer.shootdown(opt.smoke ? 64 : 2048);
            round.flush = replayer.flush();
            round.retryRate = replayer.replayRetryRate();
            round.setupSuccess = replayer.fabricSetupSuccess();
            replay_misses = replayer.misses();
            system.reset();

            // Prewarm runs inside System::run(); run(0) on a fresh
            // System is prewarm plus an empty drain.
            std::unique_ptr<cpu::System> fresh = buildSystem(config);
            Clock::time_point p0 = Clock::now();
            fresh->run(0);
            Clock::time_point p1 = Clock::now();
            spans.add("replay cpu.prewarm", p0, p1, 1);
            round.prewarm = {1, seconds(p0, p1)};
            spans.add("traced round " + std::to_string(r), t0, p1,
                      run.l1Accesses);
            samples.push_back(round);
        }
        auto tail = [&samples](LayerTiming Round::*layer) {
            std::vector<double> times;
            for (const Round &r : samples)
                times.push_back((r.*layer).seconds);
            return LayerTiming{(samples.front().*layer).calls,
                               fastTail(times)};
        };
        std::vector<double> run_times, plain_times;
        for (const Round &r : samples) {
            run_times.push_back(r.run);
            plain_times.push_back(r.plain);
        }
        const double run_s = fastTail(run_times);
        const LayerTiming gen = tail(&Round::gen), pt = tail(&Round::pt),
                          l1 = tail(&Round::l1),
                          stats = tail(&Round::stats),
                          evq = tail(&Round::evq),
                          xlate = tail(&Round::xlate),
                          walk = tail(&Round::walk),
                          fabric = tail(&Round::fabric),
                          shoot = tail(&Round::shoot),
                          flush = tail(&Round::flush),
                          prewarm = tail(&Round::prewarm);

        const double accesses_done = static_cast<double>(run.l1Accesses);
        const double flushes =
            config.contextSwitchInterval
                ? std::floor(static_cast<double>(run.cycles) /
                             static_cast<double>(
                                 config.contextSwitchInterval))
                : 0.0;
        auto share = [run_s](double count, const LayerTiming &t) {
            return count * t.nsPerCall() * 1e-9 / run_s;
        };
        const double gen_share = share(accesses_done, gen);
        const double pt_share = share(accesses_done, pt);
        const double l1_share = share(accesses_done, l1);
        const double evq_share = share(dispatches, evq);
        const double xlate_share =
            share(static_cast<double>(run.l1Misses), xlate);
        const double walk_share =
            share(static_cast<double>(run.walks), walk);
        const double fabric_share = share(run_messages, fabric);
        const double shoot_share =
            share(static_cast<double>(run.shootdowns), shoot);
        const double flush_share = share(flushes, flush);
        const double stats_share = share(accesses_done, stats);
        const double prewarm_share = share(1, prewarm);
        // Walks and fabric sends happen inside translate() and
        // shootdown(), so their shares are already in those and are
        // left out of the sum.
        const double closure = gen_share + pt_share + l1_share +
                               stats_share + evq_share + xlate_share +
                               shoot_share + flush_share + prewarm_share;

        metrics = {
            {"workload.gen_ns", gen.nsPerCall(), "ns"},
            {"workload.gen.share", gen_share, "fraction"},
            {"tlb.l1_probe_ns", l1.nsPerCall(), "ns"},
            {"tlb.l1_probe.share", l1_share, "fraction"},
            {"tlb.l1_hit_ratio",
             accesses_done > 0
                 ? 1.0 - static_cast<double>(run.l1Misses) / accesses_done
                 : 0.0,
             "fraction"},
            {"sim.eventq_dispatch_ns", evq.nsPerCall(), "ns"},
            {"sim.eventq_dispatch.share", evq_share, "fraction"},
            {"sim.stats_record_ns", stats.nsPerCall(), "ns"},
            {"sim.stats_record.share", stats_share, "fraction"},
            {"cpu.dispatches_per_access",
             accesses_done > 0 ? dispatches / accesses_done : 0.0,
             "1/access"},
            {"cpu.prewarm_ms", prewarm.seconds * 1e3, "ms"},
            {"cpu.prewarm.share", prewarm_share, "fraction"},
            {"mem.pt_translate_ns", pt.nsPerCall(), "ns"},
            {"mem.pt_translate.share", pt_share, "fraction"},
            {"mem.walk_ns", walk.nsPerCall(), "ns"},
            {"mem.walk.share", walk_share, "fraction"},
            {"mem.walks_per_kaccess",
             accesses_done > 0
                 ? 1000.0 * static_cast<double>(run.walks) / accesses_done
                 : 0.0,
             "1/kaccess"},
            {"core.translate_ns", xlate.nsPerCall(), "ns"},
            {"core.translate.share", xlate_share, "fraction"},
            {"core.fabric_send_ns", fabric.nsPerCall(), "ns"},
            {"core.fabric_send.share", fabric_share, "fraction"},
            {"core.fabric_setup_success", samples.back().setupSuccess,
             "fraction"},
            {"core.fabric_retry_rate_run", run.fabricRetryRate,
             "fraction"},
            {"core.fabric_retry_rate_replay", samples.back().retryRate,
             "fraction"},
            {"core.shootdown_ns", shoot.nsPerCall(), "ns"},
            {"core.shootdown.share", shoot_share, "fraction"},
            {"core.flush_ns", flush.nsPerCall(), "ns"},
            {"core.flush.share", flush_share, "fraction"},
            {"ledger.closure", closure, "fraction"},
            {"ledger.tracing_overhead", run_s / fastTail(plain_times) - 1.0,
             "fraction"},
        };
        if (closure < 0.85 || closure > 1.15)
            std::fprintf(stderr,
                         "warning: %s ledger.closure %.3f is outside "
                         "0.85-1.15: the layer replays do not account "
                         "for the run's host time\n",
                         wl->name, closure);

        std::string trace_path = opt.outDir + "/" + wl->name + "-seed" +
                                 std::to_string(opt.seed) +
                                 ".trace.json";
        if (spans.writeChromeJson(trace_path,
                                  provenanceJson(opt.sourceDigest)))
            std::printf("trace: %s\n", trace_path.c_str());
        else
            std::fprintf(stderr, "warning: cannot write %s\n",
                         trace_path.c_str());
        std::printf("replay: %zu L1 misses of %llu accesses/thread "
                    "replayed\n",
                    replay_misses,
                    static_cast<unsigned long long>(replay));
    }

    for (const Metric &m : metrics)
        std::printf("  %-32s %18.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("  %-32s %18llu of %llu runs\n", "check_failures",
                static_cast<unsigned long long>(checks.failed()),
                static_cast<unsigned long long>(checks.attempted()));

    const bool correct = checks.failed() == 0;
    std::string result_path =
        opt.outDir + "/" + wl->name + "-seed" + std::to_string(opt.seed) +
        "-trace" + std::to_string(opt.trace) + ".json";
    if (std::FILE *f = std::fopen(result_path.c_str(), "w")) {
        auto list = [](const std::vector<double> &v) {
            std::string out = "[";
            for (std::size_t i = 0; i < v.size(); ++i)
                out += (i ? ", " : "") + jsonNumber(v[i]);
            return out + "]";
        };
        std::fprintf(
            f,
            "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
            "\"sim_seeds\": %u, \"accesses_per_thread\": %llu, "
            "\"threads\": %llu, \"provenance\": %s, \"correct\": %s, "
            "\"attempted\": %llu, \"failed\": %llu, "
            "\"seed0_rates\": %s, "
            "\"p90_rate_per_seed\": %s, \"sim_ipc_per_seed\": %s, "
            "\"first_run_fingerprint\": \"%s\", \"metrics\": %s}\n",
            wl->name, static_cast<unsigned long long>(opt.seed),
            opt.trace, sub_seeds,
            static_cast<unsigned long long>(accesses),
            static_cast<unsigned long long>(threads),
            provenanceJson(opt.sourceDigest).c_str(),
            correct ? "true" : "false",
            static_cast<unsigned long long>(checks.attempted()),
            static_cast<unsigned long long>(checks.failed()),
            list(rates[0]).c_str(),
            list(seed_rates).c_str(), list(ipcs).c_str(),
            fingerprint(first).c_str(), metricsJson(metrics).c_str());
        std::fclose(f);
    } else {
        std::fprintf(stderr, "warning: cannot write %s\n",
                     result_path.c_str());
    }

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(checks.attempted()),
                static_cast<unsigned long long>(checks.failed()),
                metricsJson(metrics).c_str());
    return correct ? 0 : 1;
}
