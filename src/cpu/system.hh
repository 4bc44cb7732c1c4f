/**
 * @file
 * Full-system model: cores generating address streams through per-core
 * L1 TLBs, a last-level TLB organization, page-table walkers and the
 * walk-reference cache hierarchy -- the simulation the paper's Figures
 * 2, 4-6 and 12-19 are drawn from.
 *
 * Timing model: in-order cores; address translation is on the critical
 * path of every memory access (paper §I), so an L1 TLB miss stalls the
 * issuing thread until the organization returns the translation. All
 * other per-access costs (base CPI, data-side stalls) are per-workload
 * constants, identical across organizations, so speedups isolate the
 * translation path exactly as the paper's methodology does.
 */

#ifndef NOCSTAR_CPU_SYSTEM_HH
#define NOCSTAR_CPU_SYSTEM_HH

#include <array>
#include <chrono>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/organization.hh"
#include "energy/translation_energy.hh"
#include "mem/cache_model.hh"
#include "mem/page_table.hh"
#include "mem/page_walker.hh"
#include "sim/event_queue.hh"
#include "sim/latency_histogram.hh"
#include "tlb/l1_tlb.hh"
#include "workload/generator.hh"
#include "workload/spec.hh"
#include "workload/trace.hh"

namespace nocstar::core
{
class Interconnect;
}

namespace nocstar::cpu
{

/** One application instance in the mix. */
struct AppConfig
{
    workload::WorkloadSpec spec;
    unsigned threads = 1;
    /**
     * If non-empty, thread t replays this trace's thread-t records
     * (looping) instead of drawing from the synthetic generator; the
     * spec still provides the timing parameters (CPI, data stalls)
     * and the prewarm footprint hints.
     */
    std::string traceFile;
};

/**
 * SMARTS-style sampled simulation: long stretches of the access stream
 * run through a functional fast-forward engine (TLB / page-table /
 * cache state updates only -- no event queue, no arbitration, no
 * stats), interleaved with full-detail measurement windows whose
 * per-window samples aggregate into a mean and a 95 % confidence
 * interval. Off (windows == 0) leaves every run path byte-identical
 * to a build without the feature.
 */
struct SamplingConfig
{
    /** Detail measurement windows (0 disables sampling). */
    unsigned windows = 0;
    /** Per-thread detailed accesses measured per window. */
    std::uint64_t detailAccesses = 0;
    /** Mean per-thread accesses fast-forwarded between windows. */
    std::uint64_t ffAccesses = 0;
    /** Per-thread accesses fast-forwarded before the first window. */
    std::uint64_t warmupAccesses = 0;
    /** Seed of the window-placement jitter stream. */
    static constexpr std::uint64_t seed = 1;

    bool enabled() const { return windows > 0; }
};

/** Full system configuration. */
struct SystemConfig
{
    core::OrgConfig org;
    tlb::L1TlbConfig l1;
    mem::CacheModelConfig caches;
    mem::WalkerConfig walker;

    /** Applications; context id == index into this vector. */
    std::vector<AppConfig> apps;

    unsigned smtPerCore = 1;
    /** Disable transparent superpages (Fig 12's 4 KB-only runs). */
    bool superpages = true;
    std::uint64_t seed = 1;

    /** Cycles charged to a core per foreign PTE fill (Fig 17). */
    static constexpr Cycle pollutionPenalty = 15;

    /** Flush all TLBs this often (0 = never; storm runs use 1M). */
    Cycle contextSwitchInterval = 0;
    /** Storm microbenchmark remap period (0 = off). */
    Cycle stormRemapInterval = 0;

    /** Timed slice-invalidation messages modelled per storm op. */
    unsigned stormMessagesPerOp = 16;
    /** Cycles an IPI pauses each sharer thread. */
    static constexpr Cycle ipiPauseCycles = 30;

    /**
     * Slice-hotspot microbenchmark (paper §V, "TLB slice
     * microbenchmark"): if >= 0, every thread directs a fraction of
     * its accesses at a small dedicated pool homed on this slice,
     * stressing that slice's ports and paths while the rest of the
     * stream stays normal.
     */
    int hotspotSlice = -1;
    /** Fraction of accesses redirected at the hotspot slice. */
    static constexpr double hotspotFraction = 0.3;
    /** Pages in the hotspot pool (kept below one slice's capacity). */
    static constexpr unsigned hotspotPages = 256;

    /**
     * If non-empty, capture every generated address as a trace record
     * keyed by global thread index and save it here after run().
     * Intended for single-app systems whose traces are replayed via
     * AppConfig::traceFile.
     */
    std::string captureTracePath;

    /**
     * Snapshot the whole stats tree every N cycles during run()
     * (0 = off). Snapshots are collected in memory and emitted as the
     * "epochs" array of the stats JSON document. They are cumulative:
     * an interval's values are the difference of two consecutive
     * snapshots.
     */
    Cycle statsEpochInterval = 0;
    /**
     * If non-empty, append the stats JSON document (one line) to this
     * file after run(). One line per run: a single-run file is a valid
     * JSON document, a sweep's file is JSONL.
     */
    std::string statsJsonPath;

    /**
     * Record per-outcome translation-latency histograms (exact-rank
     * p50/p90/p99/p99.9 over log buckets, <= 1.6 % relative error):
     * one histogram per outcome class -- L1 hit, local L2 hit, remote
     * L2 hit, page walk, ECC re-walk, degraded (mesh-fallback) path --
     * under the "latency" stats child group. Off by default: the
     * group is not even created, so the stats tree and every hot path
     * are byte-identical to a build without the feature.
     */
    bool latencyStats = false;
    /**
     * Emit a one-line wall-clock progress heartbeat to stderr at this
     * period in seconds (< 0 = off, the default; 0 = every check
     * point). When enabled, one final line is always emitted at the
     * end of run(). Zero hot-path cost when off: no event is
     * installed at all.
     */
    double progressSeconds = -1.0;

    /** Sampled-simulation parameters (off unless windows > 0). */
    SamplingConfig sampling;

    /**
     * If non-empty, save a checkpoint of the warmed functional state
     * here -- taken at the quiescent boundary after prewarm and any
     * sampling warmup, before the first detailed access -- and then
     * continue running normally.
     */
    std::string checkpointSavePath;
    /**
     * If non-empty, restore the warmed state from this checkpoint
     * instead of re-running prewarm / warmup. The checkpoint's config
     * fingerprint must match this configuration.
     */
    std::string checkpointRestorePath;

    /**
     * Field-level configuration errors, one message per violation,
     * including everything OrgConfig::validate() reports (prefixed
     * "org: "). The System constructor fatal()s with the full list.
     */
    std::vector<std::string> validate() const;

    /** Hardware-thread slots on the chip (cores x SMT), in 64 bits. */
    std::uint64_t
    smtSlots() const
    {
        return std::uint64_t{org.numCores} * smtPerCore;
    }
};

/** Aggregated outcome of one simulation. */
struct RunResult
{
    /** Slowest thread's finish time (barrier runtime). */
    Cycle cycles = 0;
    /**
     * Mean thread finish time: the fixed-work analogue of fixed-time
     * throughput, used for speedup comparisons because the max is
     * noisy at short run lengths.
     */
    double meanCycles = 0;
    std::uint64_t instructions = 0;
    double ipc = 0;

    std::vector<Cycle> appCycles;
    std::vector<double> appIpc;

    std::uint64_t l1Accesses = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Accesses = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t walks = 0;
    double avgL2AccessLatency = 0;
    double avgWalkLatency = 0;
    double l2MissRate = 0;

    double energyPj = 0;
    double beyondL2Fraction = 0;

    double fabricAvgLatency = 0; ///< NOCSTAR only
    double fabricMaxRetries = 0; ///< most retries of one message (NOCSTAR)
    double fabricNoContention = 0; ///< NOCSTAR only
    // Scaling-figure telemetry (NOCSTAR only; zero elsewhere).
    std::uint64_t fabricSetupAttempts = 0;
    std::uint64_t fabricSetupFailures = 0;
    /** setupFailures / setupAttempts. */
    double fabricRetryRate = 0;
    /**
     * Priority-rotation fairness: worst and mean per-source-tile p99
     * grant wait in cycles. Populated only when
     * OrgConfig::recordGrantWait was set.
     */
    double fabricGrantWaitP99Max = 0;
    double fabricGrantWaitP99Mean = 0;

    std::uint64_t shootdowns = 0;
    double avgShootdownLatency = 0;

    // Fault-injection outcomes (all zero without a fault plan).
    /** Fabric outages begun + grants lost. */
    std::uint64_t faultsInjected = 0;
    /** Messages that fell back to the store-and-forward mesh. */
    std::uint64_t degradedMessages = 0;
    /** degradedMessages over all fabric messages. */
    double degradedFraction = 0;
    /** Hits retried for slice ECC + walks redone for table ECC. */
    std::uint64_t eccRewalks = 0;

    /**
     * Fractions of L2 accesses in the paper's concurrency buckets:
     * [1], [2-4], [5-8], [9-12], [13-16], [17-20], [21-24], [25-28],
     * [29+] (Fig 5/6).
     */
    std::vector<double> concurrencyBuckets;
    std::vector<double> sliceConcurrencyBuckets;

    // Sampled-simulation outputs (all zero unless sampling was on).
    bool sampled = false;
    unsigned sampleWindows = 0;
    /** Accesses fast-forwarded functionally instead of simulated. */
    std::uint64_t sampledFfAccesses = 0;
    /** Mean per-window IPC proxy (window instructions / window cycles). */
    double sampledIpcMean = 0;
    /** 95 % confidence half-width around sampledIpcMean (Student t). */
    double sampledIpcCi95 = 0;
    /** Mean per-window average L2 access latency. */
    double sampledLatencyMean = 0;
    double sampledLatencyCi95 = 0;
};

/**
 * The simulated machine.
 */
class System : public stats::StatGroup
{
  public:
    explicit System(const SystemConfig &config);
    ~System() override;

    /**
     * Run until every thread has issued @p accesses_per_thread memory
     * accesses.
     */
    RunResult run(std::uint64_t accesses_per_thread);

    core::TlbOrganization &organization() { return *org_; }
    mem::PageTable &pageTable() { return *pageTable_; }
    EventQueue &queue() { return queue_; }
    tlb::L1TlbGroup &l1Of(CoreId core) { return *l1s_.at(core); }
    const SystemConfig &config() const { return config_; }

    /** Bucket a concurrency histogram into the paper's 9 bins. */
    static std::vector<double>
    paperBuckets(const sim::LatencyHistogram &hist);

    /**
     * One sample (always 0) per dispatched step. It stays because the
     * benchmark (perfbench) counts its samples as step dispatches.
     */
    const stats::Distribution &bypassStreaks() const
    {
        return bypassStreaks_;
    }

    /**
     * Write the machine-readable stats document for this system as a
     * single JSON object: `{"epochs":[...],"final":{<stats tree>}}`.
     * Epoch entries are `{"epoch":k,"cycle":c,"stats":{...}}`.
     */
    void dumpStatsJson(std::ostream &out) const;

    /**
     * Per-component resident-byte accounting of the big simulation
     * structures, for the scaling bench's memory audit. Host-side
     * introspection only: taking it never perturbs simulated state.
     */
    struct MemoryAudit
    {
        /** Set blocks of every L2 slice / bank / private array. */
        std::size_t orgArrayBytes = 0;
        /** Set blocks of all per-core L1 TLB groups. */
        std::size_t l1Bytes = 0;
        /** Page-table region pool, index map and memo. */
        std::size_t pageTableBytes = 0;
        /** Walk-reference line stores (per-core L2s + LLC). */
        std::size_t cacheModelBytes = 0;
        /** Fabric arbitration state + path tables (NOCSTAR only). */
        std::size_t fabricBytes = 0;

        std::size_t
        total() const
        {
            return orgArrayBytes + l1Bytes + pageTableBytes +
                   cacheModelBytes + fabricBytes;
        }
    };

    MemoryAudit memoryAudit() const;

  private:
    struct HwThread
    {
        /** Addresses pre-drawn from the source per nextBatch() call. */
        static constexpr unsigned addrBatch = 16;

        unsigned app;
        /** Creation-order index among this app's threads. */
        unsigned indexInApp;
        ContextId ctx;
        CoreId core;
        std::unique_ptr<workload::AddressSource> gen;
        std::uint64_t accessesDone = 0;
        /** Per-thread stream for hotspot redirection draws. */
        std::unique_ptr<Random> hotspotRng;
        std::uint64_t quota = 0;
        std::uint64_t instructions = 0;
        double cycleCarry = 0;
        Cycle pendingStall = 0;
        Cycle finishedAt = 0;
        bool finished = false;
        /**
         * Batched address buffer: refilled from gen->nextBatch()
         * (capped at the remaining quota so the source's stream
         * position stays exactly where per-access next() calls would
         * leave it), drained one address per access. Zeroed up front
         * so a checkpoint, which saves every slot, is byte-identical
         * across runs.
         */
        std::array<Addr, addrBatch> batch{};
        unsigned batchPos = 0;
        unsigned batchLen = 0;
    };

    /**
     * Intrusive per-thread step event (gem5 idiom): one reusable
     * instance per hardware thread, rescheduled for every access, so
     * the per-access issue/resume path never touches the lambda-event
     * pool.
     */
    struct StepEvent : Event
    {
        System *sys = nullptr;
        std::size_t threadIndex = 0;

        void
        process() override
        {
            sys->step(threadIndex);
        }
    };

    /** Outcome class of one translation, for the latency histograms.
     * Classification priority on a completed miss: degraded >
     * eccRewalk > walked > remote hit > local hit. */
    enum class LatClass : unsigned
    {
        L1Hit,       ///< L1 TLB hit (latency 0: overlapped with cache)
        L2HitLocal,  ///< LLTLB hit in a co-located slice/bank
        L2HitRemote, ///< LLTLB hit that crossed the interconnect
        Walk,        ///< page walk on the critical path
        EccRewalk,   ///< ECC-corrupt read forced a retry / re-walk
        Degraded,    ///< a leg fell back to the store-and-forward mesh
    };

    /**
     * The "latency" stats child group: per-outcome translation-latency
     * histograms. Created only when SystemConfig::latencyStats is set,
     * so the stats tree is unchanged otherwise.
     */
    struct LatencyStats : stats::StatGroup
    {
        explicit LatencyStats(stats::StatGroup *parent);

        stats::Histogram l1Hit;
        stats::Histogram l2HitLocal;
        stats::Histogram l2HitRemote;
        stats::Histogram walk;
        stats::Histogram eccRewalk;
        stats::Histogram degraded;

        stats::Histogram &of(LatClass c);
    };

    /** Wall-clock heartbeat state (allocated only when enabled). */
    struct Progress
    {
        std::chrono::steady_clock::time_point start;
        std::chrono::steady_clock::time_point lastEmit;
        Cycle lastCycle = 0;
        std::uint64_t lastAccesses = 0;
        std::uint64_t totalQuota = 0;
    };

    /** The "sampling" stats child group, created only when sampling
     * is enabled so the stats tree is unchanged otherwise. */
    struct SamplingStats : stats::StatGroup
    {
        explicit SamplingStats(stats::StatGroup *parent);

        stats::Scalar windows;
        stats::Scalar ffAccesses;
        stats::Scalar ipcMean;
        stats::Scalar ipcCi95;
        stats::Scalar latencyMean;
        stats::Scalar latencyCi95;
    };

    /** Preload steady-state resident translations (see system.cc). */
    void prewarm();

    /**
     * The one state-touching install path shared by prewarm() and the
     * fast-forward engine: the home L2 array via the organization's
     * preload(), optionally the requesting core's L1 group.
     */
    void warmInstall(CoreId core, ContextId ctx, Addr vaddr,
                     const mem::Translation &t, bool into_l1);

    /**
     * Functionally fast-forward every unfinished thread by
     * @p accesses each: batched addresses stream through the L1 / L2 /
     * page-table / walker-cache state updates only -- no event queue,
     * no arbitration, no timing, no stats -- then the clock advances
     * by the threads' nominal (stall-free) cycles so retention TTLs
     * age as they would under detailed simulation.
     */
    void fastForward(std::uint64_t accesses);

    /** One functional access of @p thread at clock @p now. */
    void fastForwardAccess(HwThread &thread, Cycle now);

    /** Schedule the per-run events and stats plumbing shared by the
     * detailed and sampled run paths. */
    void beginRun(std::uint64_t total_quota);

    /** Build the RunResult from the accumulated state (run() tail). */
    RunResult finishRun();

    /** The sampled-simulation run loop (sampling.enabled()). */
    RunResult runSampled(std::uint64_t accesses_per_thread);

    /**
     * FNV-1a fingerprint over every configuration field that shapes
     * the functional state a checkpoint carries (array geometry,
     * stream seeds, workload layout). Guards restore against a
     * mismatched configuration.
     */
    std::uint64_t configFingerprint() const;

    /** Serialize the warmed functional state to @p path. */
    void saveCheckpoint(const std::string &path);

    /** Restore state saved by saveCheckpoint() (fatal on mismatch). */
    void restoreCheckpoint(const std::string &path);

    /** Issue one access for @p thread at the current cycle. */
    void step(std::size_t thread_index);

    /** Schedule the next step of @p thread at @p when. */
    void scheduleStep(std::size_t thread_index, Cycle when);

    /** Burst cost (instructions + data stalls) for one access. */
    Cycle burstCycles(HwThread &thread);

    Addr nextAddress(HwThread &thread);

    /**
     * Run @p body every @p period cycles at priority @p prio, the
     * first time @p period cycles from now, until no thread is left
     * unfinished. Each run schedules the next one after @p body.
     */
    template <typename F>
    void every(Cycle period, Event::Priority prio, F body);

    /** One storm remap and its timed shootdowns. */
    void stormOp();

    /** Append one cumulative stats snapshot. */
    void snapshotEpoch();

    /**
     * Classify and record one completed L1-miss translation into the
     * latency histograms (no-op when they are off). @p issued is the
     * cycle the access missed in the L1.
     */
    void recordMissLatency(const core::TranslationResult &result,
                           Cycle issued);

    /** Sample the observability counter tracks at cycle @p at (the
     * caller has already checked recording()). */
    void sampleCounters(Cycle at);

    /** Start the periodic events that observe a run: counter sampling
     * while the trace recorder captures, and the heartbeat when it is
     * configured. */
    void armObservers();

    /** Emit a heartbeat line if the wall-clock period elapsed (or
     * @p force); no-op when the heartbeat is off. */
    void maybeProgress(bool force = false);

    SystemConfig config_;
    EventQueue queue_;
    std::unique_ptr<mem::PageTable> pageTable_;
    std::unique_ptr<mem::CacheModel> caches_;
    std::vector<std::unique_ptr<mem::PageTableWalker>> walkers_;
    std::vector<std::unique_ptr<tlb::L1TlbGroup>> l1s_;
    energy::TranslationEnergyModel energy_;
    std::unique_ptr<core::TlbOrganization> org_;
    std::vector<HwThread> threads_;
    /** Events are pinned (non-movable), hence the deque. */
    std::deque<StepEvent> stepEvents_;
    std::vector<std::vector<std::size_t>> threadsOfCore_;
    /** Cores running each context's threads (storm sharer lists). */
    std::vector<std::vector<CoreId>> ctxSharers_;
    /** Loaded replay traces (one per app; own the record storage). */
    std::vector<std::unique_ptr<workload::TraceFile>> traces_;
    /** Capture sink when captureTracePath is set. */
    std::unique_ptr<workload::TraceFile> capture_;
    unsigned unfinished_ = 0;
    Random rng_;

    // Sampled-simulation / checkpoint state (inert unless configured).
    /** Sampling stats group; null unless sampling is enabled. */
    std::unique_ptr<SamplingStats> samplingStats_;
    /** Total accesses fast-forwarded functionally this run. */
    std::uint64_t ffAccessesDone_ = 0;

    // Observability state (all null / inert unless configured).
    /** Latency histograms; null unless latencyStats. */
    std::unique_ptr<LatencyStats> latency_;
    /** Heartbeat bookkeeping; null unless progressSeconds >= 0. */
    std::unique_ptr<Progress> progress_;
    /**
     * Fabric of a NOCSTAR org, else null: its fault stats are synced
     * before each snapshot, and it feeds the results, the links-held
     * counter track, the heartbeat and the memory audit.
     */
    core::Interconnect *fabric_ = nullptr;

    stats::Scalar l1Accesses_;
    stats::Scalar l1Misses_;
    stats::Scalar pollutionStalls_;
    /**
     * Sampled with 0 once per dispatched step, since a step is one
     * access. It stays for the benchmark (perfbench), which counts its
     * samples as step dispatches and replays one sample per access in
     * its stats-record layer.
     */
    stats::Distribution bypassStreaks_;

    // Storm state.
    std::uint64_t stormRegionCursor_ = 0;
    bool stormPromote_ = true;

    /** Epoch snapshots taken during run(), already JSON-rendered. */
    std::vector<std::string> epochSnapshots_;
};

} // namespace nocstar::cpu

#endif // NOCSTAR_CPU_SYSTEM_HH
