/**
 * @file
 * System implementation.
 */

#include "cpu/system.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>

#include "core/nocstar_org.hh"
#include "energy/sram_model.hh"
#include "sim/checkpoint.hh"
#include "sim/trace_recorder.hh"

namespace nocstar::cpu
{

System::LatencyStats::LatencyStats(stats::StatGroup *parent,
                                   std::size_t contexts)
    : stats::StatGroup("latency", parent),
      l1Hit(this, "l1_hit", "translation latency: L1 TLB hits"),
      l2HitLocal(this, "l2_hit_local",
                 "translation latency: local LLTLB hits"),
      l2HitRemote(this, "l2_hit_remote",
                  "translation latency: remote LLTLB hits"),
      walk(this, "walk", "translation latency: page walks"),
      eccRewalk(this, "ecc_rewalk",
                "translation latency: ECC retry / re-walk paths"),
      degraded(this, "degraded",
               "translation latency: mesh-fallback (degraded) paths")
{
    if (contexts) {
        ctxGroup = std::make_unique<stats::StatGroup>("ctx", this);
        byCtx.reserve(contexts);
        for (std::size_t c = 0; c < contexts; ++c)
            byCtx.push_back(std::make_unique<stats::Histogram>(
                ctxGroup.get(), "ctx" + std::to_string(c),
                "translation latency: context " + std::to_string(c) +
                    ", all outcomes"));
    }
}

stats::Histogram &
System::LatencyStats::of(LatClass c)
{
    switch (c) {
      case LatClass::L1Hit:
        return l1Hit;
      case LatClass::L2HitLocal:
        return l2HitLocal;
      case LatClass::L2HitRemote:
        return l2HitRemote;
      case LatClass::Walk:
        return walk;
      case LatClass::EccRewalk:
        return eccRewalk;
      case LatClass::Degraded:
        return degraded;
    }
    return l1Hit; // unreachable
}

System::SamplingStats::SamplingStats(stats::StatGroup *parent)
    : stats::StatGroup("sampling", parent),
      windows(this, "windows", "detail measurement windows completed"),
      ffAccesses(this, "ff_accesses",
                 "accesses fast-forwarded functionally"),
      ipcMean(this, "ipc_mean", "mean per-window IPC proxy"),
      ipcCi95(this, "ipc_ci95",
              "95% confidence half-width around ipc_mean"),
      latencyMean(this, "latency_mean",
                  "mean per-window average L2 access latency"),
      latencyCi95(this, "latency_ci95",
                  "95% confidence half-width around latency_mean")
{}

namespace
{

/**
 * Two-sided 97.5 % Student-t quantiles for df = 1..30; beyond 30 the
 * normal approximation is within 2 %. Hardcoded so the CI math draws
 * nothing from any simulation stream.
 */
constexpr double kT975[30] = {
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306,
    2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120,
    2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
    2.060,  2.056, 2.052, 2.048, 2.045, 2.042};

double
tQuantile975(std::size_t df)
{
    if (df == 0)
        return 0.0;
    return df <= 30 ? kT975[df - 1] : 1.960;
}

/** Sample mean and 95 % confidence half-width (Student t). */
std::pair<double, double>
meanCi95(const std::vector<double> &xs)
{
    if (xs.empty())
        return {0.0, 0.0};
    double sum = 0;
    for (double x : xs)
        sum += x;
    double mean = sum / static_cast<double>(xs.size());
    if (xs.size() < 2)
        return {mean, 0.0};
    double ss = 0;
    for (double x : xs)
        ss += (x - mean) * (x - mean);
    double var = ss / static_cast<double>(xs.size() - 1);
    double half = tQuantile975(xs.size() - 1) *
                  std::sqrt(var / static_cast<double>(xs.size()));
    return {mean, half};
}

} // namespace

std::vector<std::string>
SystemConfig::validate() const
{
    std::vector<std::string> errors;
    for (const std::string &e : org.validate())
        errors.push_back("org: " + e);

    if (apps.empty())
        errors.push_back("needs at least one application");
    std::uint64_t total_threads = 0;
    for (std::size_t a = 0; a < apps.size(); ++a) {
        if (apps[a].threads == 0)
            errors.push_back(strCat("app #", a,
                                    ": threads must be >= 1"));
        total_threads += apps[a].threads;
    }
    if (smtPerCore == 0)
        errors.push_back("smtPerCore must be >= 1");
    else if (org.numCores > 0 && total_threads > smtSlots())
        errors.push_back(strCat("total threads (", total_threads,
                                ") exceed SMT slots (", smtSlots(), ")"));
    if (hotspotFraction < 0.0 || hotspotFraction > 1.0)
        errors.push_back(strCat("hotspotFraction ", hotspotFraction,
                                " outside [0, 1]"));
    if (hotspotSlice >= 0 &&
        static_cast<unsigned>(hotspotSlice) >= org.numCores)
        errors.push_back(strCat("hotspotSlice ", hotspotSlice,
                                " beyond the last core (",
                                org.numCores, " cores)"));
    if (walker.eccRetryProb < 0.0 || walker.eccRetryProb > 1.0)
        errors.push_back(strCat("walker.eccRetryProb ",
                                walker.eccRetryProb, " outside [0, 1]"));

    if (sampling.enabled()) {
        if (sampling.windows < 2)
            errors.push_back(strCat(
                "sampling.windows (", sampling.windows,
                ") must be >= 2: a confidence interval needs at least "
                "two samples"));
        if (sampling.detailAccesses == 0)
            errors.push_back("sampling.detailAccesses must be >= 1");
    }
    if (sampling.enabled() || sampling.warmupAccesses > 0 ||
        !checkpointSavePath.empty() || !checkpointRestorePath.empty()) {
        const char *what = sampling.enabled() ? "sampled simulation"
                           : sampling.warmupAccesses > 0
                               ? "fast-forward warming"
                               : "checkpointing";
        // These features schedule state at absolute cycles or consume
        // extra RNG draws outside the serialized/fast-forwarded state,
        // so they would silently break the exactness guarantees.
        if (contextSwitchInterval != 0)
            errors.push_back(strCat(what,
                                    " cannot run with "
                                    "contextSwitchInterval"));
        if (stormRemapInterval != 0)
            errors.push_back(strCat(what,
                                    " cannot run with "
                                    "stormRemapInterval"));
        if (statsEpochInterval != 0)
            errors.push_back(strCat(what,
                                    " cannot run with "
                                    "statsEpochInterval"));
        if (!captureTracePath.empty())
            errors.push_back(strCat(what,
                                    " cannot run with "
                                    "captureTracePath"));
        if (!org.faults.empty())
            errors.push_back(strCat(what,
                                    " cannot run with a fault plan"));
    }
    return errors;
}

System::System(const SystemConfig &config)
    : stats::StatGroup("system"),
      config_(config),
      rng_(config.seed ^ 0x5915ca9fULL),
      l1Accesses_(this, "l1_accesses", "L1 TLB demand accesses"),
      l1Misses_(this, "l1_misses", "L1 TLB demand misses"),
      pollutionStalls_(this, "pollution_stalls",
                       "cycles charged for foreign PTE fills"),
      bypassStreaks_(this, "bypass_streak_length",
                     "accesses executed inline per dispatched step",
                     0, 63, 1)
{
    if (std::vector<std::string> errors = config.validate();
        !errors.empty())
        fatal("invalid system config:",
              core::joinConfigErrors(errors));
    unsigned cores = config.org.numCores;

    pageTable_ = std::make_unique<mem::PageTable>(0.0, config.seed);
    for (std::size_t a = 0; a < config.apps.size(); ++a) {
        double fraction = config.superpages
            ? config.apps[a].spec.superpageFraction : 0.0;
        pageTable_->setContextSuperpageFraction(
            static_cast<ContextId>(a), fraction);
    }

    caches_ = std::make_unique<mem::CacheModel>("caches", cores,
                                                config.caches, this);
    caches_->setForeignFillHook([this](CoreId core) {
        // Charge the pollution penalty to a thread on the polluted core.
        auto &victims = threadsOfCore_.at(core);
        if (victims.empty())
            return;
        HwThread &victim = threads_[victims[0]];
        victim.pendingStall += config_.pollutionPenalty;
        pollutionStalls_ += static_cast<double>(config_.pollutionPenalty);
    });

    core::OrgContext org_ctx;
    org_ctx.queue = &queue_;
    org_ctx.pageTable = pageTable_.get();
    org_ctx.energy = &energy_;
    mem::WalkerConfig walker_config = config.walker;
    if (config.org.faults.walkEccProb > 0)
        walker_config.eccRetryProb = config.org.faults.walkEccProb;
    for (CoreId c = 0; c < cores; ++c) {
        // Distinct per-walker ECC stream, derived from the plan seed
        // so a fixed (plan, seed) pair replays exactly.
        walker_config.eccSeed =
            config.org.faults.seed ^
            (static_cast<std::uint64_t>(
                 sim::FaultInjector::Stream::WalkEcc)
             << 32) ^
            (c * 0x9e3779b97f4a7c15ULL + 1);
        walkers_.push_back(std::make_unique<mem::PageTableWalker>(
            "walker" + std::to_string(c), c, *pageTable_, *caches_,
            walker_config, this));
        org_ctx.walkers.push_back(walkers_.back().get());
        l1s_.push_back(std::make_unique<tlb::L1TlbGroup>(
            "l1_core" + std::to_string(c), config.l1, this));
    }
    org_ctx.l1Invalidate = [this](CoreId core, ContextId ctx, PageNum vpn,
                                  PageSize size) {
        l1s_.at(core)->invalidate(ctx, vpn, size);
    };
    org_ctx.l1Flush = [this](CoreId core) {
        l1s_.at(core)->invalidateAll();
    };

    org_ = core::makeOrganization(config.org, std::move(org_ctx), this);

    if (config.latencyStats || config.latencyPerContext)
        latency_ = std::make_unique<LatencyStats>(
            this, config.latencyPerContext ? config.apps.size() : 0);
    if (config.sampling.enabled())
        samplingStats_ = std::make_unique<SamplingStats>(this);
    if (auto *nocstar = dynamic_cast<core::NocstarOrg *>(org_.get()))
        counterFabric_ = &nocstar->fabric();

    // Thread placement: spread threads across cores first, then fill
    // SMT slots, exactly one app context per thread.
    threadsOfCore_.resize(cores);
    ctxSharers_.resize(config.apps.size());
    traces_.resize(config.apps.size());
    unsigned slot = 0;
    const std::uint64_t max_slots = config.smtSlots();
    for (std::size_t a = 0; a < config.apps.size(); ++a) {
        const AppConfig &app = config.apps[a];
        // One warm-pool sampler per generated app: its threads' copies
        // share its rejection table, which outlives this local.
        std::optional<ZipfSampler> warm_zipf;
        if (!app.traceFile.empty())
            traces_[a] = std::make_unique<workload::TraceFile>(
                workload::TraceFile::load(app.traceFile));
        else
            warm_zipf.emplace(app.spec.warmPages, app.spec.warmAlpha);
        for (unsigned t = 0; t < app.threads; ++t) {
            if (slot >= max_slots)
                fatal("more threads than SMT slots (",
                      max_slots, ")");
            HwThread thread;
            thread.app = static_cast<unsigned>(a);
            thread.indexInApp = t;
            thread.ctx = static_cast<ContextId>(a);
            thread.core = static_cast<CoreId>(slot % cores);
            if (traces_[a])
                thread.gen = traces_[a]->sourceFor(t);
            else
                thread.gen =
                    std::make_unique<workload::AccessGenerator>(
                        app.spec, thread.ctx, t, config.seed,
                        *warm_zipf);
            if (config.hotspotSlice >= 0)
                thread.hotspotRng = std::make_unique<Random>(
                    config.seed ^ (0x4075ULL) ^
                    (static_cast<std::uint64_t>(slot) << 20));
            threadsOfCore_[thread.core].push_back(threads_.size());
            threads_.push_back(std::move(thread));
            ++slot;
        }
    }
    for (std::size_t i = 0; i < threads_.size(); ++i) {
        StepEvent &ev = stepEvents_.emplace_back();
        ev.sys = this;
        ev.threadIndex = i;
        // Sharer lists for shootdowns, in thread-creation order as
        // stormOp built them before.
        auto &sharers = ctxSharers_[threads_[i].ctx];
        if (std::find(sharers.begin(), sharers.end(),
                      threads_[i].core) == sharers.end())
            sharers.push_back(threads_[i].core);
    }
    if (!config.captureTracePath.empty())
        capture_ = std::make_unique<workload::TraceFile>();
}

System::~System() = default;

Addr
System::nextAddress(HwThread &thread)
{
    if (thread.hotspotRng &&
        thread.hotspotRng->chance(config_.hotspotFraction)) {
        // Slice-hotspot microbenchmark: a draw from the small shared
        // pool whose pages all home on the target slice.
        unsigned n = config_.org.numCores;
        PageNum page = thread.hotspotRng->below(config_.hotspotPages);
        PageNum vpn = ((0x0300000000ULL + page) * n +
                       static_cast<PageNum>(config_.hotspotSlice) % n);
        return vpn << pageShift(PageSize::FourKB);
    }
    // Generator draws and hotspot draws come from separate streams, so
    // pre-drawing a batch leaves every consumed address identical to
    // per-access next() calls; capping the refill at the remaining
    // quota keeps a capturable/replayable stream position too.
    if (thread.batchPos == thread.batchLen) {
        std::uint64_t remaining = thread.quota - thread.accessesDone + 1;
        auto n = static_cast<unsigned>(std::min<std::uint64_t>(
            HwThread::addrBatch, remaining));
        thread.gen->nextBatch(thread.batch.data(), n);
        thread.batchPos = 0;
        thread.batchLen = n;
    }
    Addr raw = thread.batch[thread.batchPos++];
    if (capture_) {
        // Capture at consumption, so the trace holds exactly the
        // addresses the run used, in issue order per thread.
        auto index = static_cast<unsigned>(&thread - threads_.data());
        capture_->append(index, raw);
    }
    return raw;
}

Cycle
System::burstCycles(HwThread &thread)
{
    const workload::WorkloadSpec &spec = config_.apps[thread.app].spec;
    double cost = spec.instructionsPerAccess * spec.baseCpi +
                  spec.dataStallPerAccess + thread.cycleCarry;
    auto whole = static_cast<Cycle>(cost);
    thread.cycleCarry = cost - static_cast<double>(whole);
    thread.instructions +=
        static_cast<std::uint64_t>(spec.instructionsPerAccess);
    Cycle stall = thread.pendingStall;
    thread.pendingStall = 0;
    return whole + stall;
}

void
System::scheduleStep(std::size_t thread_index, Cycle when)
{
    // Each thread has at most one step in flight, so its intrusive
    // event is always free for reuse here.
    queue_.schedule(&stepEvents_[thread_index], when);
}

void
System::step(std::size_t thread_index)
{
    HwThread &thread = threads_[thread_index];
    const Cycle now = queue_.curCycle();
    // One sample, always 0, per dispatch (see bypassStreaks()).
    bypassStreaks_.sample(0);

    if (thread.accessesDone >= thread.quota) {
        if (!thread.finished) {
            thread.finished = true;
            thread.finishedAt = now;
            --unfinished_;
        }
        return;
    }
    ++thread.accessesDone;

    Addr vaddr = nextAddress(thread);
    mem::Translation t = pageTable_->translate(thread.ctx, vaddr);
    PageNum vpn = pageNumber(vaddr, t.size);

    ++l1Accesses_;
    energy_.addL1Lookup();
    const tlb::TlbEntry *l1_hit =
        l1s_[thread.core]->lookup(thread.ctx, vpn, t.size);

    if (!l1_hit) {
        ++l1Misses_;
        TRACE(System, "thread ", thread_index, " core ", thread.core,
              " L1 miss vaddr 0x", std::hex, vaddr, std::dec);
        org_->translate(
            thread.core, thread.ctx, vaddr, now,
            [this, thread_index, vaddr,
             now](const core::TranslationResult &result) {
                HwThread &th = threads_[thread_index];
                recordMissLatency(thread_index, result, now);
                if (sim::recording())
                    sim::recorder().span(
                        sim::Lane::Translation, th.core,
                        result.walked        ? "translation (walk)"
                            : result.l2Hit   ? "translation (L2 hit)"
                                             : "translation",
                        now, result.completedAt, vaddr, thread_index,
                        "vaddr", "thread");
                l1s_[th.core]->insert(result.entry);
                Cycle resume = std::max(result.completedAt,
                                        queue_.curCycle());
                scheduleStep(thread_index, resume + burstCycles(th));
            });
        return;
    }

    // Translation overlapped with the L1 cache access: no stall
    // (the hit class records latency 0 for exactly that reason).
    if (latency_) {
        latency_->l1Hit.record(0);
        if (!latency_->byCtx.empty())
            latency_->byCtx[thread.ctx]->record(0);
    }
    scheduleStep(thread_index, now + burstCycles(thread));
}

void
System::recordMissLatency(std::size_t thread_index,
                          const core::TranslationResult &result,
                          Cycle issued)
{
    if (!latency_)
        return;
    const Cycle lat =
        result.completedAt > issued ? result.completedAt - issued : 0;
    const LatClass cls = result.degraded    ? LatClass::Degraded
        : result.eccRewalk                  ? LatClass::EccRewalk
        : result.walked                     ? LatClass::Walk
        : result.remote                     ? LatClass::L2HitRemote
                                            : LatClass::L2HitLocal;
    latency_->of(cls).record(lat);
    if (!latency_->byCtx.empty())
        latency_->byCtx[threads_[thread_index].ctx]->record(lat);
}

void
System::sampleCounters(Cycle at)
{
    sim::recorder().counter(0, "event queue depth", at, queue_.size());
    sim::recorder().counter(1, "in-flight L2 misses", at,
                            org_->outstandingAccesses());
    if (counterFabric_)
        sim::recorder().counter(2, "fabric links held", at,
                                counterFabric_->linksHeld(at));
}

void
System::installCounterEvent()
{
    if (config_.counterInterval == 0 || !sim::recording())
        return;
    // lastPriority: the sample sees every event of its cycle.
    queue_.scheduleLambda(
        queue_.curCycle() + config_.counterInterval,
        [this] {
            if (unfinished_ == 0)
                return;
            sampleCounters(queue_.curCycle());
            installCounterEvent();
        },
        Event::lastPriority);
}

void
System::installProgressEvent()
{
    if (!progress_)
        return;
    // Check the wall clock every few thousand cycles: frequent enough
    // that any human-scale period is honoured, rare enough that the
    // check itself never shows up in a profile.
    constexpr Cycle checkInterval = 8192;
    queue_.scheduleLambda(
        queue_.curCycle() + checkInterval,
        [this] {
            if (unfinished_ == 0)
                return;
            maybeProgress();
            installProgressEvent();
        },
        Event::lastPriority);
}

void
System::maybeProgress(bool force)
{
    if (!progress_)
        return;
    using clock = std::chrono::steady_clock;
    const auto wall = clock::now();
    const double since =
        std::chrono::duration<double>(wall - progress_->lastEmit).count();
    if (!force && since < config_.progressSeconds)
        return;

    const Cycle cycle = queue_.curCycle();
    std::uint64_t accesses = 0;
    for (const HwThread &thread : threads_)
        accesses += thread.accessesDone;

    const double cyc_rate = since > 0
        ? static_cast<double>(cycle - progress_->lastCycle) / since
        : 0.0;
    const double acc_rate = since > 0
        ? static_cast<double>(accesses - progress_->lastAccesses) / since
        : 0.0;
    const double pct = progress_->totalQuota
        ? 100.0 * static_cast<double>(accesses) /
              static_cast<double>(progress_->totalQuota)
        : 100.0;
    const double eta = acc_rate > 0
        ? static_cast<double>(progress_->totalQuota - accesses) / acc_rate
        : 0.0;
    const std::uint64_t faults = counterFabric_
        ? static_cast<std::uint64_t>(counterFabric_->faultsInjected.value())
        : 0;
    std::fprintf(stderr,
                 "[progress] cycle %llu | %.2fM cyc/s | %.2fM acc/s | "
                 "%.1f%% of quota | ~%.0fs left | faults %llu\n",
                 static_cast<unsigned long long>(cycle), cyc_rate * 1e-6,
                 acc_rate * 1e-6, pct, eta,
                 static_cast<unsigned long long>(faults));

    progress_->lastEmit = wall;
    progress_->lastCycle = cycle;
    progress_->lastAccesses = accesses;
}

void
System::installContextSwitchEvent()
{
    if (config_.contextSwitchInterval == 0)
        return;
    Cycle when = queue_.curCycle() + config_.contextSwitchInterval;
    queue_.scheduleLambda(when, [this] {
        if (unfinished_ == 0)
            return;
        // x86 context switch without PCID: everything is flushed.
        for (auto &l1 : l1s_)
            l1->invalidateAll();
        org_->flushAll();
        installContextSwitchEvent();
    });
}

void
System::stormOp()
{
    if (unfinished_ == 0)
        return;

    // The storm app is the last context: allocate-promote-break cycles
    // over its shared pool (paper §V, TLB storm microbenchmark).
    auto storm_app = static_cast<unsigned>(config_.apps.size() - 1);
    auto ctx = static_cast<ContextId>(storm_app);
    const workload::WorkloadSpec &spec = config_.apps[storm_app].spec;

    std::uint64_t regions =
        std::max<std::uint64_t>(1, spec.warmPages / 512);
    std::uint64_t region = stormRegionCursor_++ % regions;
    Addr base = workload::AccessGenerator::sharedBase(ctx) +
                (region << pageShift(PageSize::TwoMB));

    unsigned invalidated =
        pageTable_->setRegionSuperpage(ctx, base, stormPromote_);
    stormPromote_ = !stormPromote_;

    // Sharers: every core running a thread of the storm context,
    // precomputed at thread placement.
    const std::vector<CoreId> &sharers = ctxSharers_[ctx];

    // A promote invalidates 512 distinct entries; we time a sample of
    // the messages and pause sharers for the IPI handler.
    for (std::size_t i = 0; i < threads_.size(); ++i) {
        if (threads_[i].ctx == ctx && !threads_[i].finished)
            threads_[i].pendingStall += config_.ipiPauseCycles;
    }
    unsigned messages = std::min<unsigned>(
        config_.stormMessagesPerOp, std::max(1u, invalidated));
    Cycle now = queue_.curCycle();
    TRACE(Shootdown, "storm op region ", region, " ",
          stormPromote_ ? "break" : "promote", " invalidated ",
          invalidated, " entries, ", messages, " timed messages");
    for (unsigned m = 0; m < messages; ++m) {
        Addr page = base + (static_cast<Addr>(m)
                            << pageShift(PageSize::FourKB));
        CoreId initiator = sharers.empty() ? 0 : sharers[m %
                                                         sharers.size()];
        org_->shootdown(initiator, ctx, page, sharers, now, nullptr);
    }

    queue_.scheduleLambda(now + config_.stormRemapInterval,
                          [this] { stormOp(); });
}

void
System::installStormEvent()
{
    if (config_.stormRemapInterval == 0)
        return;
    queue_.scheduleLambda(queue_.curCycle() + config_.stormRemapInterval,
                          [this] { stormOp(); });
}

void
System::installEpochEvent()
{
    if (config_.statsEpochInterval == 0)
        return;
    // lastPriority: the snapshot sees every stat update of its cycle.
    queue_.scheduleLambda(
        queue_.curCycle() + config_.statsEpochInterval,
        [this] {
            if (unfinished_ == 0)
                return;
            TRACE(Stats, "epoch ", epochSnapshots_.size(),
                  " snapshot", config_.statsEpochReset
                                   ? " (and reset)" : "");
            org_->syncFaultStats(queue_.curCycle());
            std::ostringstream os;
            os << "{\"epoch\":" << epochSnapshots_.size()
               << ",\"cycle\":" << queue_.curCycle() << ",\"stats\":";
            dumpJson(os);
            os << "}";
            epochSnapshots_.push_back(os.str());
            if (config_.statsEpochReset)
                resetAll();
            installEpochEvent();
        },
        Event::lastPriority);
}

void
System::dumpStatsJson(std::ostream &out) const
{
    out << "{\"epochs\":[";
    for (std::size_t i = 0; i < epochSnapshots_.size(); ++i) {
        if (i)
            out << ",";
        out << epochSnapshots_[i];
    }
    out << "],\"final\":";
    dumpJson(out);
    out << "}";
}

std::vector<double>
System::paperBuckets(const stats::Distribution &dist)
{
    // Paper bins: 1, 2-4, 5-8, 9-12, ..., 25-28, 29+.
    std::vector<double> bins(9, 0.0);
    const auto &buckets = dist.buckets();
    std::uint64_t total = dist.numSamples();
    if (total == 0)
        return bins;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        if (!buckets[i])
            continue;
        auto value = static_cast<unsigned>(i + 1); // bucket i holds i+1
        std::size_t bin;
        if (value <= 1)
            bin = 0;
        else if (value <= 4)
            bin = 1;
        else if (value >= 29)
            bin = 8;
        else
            bin = 2 + (value - 5) / 4;
        bins[bin] += static_cast<double>(buckets[i]);
    }
    bins[8] += static_cast<double>(dist.overflow());
    for (double &b : bins)
        b /= static_cast<double>(total);
    return bins;
}

void
System::prewarm()
{
    // Install the steady-state resident sets so short runs measure
    // capacity behaviour rather than the compulsory-miss transient.
    // Insert deepest rank first so the hottest pages end most recent.
    bool shared = core::isShared(config_.org.kind);
    unsigned cores = config_.org.numCores;

    if (shared) {
        // One copy chip-wide: each app gets an equal share of the
        // aggregate capacity.
        std::uint64_t budget = org_->totalEntries() * 95 / 100 /
                               config_.apps.size();
        for (std::size_t a = 0; a < config_.apps.size(); ++a) {
            const auto &spec = config_.apps[a].spec;
            auto ctx = static_cast<ContextId>(a);
            std::uint64_t ranks = std::min<std::uint64_t>(
                spec.warmPages, budget);
            for (std::uint64_t r = ranks; r-- > 0;) {
                Addr vaddr =
                    workload::AccessGenerator::sharedBase(ctx) +
                    (r << pageShift(PageSize::FourKB));
                warmInstall(0, ctx, vaddr,
                            pageTable_->translate(ctx, vaddr), false);
            }
        }
    } else {
        // Every core holds its own copy of its threads' top ranks:
        // the replication the shared organizations eliminate.
        for (CoreId c = 0; c < cores; ++c) {
            const auto &residents = threadsOfCore_[c];
            if (residents.empty())
                continue;
            std::uint64_t budget = static_cast<std::uint64_t>(
                                       config_.org.l2Entries) *
                                   9 / 10 / residents.size();
            for (std::size_t ti : residents) {
                const HwThread &thread = threads_[ti];
                const auto &spec = config_.apps[thread.app].spec;
                std::uint64_t ranks = std::min<std::uint64_t>(
                    spec.warmPages, budget);
                for (std::uint64_t r = ranks; r-- > 0;) {
                    Addr vaddr =
                        workload::AccessGenerator::sharedBase(
                            thread.ctx) +
                        (r << pageShift(PageSize::FourKB));
                    warmInstall(
                        c, thread.ctx, vaddr,
                        pageTable_->translate(thread.ctx, vaddr),
                        false);
                }
            }
        }
    }

    // Hot sets: resident in both the L1 group and the L2 structure
    // (the hierarchy is mostly-inclusive).
    for (const HwThread &thread : threads_) {
        const auto &spec = config_.apps[thread.app].spec;
        unsigned t_index = thread.indexInApp;
        for (std::uint64_t p = spec.hotPages; p-- > 0;) {
            Addr vaddr =
                workload::AccessGenerator::privateBase(thread.ctx,
                                                       t_index) +
                (p << pageShift(PageSize::FourKB));
            warmInstall(thread.core, thread.ctx, vaddr,
                        pageTable_->translate(thread.ctx, vaddr), true);
        }
    }
}

void
System::warmInstall(CoreId core, ContextId ctx, Addr vaddr,
                    const mem::Translation &t, bool into_l1)
{
    if (core::isShared(config_.org.kind))
        org_->preloadShared(ctx, vaddr, t);
    else
        org_->preloadPrivate(core, ctx, vaddr, t);
    if (into_l1) {
        tlb::TlbEntry entry;
        entry.valid = true;
        entry.size = t.size;
        entry.vpn = pageNumber(vaddr, t.size);
        entry.ppn = t.ppn;
        entry.ctx = ctx;
        l1s_.at(core)->insert(entry);
    }
}

void
System::fastForwardAccess(HwThread &thread, Cycle now)
{
    ++thread.accessesDone;
    Addr vaddr = nextAddress(thread);

    // Stat-free L1 probe: refreshes recency exactly like a demand
    // lookup without touching the demand counters. Probing every size
    // array defers the page-table translation to the L1-miss path,
    // which is what keeps fast-forward several times cheaper than
    // detail per access.
    if (l1s_[thread.core]->touchAnySize(thread.ctx, vaddr))
        return;

    mem::Translation t = pageTable_->translate(thread.ctx, vaddr);
    PageNum vpn = pageNumber(vaddr, t.size);

    // L1 miss: probe the home L2 array the detailed engine would, and
    // on a miss warm the walk path (PSC + walk-reference caches) at
    // the core the placement policy would walk on, then install into
    // the home structure -- all without stats, queues or arbitration.
    tlb::SetAssocTlb &home =
        org_->array(org_->homeArrayOf(thread.core, vaddr));
    if (!home.touchAnySize(thread.ctx, vaddr)) {
        CoreId walk_core = org_->walkCoreFor(thread.core, vaddr);
        walkers_[walk_core]->warmWalk(thread.ctx, vaddr, now);
        warmInstall(thread.core, thread.ctx, vaddr, t, false);
    }
    // The returned translation refills the L1 either way.
    tlb::TlbEntry entry;
    entry.valid = true;
    entry.size = t.size;
    entry.vpn = vpn;
    entry.ppn = t.ppn;
    entry.ctx = thread.ctx;
    l1s_[thread.core]->insert(entry);
}

void
System::fastForward(std::uint64_t accesses)
{
    if (accesses == 0 || threads_.empty())
        return;
    Cycle now = queue_.curCycle();

    // Extend every quota first so nextAddress()'s remaining-quota
    // batch cap sees a consistent stream position throughout.
    for (HwThread &thread : threads_)
        thread.quota = thread.accessesDone + accesses;

    // Round-robin in address-batch quanta, so shared structures (the
    // page table, shared L2 arrays, walk caches) interleave the
    // threads' streams roughly as detailed execution would.
    std::vector<std::uint64_t> left(threads_.size(), accesses);
    bool any = true;
    while (any) {
        any = false;
        for (std::size_t i = 0; i < threads_.size(); ++i) {
            auto n = std::min<std::uint64_t>(HwThread::addrBatch,
                                             left[i]);
            if (!n)
                continue;
            any = true;
            left[i] -= n;
            for (std::uint64_t k = 0; k < n; ++k)
                fastForwardAccess(threads_[i], now);
        }
    }
    ffAccessesDone_ += accesses * threads_.size();

    // Advance the clock by the skipped stretch's nominal stall-free
    // time (the worst per-access burst cost over the mix), so
    // retention TTLs in the walk caches age across the gap. Any
    // deterministic monotone charge is sound here; this one matches
    // the detailed engine's hit-path cost. The queue is empty at every
    // fast-forward point (quiescent boundary), so advancing cannot
    // strand events.
    double worst = 0;
    for (const HwThread &thread : threads_) {
        const workload::WorkloadSpec &spec =
            config_.apps[thread.app].spec;
        worst = std::max(worst, spec.instructionsPerAccess *
                                        spec.baseCpi +
                                    spec.dataStallPerAccess);
    }
    queue_.advanceTo(now + static_cast<Cycle>(
                               worst * static_cast<double>(accesses)));
}

void
System::beginRun(std::uint64_t total_quota)
{
    installContextSwitchEvent();
    installStormEvent();
    installEpochEvent();

    if (config_.progressSeconds >= 0 && !progress_) {
        progress_ = std::make_unique<Progress>();
        progress_->start = std::chrono::steady_clock::now();
        progress_->lastEmit = progress_->start;
        progress_->totalQuota = total_quota;
    }
    nextCounterAt_ = 0;
    installCounterEvent();
    installProgressEvent();
}

std::uint64_t
System::configFingerprint() const
{
    // Every configuration field that shapes the functional state a
    // checkpoint carries: array geometry, stream seeds, the workload
    // layout. Deliberately excludes pure timing and observability
    // knobs (latencies, stats options), so a checkpoint taken at a
    // quiescent boundary restores under any of them.
    std::vector<std::uint64_t> words;
    auto put = [&words](std::uint64_t v) { words.push_back(v); };
    auto putD = [&put](double v) {
        std::uint64_t bits;
        std::memcpy(&bits, &v, 8);
        put(bits);
    };

    const core::OrgConfig &org = config_.org;
    put(static_cast<std::uint64_t>(org.kind));
    put(org.numCores);
    put(org.l2Entries);
    put(org.l2Assoc);
    put(org.nocstarSliceEntries);
    put(org.banks);
    put(static_cast<std::uint64_t>(org.ptwPlacement));
    put(org.prefetchDistance);

    const tlb::L1TlbConfig &l1 = config_.l1;
    put(l1.entries4k);
    put(l1.assoc4k);
    put(l1.entries2m);
    put(l1.assoc2m);
    put(l1.entries1g);
    put(l1.assoc1g);
    putD(l1.scale);

    const mem::CacheModelConfig &caches = config_.caches;
    put(caches.l2Lines);
    put(caches.llcLines);
    put(caches.l2RetentionCycles);
    put(caches.llcRetentionCycles);
    put(config_.walker.pscEntriesPerLevel);

    put(config_.seed);
    put(config_.superpages ? 1 : 0);
    put(config_.smtPerCore);
    put(static_cast<std::uint64_t>(config_.hotspotSlice) + 1);
    put(config_.sampling.warmupAccesses);

    put(config_.apps.size());
    for (const AppConfig &app : config_.apps) {
        const workload::WorkloadSpec &spec = app.spec;
        put(app.threads);
        put(sim::fnv1a(app.traceFile.data(), app.traceFile.size()));
        put(spec.hotPages);
        put(spec.warmPages);
        putD(spec.warmAlpha);
        put(spec.coldPages);
        putD(spec.warmFraction);
        putD(spec.coldFraction);
        putD(spec.instructionsPerAccess);
        putD(spec.baseCpi);
        putD(spec.dataStallPerAccess);
        putD(spec.superpageFraction);
    }
    return sim::fnv1a(words.data(), words.size() * sizeof(words[0]));
}

void
System::saveCheckpoint(const std::string &path)
{
    sim::CkptWriter w(configFingerprint());

    w.begin(sim::ckptTag('C', 'L', 'K', ' '));
    w.u64(queue_.curCycle());
    w.u64(ffAccessesDone_);
    w.end();

    w.begin(sim::ckptTag('R', 'N', 'G', 'S'));
    for (std::uint64_t word : rng_.state())
        w.u64(word);
    w.end();

    w.begin(sim::ckptTag('P', 'G', 'T', 'B'));
    pageTable_->saveState(w);
    w.end();

    w.begin(sim::ckptTag('C', 'A', 'C', 'H'));
    caches_->saveState(w);
    w.end();

    w.begin(sim::ckptTag('W', 'A', 'L', 'K'));
    w.u64(walkers_.size());
    for (const auto &walker : walkers_)
        walker->saveState(w);
    w.end();

    w.begin(sim::ckptTag('L', '1', 'T', 'B'));
    w.u64(l1s_.size());
    for (const auto &l1 : l1s_)
        l1->saveState(w);
    w.end();

    w.begin(sim::ckptTag('O', 'R', 'G', 'A'));
    w.u64(org_->numHomeArrays());
    for (unsigned i = 0; i < org_->numHomeArrays(); ++i)
        org_->array(i).saveState(w);
    w.end();

    w.begin(sim::ckptTag('T', 'H', 'R', 'D'));
    w.u64(threads_.size());
    for (const HwThread &thread : threads_) {
        w.u64(thread.accessesDone);
        w.u64(thread.instructions);
        w.f64(thread.cycleCarry);
        w.u64(thread.pendingStall);
        w.u32(thread.batchPos);
        w.u32(thread.batchLen);
        for (Addr a : thread.batch)
            w.u64(a);
        std::vector<std::uint64_t> gen_state;
        thread.gen->saveState(gen_state);
        w.u64(gen_state.size());
        for (std::uint64_t word : gen_state)
            w.u64(word);
        w.u8(thread.hotspotRng ? 1 : 0);
        if (thread.hotspotRng)
            for (std::uint64_t word : thread.hotspotRng->state())
                w.u64(word);
    }
    w.end();

    w.save(path);
    checkpointBytes_ = w.sizeBytes();
    inform("checkpoint: saved ", w.sizeBytes(), " bytes to ", path);
}

void
System::restoreCheckpoint(const std::string &path)
{
    sim::CkptReader r(path, configFingerprint());

    r.enter(sim::ckptTag('C', 'L', 'K', ' '));
    Cycle clk = r.u64();
    ffAccessesDone_ = r.u64();
    r.leave();

    r.enter(sim::ckptTag('R', 'N', 'G', 'S'));
    std::array<std::uint64_t, 4> rng_state;
    for (std::uint64_t &word : rng_state)
        word = r.u64();
    rng_.setState(rng_state);
    r.leave();

    r.enter(sim::ckptTag('P', 'G', 'T', 'B'));
    pageTable_->restoreState(r);
    r.leave();

    r.enter(sim::ckptTag('C', 'A', 'C', 'H'));
    caches_->restoreState(r);
    r.leave();

    r.enter(sim::ckptTag('W', 'A', 'L', 'K'));
    if (std::uint64_t n = r.u64(); n != walkers_.size())
        fatal("checkpoint ", path, ": ", n,
              " walkers saved but this system has ", walkers_.size());
    for (auto &walker : walkers_)
        walker->restoreState(r);
    r.leave();

    r.enter(sim::ckptTag('L', '1', 'T', 'B'));
    if (std::uint64_t n = r.u64(); n != l1s_.size())
        fatal("checkpoint ", path, ": ", n,
              " L1 groups saved but this system has ", l1s_.size());
    for (auto &l1 : l1s_)
        l1->restoreState(r);
    r.leave();

    r.enter(sim::ckptTag('O', 'R', 'G', 'A'));
    if (std::uint64_t n = r.u64(); n != org_->numHomeArrays())
        fatal("checkpoint ", path, ": ", n,
              " L2 arrays saved but this organization has ",
              org_->numHomeArrays());
    for (unsigned i = 0; i < org_->numHomeArrays(); ++i)
        org_->array(i).restoreState(r);
    r.leave();

    r.enter(sim::ckptTag('T', 'H', 'R', 'D'));
    if (std::uint64_t n = r.u64(); n != threads_.size())
        fatal("checkpoint ", path, ": ", n,
              " threads saved but this system has ", threads_.size());
    for (HwThread &thread : threads_) {
        thread.accessesDone = r.u64();
        thread.instructions = r.u64();
        thread.cycleCarry = r.f64();
        thread.pendingStall = r.u64();
        thread.batchPos = r.u32();
        thread.batchLen = r.u32();
        if (thread.batchPos > thread.batchLen ||
            thread.batchLen > HwThread::addrBatch)
            fatal("checkpoint ", path, ": thread batch cursor ",
                  thread.batchPos, "/", thread.batchLen,
                  " out of range");
        for (Addr &a : thread.batch)
            a = r.u64();
        std::uint64_t gen_words = r.u64();
        std::vector<std::uint64_t> gen_state(gen_words);
        for (std::uint64_t &word : gen_state)
            word = r.u64();
        if (std::size_t used = thread.gen->restoreState(gen_state, 0);
            used != gen_words)
            fatal("checkpoint ", path, ": address source consumed ",
                  used, " of ", gen_words, " state words");
        bool has_hotspot = r.u8() != 0;
        if (has_hotspot != (thread.hotspotRng != nullptr))
            fatal("checkpoint ", path, ": hotspot stream mismatch");
        if (thread.hotspotRng) {
            std::array<std::uint64_t, 4> s;
            for (std::uint64_t &word : s)
                word = r.u64();
            thread.hotspotRng->setState(s);
        }
    }
    r.leave();

    // The boundary is quiescent: the queue is empty and all timing
    // state (ports, arbitration, outstanding walks) is pristine in
    // both the checkpointing and the restoring run, so only the clock
    // itself needs re-aligning.
    queue_.advanceTo(clk);
    inform("checkpoint: restored ", path, " at cycle ", clk);
}

System::MemoryAudit
System::memoryAudit() const
{
    MemoryAudit audit;
    for (unsigned i = 0; i < org_->numHomeArrays(); ++i)
        audit.orgArrayBytes += org_->array(i).memoryBytes();
    for (const auto &l1 : l1s_)
        audit.l1Bytes += l1->memoryBytes();
    audit.pageTableBytes = pageTable_->memoryBytes();
    audit.cacheModelBytes = caches_->memoryBytes();
    if (counterFabric_)
        audit.fabricBytes = counterFabric_->memoryBytes();
    audit.checkpointBytes = checkpointBytes_;
    return audit;
}

RunResult
System::run(std::uint64_t accesses_per_thread)
{
    if (!config_.checkpointRestorePath.empty()) {
        restoreCheckpoint(config_.checkpointRestorePath);
    } else {
        prewarm();
        if (config_.sampling.warmupAccesses > 0)
            fastForward(config_.sampling.warmupAccesses);
    }
    // The warm boundary: prewarm / warmup done, nothing scheduled,
    // no detailed state yet. Both checkpoint directions anchor here.
    if (!config_.checkpointSavePath.empty())
        saveCheckpoint(config_.checkpointSavePath);

    if (config_.sampling.enabled())
        return runSampled(accesses_per_thread);

    unfinished_ = static_cast<unsigned>(threads_.size());
    for (std::size_t i = 0; i < threads_.size(); ++i) {
        threads_[i].quota =
            threads_[i].accessesDone + accesses_per_thread;
        // Stagger starts a little so cores do not phase-lock.
        scheduleStep(i, queue_.curCycle() + rng_.below(8));
    }
    beginRun(accesses_per_thread * threads_.size());

    queue_.run();

    return finishRun();
}

RunResult
System::runSampled(std::uint64_t accesses_per_thread)
{
    const SamplingConfig &sampling = config_.sampling;

    // Window-placement jitter comes from a dedicated stream built
    // fresh here, so a restored run draws exactly the gap lengths the
    // straight-through run would.
    Random gap_rng(sampling.seed ^ 0x5a3919f1ULL);

    // The mean fast-forward gap: explicit, or derived so that warmup
    // plus windows plus gaps tile the nominal per-thread run length.
    std::uint64_t base_gap = sampling.ffAccesses;
    if (base_gap == 0) {
        std::uint64_t spent =
            sampling.warmupAccesses +
            static_cast<std::uint64_t>(sampling.windows) *
                sampling.detailAccesses;
        if (accesses_per_thread > spent && sampling.windows > 1)
            base_gap = (accesses_per_thread - spent) /
                       (sampling.windows - 1);
    }

    beginRun(accesses_per_thread * threads_.size());

    std::vector<double> ipc_samples;
    std::vector<double> latency_samples;
    for (unsigned w = 0; w < sampling.windows; ++w) {
        if (w > 0) {
            // Jittered gap in [base/2, 3*base/2]: breaks any phase
            // lock between the window period and program periodicity,
            // the classic systematic-sampling hazard.
            std::uint64_t gap = base_gap >= 2
                ? base_gap / 2 + gap_rng.below(base_gap + 1)
                : base_gap;
            fastForward(gap);
        }

        Cycle window_start = queue_.curCycle();
        std::uint64_t instr_before = 0;
        for (const HwThread &thread : threads_)
            instr_before += thread.instructions;
        double lat_before = org_->totalAccessLatency.value();
        double acc_before = org_->l2Accesses.value();

        unfinished_ = static_cast<unsigned>(threads_.size());
        for (std::size_t i = 0; i < threads_.size(); ++i) {
            threads_[i].finished = false;
            threads_[i].quota =
                threads_[i].accessesDone + sampling.detailAccesses;
            scheduleStep(i, queue_.curCycle() + rng_.below(8));
        }
        if (w > 0) {
            // The self-reinstalling counter / heartbeat events died
            // with the previous window's drain; re-arm them.
            installCounterEvent();
            installProgressEvent();
        }
        queue_.run();

        Cycle window_end = window_start;
        std::uint64_t instr_after = 0;
        for (const HwThread &thread : threads_) {
            window_end = std::max(window_end, thread.finishedAt);
            instr_after += thread.instructions;
        }
        Cycle window_cycles = window_end - window_start;
        ipc_samples.push_back(
            window_cycles > 0
                ? static_cast<double>(instr_after - instr_before) /
                      static_cast<double>(window_cycles)
                : 0.0);
        double window_accesses = org_->l2Accesses.value() - acc_before;
        latency_samples.push_back(
            window_accesses > 0
                ? (org_->totalAccessLatency.value() - lat_before) /
                      window_accesses
                : 0.0);
    }

    auto [ipc_mean, ipc_ci] = meanCi95(ipc_samples);
    auto [lat_mean, lat_ci] = meanCi95(latency_samples);
    samplingStats_->windows +=
        static_cast<double>(ipc_samples.size());
    samplingStats_->ffAccesses += static_cast<double>(ffAccessesDone_);
    samplingStats_->ipcMean += ipc_mean;
    samplingStats_->ipcCi95 += ipc_ci;
    samplingStats_->latencyMean += lat_mean;
    samplingStats_->latencyCi95 += lat_ci;

    RunResult result = finishRun();
    result.sampled = true;
    result.sampleWindows = static_cast<unsigned>(ipc_samples.size());
    result.sampledFfAccesses = ffAccessesDone_;
    result.sampledIpcMean = ipc_mean;
    result.sampledIpcCi95 = ipc_ci;
    result.sampledLatencyMean = lat_mean;
    result.sampledLatencyCi95 = lat_ci;
    return result;
}

RunResult
System::finishRun()
{
    if (progress_)
        maybeProgress(true);

    org_->syncFaultStats(queue_.curCycle());

    if (capture_)
        capture_->save(config_.captureTracePath);

    if (!config_.statsJsonPath.empty()) {
        // Append one line per run: a single run's file is a valid JSON
        // document, a sweep's file is JSONL.
        std::ofstream out(config_.statsJsonPath, std::ios::app);
        if (!out)
            warn("cannot write stats JSON to ", config_.statsJsonPath);
        else {
            dumpStatsJson(out);
            out << "\n";
        }
    }

    RunResult result;
    result.appCycles.assign(config_.apps.size(), 0);
    std::vector<std::uint64_t> app_instr(config_.apps.size(), 0);
    for (const HwThread &thread : threads_) {
        result.cycles = std::max(result.cycles, thread.finishedAt);
        result.meanCycles += static_cast<double>(thread.finishedAt) /
                             static_cast<double>(threads_.size());
        result.instructions += thread.instructions;
        result.appCycles[thread.app] =
            std::max(result.appCycles[thread.app], thread.finishedAt);
        app_instr[thread.app] += thread.instructions;
    }
    result.ipc = result.cycles
        ? static_cast<double>(result.instructions) /
              static_cast<double>(result.cycles)
        : 0.0;
    for (std::size_t a = 0; a < config_.apps.size(); ++a) {
        result.appIpc.push_back(
            result.appCycles[a]
                ? static_cast<double>(app_instr[a]) /
                      static_cast<double>(result.appCycles[a])
                : 0.0);
    }

    result.l1Accesses =
        static_cast<std::uint64_t>(l1Accesses_.value());
    result.l1Misses = static_cast<std::uint64_t>(l1Misses_.value());
    result.l2Accesses =
        static_cast<std::uint64_t>(org_->l2Accesses.value());
    result.l2Hits = static_cast<std::uint64_t>(org_->l2Hits.value());
    result.l2Misses = static_cast<std::uint64_t>(org_->l2Misses.value());
    result.l2MissRate = org_->l2MissRate();
    result.avgL2AccessLatency = org_->averageAccessLatency();

    double walks = 0, walk_cycles = 0;
    for (const auto &walker : walkers_) {
        walks += walker->walks.value();
        walk_cycles += walker->walkCycles.value();
    }
    result.walks = static_cast<std::uint64_t>(walks);
    result.avgWalkLatency = walks > 0 ? walk_cycles / walks : 0.0;
    result.beyondL2Fraction = caches_->beyondL2Fraction();

    // Leakage of the TLB arrays over the run at 2 GHz.
    double tlb_mw = energy::SramModel::leakageMw(org_->totalEntries());
    for (unsigned c = 0; c < config_.org.numCores; ++c)
        tlb_mw += energy::SramModel::leakageMw(100); // L1 group
    energy_.addLeakage(tlb_mw, result.cycles);
    result.energyPj = energy_.totalPj();

    if (auto *nocstar = dynamic_cast<core::NocstarOrg *>(org_.get())) {
        core::Interconnect &fabric = nocstar->fabric();
        result.fabricAvgLatency = fabric.averageLatency();
        result.fabricNoContention = fabric.noContentionFraction();
        result.fabricSetupAttempts =
            static_cast<std::uint64_t>(fabric.setupAttempts.value());
        result.fabricSetupFailures =
            static_cast<std::uint64_t>(fabric.setupFailures.value());
        result.fabricRetryRate = fabric.setupRetryRate();
        if (config_.org.recordGrantWait) {
            double worst = 0, sum = 0;
            unsigned tiles = config_.org.numCores;
            for (CoreId t = 0; t < tiles; ++t) {
                const sim::LatencyHistogram *h = fabric.grantWaitOf(t);
                double p99 = h ? h->percentile(0.99) : 0.0;
                worst = std::max(worst, p99);
                sum += p99;
            }
            result.fabricGrantWaitP99Max = worst;
            result.fabricGrantWaitP99Mean =
                tiles > 0 ? sum / tiles : 0.0;
        }
        result.faultsInjected =
            static_cast<std::uint64_t>(fabric.faultsInjected.value());
        result.degradedMessages =
            static_cast<std::uint64_t>(fabric.degradedMessages.value());
        double messages = fabric.messagesSent.value();
        result.degradedFraction = messages > 0
            ? fabric.degradedMessages.value() / messages
            : 0.0;
    }
    double ecc_rewalks = org_->sliceEccRewalks.value();
    for (const auto &walker : walkers_)
        ecc_rewalks += walker->eccRewalks.value();
    result.eccRewalks = static_cast<std::uint64_t>(ecc_rewalks);

    result.shootdowns =
        static_cast<std::uint64_t>(org_->shootdowns.value());
    result.avgShootdownLatency = result.shootdowns
        ? org_->totalShootdownLatency.value() /
              static_cast<double>(result.shootdowns)
        : 0.0;

    result.concurrencyBuckets = paperBuckets(org_->concurrency);
    result.sliceConcurrencyBuckets =
        paperBuckets(org_->sliceConcurrency);
    return result;
}

} // namespace nocstar::cpu
