/**
 * @file
 * The NOCSTAR interconnect (paper §III-B): a latchless,
 * circuit-switched side-band network giving near single-cycle
 * traversal between any L1 TLB and any L2 TLB slice over one
 * chip-wide mesh with XY paths.
 *
 * Control path, modelled cycle-accurately:
 *  - a requester posts path-setup requests to the arbiter of *every*
 *    link on its path in the same cycle; a send() posted in cycle T
 *    arbitrates from T, and each source tile has a single set of
 *    request wires, so one outstanding setup per source per cycle;
 *  - each link arbiter grants at most one requester per cycle;
 *  - a requester proceeds only if ALL its links granted ("the grants
 *    are ANDed"); otherwise it retries next cycle, guaranteeing no
 *    partially-held paths and hence no deadlock;
 *  - arbiters share a static priority order that rotates round-robin
 *    every priorityEpoch cycles (default 1000) to prevent starvation,
 *    ties broken by source id then FIFO age. Because the order is
 *    chip-wide consistent, the highest-priority contender always
 *    acquires its full path: livelock-free, and a run's outcome
 *    depends only on its config and seed, never on host parallelism.
 *
 * Datapath: granted messages traverse muxes without latching, covering
 * up to HPCmax hops per cycle; longer paths take ceil(hops / HPCmax)
 * cycles through pipeline latches (§III-B3).
 *
 * What the fabric guarantees to organizations and the system:
 *  - message delivery with continuation: the continuation fires
 *    exactly once, at the destination latch cycle, on the simulated
 *    queue, in place inside the pooled message that carried it;
 *  - per-link stats/heatmap export: the link_grants / link_denies /
 *    link_hold_cycles vectors are indexed by flattened LinkId;
 *  - fault injection: link outages (transient or permanent, with
 *    deterministic route-around), grant loss, capped backoff,
 *    watchdog, and the store-and-forward mesh fallback;
 *  - trace lanes: granted paths emit Lane::Link hold spans and
 *    Lane::Message spans.
 */

#ifndef NOCSTAR_CORE_INTERCONNECT_HH
#define NOCSTAR_CORE_INTERCONNECT_HH

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/config.hh"
#include "noc/topology.hh"
#include "sim/event_queue.hh"
#include "sim/latency_histogram.hh"
#include "sim/stats.hh"

namespace nocstar::core
{

/**
 * The event-driven NOCSTAR fabric: request queues, priority rotation,
 * retry/backoff/watchdog, mesh fallback and the XY path model.
 */
class Interconnect final : public stats::StatGroup
{
  public:
    /**
     * A message's continuation, invoked with the cycle the message is
     * latched at the destination tile. send() constructs it directly
     * inside a pooled Message, where it stays until it runs; inline
     * capacity fits the largest organization continuation (NOCSTAR
     * remote lookup carrying the entry and the requester's completion
     * callback).
     */
    using DeliverFn = InlineFunction<void(Cycle arrival), 192>;

    /**
     * Largest tile count that keeps the dense per-pair path table
     * (O(tiles^2 x mean hops) words). Above it paths are materialized
     * on demand into two reusable scratch buffers instead, so a
     * 1024-tile fabric costs O(tiles) memory, not gigawords. A fault
     * plan forces the table at any size: route-around rewrites paths,
     * which needs them stored.
     */
    static constexpr unsigned kPathTableMaxTiles = 256;

    /** Reads @p config's hpcMax, priorityEpoch, faults and
     * recordGrantWait; kind NocstarIdeal makes every setup succeed.
     * fatal() on a zero hpcMax or priorityEpoch. */
    Interconnect(const std::string &name, EventQueue &queue,
                 const noc::GridTopology &topo, const OrgConfig &config,
                 stats::StatGroup *parent = nullptr);

    ~Interconnect() override;

    /**
     * One-way message: arbitration begins at max(now, curCycle); on
     * success the message arrives traversal(src, dst) cycles after its
     * setup cycle and @p deliver (any callable a DeliverFn can hold)
     * runs with the arrival cycle. Local (src == dst) messages deliver
     * immediately, inline.
     *
     * Each source tile has a single path-setup port (one set of
     * request wires to the arbiters), so its outstanding messages
     * arbitrate oldest-first, one per cycle.
     */
    template <typename F>
    void
    send(CoreId src, CoreId dst, Cycle now, F &&deliver)
    {
        post(src, dst, now, 0, false, std::forward<F>(deliver));
    }

    /**
     * Round-trip acquisition (Fig 16 left): the forward *and* reverse
     * paths are held from the setup cycle until the response has
     * returned, @p occupancy cycles after the request arrives at the
     * destination. @p deliver fires at the destination arrival; the
     * caller schedules the response completion itself (the return path
     * is pre-granted, adding one traversal).
     */
    template <typename F>
    void
    sendRoundTrip(CoreId src, CoreId dst, Cycle now, Cycle occupancy,
                  F &&deliver)
    {
        post(src, dst, now, occupancy, true, std::forward<F>(deliver));
    }

    const noc::GridTopology &topology() const { return topo_; }

    /** Hop count of the current path src -> dst. */
    unsigned
    pathHops(CoreId src, CoreId dst) const
    {
        if (pathOffset_.empty())
            return topo_.hops(src, dst);
        std::size_t pair = pairIndex(src, dst);
        return pathOffset_[pair + 1] - pathOffset_[pair];
    }

    /** Cycles a granted src -> dst path takes to traverse. */
    Cycle
    traversal(CoreId src, CoreId dst) const
    {
        return traversalCycles(pathHops(src, dst));
    }

    /** Append the flattened link ids a src -> dst message occupies
     * (debug / differential tests). */
    void pathLinksInto(CoreId src, CoreId dst,
                       std::vector<std::uint32_t> &out) const;

    /** Traversal cycles of a pipelined mesh segment of @p hops hops. */
    Cycle
    traversalCycles(unsigned hops) const
    {
        if (hops == 0)
            return 0;
        return (hops + config_.hpcMax - 1) / config_.hpcMax;
    }

    // Statistics exercised by the figures.
    stats::Scalar messagesSent;
    stats::Scalar setupAttempts;
    stats::Scalar setupFailures;
    /** Messages that experienced no contention delay at all (granted
     * in the cycle they were posted, no port queueing, no retry). */
    stats::Scalar zeroRetryMessages;
    stats::Scalar totalNetworkLatency; ///< send-call -> delivery cycles
    stats::Histogram retries; ///< setup retries of each message
    // Per-link load-imbalance telemetry, indexed by flattened link id
    // (GridTopology::LinkId::flatten()): how often each link was
    // acquired, how often it was the first blocker of a failed setup,
    // and for how many cycles in total it was held. linkHoldCycles
    // against the run length is the per-link occupancy heatmap.
    stats::Vector linkGrants;
    stats::Vector linkDenies;
    stats::Vector linkHoldCycles;
    // Fault-injection / resilience telemetry. All stay zero (and cost
    // nothing on the hot path) unless a fault plan is configured.
    stats::Scalar faultsInjected; ///< outages begun + grants lost
    /** Messages that gave up on circuit setup and fell back to the
     * store-and-forward maintenance mesh. */
    stats::Scalar degradedMessages;
    stats::Scalar backoffCycles; ///< extra wait beyond the 1-cycle retry
    stats::Scalar watchdogTrips; ///< messages rescued by the watchdog
    /** Cycles each link spent inside a fault window, indexed like
     * linkGrants (brought current by syncFaultStats()). */
    stats::Vector linkDeadCycles;

    /**
     * Bring linkDeadCycles current through @p now. Called before epoch
     * snapshots and at end of run; no-op without a fault plan.
     */
    void syncFaultStats(Cycle now);

    /**
     * True only while the continuation of a degraded (mesh-fallback)
     * message is running. The organization continuations read it
     * inside their bodies to tag the translation they are completing;
     * the single-threaded event queue guarantees deliveries never nest
     * across messages.
     */
    bool deliveredDegraded() const { return deliveringDegraded_; }

    /** Links held at cycle @p now (counter-track sampling). */
    unsigned
    linksHeld(Cycle now) const
    {
        unsigned held = 0;
        for (Cycle until : linkHeldUntil_)
            held += until > now ? 1 : 0;
        return held;
    }

    /** Average cycles from send() to delivery, network portion only. */
    double
    averageLatency() const
    {
        double n = messagesSent.value();
        return n > 0 ? totalNetworkLatency.value() / n : 0.0;
    }

    /** Fraction of messages that acquired their path with no retry. */
    double
    noContentionFraction() const
    {
        double n = messagesSent.value();
        return n > 0 ? zeroRetryMessages.value() / n : 0.0;
    }

    /** Failed setup attempts over all attempts (scaling figure). */
    double
    setupRetryRate() const
    {
        double n = setupAttempts.value();
        return n > 0 ? setupFailures.value() / n : 0.0;
    }

    /** Non-null when OrgConfig::recordGrantWait was set: one
     * histogram of send()-to-grant waits per source tile. */
    const sim::LatencyHistogram *
    grantWaitOf(CoreId src) const
    {
        return grantWait_ ? &(*grantWait_)[src] : nullptr;
    }

    /**
     * Resident bytes of the fabric (link holds, per-source FIFO heads,
     * occupancy bitmaps, fault vectors, the message pool, the path
     * tables), for the scaling bench's per-component memory audit.
     * The pool is counted whole: every message this fabric allocated
     * stays pooled for reuse, so its size is the run's peak of queued
     * plus in-flight messages.
     */
    std::size_t
    memoryBytes() const
    {
        std::size_t bytes =
            linkHeldUntil_.capacity() * sizeof(Cycle) +
            contenders_.capacity() * sizeof(CoreId) +
            pending_.capacity() * sizeof(MessageFifo) +
            pendingBits_.capacity() * sizeof(std::uint64_t) +
            linkFaultyUntil_.capacity() * sizeof(Cycle) +
            linkDeadPermanent_.capacity() * sizeof(std::uint8_t) +
            meshLinkFree_.capacity() * sizeof(Cycle) +
            messages_.capacity() * sizeof(std::unique_ptr<Message>) +
            messages_.size() * sizeof(Message) +
            pathOffset_.capacity() * sizeof(std::uint32_t) +
            pathLinks_.capacity() * sizeof(std::uint32_t) +
            pairDegraded_.capacity() * sizeof(std::uint8_t) +
            scratch_[0].capacity() * sizeof(std::uint32_t) +
            scratch_[1].capacity() * sizeof(std::uint32_t);
        if (grantWait_)
            bytes += grantWait_->size() * sizeof(sim::LatencyHistogram);
        return bytes;
    }

    /** Messages this fabric ever allocated (test hook). */
    std::size_t allocatedMessages() const { return messages_.size(); }

  private:
    struct Request
    {
        CoreId src;
        CoreId dst;
        Cycle posted; ///< cycle of the original send() call
        Cycle activeAt; ///< earliest cycle this request may arbitrate
        Cycle holdExtra; ///< extra link-hold cycles (round-trip mode)
        bool roundTrip;
        unsigned retries;
    };

    /**
     * One message from send() to delivery: the request under
     * arbitration and its continuation. The message is itself the
     * delivery event, scheduled for its arrival cycle once granted or
     * degraded, so the continuation is built in place by send() and
     * invoked in place by process(), never moved in between. While
     * queued it sits in its source's FIFO; while free, on the pool's
     * free list.
     */
    class Message final : public Event
    {
      public:
        explicit Message(Interconnect *owner) : owner_(owner) {}

        /** Run the continuation, then return to the pool. */
        void process() override;

        Request req{};
        DeliverFn deliver;
        /** Delivered over the fallback mesh (drives deliveredDegraded()). */
        bool degraded = false;
        /** Next message in the source FIFO or on the free list. */
        Message *next = nullptr;

      private:
        Interconnect *owner_;
    };

    /** Intrusive FIFO of one source tile's waiting messages. */
    struct MessageFifo
    {
        Message *head = nullptr;
        Message *tail = nullptr;
    };

    /**
     * Try to reserve every link of @p req's path(s): deny-counting,
     * fault checks and the hold-until bookkeeping live here.
     * All-or-nothing.
     */
    bool tryAcquire(const Request &req, Cycle now);

    /** Route-around left no circuit path for this pair: skip setup and
     * serve it from the fallback mesh. Only consulted with faults. */
    bool
    pairUnreachable(const Request &req) const
    {
        return pairDegraded_[pairIndex(req.src, req.dst)] ||
               (req.roundTrip &&
                pairDegraded_[pairIndex(req.dst, req.src)]);
    }

    /** Run one arbitration round for the current cycle. */
    void arbitrate();

    /** A link fault window just opened: mark it, reroute if permanent. */
    void activateFault(const sim::LinkFaultSpec &fault);

    /** Pop @p src's head request and deliver it over the fallback
     * store-and-forward mesh instead of the circuit fabric. */
    void degrade(CoreId src, Cycle now);

    void scheduleArbitration(Cycle when);

    /**
     * Shared body of send() and sendRoundTrip(): deliver a local
     * message inline, otherwise build @p deliver inside a pooled
     * message and queue it.
     */
    template <typename F>
    void
    post(CoreId src, CoreId dst, Cycle now, Cycle occupancy,
         bool round_trip, F &&deliver)
    {
        if (src == dst) {
            deliver(now);
            return;
        }
        Message *msg = acquireMessage();
        msg->deliver = std::forward<F>(deliver);
        enqueue(msg, src, dst, now, occupancy, round_trip);
    }

    /** A free pooled message, or a newly allocated one. */
    Message *
    acquireMessage()
    {
        if (Message *msg = freeMessages_) {
            freeMessages_ = msg->next;
            msg->next = nullptr;
            return msg;
        }
        messages_.push_back(std::make_unique<Message>(this));
        return messages_.back().get();
    }

    /** Append @p msg to @p src's FIFO and arm arbitration. */
    void enqueue(Message *msg, CoreId src, CoreId dst, Cycle now,
                 Cycle occupancy, bool round_trip);

    /**
     * Unlink @p src's head message, whose setup was just decided at
     * @p now; the source's setup port frees for the next one.
     */
    Message *popHead(CoreId src, Cycle now);

    std::size_t
    pairIndex(CoreId src, CoreId dst) const
    {
        return static_cast<std::size_t>(src) * topo_.numTiles() + dst;
    }

    /**
     * Flattened link ids of the current path src -> dst from the
     * precomputed table. Matches GridTopology::xyPath link-for-link
     * until route-around rewrites the pair.
     */
    std::span<const std::uint32_t>
    tableLinks(CoreId src, CoreId dst) const
    {
        std::size_t pair = pairIndex(src, dst);
        return {pathLinks_.data() + pathOffset_[pair],
                pathOffset_[pair + 1] - pathOffset_[pair]};
    }

    /**
     * The path src -> dst without per-attempt allocation: a table span
     * when the table exists, otherwise the XY path filled into scratch
     * buffer @p slot (0 forward, 1 reverse -- both directions of a
     * round trip must be live at once).
     */
    std::span<const std::uint32_t>
    pathSpan(CoreId src, CoreId dst, unsigned slot)
    {
        if (!pathOffset_.empty())
            return tableLinks(src, dst);
        scratch_[slot].clear();
        topo_.xyLinksInto(src, dst, scratch_[slot]);
        return scratch_[slot];
    }

    /** Build pathLinks_/pathOffset_ from the topology (ctor only). */
    void buildPathTable();

    /**
     * Recompute the path table around permanently dead links. Only
     * pairs whose current path crosses a dead link change (BFS over
     * the surviving links); pairs with no surviving path at all are
     * marked degraded and served by the fallback mesh from then on.
     */
    void rebuildPaths();

    EventQueue &queue_;
    noc::GridTopology topo_;
    OrgConfig config_;

    /** Cycle through which each directed link is held (exclusive). */
    std::vector<Cycle> linkHeldUntil_;
    /** Scratch list of arbitrating sources, reused across rounds. */
    std::vector<CoreId> contenders_;
    /**
     * Per-source FIFO of waiting messages (one setup port each),
     * linked through the pooled messages themselves, so queueing
     * allocates nothing.
     */
    std::vector<MessageFifo> pending_;
    /**
     * One bit per source tile, set while its FIFO is non-empty, so
     * arbitration rounds visit only tiles with work instead of
     * scanning every queue.
     */
    std::vector<std::uint64_t> pendingBits_;
    std::size_t numPending_ = 0;
    Cycle arbitrationScheduledFor_ = invalidCycle;
    LambdaEvent arbitrationEvent_;
    /** Every message this fabric allocated; each is reused forever. */
    std::vector<std::unique_ptr<Message>> messages_;
    /** Messages ready for reuse, linked through Message::next. */
    Message *freeMessages_ = nullptr;

    /**
     * Precomputed XY paths for all (src, dst) pairs: the links of
     * pair p live at pathLinks_[pathOffset_[p] .. pathOffset_[p+1]).
     * Both empty above kPathTableMaxTiles (without faults).
     */
    std::vector<std::uint32_t> pathOffset_;
    std::vector<std::uint32_t> pathLinks_;
    /** On-demand path buffers (tables disabled): forward / reverse. */
    std::vector<std::uint32_t> scratch_[2];

    // Fault machinery; allocated only when config_.faults is a
    // non-empty plan, so the guards below reduce to one null check.
    /** Seeded draw source for grant loss (Stream::Fabric). */
    std::unique_ptr<sim::FaultInjector> faults_;
    /** Cycle through which each link is fault-disabled (exclusive);
     * invalidCycle for permanently dead links. */
    std::vector<Cycle> linkFaultyUntil_;
    std::vector<std::uint8_t> linkDeadPermanent_;
    /** Per (src, dst) pair: no circuit path survives route-around. */
    std::vector<std::uint8_t> pairDegraded_;
    /** Per-link next-free cycle of the fallback mesh, costed by
     * noc::queuedMeshArrival(). */
    std::vector<Cycle> meshLinkFree_;
    /** linkDeadCycles is accounted through this cycle. */
    Cycle faultStatsThrough_ = 0;
    /** See deliveredDegraded(). */
    bool deliveringDegraded_ = false;

    /** Per-source grant-wait histograms (null unless recording). */
    std::unique_ptr<std::vector<sim::LatencyHistogram>> grantWait_;
};

/** The fabric of a NOCSTAR organization configured by @p config. */
std::unique_ptr<Interconnect>
makeInterconnect(const std::string &name, EventQueue &queue,
                 const noc::GridTopology &topo, const OrgConfig &config,
                 stats::StatGroup *parent = nullptr);

} // namespace nocstar::core

#endif // NOCSTAR_CORE_INTERCONNECT_HH
