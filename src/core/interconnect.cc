/**
 * @file
 * The NOCSTAR fabric: arbitration engine and XY path model. Paths are
 * precomputed per pair up to kPathTableMaxTiles tiles (or whenever a
 * fault plan needs rewritable paths) and materialized on demand above.
 *
 * Timing convention: a send() posted in cycle T arbitrates in T (the
 * "path setup" cycle); granted data occupies its links during cycles
 * (T, T+traversal] and is latched at the destination at T+traversal.
 * Reported network latency counts the setup cycle plus traversal and
 * any waiting, so an uncontended single-hop message costs 2 cycles,
 * matching §V ("1 cycle in path setup and another cycle to
 * traverse").
 *
 * Each tile owns a single set of path-setup request wires, so at most
 * one request per source arbitrates per cycle; younger requests from
 * the same tile queue behind it. This keeps a saturated fabric's
 * arbitration cost bounded by the tile count per cycle.
 */

#include "core/interconnect.hh"

#include <algorithm>
#include <bit>
#include <limits>
#include <optional>

#include "noc/queued_mesh.hh"
#include "sim/trace_recorder.hh"

namespace nocstar::core
{

Interconnect::Interconnect(const std::string &name, EventQueue &queue,
                           const noc::GridTopology &topo,
                           const OrgConfig &config,
                           stats::StatGroup *parent)
    : stats::StatGroup(name, parent),
      messagesSent(this, "messages", "messages delivered"),
      setupAttempts(this, "setup_attempts", "path setup attempts"),
      setupFailures(this, "setup_failures", "failed setup attempts"),
      zeroRetryMessages(this, "zero_retry_messages",
                        "messages with no contention delay"),
      totalNetworkLatency(this, "network_latency",
                          "total setup+traversal+wait cycles"),
      retries(this, "retries", "setup retries per message"),
      linkGrants(this, "link_grants", "path grants per link",
                 topo.linkIndexSpace()),
      linkDenies(this, "link_denies",
                 "failed setups this link blocked first",
                 topo.linkIndexSpace()),
      linkHoldCycles(this, "link_hold_cycles",
                     "total cycles each link was held",
                     topo.linkIndexSpace()),
      faultsInjected(this, "faults_injected",
                     "link outages begun plus grants lost"),
      degradedMessages(this, "degraded_messages",
                       "messages delivered over the fallback mesh"),
      backoffCycles(this, "backoff_cycles",
                    "retry wait cycles beyond the 1-cycle minimum"),
      watchdogTrips(this, "watchdog_trips",
                    "stalled messages rescued by the watchdog"),
      linkDeadCycles(this, "link_dead_cycles",
                     "cycles each link spent fault-disabled",
                     topo.linkIndexSpace()),
      queue_(queue), topo_(topo), config_(config),
      linkHeldUntil_(topo.linkIndexSpace(), 0),
      pending_(topo.numTiles()),
      pendingBits_((topo.numTiles() + 63) / 64, 0),
      arbitrationEvent_([this] { arbitrate(); },
                        Event::arbitrationPriority)
{
    if (config_.hpcMax == 0)
        fatal("NOCSTAR fabric needs hpcMax >= 1");
    if (config_.priorityEpoch == 0)
        fatal("NOCSTAR fabric needs priorityEpoch >= 1");
    contenders_.reserve(topo_.numTiles());
    if (config_.recordGrantWait)
        grantWait_ = std::make_unique<std::vector<sim::LatencyHistogram>>(
            topo_.numTiles());

    if (!config_.faults.empty()) {
        const sim::FaultPlan &plan = config_.faults;
        if (std::vector<std::string> errors = plan.validate(
                [this](std::uint32_t link) { return topo_.hasLink(link); });
            !errors.empty())
            fatal("invalid fault plan for fabric '", name, "': ",
                  errors.front());
        faults_ = std::make_unique<sim::FaultInjector>(
            plan, sim::FaultInjector::Stream::Fabric);
        linkFaultyUntil_.assign(topo_.linkIndexSpace(), 0);
        linkDeadPermanent_.assign(topo_.linkIndexSpace(), 0);
        meshLinkFree_.assign(topo_.linkIndexSpace(), 0);
        // Fault activations run at default priority, i.e. before the
        // cycle's arbitration round, so an outage starting at cycle T
        // already blocks setups in T.
        for (const sim::LinkFaultSpec &f : plan.linkFaults)
            queue_.scheduleLambda(f.start,
                                  [this, f] { activateFault(f); });
        pairDegraded_.assign(
            static_cast<std::size_t>(topo_.numTiles()) *
                topo_.numTiles(), 0);
    }
    if (topo_.numTiles() <= kPathTableMaxTiles || faults_) {
        buildPathTable();
    } else {
        scratch_[0].reserve(topo_.width() + topo_.height());
        scratch_[1].reserve(topo_.width() + topo_.height());
    }
}

Interconnect::~Interconnect()
{
    if (arbitrationEvent_.scheduled())
        queue_.deschedule(&arbitrationEvent_);
    // Granted and degraded messages wait in the queue for their
    // arrival; queued ones sit only in the FIFOs.
    for (const std::unique_ptr<Message> &msg : messages_)
        if (msg->scheduled())
            queue_.deschedule(msg.get());
}

void
Interconnect::Message::process()
{
    // Recycle once the continuation has returned -- or thrown, as
    // panic() and fatal() do -- so it runs where send() built it.
    struct Recycle
    {
        Message *msg;
        ~Recycle()
        {
            Interconnect &fabric = *msg->owner_;
            fabric.deliveringDegraded_ = false;
            msg->deliver = nullptr;
            msg->next = fabric.freeMessages_;
            fabric.freeMessages_ = msg;
        }
    } recycle{this};
    owner_->deliveringDegraded_ = degraded;
    // The queue dispatches a message only at the cycle it was
    // scheduled for: its arrival.
    deliver(owner_->queue_.curCycle());
}

void
Interconnect::scheduleArbitration(Cycle when)
{
    if (arbitrationEvent_.scheduled()) {
        if (arbitrationScheduledFor_ <= when)
            return;
        queue_.deschedule(&arbitrationEvent_);
    }
    queue_.schedule(&arbitrationEvent_, when);
    arbitrationScheduledFor_ = when;
}

void
Interconnect::enqueue(Message *msg, CoreId src, CoreId dst, Cycle now,
                      Cycle occupancy, bool round_trip)
{
    Cycle active = std::max(now, queue_.curCycle());
    msg->req = Request{src, dst, active, active, occupancy, round_trip, 0};
    msg->degraded = false;
    MessageFifo &fifo = pending_[src];
    if (fifo.tail)
        fifo.tail->next = msg;
    else
        fifo.head = msg;
    fifo.tail = msg;
    pendingBits_[src >> 6] |= std::uint64_t{1} << (src & 63);
    ++numPending_;
    scheduleArbitration(active);
}

Interconnect::Message *
Interconnect::popHead(CoreId src, Cycle now)
{
    MessageFifo &fifo = pending_[src];
    Message *msg = fifo.head;
    fifo.head = msg->next;
    msg->next = nullptr;
    --numPending_;
    // The setup port frees next cycle for the next queued request.
    if (fifo.head) {
        fifo.head->req.activeAt =
            std::max(fifo.head->req.activeAt, now + 1);
    } else {
        fifo.tail = nullptr;
        pendingBits_[src >> 6] &= ~(std::uint64_t{1} << (src & 63));
    }
    return msg;
}

void
Interconnect::arbitrate()
{
    Cycle now = queue_.curCycle();
    arbitrationScheduledFor_ = invalidCycle;

    // Chip-wide consistent static priority, rotated every epoch so no
    // requester starves (§III-B2).
    unsigned tiles = topo_.numTiles();
    unsigned rotation = static_cast<unsigned>(
        (now / config_.priorityEpoch) % tiles);

    // One eligible request per source: the oldest whose turn has come.
    // Only sources with queued work have their bit set, so the round
    // touches just those queues.
    contenders_.clear();
    for (std::size_t w = 0; w < pendingBits_.size(); ++w) {
        std::uint64_t bits = pendingBits_[w];
        while (bits) {
            auto src = static_cast<CoreId>(
                (w << 6) +
                static_cast<unsigned>(std::countr_zero(bits)));
            bits &= bits - 1;
            if (pending_[src].head->req.activeAt <= now)
                contenders_.push_back(src);
        }
    }
    // Rotated static priority: sources >= rotation first, each group
    // ascending. contenders_ is gathered in ascending order, so a
    // rotate produces exactly the order the per-source keyed sort
    // (a + tiles - rotation) % tiles would.
    std::rotate(contenders_.begin(),
                std::lower_bound(contenders_.begin(), contenders_.end(),
                                 static_cast<CoreId>(rotation)),
                contenders_.end());

    for (CoreId src : contenders_) {
        Request &req = pending_[src].head->req;
        if (faults_ && pairUnreachable(req)) {
            // Route-around found no surviving circuit path; don't burn
            // arbitration cycles on a setup that can never succeed.
            degrade(src, now);
            continue;
        }
        ++setupAttempts;
        if (!tryAcquire(req, now)) {
            ++setupFailures;
            ++req.retries;
            if (faults_) {
                using Plan = sim::FaultPlan;
                if (now - req.posted >= Plan::watchdogCycles) {
                    ++watchdogTrips;
                    degrade(src, now);
                    continue;
                }
                if (req.retries > Plan::retryBudget) {
                    degrade(src, now);
                    continue;
                }
                // Capped exponential backoff: 1, 2, 4, ... cycles.
                Cycle delay = std::min<Cycle>(
                    Plan::backoffCap,
                    Cycle{1} << std::min(req.retries - 1, 30u));
                req.activeAt = now + delay;
                backoffCycles += static_cast<double>(delay - 1);
            } else {
                req.activeAt = now + 1;
            }
            if (sim::recording())
                sim::recorder().instant(sim::Lane::Message, req.src,
                                        "setup denied", now, req.dst,
                                        req.retries, "dst", "retries");
            continue;
        }

        Cycle traversal = this->traversal(req.src, req.dst);
        Cycle arrival = now + traversal;

        if (sim::recording())
            sim::recorder().span(sim::Lane::Message, req.src,
                                 req.roundTrip ? "round-trip message"
                                               : "message",
                                 req.posted, arrival, req.dst,
                                 req.retries, "dst", "retries");
        ++messagesSent;
        if (now == req.posted)
            ++zeroRetryMessages;
        retries.record(req.retries);
        // Latency counts waiting (port queueing + retries) + the
        // setup cycle + traversal.
        totalNetworkLatency += static_cast<double>(
            (now - req.posted) + 1 + traversal);
        if (grantWait_)
            (*grantWait_)[req.src].record(now - req.posted);

        // The message itself is the delivery event.
        queue_.schedule(popHead(src, now), arrival);
    }

    if (numPending_ > 0) {
        Cycle next = invalidCycle;
        for (std::size_t w = 0; w < pendingBits_.size(); ++w) {
            std::uint64_t bits = pendingBits_[w];
            while (bits) {
                auto src = static_cast<CoreId>(
                    (w << 6) +
                    static_cast<unsigned>(std::countr_zero(bits)));
                bits &= bits - 1;
                next = std::min(next, pending_[src].head->req.activeAt);
            }
        }
        scheduleArbitration(std::max(next, now + 1));
    }
}

void
Interconnect::activateFault(const sim::LinkFaultSpec &fault)
{
    ++faultsInjected;
    linkFaultyUntil_[fault.link] =
        std::max(linkFaultyUntil_[fault.link], fault.end());
    if (sim::recording())
        sim::recorder().instant(sim::Lane::Link, fault.link, "link fault",
                                queue_.curCycle(), fault.duration, 0,
                                "duration");
    if (fault.permanent() && !linkDeadPermanent_[fault.link]) {
        linkDeadPermanent_[fault.link] = 1;
        rebuildPaths();
    }
}

void
Interconnect::degrade(CoreId src, Cycle now)
{
    const Request &req = pending_[src].head->req;
    // Deliver over the store-and-forward maintenance mesh instead, at
    // the queued mesh's timing with one-cycle routers and wires. For
    // round-trip messages only the forward trip is recosted; the
    // caller's pre-granted-return accounting stands in for the
    // response, which is an understatement we accept for a degraded
    // corner.
    const Cycle arrival = noc::queuedMeshArrival(topo_, meshLinkFree_,
                                                 req.src, req.dst, now);

    ++degradedMessages;
    ++messagesSent;
    retries.record(req.retries);
    totalNetworkLatency +=
        static_cast<double>((arrival - req.posted) + 1);
    if (grantWait_)
        (*grantWait_)[req.src].record(now - req.posted);
    if (sim::recording())
        sim::recorder().span(sim::Lane::Message, req.src,
                             "degraded message", req.posted, arrival,
                             req.dst, req.retries, "dst", "retries");

    // The setup port frees next cycle, as for a granted setup. The
    // degraded flag marks the delivery for its whole (synchronous)
    // continuation, so it can tag the translation result.
    Message *msg = popHead(src, now);
    msg->degraded = true;
    queue_.schedule(msg, arrival);
}

void
Interconnect::syncFaultStats(Cycle now)
{
    if (!faults_ || now <= faultStatsThrough_)
        return;
    for (const sim::LinkFaultSpec &f : faults_->plan().linkFaults) {
        Cycle from = std::max(f.start, faultStatsThrough_);
        Cycle to = std::min(f.end(), now);
        if (to > from)
            linkDeadCycles[f.link] += static_cast<double>(to - from);
    }
    faultStatsThrough_ = now;
}

void
Interconnect::buildPathTable()
{
    unsigned tiles = topo_.numTiles();
    pathOffset_.assign(static_cast<std::size_t>(tiles) * tiles + 1, 0);
    // Total link count across all pairs equals the sum of Manhattan
    // distances; size once, then fill.
    std::size_t total = 0;
    for (CoreId src = 0; src < tiles; ++src)
        for (CoreId dst = 0; dst < tiles; ++dst)
            total += topo_.hops(src, dst);
    if (total > std::numeric_limits<std::uint32_t>::max())
        fatal("fabric path table needs ", total,
              " entries, past the 32-bit offset space; the ", tiles,
              "-tile mesh is too large for stored paths");
    pathLinks_.reserve(total);

    for (CoreId src = 0; src < tiles; ++src) {
        for (CoreId dst = 0; dst < tiles; ++dst) {
            topo_.xyLinksInto(src, dst, pathLinks_);
            pathOffset_[pairIndex(src, dst) + 1] =
                static_cast<std::uint32_t>(pathLinks_.size());
        }
    }
}

void
Interconnect::pathLinksInto(CoreId src, CoreId dst,
                            std::vector<std::uint32_t> &out) const
{
    if (pathOffset_.empty()) {
        topo_.xyLinksInto(src, dst, out);
        return;
    }
    std::span<const std::uint32_t> path = tableLinks(src, dst);
    out.insert(out.end(), path.begin(), path.end());
}

bool
Interconnect::tryAcquire(const Request &req, Cycle now)
{
    // Both directions come with no per-attempt allocation (this runs
    // on every retry of every arbitration round): table spans, or the
    // XY path filled into the reusable scratch buffers. Note the XY
    // reverse path dst -> src is not the mirrored forward path, so it
    // is materialized separately.
    std::span<const std::uint32_t> path = pathSpan(req.src, req.dst, 0);
    std::span<const std::uint32_t> reverse;
    if (req.roundTrip)
        reverse = pathSpan(req.dst, req.src, 1);

    Cycle traversal = traversalCycles(static_cast<unsigned>(path.size()));
    // Round trip additionally holds the reverse path through the slice
    // access and the response traversal.
    Cycle hold = req.roundTrip ? 2 * traversal + req.holdExtra : traversal;

    if (config_.kind != OrgKind::NocstarIdeal) {
        for (std::uint32_t link : path) {
            if (linkHeldUntil_[link] > now) {
                linkDenies[link] += 1;
                return false;
            }
        }
        for (std::uint32_t link : reverse) {
            if (linkHeldUntil_[link] > now) {
                linkDenies[link] += 1;
                return false;
            }
        }
    }

    if (faults_) {
        // Fault-disabled links deny even the ideal fabric: an outage
        // is physical, not contention.
        for (std::uint32_t link : path) {
            if (linkFaultyUntil_[link] > now) {
                linkDenies[link] += 1;
                return false;
            }
        }
        for (std::uint32_t link : reverse) {
            if (linkFaultyUntil_[link] > now) {
                linkDenies[link] += 1;
                return false;
            }
        }
        // All arbiters granted; model the grant pulse itself getting
        // corrupted on the way back (drawn only for would-be winners,
        // so the stream is reproducible for a given plan + seed).
        if (faults_->loseGrant()) {
            ++faultsInjected;
            return false;
        }
    }

    bool record = sim::recording();
    for (std::uint32_t link : path) {
        linkHeldUntil_[link] = std::max(linkHeldUntil_[link], now + hold);
        linkGrants[link] += 1;
        linkHoldCycles[link] += static_cast<double>(hold);
        if (record)
            sim::recorder().span(sim::Lane::Link, link, "held", now,
                                 now + hold, req.src, req.dst, "src",
                                 "dst");
    }
    for (std::uint32_t link : reverse) {
        linkHeldUntil_[link] = std::max(linkHeldUntil_[link], now + hold);
        linkGrants[link] += 1;
        linkHoldCycles[link] += static_cast<double>(hold);
        if (record)
            sim::recorder().span(sim::Lane::Link, link, "held (reverse)",
                                 now, now + hold, req.src, req.dst,
                                 "src", "dst");
    }
    return true;
}

void
Interconnect::rebuildPaths()
{
    unsigned tiles = topo_.numTiles();
    std::vector<std::uint32_t> offsets(
        static_cast<std::size_t>(tiles) * tiles + 1, 0);
    std::vector<std::uint32_t> links;
    links.reserve(pathLinks_.size());

    // BFS tree from one source over the surviving links; neighbours
    // are visited in fixed E, W, N, S order so the rerouted paths are
    // deterministic. Computed lazily, once per source that needs it.
    std::vector<std::int32_t> parent(tiles);
    std::vector<std::uint32_t> viaLink(tiles, 0);
    std::vector<CoreId> order;
    std::int64_t treeFor = -1;
    auto ensureTree = [&](CoreId src) {
        if (treeFor == static_cast<std::int64_t>(src))
            return;
        treeFor = src;
        std::fill(parent.begin(), parent.end(), -1);
        parent[src] = static_cast<std::int32_t>(src);
        order.clear();
        order.push_back(src);
        for (std::size_t head = 0; head < order.size(); ++head) {
            CoreId at = order[head];
            for (noc::Direction dir :
                 {noc::Direction::East, noc::Direction::West,
                  noc::Direction::North, noc::Direction::South}) {
                std::optional<CoreId> to = topo_.neighbour(at, dir);
                std::uint32_t link = noc::LinkId{at, dir}.flatten();
                if (!to || linkDeadPermanent_[link] || parent[*to] >= 0)
                    continue;
                parent[*to] = static_cast<std::int32_t>(at);
                viaLink[*to] = link;
                order.push_back(*to);
            }
        }
    };

    // Pairs whose XY path survives keep it bit-for-bit (their timing
    // must not change); only pairs crossing a dead link reroute.
    std::vector<std::uint32_t> reversed;
    for (CoreId src = 0; src < tiles; ++src) {
        for (CoreId dst = 0; dst < tiles; ++dst) {
            std::size_t pair = pairIndex(src, dst);
            std::span<const std::uint32_t> old = tableLinks(src, dst);
            bool crossesDead = false;
            for (std::uint32_t link : old) {
                if (linkDeadPermanent_[link]) {
                    crossesDead = true;
                    break;
                }
            }
            if (!crossesDead) {
                links.insert(links.end(), old.begin(), old.end());
            } else {
                ensureTree(src);
                if (parent[dst] < 0) {
                    pairDegraded_[pair] = 1;
                    if (sim::recording())
                        sim::recorder().instant(
                            sim::Lane::Message, src, "no surviving path",
                            queue_.curCycle(), dst, 0, "dst");
                } else {
                    pairDegraded_[pair] = 0;
                    reversed.clear();
                    for (CoreId at = dst; at != src;
                         at = static_cast<CoreId>(parent[at]))
                        reversed.push_back(viaLink[at]);
                    links.insert(links.end(), reversed.rbegin(),
                                 reversed.rend());
                }
            }
            offsets[pair + 1] =
                static_cast<std::uint32_t>(links.size());
        }
    }
    pathOffset_ = std::move(offsets);
    pathLinks_ = std::move(links);
}

std::unique_ptr<Interconnect>
makeInterconnect(const std::string &name, EventQueue &queue,
                 const noc::GridTopology &topo, const OrgConfig &config,
                 stats::StatGroup *parent)
{
    return std::make_unique<Interconnect>(name, queue, topo, config,
                                          parent);
}

} // namespace nocstar::core
