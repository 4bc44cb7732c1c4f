/**
 * @file
 * NOCSTAR organization implementation.
 */

#include "core/nocstar_org.hh"

#include "energy/sram_model.hh"

namespace nocstar::core
{

NocstarOrg::NocstarOrg(const OrgConfig &config, OrgContext context,
                       stats::StatGroup *parent)
    : TlbOrganization("nocstar_org", config, std::move(context), parent),
      topo_(noc::GridTopology::forCores(config.numCores)),
      leaderNextFree_(config.numCores, 0)
{
    // config_ (the base class's stable copy of the plan, not the
    // caller's argument) keeps the referenced fault plan alive for the
    // fabric's lifetime. Construction of the concrete fabric kind is
    // org_factory.cc's job.
    fabric_ = makeInterconnect("fabric", *ctx_.queue, topo_, config_,
                               this);

    if (config.sliceMapping == SliceMapping::ClusterLocal) {
        // Consecutive interleave indices fill one cluster (row-major
        // inside it) before moving to the next, so runs of hot pages
        // stay behind one crossbar instead of striping the chip.
        FabricConfig geom;
        geom.clusterWidth = config.clusterWidth;
        geom.clusterHeight = config.clusterHeight;
        unsigned cw = 0, ch = 0;
        resolveClusterGeometry(geom, topo_, cw, ch);
        unsigned perCluster = cw * ch;
        homeOf_.resize(config.numCores);
        for (unsigned i = 0; i < config.numCores; ++i) {
            unsigned cluster = i / perCluster;
            unsigned within = i % perCluster;
            noc::Coord cc{cluster % (topo_.width() / cw),
                          cluster / (topo_.width() / cw)};
            homeOf_[i] = topo_.tileAt({cc.x * cw + within % cw,
                                       cc.y * ch + within / cw});
        }
    }

    std::uint32_t entries = config.sliceEntriesFor();
    for (unsigned i = 0; i < config.numCores; ++i) {
        slices_.push_back(std::make_unique<tlb::SetAssocTlb>(
            "slice" + std::to_string(i), entries, config.l2Assoc, this));
    }
    sliceLatency_ = energy::SramModel::accessLatency(entries);
}

void
NocstarOrg::respondHit(CoreId core, CoreId slice, tlb::TlbEntry entry,
                       Cycle lookup_done, Cycle now, bool degraded,
                       TranslationDone &&done)
{
    auto complete = [this, core, slice, entry, now, degraded,
                     done = std::move(done)](Cycle arrival) mutable {
        TranslationResult result;
        result.completedAt = arrival;
        result.entry = entry;
        result.l2Hit = true;
        result.remote = slice != core;
        result.degraded = degraded || fabric_->deliveredDegraded();
        totalAccessLatency += static_cast<double>(arrival - now);
        ctx_.queue->scheduleLambda(
            arrival, [this, slice, result, done = std::move(done)] {
                noteAccessEnd(slice);
                done(result);
            });
    };

    if (slice == core) {
        complete(lookup_done);
        return;
    }
    if (ctx_.energy)
        ctx_.energy->addL2Message(energy::NocStyle::Nocstar,
                                  topo_.hops(slice, core), 0);
    // Response path setup overlaps the tail of the slice lookup
    // (§III-C: "the response path can be setup speculatively, during
    // the L2 TLB lookup").
    fabric_->send(slice, core, lookup_done, std::move(complete));
}

void
NocstarOrg::finishWithWalk(CoreId walk_core, CoreId requester,
                           CoreId slice, ContextId ctx, Addr vaddr,
                           Cycle start, Cycle now, bool ecc,
                           bool degraded, TranslationDone &&done)
{
    launchWalk(
        walk_core, requester, ctx, vaddr, start,
        [this, walk_core, requester, slice, ctx, vaddr, now, ecc,
         degraded,
         done = std::move(done)](const mem::WalkResult &walk) mutable {
            Cycle walk_done = ctx_.queue->curCycle();
            tlb::TlbEntry entry = entryFor(ctx, vaddr, walk.translation);
            const bool rewalk = ecc || walk.eccRetried;

            auto fill_slice = [this, slice, ctx, entry](Cycle) {
                slices_[slice]->insert(entry);
                prefetchAround(*slices_[slice], ctx, entry.vpn,
                               entry.size);
            };

            auto complete = [this, requester, slice, entry, now, rewalk,
                             degraded,
                             done = std::move(done)](Cycle at) mutable {
                TranslationResult result;
                result.completedAt = at;
                result.entry = entry;
                result.walked = true;
                result.remote = slice != requester;
                result.eccRewalk = rewalk;
                result.degraded =
                    degraded || fabric_->deliveredDegraded();
                totalAccessLatency += static_cast<double>(at - now);
                ctx_.queue->scheduleLambda(
                    at, [this, slice, result, done = std::move(done)] {
                        noteAccessEnd(slice);
                        done(result);
                    });
            };

            if (walk_core == requester) {
                // Requester walked; fill message to the home slice is
                // off the critical path.
                if (slice != requester) {
                    if (ctx_.energy)
                        ctx_.energy->addL2Message(
                            energy::NocStyle::Nocstar,
                            topo_.hops(requester, slice), 0);
                    fabric_->send(requester, slice, walk_done,
                                  fill_slice);
                } else {
                    fill_slice(walk_done);
                }
                complete(walk_done);
            } else {
                // Remote walk at the slice's core: fill locally, then
                // respond with the translation.
                fill_slice(walk_done);
                if (ctx_.energy)
                    ctx_.energy->addL2Message(
                        energy::NocStyle::Nocstar,
                        topo_.hops(walk_core, requester), 0);
                fabric_->send(walk_core, requester, walk_done,
                              std::move(complete));
            }
        });
}

void
NocstarOrg::handleMiss(CoreId core, CoreId slice, ContextId ctx,
                       Addr vaddr, Cycle lookup_done, Cycle now,
                       bool ecc, bool degraded, TranslationDone &&done)
{
    if (config_.ptwPlacement == PtwPlacement::Remote || slice == core) {
        finishWithWalk(slice, core, slice, ctx, vaddr, lookup_done, now,
                       ecc, degraded, std::move(done));
        return;
    }
    // Miss message travels back to the requester, which walks.
    if (ctx_.energy)
        ctx_.energy->addL2Message(energy::NocStyle::Nocstar,
                                  topo_.hops(slice, core), 0);
    fabric_->send(slice, core, lookup_done,
                  [this, core, slice, ctx, vaddr, now, ecc,
                   degraded, done = std::move(done)](Cycle arrival) mutable {
                      finishWithWalk(core, core, slice, ctx, vaddr,
                                     arrival, now, ecc,
                                     degraded ||
                                         fabric_->deliveredDegraded(),
                                     std::move(done));
                  });
}

void
NocstarOrg::translate(CoreId core, ContextId ctx, Addr vaddr, Cycle now,
                      TranslationDone done)
{
    CoreId slice = sliceOf(vaddr);
    tlb::SetAssocTlb &array = *slices_[slice];
    Cycle t0 = now + config_.initiateLatency;

    ++l2Accesses;
    noteAccessStart(slice);

    if (ctx_.energy)
        ctx_.energy->addL2Message(energy::NocStyle::Nocstar,
                                  topo_.hops(core, slice),
                                  array.numEntries());

    // Functional lookup now; timing assembled by the continuations.
    const tlb::TlbEntry *hit_entry = array.lookupAnySize(ctx, vaddr);
    bool hit = hit_entry != nullptr;
    bool ecc = false;
    tlb::TlbEntry entry = hit ? *hit_entry : tlb::TlbEntry{};
    if (hit && eccCorrupted()) {
        // The entry read back corrupt: drop it and take the miss path.
        ++sliceEccRewalks;
        ecc = true;
        array.invalidate(entry.ctx, entry.vpn, entry.size);
        hit = false;
        entry = tlb::TlbEntry{};
    }

    if (hit)
        ++l2Hits;
    else
        ++l2Misses;
    TRACE(TLB, "core ", core, " L2 ", hit ? "hit" : "miss",
          " vaddr 0x", std::hex, vaddr, std::dec, " home slice ",
          slice);

    if (slice == core) {
        Cycle start = portStart(slice, t0);
        Cycle lookup_done = start + sliceLatency_;
        noteSliceLookup(slice, start, lookup_done, hit);
        if (hit)
            respondHit(core, slice, entry, lookup_done, now,
                       /*degraded=*/false, std::move(done));
        else
            handleMiss(core, slice, ctx, vaddr, lookup_done, now, ecc,
                       /*degraded=*/false, std::move(done));
        return;
    }

    if (config_.pathAcquire == PathAcquire::RoundTrip) {
        // Hold request + response paths for the whole remote access.
        Cycle occupancy = sliceLatency_ + 2;
        fabric_->sendRoundTrip(
            core, slice, t0, occupancy,
            [this, core, slice, ctx, vaddr, hit, entry, now, ecc,
             done = std::move(done)](Cycle arrival) mutable {
                const bool deg = fabric_->deliveredDegraded();
                Cycle start = portStart(slice, arrival + 1);
                Cycle lookup_done = start + sliceLatency_;
                noteSliceLookup(slice, start, lookup_done, hit);
                if (hit) {
                    // Return path is pre-granted: one traversal, no
                    // arbitration.
                    Cycle back =
                        lookup_done + fabric_->traversal(slice, core);
                    TranslationResult result;
                    result.completedAt = back;
                    result.entry = entry;
                    result.l2Hit = true;
                    result.remote = true;
                    result.degraded = deg;
                    totalAccessLatency +=
                        static_cast<double>(back - now);
                    ctx_.queue->scheduleLambda(
                        back, [this, slice, result,
                               done = std::move(done)] {
                            noteAccessEnd(slice);
                            done(result);
                        });
                } else {
                    handleMiss(core, slice, ctx, vaddr, lookup_done,
                               now, ecc, deg, std::move(done));
                }
            });
        return;
    }

    fabric_->send(core, slice, t0,
                  [this, core, slice, ctx, vaddr, hit, entry, now, ecc,
                   done = std::move(done)](Cycle arrival) mutable {
                      const bool deg = fabric_->deliveredDegraded();
                      Cycle start = portStart(slice, arrival + 1);
                      Cycle lookup_done = start + sliceLatency_;
                      noteSliceLookup(slice, start, lookup_done, hit);
                      if (hit)
                          respondHit(core, slice, entry, lookup_done,
                                     now, deg, std::move(done));
                      else
                          handleMiss(core, slice, ctx, vaddr,
                                     lookup_done, now, ecc, deg,
                                     std::move(done));
                  });
}

void
NocstarOrg::shootdown(CoreId, ContextId ctx, Addr vaddr,
                      const std::vector<CoreId> &sharers, Cycle now,
                      ShootdownDone on_complete)
{
    ++shootdowns;
    mem::Translation t = ctx_.pageTable->translate(ctx, vaddr);
    PageNum vpn = pageNumber(vaddr, t.size);
    TRACE(Shootdown, "vaddr 0x", std::hex, vaddr, std::dec, " to ",
          sharers.size(), " sharers");

    for (CoreId sharer : sharers)
        if (ctx_.l1Invalidate)
            ctx_.l1Invalidate(sharer, ctx, vpn, t.size);

    CoreId slice = sliceOf(vaddr);
    if (slices_.at(slice)->invalidate(ctx, vpn, t.size))
        ++shootdownL2Invalidations;

    // Completion is tracked with a shared countdown across the relay
    // messages actually sent.
    struct ShootState
    {
        unsigned outstanding = 0;
        Cycle last = 0;
        Cycle started = 0;
        ShootdownDone onComplete;
        TlbOrganization *org;
    };
    auto state = std::make_shared<ShootState>();
    state->started = now;
    state->onComplete = std::move(on_complete);
    state->org = this;

    auto arm = [state] { ++state->outstanding; };
    // Sentinel guards against synchronous (local) deliveries draining
    // the countdown before all legs are armed.
    arm();
    auto fired = [this, state](Cycle at) {
        state->last = std::max(state->last, at);
        if (--state->outstanding == 0) {
            totalShootdownLatency +=
                static_cast<double>(state->last - state->started);
            if (state->onComplete)
                state->onComplete(state->last);
        }
    };

    auto slice_leg = [this, state, slice, fired](CoreId from, Cycle at) {
        fabric_->send(from, slice, at, [this, slice, fired](Cycle arr) {
            // Write-port occupancy: the invalidation lookup occupies
            // the slice like a one-cycle pipelined access.
            Cycle processed = portStart(slice, arr + 1) + 1;
            ctx_.queue->scheduleLambda(processed, [fired, processed] {
                fired(processed);
            });
        });
    };

    if (config_.invalLeaderGroup == 0) {
        for (CoreId sharer : sharers) {
            arm();
            slice_leg(sharer, now);
        }
    } else {
        // Upstream: every IPI'd core notifies its group leader.
        // Downstream: each involved leader relays one deduplicated
        // invalidation to the home slice, serialized at the leader.
        std::vector<bool> leader_involved(config_.numCores, false);
        for (CoreId sharer : sharers) {
            CoreId leader = sharer - (sharer % config_.invalLeaderGroup);
            leader_involved.at(leader) = true;
            arm();
            fabric_->send(sharer, leader, now,
                          [fired](Cycle arr) { fired(arr); });
        }
        for (CoreId leader = 0; leader < config_.numCores; ++leader) {
            if (!leader_involved[leader])
                continue;
            // Leader serializes relays at one per cycle; the relay
            // follows the slowest plausible upstream notification.
            Cycle relay = std::max(now + 1, leaderNextFree_[leader]);
            leaderNextFree_[leader] = relay + 1;
            arm();
            slice_leg(leader, relay);
        }
    }
    fired(now); // release the sentinel
}

void
NocstarOrg::preloadShared(ContextId ctx, Addr vaddr,
                          const mem::Translation &t)
{
    slices_.at(sliceOf(vaddr))->insert(entryFor(ctx, vaddr, t));
}

void
NocstarOrg::flushAll()
{
    for (auto &slice : slices_)
        slice->invalidateAll();
}

std::uint64_t
NocstarOrg::totalEntries() const
{
    return static_cast<std::uint64_t>(config_.sliceEntriesFor()) *
           config_.numCores;
}

} // namespace nocstar::core
