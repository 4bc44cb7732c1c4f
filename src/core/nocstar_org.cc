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
    // fabric's lifetime.
    fabric_ = makeInterconnect("fabric", *ctx_.queue, topo_, config_,
                               this);

    addArrays("slice", config.numCores, config.nocstarSliceEntries);
    sliceLatency_ =
        energy::SramModel::accessLatency(config.nocstarSliceEntries);
}

void
NocstarOrg::respondHit(CoreId core, CoreId slice, tlb::TlbEntry entry,
                       Cycle lookup_done, Cycle now, bool degraded,
                       TranslationDone &&done)
{
    auto respond = [this, core, slice, entry, now, degraded,
                    done = std::move(done)](Cycle arrival) mutable {
        TranslationResult result;
        result.completedAt = arrival;
        result.entry = entry;
        result.l2Hit = true;
        result.remote = slice != core;
        result.degraded = degraded || fabric_->deliveredDegraded();
        complete(slice, now, result, std::move(done));
    };

    if (slice == core) {
        respond(lookup_done);
        return;
    }
    if (ctx_.energy)
        ctx_.energy->addL2Message(energy::NocStyle::Nocstar,
                                  topo_.hops(slice, core), 0);
    // Response path setup overlaps the tail of the slice lookup
    // (§III-C: "the response path can be setup speculatively, during
    // the L2 TLB lookup").
    fabric_->send(slice, core, lookup_done, std::move(respond));
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

            auto fill_slice = [this, requester, slice, entry](Cycle) {
                fill(requester, slice, entry);
            };

            auto respond = [this, requester, slice, entry, now, rewalk,
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
                complete(slice, now, result, std::move(done));
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
                respond(walk_done);
            } else {
                // Remote walk at the slice's core: fill locally, then
                // respond with the translation.
                fill_slice(walk_done);
                if (ctx_.energy)
                    ctx_.energy->addL2Message(
                        energy::NocStyle::Nocstar,
                        topo_.hops(walk_core, requester), 0);
                fabric_->send(walk_core, requester, walk_done,
                              std::move(respond));
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
    CoreId slice = homeArrayOf(core, vaddr);
    Cycle t0 = now + config_.initiateLatency;

    if (ctx_.energy)
        ctx_.energy->addL2Message(energy::NocStyle::Nocstar,
                                  topo_.hops(core, slice),
                                  array(slice).numEntries());

    // Functional lookup now; timing assembled by the continuations.
    bool ecc = false;
    std::optional<tlb::TlbEntry> hit_entry =
        lookupHome(slice, ctx, vaddr, ecc);
    bool hit = hit_entry.has_value();
    tlb::TlbEntry entry = hit_entry.value_or(tlb::TlbEntry{});

    if (slice == core) {
        Cycle start = portStart(slice, t0);
        Cycle lookup_done = start + sliceLatency_;
        noteSliceLookup(slice, core, vaddr, start, lookup_done, hit);
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
                noteSliceLookup(slice, core, vaddr, start, lookup_done,
                                hit);
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
                    complete(slice, now, result, std::move(done));
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
                      noteSliceLookup(slice, core, vaddr, start,
                                      lookup_done, hit);
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
NocstarOrg::shootdown(CoreId initiator, ContextId ctx, Addr vaddr,
                      const std::vector<CoreId> &sharers, Cycle now,
                      ShootdownDone on_complete)
{
    CoreId slice = homeArrayOf(initiator, vaddr);
    beginShootdown(ctx, vaddr, sharers, now, slice, slice + 1);

    // Completion is tracked with a shared countdown across the relay
    // messages actually sent.
    struct ShootState
    {
        unsigned outstanding = 0;
        Cycle last = 0;
        Cycle started = 0;
        ShootdownDone onComplete;
    };
    auto state = std::make_shared<ShootState>();
    state->started = now;
    state->onComplete = std::move(on_complete);

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

} // namespace nocstar::core
