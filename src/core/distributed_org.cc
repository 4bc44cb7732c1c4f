/**
 * @file
 * Distributed shared TLB implementation.
 */

#include "core/distributed_org.hh"

#include "energy/sram_model.hh"

namespace nocstar::core
{

DistributedOrg::DistributedOrg(const OrgConfig &config,
                               OrgContext context,
                               stats::StatGroup *parent)
    : TlbOrganization("distributed_org", config, std::move(context),
                      parent),
      topo_(noc::GridTopology::forCores(config.numCores))
{
    addArrays("slice", config.numCores, config.l2Entries);
    sliceLatency_ = energy::SramModel::accessLatency(config.l2Entries);

    if (config.kind == OrgKind::IdealShared)
        network_ = std::make_unique<noc::IdealNetwork>("ideal", topo_,
                                                       this);
    else
        network_ = std::make_unique<noc::MeshNetwork>("mesh", topo_,
                                                      this);
}

void
DistributedOrg::finishWithWalk(CoreId walk_core, CoreId requester,
                               CoreId slice, ContextId ctx, Addr vaddr,
                               Cycle start, Cycle now, bool ecc,
                               TranslationDone &&done)
{
    launchWalk(
        walk_core, requester, ctx, vaddr, start,
        [this, walk_core, requester, slice, ctx, vaddr, now, ecc,
         done = std::move(done)](const mem::WalkResult &walk) mutable {
            Cycle walk_done = ctx_.queue->curCycle();
            tlb::TlbEntry entry = entryFor(ctx, vaddr, walk.translation);

            // The fill is installed in the home slice either way; if
            // the requester walked, the fill message is off the
            // critical path.
            fill(requester, slice, entry);
            if (ctx_.energy && walk_core != slice)
                ctx_.energy->addL2Message(
                    energy::NocStyle::DistributedMesh,
                    topo_.hops(walk_core, slice), 0);

            Cycle completed = walk_done;
            if (walk_core != requester) {
                // Remote walk: the translation response still has to
                // travel back to the requester.
                completed +=
                    network_->traverse(walk_core, requester, walk_done);
                if (ctx_.energy)
                    ctx_.energy->addL2Message(
                        energy::NocStyle::DistributedMesh,
                        topo_.hops(walk_core, requester), 0);
            }

            TranslationResult result;
            result.completedAt = completed;
            result.entry = entry;
            result.walked = true;
            result.remote = slice != requester;
            result.eccRewalk = ecc || walk.eccRetried;
            complete(slice, now, result, std::move(done));
        });
}

void
DistributedOrg::translate(CoreId core, ContextId ctx, Addr vaddr,
                          Cycle now, TranslationDone done)
{
    CoreId slice = homeArrayOf(core, vaddr);
    Cycle t0 = now + config_.initiateLatency;

    unsigned hops = topo_.hops(core, slice);
    if (ctx_.energy)
        ctx_.energy->addL2Message(energy::NocStyle::DistributedMesh,
                                  hops, array(slice).numEntries());

    bool ecc = false;
    std::optional<tlb::TlbEntry> hit = lookupHome(slice, ctx, vaddr, ecc);

    Cycle req_arrival = slice == core
        ? t0 : t0 + network_->traverse(core, slice, t0);
    Cycle start = portStart(slice, req_arrival + (slice == core ? 0 : 1));
    Cycle lookup_done = start + sliceLatency_;

    noteSliceLookup(slice, core, vaddr, start, lookup_done,
                    hit.has_value());

    if (hit) {
        Cycle completed = slice == core
            ? lookup_done
            : lookup_done + network_->traverse(slice, core, lookup_done);
        if (ctx_.energy && slice != core)
            ctx_.energy->addL2Message(energy::NocStyle::DistributedMesh,
                                      hops, 0);
        TranslationResult result;
        result.completedAt = completed;
        result.entry = *hit;
        result.l2Hit = true;
        result.remote = slice != core;
        complete(slice, now, result, std::move(done));
        return;
    }

    if (config_.ptwPlacement == PtwPlacement::Remote || slice == core) {
        // Walk at the slice's core, then respond with the translation.
        finishWithWalk(slice, core, slice, ctx, vaddr, lookup_done, now,
                       ecc, std::move(done));
    } else {
        // Miss message returns to the requester, which walks locally.
        Cycle miss_arrival =
            lookup_done + network_->traverse(slice, core, lookup_done);
        if (ctx_.energy)
            ctx_.energy->addL2Message(energy::NocStyle::DistributedMesh,
                                      hops, 0);
        finishWithWalk(core, core, slice, ctx, vaddr, miss_arrival, now,
                       ecc, std::move(done));
    }
}

void
DistributedOrg::shootdown(CoreId initiator, ContextId ctx, Addr vaddr,
                          const std::vector<CoreId> &sharers, Cycle now,
                          ShootdownDone on_complete)
{
    CoreId slice = homeArrayOf(initiator, vaddr);
    beginShootdown(ctx, vaddr, sharers, now, slice, slice + 1);

    Cycle last = now;
    if (config_.invalLeaderGroup == 0) {
        // Each IPI'd core relays its own invalidation to the slice.
        for (CoreId sharer : sharers) {
            Cycle arrive = now + network_->traverse(sharer, slice, now);
            Cycle processed = portStart(slice, arrive + 1) + 1;
            last = std::max(last, processed);
        }
    } else {
        // Leader relay: one upstream message per sharer, one deduped
        // downstream invalidation per involved leader.
        std::vector<bool> leader_sent(config_.numCores, false);
        for (CoreId sharer : sharers) {
            CoreId leader = sharer - (sharer % config_.invalLeaderGroup);
            Cycle at_leader =
                now + network_->traverse(sharer, leader, now);
            if (!leader_sent.at(leader)) {
                leader_sent[leader] = true;
                Cycle arrive = at_leader +
                    network_->traverse(leader, slice, at_leader);
                Cycle processed = portStart(slice, arrive + 1) + 1;
                last = std::max(last, processed);
            } else {
                last = std::max(last, at_leader);
            }
        }
    }
    endShootdown(now, last, std::move(on_complete));
}

} // namespace nocstar::core
