/**
 * @file
 * Monolithic shared TLB implementation.
 */

#include "core/monolithic_org.hh"

#include "energy/sram_model.hh"

namespace nocstar::core
{

MonolithicOrg::MonolithicOrg(const OrgConfig &config, OrgContext context,
                             stats::StatGroup *parent)
    : TlbOrganization("monolithic_org", config, std::move(context),
                      parent),
      topo_(noc::GridTopology::forCores(config.numCores))
{
    if (config.banks == 0)
        fatal("monolithic organization needs at least one bank");

    std::uint64_t total = static_cast<std::uint64_t>(config.l2Entries) *
                          config.numCores;
    std::uint32_t per_bank =
        static_cast<std::uint32_t>(total / config.banks);
    per_bank -= per_bank % config.l2Assoc;
    addArrays("bank", config.banks, per_bank);
    bankLatency_ = lookupLatency(config.numCores);

    // The structure sits at one end of the chip (paper §II-C: "the
    // entire structure was placed at one end"): middle of the bottom
    // row, so top-row tiles pay the full vertical distance.
    structureTile_ = (topo_.height() - 1) * topo_.width() +
                     topo_.width() / 2;

    if (config.kind == OrgKind::MonolithicSmart)
        network_ = std::make_unique<noc::SmartNetwork>(
            "smart", topo_, config.hpcMax, this);
    else
        network_ = std::make_unique<noc::MeshNetwork>("mesh", topo_,
                                                      this);
}

Cycle
MonolithicOrg::lookupLatency(unsigned num_cores)
{
    return energy::SramModel::accessLatency(
        std::uint64_t{OrgConfig::l2Entries} * num_cores);
}

void
MonolithicOrg::translate(CoreId core, ContextId ctx, Addr vaddr,
                         Cycle now, TranslationDone done)
{
    unsigned bank = homeArrayOf(core, vaddr);
    Cycle t0 = now + config_.initiateLatency;

    unsigned hops = topo_.hops(core, structureTile_);
    if (ctx_.energy)
        ctx_.energy->addL2Message(energy::NocStyle::MonolithicMesh, hops,
                                  array(bank).numEntries());

    // Functional lookup now; timing assembled below.
    bool ecc = false;
    std::optional<tlb::TlbEntry> hit = lookupHome(bank, ctx, vaddr, ecc);

    Cycle lookup_start;
    Cycle lookup_done;
    Cycle resp_arrival;
    if (config_.monolithicAccessOverride) {
        // Fig 4 mode: the entire network + array access is a fixed
        // number of cycles; port contention still applies.
        lookup_start = portStart(bank, t0);
        lookup_done = lookup_start + config_.monolithicAccessOverride;
        resp_arrival = lookup_done;
    } else {
        Cycle req_arrival =
            t0 + network_->traverse(core, structureTile_, t0);
        lookup_start = portStart(bank, req_arrival + 1);
        lookup_done = lookup_start + bankLatency_;
        resp_arrival = lookup_done +
                       network_->traverse(structureTile_, core,
                                          lookup_done);
    }
    if (ctx_.energy) // response
        ctx_.energy->addL2Message(energy::NocStyle::MonolithicMesh, hops,
                                  0);

    noteSliceLookup(bank, core, vaddr, lookup_start, lookup_done,
                    hit.has_value());

    if (hit) {
        TranslationResult result;
        result.completedAt = resp_arrival;
        result.entry = *hit;
        result.l2Hit = true;
        // The monolithic structure sits at the chip edge: every access
        // crosses the mesh, so its hits are remote by construction.
        result.remote = true;
        complete(bank, now, result, std::move(done));
        return;
    }

    // Miss: the miss message returns to the requester, which performs
    // the walk and then sends the fill back to the bank (off the
    // critical path).
    launchWalk(core, core, ctx, vaddr, resp_arrival,
               [this, core, bank, hops, ctx, vaddr, now, ecc,
                done = std::move(done)](const mem::WalkResult &walk) {
                   tlb::TlbEntry entry =
                       entryFor(ctx, vaddr, walk.translation);
                   fill(core, bank, entry);
                   if (ctx_.energy)
                       ctx_.energy->addL2Message(
                           energy::NocStyle::MonolithicMesh, hops, 0);

                   TranslationResult result;
                   result.completedAt = ctx_.queue->curCycle();
                   result.entry = entry;
                   result.walked = true;
                   result.remote = true;
                   result.eccRewalk = ecc || walk.eccRetried;
                   totalAccessLatency +=
                       static_cast<double>(result.completedAt - now);
                   noteAccessEnd(bank);
                   done(result);
               });
}

void
MonolithicOrg::shootdown(CoreId initiator, ContextId ctx, Addr vaddr,
                         const std::vector<CoreId> &sharers, Cycle now,
                         ShootdownDone on_complete)
{
    unsigned bank = homeArrayOf(initiator, vaddr);
    beginShootdown(ctx, vaddr, sharers, now, bank, bank + 1);

    // Every IPI'd sharer relays an invalidation to the structure; they
    // serialize on the bank's port.
    Cycle last = now;
    for (CoreId sharer : sharers) {
        Cycle arrive = now + network_->traverse(sharer, structureTile_,
                                                now);
        Cycle processed = portStart(bank, arrive + 1) + 1;
        last = std::max(last, processed);
    }
    endShootdown(now, last, std::move(on_complete));
}

} // namespace nocstar::core
