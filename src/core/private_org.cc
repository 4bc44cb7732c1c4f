/**
 * @file
 * Private L2 TLB organization implementation.
 */

#include "core/private_org.hh"

#include "energy/sram_model.hh"

namespace nocstar::core
{

PrivateOrg::PrivateOrg(const OrgConfig &config, OrgContext context,
                       stats::StatGroup *parent)
    : TlbOrganization("private_org", config, std::move(context), parent),
      lookupLatency_(energy::SramModel::accessLatency(config.l2Entries))
{
    addArrays("l2_core", config.numCores, config.l2Entries);
}

void
PrivateOrg::translate(CoreId core, ContextId ctx, Addr vaddr, Cycle now,
                      TranslationDone done)
{
    Cycle start = portStart(core, now + config_.initiateLatency);
    if (ctx_.energy)
        ctx_.energy->addPrivateL2Lookup(config_.l2Entries);

    bool ecc = false;
    std::optional<tlb::TlbEntry> hit = lookupHome(core, ctx, vaddr, ecc);
    Cycle lookup_done = start + lookupLatency_;

    noteSliceLookup(core, core, vaddr, start, lookup_done,
                    hit.has_value());

    if (hit) {
        TranslationResult result;
        result.completedAt = lookup_done;
        result.entry = *hit;
        result.l2Hit = true;
        complete(core, now, result, std::move(done));
        return;
    }

    launchWalk(core, core, ctx, vaddr, lookup_done,
               [this, core, ctx, vaddr, now, ecc,
                done = std::move(done)](const mem::WalkResult &walk) {
                   tlb::TlbEntry entry =
                       entryFor(ctx, vaddr, walk.translation);
                   fill(core, core, entry);

                   TranslationResult result;
                   result.completedAt = ctx_.queue->curCycle();
                   result.entry = entry;
                   result.walked = true;
                   result.eccRewalk = ecc || walk.eccRetried;
                   totalAccessLatency +=
                       static_cast<double>(result.completedAt - now);
                   noteAccessEnd(core);
                   done(result);
               });
}

void
PrivateOrg::shootdown(CoreId, ContextId ctx, Addr vaddr,
                      const std::vector<CoreId> &sharers, Cycle now,
                      ShootdownDone on_complete)
{
    // Every private L2 may hold a stale copy; the IPI handler on each
    // core invalidates locally, all in parallel.
    beginShootdown(ctx, vaddr, sharers, now, 0, numHomeArrays());
    endShootdown(now, now + shootdownLatency, std::move(on_complete));
}

} // namespace nocstar::core
