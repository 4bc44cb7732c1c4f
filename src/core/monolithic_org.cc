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
    for (unsigned b = 0; b < config.banks; ++b) {
        banks_.push_back(std::make_unique<tlb::SetAssocTlb>(
            "bank" + std::to_string(b), per_bank, config.l2Assoc, this));
    }
    // Banking multiplies ports (each bank accepts its own request per
    // cycle) but the read still traverses the full structure's
    // decode / H-tree / sense path, so the access latency is that of
    // the whole array (paper Fig 11a: ~15 cycles at 32x, hops = 0).
    bankLatency_ = energy::SramModel::accessLatency(total);

    // The structure sits at one end of the chip (paper §II-C: "the
    // entire structure was placed at one end"): middle of the bottom
    // row, so top-row tiles pay the full vertical distance.
    structureTile_ = (topo_.height() - 1) * topo_.width() +
                     topo_.width() / 2;

    if (config.kind == OrgKind::MonolithicSmart) {
        network_ = std::make_unique<noc::SmartNetwork>(
            "smart", topo_, config.hpcMax, this);
        energyStyle_ = energy::NocStyle::MonolithicMesh;
    } else {
        network_ = std::make_unique<noc::MeshNetwork>("mesh", topo_,
                                                      this);
        energyStyle_ = energy::NocStyle::MonolithicMesh;
    }
}

Cycle
MonolithicOrg::traverse(CoreId from, CoreId to, Cycle now)
{
    return network_->traverse(from, to, now);
}

void
MonolithicOrg::translate(CoreId core, ContextId ctx, Addr vaddr,
                         Cycle now, TranslationDone done)
{
    unsigned bank = bankOf(vaddr);
    tlb::SetAssocTlb &array = *banks_[bank];
    Cycle t0 = now + config_.initiateLatency;

    ++l2Accesses;
    noteAccessStart(bank);

    unsigned hops = topo_.hops(core, structureTile_);
    if (ctx_.energy)
        ctx_.energy->addL2Message(energyStyle_, hops,
                                  array.numEntries());

    // Functional lookup now; timing assembled below.
    const tlb::TlbEntry *hit = array.lookupAnySize(ctx, vaddr);
    bool ecc = false;
    if (hit && eccCorrupted()) {
        // The entry read back corrupt: drop it and take the miss path.
        ++sliceEccRewalks;
        ecc = true;
        ContextId ectx = hit->ctx;
        PageNum vpn = hit->vpn;
        PageSize size = hit->size;
        array.invalidate(ectx, vpn, size);
        hit = nullptr;
    }

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
        Cycle req_arrival = t0 + traverse(core, structureTile_, t0);
        lookup_start = portStart(bank, req_arrival + 1);
        lookup_done = lookup_start + bankLatency_;
        resp_arrival =
            lookup_done + traverse(structureTile_, core, lookup_done);
    }
    if (ctx_.energy)
        ctx_.energy->addL2Message(energyStyle_, hops, 0); // response

    TRACE(TLB, "core ", core, " L2 ", hit ? "hit" : "miss",
          " vaddr 0x", std::hex, vaddr, std::dec, " bank ", bank);
    noteSliceLookup(bank, lookup_start, lookup_done, hit != nullptr);

    if (hit) {
        ++l2Hits;
        TranslationResult result;
        result.completedAt = resp_arrival;
        result.entry = *hit;
        result.l2Hit = true;
        // The monolithic structure sits at the chip edge: every access
        // crosses the mesh, so its hits are remote by construction.
        result.remote = true;
        totalAccessLatency += static_cast<double>(resp_arrival - now);
        ctx_.queue->scheduleLambda(
            resp_arrival, [this, bank, result, done = std::move(done)] {
                noteAccessEnd(bank);
                done(result);
            });
        return;
    }

    // Miss: the miss message returns to the requester, which performs
    // the walk and then sends the fill back to the bank (off the
    // critical path).
    ++l2Misses;
    launchWalk(core, core, ctx, vaddr, resp_arrival,
               [this, bank, core, ctx, vaddr, now, ecc,
                done = std::move(done)](const mem::WalkResult &walk) {
                   tlb::SetAssocTlb &arr = *banks_[bank];
                   tlb::TlbEntry entry =
                       entryFor(ctx, vaddr, walk.translation);
                   arr.insert(entry);
                   prefetchAround(arr, ctx, entry.vpn, entry.size);
                   if (ctx_.energy)
                       ctx_.energy->addL2Message(
                           energyStyle_,
                           topo_.hops(core, structureTile_), 0);

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
MonolithicOrg::shootdown(CoreId, ContextId ctx, Addr vaddr,
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

    unsigned bank = bankOf(vaddr);
    if (banks_.at(bank)->invalidate(ctx, vpn, t.size))
        ++shootdownL2Invalidations;

    // Every IPI'd sharer relays an invalidation to the structure; they
    // serialize on the bank's port.
    Cycle last = now;
    for (CoreId sharer : sharers) {
        Cycle arrive = now + traverse(sharer, structureTile_, now);
        Cycle processed = portStart(bank, arrive + 1) + 1;
        last = std::max(last, processed);
    }
    totalShootdownLatency += static_cast<double>(last - now);
    if (on_complete)
        ctx_.queue->scheduleLambda(
            last, [cb = std::move(on_complete), last] { cb(last); });
}

void
MonolithicOrg::preloadShared(ContextId ctx, Addr vaddr,
                             const mem::Translation &t)
{
    banks_.at(bankOf(vaddr))->insert(entryFor(ctx, vaddr, t));
}

void
MonolithicOrg::flushAll()
{
    for (auto &bank : banks_)
        bank->invalidateAll();
}

std::uint64_t
MonolithicOrg::totalEntries() const
{
    std::uint64_t total = 0;
    for (const auto &bank : banks_)
        total += bank->numEntries();
    return total;
}

} // namespace nocstar::core
