/**
 * @file
 * Shared organization machinery.
 */

#include "core/organization.hh"

namespace nocstar::core
{

const char *
orgKindName(OrgKind kind)
{
    switch (kind) {
      case OrgKind::Private: return "private";
      case OrgKind::MonolithicMesh: return "monolithic-mesh";
      case OrgKind::MonolithicSmart: return "monolithic-smart";
      case OrgKind::Distributed: return "distributed";
      case OrgKind::IdealShared: return "ideal-shared";
      case OrgKind::Nocstar: return "nocstar";
      case OrgKind::NocstarIdeal: return "nocstar-ideal";
    }
    return "?";
}

bool
isShared(OrgKind kind)
{
    return kind != OrgKind::Private;
}

std::vector<std::string>
OrgConfig::validate() const
{
    std::vector<std::string> errors;
    if (numCores == 0)
        errors.push_back("numCores must be >= 1");
    if (prefetchDistance > maxPrefetchDistance)
        errors.push_back(strCat("prefetchDistance (", prefetchDistance,
                                ") outside 0..", maxPrefetchDistance));

    bool nocstar =
        kind == OrgKind::Nocstar || kind == OrgKind::NocstarIdeal;
    bool monolithic = kind == OrgKind::MonolithicMesh ||
                      kind == OrgKind::MonolithicSmart;
    if (nocstar) {
        if (nocstarSliceEntries == 0)
            errors.push_back("nocstarSliceEntries must be >= 1");
        else if (nocstarSliceEntries % l2Assoc != 0)
            errors.push_back(
                strCat("nocstarSliceEntries (", nocstarSliceEntries,
                       ") not a multiple of l2Assoc (", l2Assoc, ")"));
        if (priorityEpoch == 0)
            errors.push_back("priorityEpoch must be >= 1");
    }
    if ((nocstar || kind == OrgKind::MonolithicSmart) && hpcMax == 0)
        errors.push_back("hpcMax must be >= 1");
    if (monolithic) {
        if (banks == 0)
            errors.push_back("banks must be >= 1");
        else if (banks > numCores)
            errors.push_back(strCat("banks (", banks,
                                    ") exceeds numCores (", numCores,
                                    ")"));
        // A policy the organization has no mechanism for is refused,
        // never silently ignored.
        if (ptwPlacement == PtwPlacement::Remote)
            errors.push_back("ptwPlacement remote needs slices on "
                             "tiles; monolithic walks run at the "
                             "requester");
    }
    if ((monolithic || kind == OrgKind::Private) && invalLeaderGroup > 0)
        errors.push_back(strCat("invalLeaderGroup (", invalLeaderGroup,
                                ") needs per-tile slices; ",
                                orgKindName(kind),
                                " shootdowns relay through no leaders"));

    if (isShared(kind) && numCores > 0) {
        // Every interconnect model assumes the cores tile a full
        // W x H mesh (power-of-two friendly; 24 = 8x3 is also fine).
        noc::GridTopology topo = noc::GridTopology::forCores(numCores);
        if (topo.numTiles() != numCores)
            errors.push_back(
                strCat("numCores (", numCores, ") does not tile a "
                       "full mesh (nearest grid is ", topo.width(),
                       "x", topo.height(), ")"));
        for (std::string &e : faults.validate([&topo](std::uint32_t link) {
                 return topo.hasLink(link);
             }))
            errors.push_back("faults: " + e);
    } else {
        for (std::string &e : faults.validate())
            errors.push_back("faults: " + e);
    }
    return errors;
}

std::string
joinConfigErrors(const std::vector<std::string> &errors)
{
    std::string all;
    for (const std::string &e : errors)
        all += "\n  - " + e;
    return all;
}

TlbOrganization::TlbOrganization(const std::string &name,
                                 const OrgConfig &config,
                                 OrgContext context,
                                 stats::StatGroup *parent)
    : stats::StatGroup(name, parent),
      l2Accesses(this, "l2_accesses", "L2 TLB demand accesses"),
      l2Hits(this, "l2_hits", "L2 TLB demand hits"),
      l2Misses(this, "l2_misses", "L2 TLB demand misses"),
      walksLaunched(this, "walks", "page walks launched"),
      prefetchInserts(this, "prefetch_inserts",
                      "translations inserted by the prefetcher"),
      shootdowns(this, "shootdowns", "shootdown operations"),
      shootdownL2Invalidations(this, "shootdown_l2_invalidations",
                               "L2 entries invalidated by shootdowns"),
      totalAccessLatency(this, "access_latency_cycles",
                         "total L1-miss-to-completion cycles"),
      totalShootdownLatency(this, "shootdown_latency_cycles",
                            "total shootdown completion cycles"),
      concurrency(this, "concurrency",
                  "chip-wide concurrent L2 accesses at access start"),
      sliceConcurrency(this, "slice_concurrency",
                       "same-slice concurrent accesses at access start"),
      sliceEccRewalks(this, "slice_ecc_rewalks",
                      "hits discarded for ECC corruption"),
      config_(config), ctx_(std::move(context)),
      prefetcher_(config.prefetchDistance)
{
    if (config_.faults.sliceEccProb > 0)
        eccFaults_ = std::make_unique<sim::FaultInjector>(
            config_.faults, sim::FaultInjector::Stream::SliceEcc);
    if (!ctx_.queue || !ctx_.pageTable)
        fatal("organization '", name, "' missing queue or page table");
    if (ctx_.walkers.size() != config.numCores)
        fatal("organization '", name, "' expects one walker per core");
}

void
TlbOrganization::addArrays(const std::string &prefix, unsigned count,
                           std::uint32_t entries)
{
    arrays_.reserve(arrays_.size() + count);
    for (unsigned i = 0; i < count; ++i)
        arrays_.push_back(std::make_unique<tlb::SetAssocTlb>(
            prefix + std::to_string(i), entries, config_.l2Assoc, this));
    sliceOutstanding_.resize(arrays_.size(), 0);
    ports_.resize(arrays_.size());
}

void
TlbOrganization::flushAll()
{
    for (auto &array : arrays_)
        array->invalidateAll();
}

void
TlbOrganization::preload(CoreId core, ContextId ctx, Addr vaddr,
                         const mem::Translation &t)
{
    array(homeArrayOf(core, vaddr)).insert(entryFor(ctx, vaddr, t));
}

std::uint64_t
TlbOrganization::totalEntries() const
{
    std::uint64_t total = 0;
    for (const auto &array : arrays_)
        total += array->numEntries();
    return total;
}

std::optional<tlb::TlbEntry>
TlbOrganization::lookupHome(unsigned home, ContextId ctx, Addr vaddr,
                            bool &ecc)
{
    ++l2Accesses;
    // Sample including this access, so "1" means an isolated access,
    // matching the paper's "1 acc" category.
    ++outstanding_;
    ++sliceOutstanding_[home];
    concurrency.record(outstanding_);
    sliceConcurrency.record(sliceOutstanding_[home]);

    tlb::SetAssocTlb &array = *arrays_[home];
    std::optional<tlb::TlbEntry> hit = array.lookupAnySize(ctx, vaddr);
    // The fault injector draws only on a hit, and only when the plan
    // has a slice-ecc probability, so fault-free runs stay identical.
    if (hit && eccFaults_ && eccFaults_->sliceEcc()) {
        // The entry read back corrupt: drop it and take the miss path.
        ++sliceEccRewalks;
        ecc = true;
        array.invalidate(hit->ctx, hit->vpn, hit->size);
        hit.reset();
    }
    if (hit)
        ++l2Hits;
    else
        ++l2Misses;
    return hit;
}

void
TlbOrganization::noteAccessEnd(unsigned home)
{
    if (outstanding_ == 0 || sliceOutstanding_[home] == 0)
        panic("unbalanced access tracking");
    --outstanding_;
    --sliceOutstanding_[home];
}

void
TlbOrganization::complete(unsigned home, Cycle issued,
                          const TranslationResult &result,
                          TranslationDone &&done)
{
    totalAccessLatency += static_cast<double>(result.completedAt - issued);
    ctx_.queue->scheduleLambda(
        result.completedAt, [this, home, result, done = std::move(done)] {
            noteAccessEnd(home);
            done(result);
        });
}

void
TlbOrganization::beginShootdown(ContextId ctx, Addr vaddr,
                                const std::vector<CoreId> &sharers,
                                Cycle now, unsigned first, unsigned last)
{
    ++shootdowns;
    mem::Translation t = ctx_.pageTable->translate(ctx, vaddr);
    PageNum vpn = pageNumber(vaddr, t.size);

    for (CoreId sharer : sharers)
        if (ctx_.l1Invalidate)
            ctx_.l1Invalidate(sharer, ctx, vpn, t.size);

    std::uint64_t removed = 0;
    for (unsigned i = first; i < last; ++i) {
        removed += arrays_.at(i)->invalidate(ctx, vpn, t.size) ? 1 : 0;
        if (sim::recording())
            sim::recorder().instant(sim::Lane::Slice, i, "shootdown",
                                    now, vaddr, sharers.size(),
                                    "vaddr", "sharers");
    }
    shootdownL2Invalidations += static_cast<double>(removed);
}

void
TlbOrganization::endShootdown(Cycle now, Cycle done,
                              ShootdownDone on_complete)
{
    totalShootdownLatency += static_cast<double>(done - now);
    if (on_complete)
        ctx_.queue->scheduleLambda(
            done, [cb = std::move(on_complete), done] { cb(done); });
}

Cycle
TlbOrganization::portStart(unsigned home, Cycle earliest)
{
    PortState &port = ports_[home];
    if (port.cycle < earliest) {
        port.cycle = earliest;
        port.used = 1;
        return earliest;
    }
    // Find the first cycle at or after port.cycle with spare issue slots.
    if (port.used < config_.readPortsPerCycle) {
        ++port.used;
        return port.cycle;
    }
    ++port.cycle;
    port.used = 1;
    return port.cycle;
}

void
TlbOrganization::launchWalk(CoreId walk_core, CoreId requester,
                            ContextId ctx, Addr vaddr, Cycle now,
                            WalkDone k)
{
    ++walksLaunched;
    mem::WalkResult walk =
        ctx_.walkers.at(walk_core)->walk(ctx, vaddr, requester, now);
    chargeWalkEnergy(walk);
    Cycle done = now + walk.totalLatency();
    ctx_.queue->scheduleLambda(done, [walk, k = std::move(k)] {
        k(walk);
    });
}

void
TlbOrganization::chargeWalkEnergy(const mem::WalkResult &walk)
{
    if (!ctx_.energy)
        return;
    for (unsigned i = 0; i < walk.pscHits; ++i)
        ctx_.energy->addWalkReference(energy::WalkService::PwcHit);
    for (unsigned i = 0; i < walk.l2Refs; ++i)
        ctx_.energy->addWalkReference(energy::WalkService::L2Hit);
    for (unsigned i = 0; i < walk.llcRefs; ++i)
        ctx_.energy->addWalkReference(energy::WalkService::LlcHit);
    for (unsigned i = 0; i < walk.dramRefs; ++i)
        ctx_.energy->addWalkReference(energy::WalkService::Dram);
}

void
TlbOrganization::fill(CoreId core, unsigned home,
                      const tlb::TlbEntry &entry)
{
    arrays_[home]->insert(entry);
    if (prefetcher_.distance() == 0)
        return;
    for (PageNum candidate : prefetcher_.candidates(entry.vpn)) {
        Addr vaddr = candidate << pageShift(entry.size);
        mem::Translation t = ctx_.pageTable->translate(entry.ctx, vaddr);
        if (t.size != entry.size)
            continue; // neighbouring page has a different granularity
        // A neighbour goes where a lookup of it would probe, which in
        // an interleaved organization is rarely the array that missed.
        tlb::SetAssocTlb &array = *arrays_[homeArrayOf(core, vaddr)];
        if (array.present(entry.ctx, candidate, entry.size))
            continue;
        tlb::TlbEntry neighbour = entry;
        neighbour.vpn = candidate;
        neighbour.ppn = t.ppn;
        neighbour.prefetched = true;
        array.insert(neighbour);
        ++prefetchInserts;
    }
}

} // namespace nocstar::core
