/**
 * @file
 * Shared organization machinery.
 */

#include "core/organization.hh"

#include <bit>
#include <stdexcept>

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
isSliced(OrgKind kind)
{
    switch (kind) {
      case OrgKind::Distributed:
      case OrgKind::IdealShared:
      case OrgKind::Nocstar:
      case OrgKind::NocstarIdeal:
        return true;
      default:
        return false;
    }
}

bool
isShared(OrgKind kind)
{
    return kind != OrgKind::Private;
}

const char *
fabricKindName(FabricKind kind)
{
    switch (kind) {
      case FabricKind::Flat: return "flat";
      case FabricKind::Hierarchical: return "hier";
    }
    return "?";
}

std::string
parseFabricSpec(const std::string &spec, OrgConfig &config)
{
    if (spec == "flat") {
        config.fabricKind = FabricKind::Flat;
        config.clusterWidth = 0;
        config.clusterHeight = 0;
        return "";
    }
    if (spec == "hier") {
        config.fabricKind = FabricKind::Hierarchical;
        config.clusterWidth = 0;
        config.clusterHeight = 0;
        return "";
    }
    if (spec.rfind("hier:", 0) == 0) {
        std::string geometry = spec.substr(5);
        std::size_t x = geometry.find('x');
        unsigned w = 0, h = 0;
        try {
            std::size_t used = 0;
            if (x == std::string::npos || x == 0 ||
                x + 1 >= geometry.size())
                throw std::invalid_argument("shape");
            w = std::stoul(geometry.substr(0, x), &used);
            if (used != x)
                throw std::invalid_argument("width");
            h = std::stoul(geometry.substr(x + 1), &used);
            if (used != geometry.size() - x - 1)
                throw std::invalid_argument("height");
        } catch (const std::exception &) {
            return strCat("bad cluster geometry '", geometry,
                          "' (expected WxH, e.g. hier:4x4)");
        }
        if (w == 0 || h == 0)
            return strCat("bad cluster geometry '", geometry,
                          "': dimensions must be >= 1");
        config.fabricKind = FabricKind::Hierarchical;
        config.clusterWidth = w;
        config.clusterHeight = h;
        return "";
    }
    return strCat("unknown fabric '", spec,
                  "' (expected flat, hier or hier:WxH)");
}

std::vector<std::string>
OrgConfig::validate() const
{
    std::vector<std::string> errors;
    if (numCores == 0)
        errors.push_back("numCores must be >= 1");
    if (l2Entries == 0)
        errors.push_back("l2Entries must be >= 1");
    if (l2Assoc == 0)
        errors.push_back("l2Assoc must be >= 1");
    if (l2Assoc != 0 && l2Entries % l2Assoc != 0)
        errors.push_back(strCat("l2Entries (", l2Entries,
                                ") not a multiple of l2Assoc (",
                                l2Assoc, ")"));
    if (readPortsPerCycle == 0)
        errors.push_back("readPortsPerCycle must be >= 1");
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
        else if (l2Assoc != 0 && nocstarSliceEntries % l2Assoc != 0)
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
    }

    bool hier = fabricKind == FabricKind::Hierarchical;
    if (hier && !nocstar)
        errors.push_back(strCat(
            "the hierarchical fabric needs a NOCSTAR organization "
            "(kind is ", orgKindName(kind), ")"));
    if (!hier && (clusterWidth != 0 || clusterHeight != 0))
        errors.push_back(
            "cluster geometry is set but the fabric is flat "
            "(did you mean fabricKind = Hierarchical / --fabric=hier?)");
    if (!hier && sliceMapping == SliceMapping::ClusterLocal)
        errors.push_back(
            "cluster-local slice mapping needs the hierarchical fabric");
    if ((clusterWidth == 0) != (clusterHeight == 0))
        errors.push_back(strCat(
            "clusterWidth (", clusterWidth, ") and clusterHeight (",
            clusterHeight, ") must be set together (0x0 picks the "
            "geometry automatically)"));

    if (isShared(kind) && numCores > 0) {
        // Every interconnect model assumes the cores tile a full
        // W x H mesh (power-of-two friendly; 24 = 8x3 is also fine).
        noc::GridTopology topo = noc::GridTopology::forCores(numCores);
        if (topo.numTiles() != numCores)
            errors.push_back(
                strCat("numCores (", numCores, ") does not tile a "
                       "full mesh (nearest grid is ", topo.width(),
                       "x", topo.height(), ")"));
        else if (hier && nocstar) {
            // The cluster grid math assumes power-of-two mesh sides, so
            // every legal cluster size divides evenly.
            if (!std::has_single_bit(topo.width()) ||
                !std::has_single_bit(topo.height()))
                errors.push_back(strCat(
                    "the hierarchical fabric needs power-of-two mesh "
                    "dimensions, but ", numCores, " cores tile ",
                    topo.width(), "x", topo.height(),
                    " (try ", topo.width() * topo.width(),
                    " or ", std::bit_floor(numCores), " cores)"));
            else if (clusterWidth != 0 && clusterHeight != 0) {
                if (topo.width() % clusterWidth != 0)
                    errors.push_back(strCat(
                        "clusterWidth (", clusterWidth,
                        ") must divide the mesh width (", topo.width(),
                        "); any power of two up to ", topo.width(),
                        " works"));
                if (topo.height() % clusterHeight != 0)
                    errors.push_back(strCat(
                        "clusterHeight (", clusterHeight,
                        ") must divide the mesh height (",
                        topo.height(), "); any power of two up to ",
                        topo.height(), " works"));
            }
        }
        for (std::string &e : faults.validate(topo.linkIndexSpace()))
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
                  "chip-wide concurrent L2 accesses at access start",
                  1, 513, 1),
      sliceConcurrency(this, "slice_concurrency",
                       "same-slice concurrent accesses at access start",
                       1, 513, 1),
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
    unsigned slices = std::max(config.numCores, config.banks);
    sliceOutstanding_.assign(slices, 0);
    ports_.assign(slices, PortState{});
}

void
TlbOrganization::noteAccessStart(unsigned slice)
{
    // Sample including this access, so "1" means an isolated access,
    // matching the paper's "1 acc" category.
    ++outstanding_;
    ++sliceOutstanding_[slice];
    concurrency.sample(static_cast<double>(outstanding_));
    sliceConcurrency.sample(
        static_cast<double>(sliceOutstanding_[slice]));
}

void
TlbOrganization::noteAccessEnd(unsigned slice)
{
    if (outstanding_ == 0 || sliceOutstanding_[slice] == 0)
        panic("unbalanced access tracking");
    --outstanding_;
    --sliceOutstanding_[slice];
}

Cycle
TlbOrganization::portStart(unsigned slice, Cycle earliest)
{
    PortState &port = ports_[slice];
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
TlbOrganization::prefetchAround(tlb::SetAssocTlb &array, ContextId ctx,
                                PageNum vpn, PageSize size)
{
    if (prefetcher_.distance() == 0)
        return;
    for (PageNum candidate : prefetcher_.candidates(vpn)) {
        Addr vaddr = candidate << pageShift(size);
        mem::Translation t = ctx_.pageTable->translate(ctx, vaddr);
        if (t.size != size)
            continue; // neighbouring page has a different granularity
        if (array.present(ctx, candidate, size))
            continue;
        tlb::TlbEntry entry;
        entry.valid = true;
        entry.vpn = candidate;
        entry.ppn = t.ppn;
        entry.ctx = ctx;
        entry.size = size;
        entry.prefetched = true;
        array.insert(entry);
        ++prefetchInserts;
    }
}

tlb::TlbEntry
TlbOrganization::entryFor(ContextId ctx, Addr vaddr,
                          const mem::Translation &t) const
{
    tlb::TlbEntry entry;
    entry.valid = true;
    entry.size = t.size;
    entry.vpn = pageNumber(vaddr, t.size);
    entry.ppn = t.ppn;
    entry.ctx = ctx;
    return entry;
}

} // namespace nocstar::core
