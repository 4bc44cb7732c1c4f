/**
 * @file
 * Last-level TLB organizations (paper Fig 1): the base class owns the
 * L2 arrays and the machinery every organization shares -- contention
 * tracking for Figs 5/6, port scheduling, the home lookup, walk
 * dispatch, prefetch, shootdown bookkeeping and completion -- while
 * subclasses model the private, monolithic, distributed and NOCSTAR
 * timing paths.
 */

#ifndef NOCSTAR_CORE_ORGANIZATION_HH
#define NOCSTAR_CORE_ORGANIZATION_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/config.hh"
#include "energy/translation_energy.hh"
#include "mem/page_table.hh"
#include "mem/page_walker.hh"
#include "noc/topology.hh"
#include "sim/event_queue.hh"
#include "sim/latency_histogram.hh"
#include "sim/stats.hh"
#include "sim/trace_recorder.hh"
#include "tlb/prefetcher.hh"
#include "tlb/set_assoc_tlb.hh"

namespace nocstar::core
{

/** Completed translation handed back to the requesting core. */
struct TranslationResult
{
    Cycle completedAt = 0;
    tlb::TlbEntry entry;
    bool l2Hit = false;
    bool walked = false;
    /**
     * The home slice/bank serving this access was not co-located with
     * the requesting tile (the lookup crossed the interconnect).
     * Private organizations never set it; the monolithic structure at
     * the chip edge always does.
     */
    bool remote = false;
    /**
     * The translation was redone for ECC: a home-array hit read back
     * corrupt (sliceEccRewalks) or the page walk itself re-walked for
     * a corrupt table entry (walker eccRewalks).
     */
    bool eccRewalk = false;
    /**
     * At least one fabric message on this translation's path fell back
     * to the store-and-forward mesh (NOCSTAR under fault injection).
     */
    bool degraded = false;
};

/** The TLB entry that maps @p vaddr in @p ctx by translation @p t. */
inline tlb::TlbEntry
entryFor(ContextId ctx, Addr vaddr, const mem::Translation &t)
{
    tlb::TlbEntry entry;
    entry.valid = true;
    entry.size = t.size;
    entry.vpn = pageNumber(vaddr, t.size);
    entry.ppn = t.ppn;
    entry.ctx = ctx;
    return entry;
}

/** Callback when a translation completes (inline, no heap). */
using TranslationDone =
    InlineFunction<void(const TranslationResult &), 48>;

/** Callback when a shootdown's L2 invalidation has completed. */
using ShootdownDone = InlineFunction<void(Cycle), 48>;

/**
 * Continuation of a page-table walk. Sized for the organization
 * continuations that own the requester's TranslationDone plus the
 * request coordinates.
 */
using WalkDone = InlineFunction<void(const mem::WalkResult &), 136>;

/**
 * Environment handed to an organization by the System.
 */
struct OrgContext
{
    EventQueue *queue = nullptr;
    mem::PageTable *pageTable = nullptr;
    /** One walker per core. */
    std::vector<mem::PageTableWalker *> walkers;
    energy::TranslationEnergyModel *energy = nullptr;
    /** Invalidate one translation in a core's L1 TLB group. */
    InlineFunction<void(CoreId, ContextId, PageNum, PageSize), 32>
        l1Invalidate;
};

/**
 * Abstract last-level TLB organization. The base owns the L2 arrays
 * and every step the organizations share: preload, flush, entry
 * count, the home lookup with its slice-ECC discard, the shootdown
 * prologue and epilogue, and the completion. A subclass adds only its
 * timing path: how a request reaches its home array, and how the
 * reply, the walk and the shootdown relay get back.
 */
class TlbOrganization : public stats::StatGroup
{
  public:
    TlbOrganization(const std::string &name, const OrgConfig &config,
                    OrgContext context, stats::StatGroup *parent = nullptr);
    ~TlbOrganization() override = default;

    /**
     * Resolve an L1 TLB miss raised at @p now on @p core. @p done runs
     * once the translation is available at the requesting core.
     */
    virtual void translate(CoreId core, ContextId ctx, Addr vaddr,
                           Cycle now, TranslationDone done) = 0;

    /**
     * Shoot down the page containing @p vaddr: all sharer L1s are
     * invalidated immediately (IPI handlers), and the L2 structure's
     * stale entry is invalidated via the configured relay policy.
     * @param sharers cores whose L1s received the IPI.
     * @param on_complete optional callback when the L2 entry is gone.
     */
    virtual void shootdown(CoreId initiator, ContextId ctx, Addr vaddr,
                           const std::vector<CoreId> &sharers, Cycle now,
                           ShootdownDone on_complete) = 0;

    /** Flush all L2 arrays (context switch without PCID). */
    void flushAll();

    /**
     * Functionally install a steady-state-resident translation into
     * the home array a translate(@p core, @p ctx, @p vaddr, ...) call
     * probes. Pre-warming skips the compulsory-miss phase that short
     * simulations would otherwise measure instead of steady state.
     */
    void preload(CoreId core, ContextId ctx, Addr vaddr,
                 const mem::Translation &t);

    /** Total L2 TLB entries across the chip (for leakage). */
    std::uint64_t totalEntries() const;

    /**
     * Number of L2 arrays (slices, banks, or private per-core arrays).
     * Array index i is what homeArrayOf() returns.
     */
    unsigned
    numHomeArrays() const
    {
        return static_cast<unsigned>(arrays_.size());
    }

    /**
     * Index (< numHomeArrays()) of the one home array a
     * translate(core, ..., vaddr, ...) call probes. The shared
     * organizations interleave 4 KB granules over their arrays on low
     * VPN bits ("simple indexing using bits from the virtual address",
     * §III-A). A 2 MB entry is cached in the array of the granule that
     * missed, so hot superpages may be replicated across arrays -- the
     * price of keeping lookups single-probe.
     */
    virtual unsigned
    homeArrayOf(CoreId core, Addr vaddr) const
    {
        (void)core;
        return static_cast<unsigned>(
            (vaddr >> pageShift(PageSize::FourKB)) % arrays_.size());
    }

    /**
     * The L2 array behind home index @p index (< numHomeArrays()).
     * Functional warming and checkpointing use this to reach every
     * array exactly once.
     */
    tlb::SetAssocTlb &array(unsigned index) { return *arrays_.at(index); }

    /**
     * The core whose walker would service a miss on (@p requester,
     * @p vaddr) under the configured walk-placement policy: the home
     * array's tile under remote placement (array i sits on tile i),
     * else the requester. validate() refuses remote placement for the
     * monolithic banks, which sit on no tile. Functional warming warms
     * that walker's PSCs and L2 PTE lines, matching the detailed
     * path's reference placement.
     */
    CoreId
    walkCoreFor(CoreId requester, Addr vaddr) const
    {
        return config_.ptwPlacement == PtwPlacement::Remote
            ? homeArrayOf(requester, vaddr) : requester;
    }

    const OrgConfig &config() const { return config_; }

    /** In-flight L2 accesses right now (counter-track sampling). */
    unsigned outstandingAccesses() const { return outstanding_; }

    // Chip-wide statistics shared by all organizations.
    stats::Scalar l2Accesses;
    stats::Scalar l2Hits;
    stats::Scalar l2Misses;
    stats::Scalar walksLaunched;
    stats::Scalar prefetchInserts;
    stats::Scalar shootdowns;
    stats::Scalar shootdownL2Invalidations;
    stats::Scalar totalAccessLatency; ///< L1-miss -> completion cycles
    stats::Scalar totalShootdownLatency;
    /** Concurrent chip-wide L2 accesses at each access start (Fig 5). */
    stats::Histogram concurrency;
    /** Concurrent same-slice accesses at each access start (Fig 6). */
    stats::Histogram sliceConcurrency;
    /** Hits discarded because the entry read back corrupt (ECC). */
    stats::Scalar sliceEccRewalks;

    double
    l2MissRate() const
    {
        double acc = l2Accesses.value();
        return acc > 0 ? l2Misses.value() / acc : 0.0;
    }

    double
    averageAccessLatency() const
    {
        double acc = l2Accesses.value();
        return acc > 0 ? totalAccessLatency.value() / acc : 0.0;
    }

  protected:
    /**
     * Append @p count arrays of @p entries entries, named @p prefix
     * followed by their index, as stats children of this group.
     */
    void addArrays(const std::string &prefix, unsigned count,
                   std::uint32_t entries);

    /**
     * Start a demand access on home array @p home: count it, track its
     * concurrency, and probe the array. A hit that reads back corrupt
     * is dropped from the array and reported as a miss with @p ecc
     * set, so the miss path re-walks it.
     * @return the hit entry, or nothing on a miss.
     */
    std::optional<tlb::TlbEntry> lookupHome(unsigned home, ContextId ctx,
                                            Addr vaddr, bool &ecc);

    /**
     * Retire an access started on @p home by lookupHome(). complete()
     * does this at the completion it schedules; a requester's walk
     * continuation that hands its result over in the walk's own
     * dispatch (private, monolithic) calls it directly.
     */
    void noteAccessEnd(unsigned home);

    /**
     * Finish a translation issued at @p issued: charge its latency,
     * then at result.completedAt retire the access on @p home and hand
     * @p done the result.
     */
    void complete(unsigned home, Cycle issued,
                  const TranslationResult &result,
                  TranslationDone &&done);

    /**
     * The steps every shootdown starts with: count it, resolve the
     * page, invalidate it in every sharer's L1 (the IPI handlers), and
     * drop any stale copy from home arrays [@p first, @p last), each
     * of which records a "shootdown" instant at @p now on its Slice
     * track.
     */
    void beginShootdown(ContextId ctx, Addr vaddr,
                        const std::vector<CoreId> &sharers, Cycle now,
                        unsigned first, unsigned last);

    /**
     * Charge a shootdown started at @p now whose L2 invalidation is
     * done at @p done, and run @p on_complete then.
     */
    void endShootdown(Cycle now, Cycle done, ShootdownDone on_complete);

    /**
     * Pipelined read-port schedule: at most config.readPortsPerCycle
     * new lookups may start per cycle on one home array.
     * @return the cycle the lookup actually starts.
     */
    Cycle portStart(unsigned home, Cycle earliest);

    /**
     * Launch the page-table walk for a missed translation on
     * @p walk_core's walker and hand the result to @p k.
     */
    void launchWalk(CoreId walk_core, CoreId requester, ContextId ctx,
                    Addr vaddr, Cycle now, WalkDone k);

    /**
     * Install a walked translation into home array @p home, and each
     * prefetch candidate around it into the home array a lookup of it
     * from @p core would probe (no timing; write-port pressure is
     * negligible at TLB miss rates).
     */
    void fill(CoreId core, unsigned home, const tlb::TlbEntry &entry);

    /**
     * Record @p core's lookup of @p vaddr in home array @p home on the
     * structured-trace Slice lane (one track per array). Free when
     * recording is off.
     */
    static void
    noteSliceLookup(unsigned home, CoreId core, Addr vaddr, Cycle start,
                    Cycle done, bool hit)
    {
        if (sim::recording())
            sim::recorder().span(sim::Lane::Slice, home,
                                 hit ? "lookup hit" : "lookup miss",
                                 start, done, vaddr, core, "vaddr",
                                 "core");
    }

    OrgConfig config_;
    OrgContext ctx_;

  private:
    struct PortState
    {
        Cycle cycle = 0;
        unsigned used = 0;
    };

    /** Record walk references with the energy model. */
    void chargeWalkEnergy(const mem::WalkResult &walk);

    std::vector<std::unique_ptr<tlb::SetAssocTlb>> arrays_;
    tlb::TlbPrefetcher prefetcher_;
    /** Allocated only when the plan injects slice ECC errors. */
    std::unique_ptr<sim::FaultInjector> eccFaults_;
    unsigned outstanding_ = 0;
    /** In-flight accesses and read ports, one per home array. */
    std::vector<unsigned> sliceOutstanding_;
    std::vector<PortState> ports_;
};

/** Render a validate() error list one-per-line for a fatal() report. */
std::string joinConfigErrors(const std::vector<std::string> &errors);

/** Build the organization selected by @p config. */
std::unique_ptr<TlbOrganization>
makeOrganization(const OrgConfig &config, OrgContext context,
                 stats::StatGroup *parent = nullptr);

} // namespace nocstar::core

#endif // NOCSTAR_CORE_ORGANIZATION_HH
