/**
 * @file
 * Hardware page-table walker, one per core.
 *
 * A walk traverses the radix table root-to-leaf. Upper-level entries
 * are cached in per-level paging-structure caches (PSCs, near-free on
 * hit); leaf references are serviced by the data-cache hierarchy model,
 * making walk latency variable as in the paper. A walker handles one
 * walk at a time, so concurrent misses queue -- this is exactly the
 * "page table walker congestion" risk of walking at the remote node
 * (paper §III-F).
 *
 * Table III's fixed-latency sensitivity mode (10/20/40/80 cycles)
 * bypasses the cache model.
 */

#ifndef NOCSTAR_MEM_PAGE_WALKER_HH
#define NOCSTAR_MEM_PAGE_WALKER_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>

#include "mem/cache_model.hh"
#include "mem/page_table.hh"
#include "sim/fault.hh"
#include "sim/flat_map.hh"
#include "sim/stats.hh"

namespace nocstar::mem
{

/** Walker timing configuration. */
struct WalkerConfig
{
    /** If nonzero, every walk takes exactly this many cycles. */
    Cycle fixedLatency = 0;
    /** Paging-structure-cache entries per upper level. */
    static constexpr std::uint32_t pscEntriesPerLevel = 32;
    /** Cycles per PSC-hit level (tag match, pipelined). */
    static constexpr Cycle pscHitLatency = 1;
};

/** Outcome of one page-table walk. */
struct WalkResult
{
    Translation translation;
    /** Cycles spent queued behind an earlier walk on this walker. */
    Cycle queueDelay = 0;
    /** Cycles of the walk itself, excluding queueing. */
    Cycle walkLatency = 0;
    /** Walk references by service point (for energy accounting). */
    unsigned pscHits = 0;
    unsigned l2Refs = 0;
    unsigned llcRefs = 0;
    unsigned dramRefs = 0;
    /** The walk reran for a corrupt page-table read (ECC injection). */
    bool eccRetried = false;

    Cycle totalLatency() const { return queueDelay + walkLatency; }
};

/**
 * One core's page-table walker.
 */
class PageTableWalker : public stats::StatGroup
{
  public:
    /** A plan in @p faults that injects walk ECC gives this walker
     * its own draw stream, salted by @p core; without one it never
     * draws. */
    PageTableWalker(const std::string &name, CoreId core,
                    PageTable &table, CacheModel &caches,
                    const WalkerConfig &config,
                    stats::StatGroup *parent = nullptr,
                    const sim::FaultPlan *faults = nullptr);

    /**
     * Perform a walk starting at @p now on behalf of
     * @p requester_core (equals this walker's core unless the
     * remote-walk policy is in force).
     */
    WalkResult walk(ContextId ctx, Addr vaddr, CoreId requester_core,
                    Cycle now);

    CoreId core() const { return core_; }

    /** Cycle until which the walker is occupied. */
    Cycle busyUntil() const { return busyUntil_; }

    /**
     * Functional-warming walk: updates the PSCs and the cache model's
     * line stores exactly along the walk's reference pattern, but
     * counts no stats, charges no energy and leaves the walker's
     * timing (busyUntil) untouched. Used by fast-forward to keep
     * walker-adjacent state warm without simulating the walk.
     */
    void warmWalk(ContextId ctx, Addr vaddr, Cycle now);

    /** Serialize the PSC state (checkpointing). */
    void saveState(sim::CkptWriter &w) const;

    /** Restore state captured by saveState(). */
    void restoreState(sim::CkptReader &r);

    stats::Scalar walks;
    stats::Scalar walkCycles;
    stats::Scalar queueCycles;
    /** Walks redone because a page-table read hit an ECC error. */
    stats::Scalar eccRewalks;

  private:
    /** Bounded per-level PSC: maps a VA prefix to presence. */
    struct Psc
    {
        std::uint32_t maxEntries = 0;
        FlatMap<std::uint64_t, Cycle> entries;
        std::deque<std::uint64_t> fifo;

        bool probe(std::uint64_t key);
        void fill(std::uint64_t key, Cycle now);
    };

    CoreId core_;
    PageTable &table_;
    CacheModel &caches_;
    WalkerConfig config_;
    Cycle busyUntil_ = 0;
    Psc psc_[3]; ///< PML4 / PDPT / PD levels
    /** Walk-ECC draw stream; null unless the plan injects walk ECC. */
    std::unique_ptr<sim::FaultInjector> eccFaults_;
};

} // namespace nocstar::mem

#endif // NOCSTAR_MEM_PAGE_WALKER_HH
