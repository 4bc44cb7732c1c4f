/**
 * @file
 * Per-core L1 TLB group: one array per supported page size, looked up in
 * parallel with the L1 cache (single cycle, VIPT; paper §IV).
 *
 * Haswell-like geometry: 64-entry 4-way for 4 KB pages, 32-entry 4-way
 * for 2 MB, 4-entry fully associative for 1 GB. Fig 6's L1-size
 * sensitivity scales all three arrays by a common factor.
 */

#ifndef NOCSTAR_TLB_L1_TLB_HH
#define NOCSTAR_TLB_L1_TLB_HH

#include <memory>
#include <string>

#include "tlb/set_assoc_tlb.hh"

namespace nocstar::tlb
{

/** Sizing of an L1 TLB group: fixed Haswell geometry, scalable. */
struct L1TlbConfig
{
    static constexpr std::uint32_t entries4k = 64;
    static constexpr std::uint32_t assoc4k = 4;
    static constexpr std::uint32_t entries2m = 32;
    static constexpr std::uint32_t assoc2m = 4;
    static constexpr std::uint32_t entries1g = 4;
    static constexpr std::uint32_t assoc1g = 4;
    /** Multiplier applied to all entry counts (0.5x / 1.5x studies). */
    double scale = 1.0;
};

/**
 * The three per-size L1 arrays behind one lookup interface.
 */
class L1TlbGroup : public stats::StatGroup
{
  public:
    L1TlbGroup(const std::string &name, const L1TlbConfig &config,
               stats::StatGroup *parent = nullptr);

    /**
     * Probe the array for @p size pages only (the page size of a VA is
     * known once translated; on a miss the L2 resolves the real size).
     */
    const TlbEntry *
    lookup(ContextId ctx, PageNum vpn, PageSize size)
    {
        return arrayFor(size).lookup(ctx, vpn, size);
    }

    /** Insert a refill coming back from the L2 / page walker. */
    void
    insert(const TlbEntry &entry)
    {
        arrayFor(entry.size).insert(entry);
    }

    /**
     * Stat-free probe used by functional fast-forward: refreshes LRU
     * exactly like lookup() but counts no hits/misses, so warming
     * leaves the measured stats untouched.
     */
    const TlbEntry *
    touch(ContextId ctx, PageNum vpn, PageSize size)
    {
        return arrayFor(size).touch(ctx, vpn, size);
    }

    /**
     * Stat-free probe of all three arrays without a prior translation
     * (fast-forward hot path: most accesses hit the L1, so resolving
     * the page size first just to pick the array would make the page
     * table the bottleneck). Each array only ever holds entries of its
     * own size, so a hit here mutates exactly what touch() with the
     * translated size would.
     */
    const TlbEntry *
    touchAnySize(ContextId ctx, Addr vaddr)
    {
        if (const TlbEntry *entry = tlb4k_->touch(
                ctx, pageNumber(vaddr, PageSize::FourKB),
                PageSize::FourKB))
            return entry;
        if (const TlbEntry *entry = tlb2m_->touch(
                ctx, pageNumber(vaddr, PageSize::TwoMB),
                PageSize::TwoMB))
            return entry;
        return tlb1g_->touch(ctx, pageNumber(vaddr, PageSize::OneGB),
                             PageSize::OneGB);
    }

    /** Serialize all three arrays (checkpointing). */
    void
    saveState(sim::CkptWriter &w) const
    {
        tlb4k_->saveState(w);
        tlb2m_->saveState(w);
        tlb1g_->saveState(w);
    }

    /** Restore state captured by saveState(). */
    void
    restoreState(sim::CkptReader &r)
    {
        tlb4k_->restoreState(r);
        tlb2m_->restoreState(r);
        tlb1g_->restoreState(r);
    }

    /** Resident bytes of the three arrays (memory audit). */
    std::size_t
    memoryBytes() const
    {
        return tlb4k_->memoryBytes() + tlb2m_->memoryBytes() +
               tlb1g_->memoryBytes();
    }

    /** Invalidate a single translation (shootdown). */
    bool
    invalidate(ContextId ctx, PageNum vpn, PageSize size)
    {
        return arrayFor(size).invalidate(ctx, vpn, size);
    }

    /** Flush everything (context switch without PCID). */
    std::uint64_t
    invalidateAll()
    {
        std::uint64_t n = 0;
        n += tlb4k_->invalidateAll();
        n += tlb2m_->invalidateAll();
        n += tlb1g_->invalidateAll();
        return n;
    }

    std::uint64_t
    demandAccesses() const
    {
        return static_cast<std::uint64_t>(
            tlb4k_->hits.value() + tlb4k_->misses.value() +
            tlb2m_->hits.value() + tlb2m_->misses.value() +
            tlb1g_->hits.value() + tlb1g_->misses.value());
    }

    std::uint64_t
    demandMisses() const
    {
        return static_cast<std::uint64_t>(tlb4k_->misses.value() +
                                          tlb2m_->misses.value() +
                                          tlb1g_->misses.value());
    }

    SetAssocTlb &arrayFor(PageSize size);

  private:
    static std::uint32_t scaled(std::uint32_t n, double scale,
                                std::uint32_t assoc);

    std::unique_ptr<SetAssocTlb> tlb4k_;
    std::unique_ptr<SetAssocTlb> tlb2m_;
    std::unique_ptr<SetAssocTlb> tlb1g_;
};

} // namespace nocstar::tlb

#endif // NOCSTAR_TLB_L1_TLB_HH
