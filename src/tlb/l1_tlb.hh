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

#include <array>
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
    bool
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
     * Stat-free probe of all three arrays without a prior translation,
     * used by functional fast-forward: refreshes LRU exactly like
     * lookup() but counts no hits/misses, so warming leaves the
     * measured stats untouched. Most accesses hit the L1, so resolving
     * the page size first just to pick the array would make the page
     * table the bottleneck. Each array only ever holds entries of its
     * own size, so a hit here mutates exactly what a lookup() with the
     * translated size would.
     * @return the array that holds the translation, or nullptr.
     */
    const SetAssocTlb *
    touchAnySize(ContextId ctx, Addr vaddr)
    {
        for (PageSize size :
             {PageSize::FourKB, PageSize::TwoMB, PageSize::OneGB}) {
            SetAssocTlb &array = arrayFor(size);
            if (array.touch(ctx, pageNumber(vaddr, size), size))
                return &array;
        }
        return nullptr;
    }

    /** Serialize all three arrays (checkpointing). */
    void
    saveState(sim::CkptWriter &w) const
    {
        for (const auto &array : arrays_)
            array->saveState(w);
    }

    /** Restore state captured by saveState(). */
    void
    restoreState(sim::CkptReader &r)
    {
        for (auto &array : arrays_)
            array->restoreState(r);
    }

    /** Resident bytes of the three arrays (memory audit). */
    std::size_t
    memoryBytes() const
    {
        std::size_t bytes = 0;
        for (const auto &array : arrays_)
            bytes += array->memoryBytes();
        return bytes;
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
        for (auto &array : arrays_)
            n += array->invalidateAll();
        return n;
    }

    SetAssocTlb &
    arrayFor(PageSize size)
    {
        return *arrays_[static_cast<std::size_t>(size)];
    }

  private:
    static std::uint32_t scaled(std::uint32_t n, double scale,
                                std::uint32_t assoc);

    /** The 4 KB, 2 MB and 1 GB arrays, indexed by PageSize. */
    std::array<std::unique_ptr<SetAssocTlb>, numPageSizes> arrays_;
};

} // namespace nocstar::tlb

#endif // NOCSTAR_TLB_L1_TLB_HH
