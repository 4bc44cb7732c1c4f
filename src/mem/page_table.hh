/**
 * @file
 * Functional x86-64-style page table with demand allocation and
 * transparent 2 MB superpages.
 *
 * Virtual address space is carved into 2 MB-aligned regions. On first
 * touch a region is deterministically backed either by one 2 MB
 * superpage or by 512 4 KB pages, so a configurable fraction of the
 * footprint is superpage-mapped (the paper reports Linux achieving
 * 50-80 %). Physical pages come from a bump allocator.
 *
 * The table also produces the *walk reference addresses* (PML4E, PDPTE,
 * PDE, PTE line addresses) that the cache model services, so walk
 * latency is variable exactly as in the paper's simulations.
 */

#ifndef NOCSTAR_MEM_PAGE_TABLE_HH
#define NOCSTAR_MEM_PAGE_TABLE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "sim/checkpoint.hh"
#include "sim/flat_map.hh"
#include "sim/types.hh"

namespace nocstar::mem
{

/** A resolved translation. */
struct Translation
{
    PageNum ppn = 0; ///< physical page number in units of `size` pages
    PageSize size = PageSize::FourKB;
    /** Monotonic version; bumped on promotion or demotion so stale TLB
     * entries differ. */
    std::uint32_t version = 0;
};

/** Page-walk levels, root first. */
enum class WalkLevel : std::uint8_t
{
    Pml4 = 0,
    Pdpt = 1,
    Pd = 2,
    Pt = 3,
};

/**
 * Walk reference line addresses: at most 4 (PML4E..PTE), no heap.
 * Mirrors the std::vector surface the walker and tests use.
 */
struct WalkLines
{
    std::array<Addr, 4> line{};
    std::uint32_t count = 0;

    std::size_t size() const { return count; }
    Addr operator[](std::size_t i) const { return line[i]; }
    const Addr *begin() const { return line.data(); }
    const Addr *end() const { return line.data() + count; }
    void push_back(Addr a) { line[count++] = a; }
};

/**
 * Per-process (context) page tables behind one interface.
 */
class PageTable
{
  public:
    /**
     * @param superpage_fraction fraction of 2 MB regions backed by a
     *        superpage when superpages are enabled (0 disables).
     * @param seed determinism salt for region backing decisions.
     */
    explicit PageTable(double superpage_fraction = 0.0,
                       std::uint64_t seed = 1);

    /** Translate @p vaddr in @p ctx, allocating on first touch. */
    Translation translate(ContextId ctx, Addr vaddr);

    /**
     * Walk reference line addresses for @p vaddr: 4 lines for a 4 KB
     * mapping (PML4E..PTE), 3 for a 2 MB mapping (stops at the PDE).
     */
    WalkLines walkAddresses(ContextId ctx, Addr vaddr) const;

    /**
     * Promote the region containing @p vaddr to a 2 MB superpage (or
     * demote back to 4 KB pages if @p promote is false), as the paper's
     * TLB-storm microbenchmark does in a loop.
     * @return number of 4 KB translations invalidated (512 on change).
     */
    unsigned setRegionSuperpage(ContextId ctx, Addr vaddr, bool promote);

    /** @return true if @p vaddr lies in a superpage-backed region. */
    bool isSuperpage(ContextId ctx, Addr vaddr) const;

    /**
     * Override the superpage fraction for one context (multiprogrammed
     * mixes have per-app THP behaviour). Affects regions not yet
     * allocated.
     */
    void
    setContextSuperpageFraction(ContextId ctx, double fraction)
    {
        contextFraction_[ctx] = fraction;
    }

    /** Number of distinct 2 MB regions allocated so far. */
    std::uint64_t regionsAllocated() const { return regionPool_.size(); }

    /**
     * Serialize the allocation state (frame allocator, region pool,
     * region index). The memo is a version-validated pure cache and is
     * not saved; restoreState() clears it, which cannot change any
     * translate() result.
     */
    void saveState(sim::CkptWriter &w) const;

    /** Restore state captured by saveState(). */
    void restoreState(sim::CkptReader &r);

    /** Resident bytes of the region pool, index and memo (audit). */
    std::size_t memoryBytes() const;

  private:
    struct Region
    {
        bool superpage;
        /** Physical 2 MB frame number backing this region. */
        PageNum frame;
        std::uint32_t version;
    };

    using RegionKey = std::uint64_t;

    /**
     * Direct-mapped region memo. regionIndex_ slots move on rehash but
     * pool indices are stable forever, so the memo caches the pool
     * index; the stored version detects a promotion in between. A
     * Zipf stream touches a few hundred hot regions, so a small table
     * keyed by the hashed region key captures nearly all translates
     * without the full map probe.
     */
    struct RegionMemo
    {
        RegionKey key = 0;
        std::uint32_t index = ~std::uint32_t{0};
        std::uint32_t version = 0;
    };

    static constexpr std::size_t memoSize = 4096;

    RegionMemo &
    memoSlot(RegionKey key)
    {
        return memo_[flatMapMix(key) & (memoSize - 1)];
    }

    static RegionKey
    regionKey(ContextId ctx, Addr vaddr)
    {
        return (static_cast<std::uint64_t>(ctx) << 44) ^
               (vaddr >> pageShift(PageSize::TwoMB));
    }

    /** Pool index of the region containing @p vaddr (allocating). */
    std::uint32_t regionIndexFor(ContextId ctx, Addr vaddr);

    const Region &
    regionFor(ContextId ctx, Addr vaddr)
    {
        return regionPool_[regionIndexFor(ctx, vaddr)];
    }

    bool regionWantsSuperpage(ContextId ctx, RegionKey key) const;

    double superpageFraction_;
    std::uint64_t seed_;
    PageNum nextFrame_ = 1; ///< bump allocator of 2 MB frames
    FlatMap<RegionKey, std::uint32_t> regionIndex_;
    std::vector<Region> regionPool_;
    std::vector<RegionMemo> memo_{memoSize}; ///< hashed by region key
    FlatMap<ContextId, double> contextFraction_;
};

} // namespace nocstar::mem

#endif // NOCSTAR_MEM_PAGE_TABLE_HH
