/**
 * @file
 * A set-associative TLB array with true-LRU replacement and
 * modulo-indexing on the low-order virtual page number bits (paper
 * §III-E), supporting mixed page sizes in one array via per-size probes.
 *
 * Storage is structure-of-arrays: tags live in a packed 64-bit key
 * array ((vpn, ctx, size) folded into one word, all-ones = invalid)
 * compared across all ways with portable SIMD, recency in a parallel
 * lastUse array scanned branchlessly for victims, and the full
 * TlbEntry payload in a third parallel array touched only on hits.
 * A set's four tags span one 32-byte vector load instead of four
 * 40-byte struct probes, which is where most of the lookup time of
 * the scalar array-of-structs layout went.
 */

#ifndef NOCSTAR_TLB_SET_ASSOC_TLB_HH
#define NOCSTAR_TLB_SET_ASSOC_TLB_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/checkpoint.hh"
#include "sim/stats.hh"
#include "tlb/tlb_entry.hh"

namespace nocstar::tlb
{

/**
 * Set-associative translation array.
 *
 * The array is size-agnostic: lookups and inserts name an explicit
 * PageSize, and a dual-size lookup helper probes 4 KB then 2 MB the way
 * a dual-granularity L2 TLB does.
 */
class SetAssocTlb : public stats::StatGroup
{
  public:
    /**
     * @param name stat group name.
     * @param entries total entry count (need not be a power of two).
     * @param assoc associativity; entries must divide evenly into sets.
     * @param parent optional owning stat group.
     */
    SetAssocTlb(const std::string &name, std::uint32_t entries,
                std::uint32_t assoc, stats::StatGroup *parent = nullptr);

    /**
     * Demand probe for a translation of a specific page size: counts a
     * hit or miss and refreshes recency on a hit.
     * @return the matching entry, or nullptr.
     */
    const TlbEntry *lookup(ContextId ctx, PageNum vpn, PageSize size);

    /**
     * Probe for @p vaddr trying 4 KB then 2 MB then 1 GB granularity.
     * Counts a single access (one pipelined SRAM read).
     */
    const TlbEntry *lookupAnySize(ContextId ctx, Addr vaddr);

    /**
     * Insert a translation, evicting the set's LRU entry if needed.
     * Re-inserting an existing translation refreshes it in place.
     * @return the evicted valid entry, if any.
     */
    std::optional<TlbEntry> insert(const TlbEntry &entry);

    /**
     * Non-statistical presence check (prefetch filtering, snoops);
     * does not touch recency or hit/miss counters.
     */
    bool present(ContextId ctx, PageNum vpn, PageSize size) const;

    /**
     * Functional-warming probe: behaves like a demand lookup for the
     * array *state* (refreshes recency, consumes the prefetched bit)
     * but counts nothing, so fast-forwarded accesses leave every
     * RunResult-visible statistic untouched.
     */
    const TlbEntry *touch(ContextId ctx, PageNum vpn, PageSize size);

    /** Functional-warming counterpart of lookupAnySize(). */
    const TlbEntry *touchAnySize(ContextId ctx, Addr vaddr);

    /**
     * Serialize the mutable array state (tags, recency, payloads,
     * LRU clock) to @p w. Geometry is written first and checked on
     * restore, so a checkpoint never lands in a mismatched array.
     */
    void saveState(sim::CkptWriter &w) const;

    /** Restore state captured by saveState(). */
    void restoreState(sim::CkptReader &r);

    /** Resident bytes of the SoA storage (memory audit). */
    std::size_t memoryBytes() const;

    /** Invalidate one translation. @return true if it was present. */
    bool invalidate(ContextId ctx, PageNum vpn, PageSize size);

    /** Invalidate the whole array (context switch without PCID). */
    std::uint64_t invalidateAll();

    std::uint32_t numEntries() const { return numEntries_; }
    std::uint32_t assoc() const { return assoc_; }
    std::uint32_t numSets() const { return numSets_; }

    /** Number of currently valid entries (live counter, O(1)). */
    std::uint64_t occupancy() const { return validCount_; }

    /** Largest VPN a packed tag can hold (46 tag bits). */
    static constexpr PageNum maxVpn = (PageNum{1} << 46) - 1;
    /** Largest context id a packed tag can hold (16 tag bits). */
    static constexpr ContextId maxCtx = (ContextId{1} << 16) - 1;

    // Aggregate statistics (public so organizations can derive rates).
    stats::Scalar hits;
    stats::Scalar misses;
    stats::Scalar insertions;
    stats::Scalar evictions;
    stats::Scalar invalidations;

    /** Demand hit on an entry brought in by the prefetcher. */
    stats::Scalar prefetchHits;

  private:
    /**
     * Packed tag word: vpn[63:18] | ctx[17:2] | size[1:0]. The
     * injective encoding makes a whole-way match one 64-bit compare.
     * All-ones marks an empty way; no valid key can collide with it
     * because its size field reads 3 and PageSize stops at 2.
     */
    static constexpr std::uint64_t invalidKey = ~std::uint64_t{0};

    static std::uint64_t
    packKey(ContextId ctx, PageNum vpn, PageSize size)
    {
        return (vpn << 18) |
               (static_cast<std::uint64_t>(ctx) << 2) |
               static_cast<std::uint64_t>(size);
    }

    /** True when (ctx, vpn) exceeds the packed tag's field widths. */
    static bool
    outOfTagRange(ContextId ctx, PageNum vpn)
    {
        return vpn > maxVpn || ctx > maxCtx;
    }

    /** Set index for (vpn, size): modulo indexing on low VPN bits. */
    std::uint32_t setIndex(PageNum vpn, PageSize size) const;

    /** Way holding @p key within @p set, or -1. */
    int findWay(std::uint32_t set, std::uint64_t key) const;

    /** Index into the parallel arrays of (set, way), or -1. */
    int findIndex(ContextId ctx, PageNum vpn, PageSize size) const;

    /** The set's replacement victim: first empty way, else true LRU. */
    std::uint32_t victimWay(std::uint32_t set) const;

    std::uint32_t numEntries_;
    std::uint32_t assoc_;
    std::uint32_t numSets_;
    /** numSets_ - 1 when the set count is a power of two, else 0. */
    std::uint64_t setMask_ = 0;
    /**
     * ceil(2^128 / numSets_) for Lemire's exact remainder-by-multiply
     * (only consulted when numSets_ is not a power of two). A 64-bit
     * divide sits on every probe of every lookup; this replaces it
     * with two multiplies while producing bit-identical indices.
     */
    unsigned __int128 setFastModM_ = 0;
    std::uint64_t lruClock_ = 0;
    std::uint64_t validCount_ = 0;
    /**
     * Packed tags, padded with 3 trailing invalid slots so the last
     * set's 4-lane vector load never reads past the allocation.
     */
    std::vector<std::uint64_t> keys_;
    /**
     * LRU stamps; empty ways hold 0 and valid ways hold >= 1, so one
     * strict min-scan picks the first empty way when any exists and
     * the unique least-recently-used way otherwise.
     */
    std::vector<std::uint64_t> lastUse_;
    /** Full entries, indexed like keys_; read only on hits. */
    std::vector<TlbEntry> payload_;
};

} // namespace nocstar::tlb

#endif // NOCSTAR_TLB_SET_ASSOC_TLB_HH
