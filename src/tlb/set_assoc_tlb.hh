/**
 * @file
 * A set-associative TLB array with true-LRU replacement and
 * modulo-indexing on the low-order virtual page number bits (paper
 * §III-E), supporting mixed page sizes in one array via per-size probes.
 *
 * Storage is one 64-byte-aligned array of set blocks. A set's block
 * holds its ways' packed tags ((vpn, ctx, size) folded into one word,
 * all-ones = invalid), then their LRU stamps, then their frame words
 * (the ppn, with the prefetched mark in bit 63): 24 bytes per way.
 * The tags are compared across all ways with portable SIMD, and the
 * stamps are scanned branchlessly for victims. A hit reads its frame
 * only to consume the prefetched mark; lookupAnySize() alone rebuilds
 * a TlbEntry, from the tag and the frame.
 */

#ifndef NOCSTAR_TLB_SET_ASSOC_TLB_HH
#define NOCSTAR_TLB_SET_ASSOC_TLB_HH

#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <string>

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
     * hit or miss, and on a hit refreshes recency and consumes the
     * prefetched mark.
     * @return true on a hit.
     */
    bool lookup(ContextId ctx, PageNum vpn, PageSize size);

    /**
     * Probe for @p vaddr trying 4 KB then 2 MB then 1 GB granularity.
     * Counts a single access (one pipelined SRAM read).
     * @return the hit translation, rebuilt from its tag and frame.
     */
    std::optional<TlbEntry> lookupAnySize(ContextId ctx, Addr vaddr);

    /**
     * Insert a translation, evicting the set's LRU entry if needed.
     * Re-inserting an existing translation refreshes it in place.
     * A ppn with bit 63 set is fatal: that bit marks prefetched frames.
     */
    void insert(const TlbEntry &entry);

    /**
     * Non-statistical presence check (prefetch filtering, snoops);
     * does not touch recency or hit/miss counters.
     */
    bool present(ContextId ctx, PageNum vpn, PageSize size) const;

    /**
     * Functional-warming probe: behaves like a demand lookup for the
     * array *state* (refreshes recency, consumes the prefetched mark)
     * but counts nothing, so fast-forwarded accesses leave every
     * RunResult-visible statistic untouched.
     */
    bool touch(ContextId ctx, PageNum vpn, PageSize size);

    /** Functional-warming counterpart of lookupAnySize(). */
    bool touchAnySize(ContextId ctx, Addr vaddr);

    /**
     * Serialize the mutable array state (the set blocks and the LRU
     * clock) to @p w. Geometry is written first and checked on
     * restore, so a checkpoint never lands in a mismatched array.
     */
    void saveState(sim::CkptWriter &w) const;

    /** Restore state captured by saveState(). */
    void restoreState(sim::CkptReader &r);

    /** Resident bytes of the set blocks and their pad (memory audit). */
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

    /** Frame-word bit marking a prefetched, never-demanded entry. */
    static constexpr std::uint64_t prefetchedBit = std::uint64_t{1} << 63;

    /**
     * Words past the last block, so every 4-lane tag load stays inside
     * the allocation (a 1-way array's last load reads past its block).
     */
    static constexpr std::size_t padWords = 3;

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

    /** First word (way 0's tag) of @p set's block. */
    std::uint64_t *
    block(std::uint32_t set) const
    {
        return words_.get() + static_cast<std::size_t>(set) * assoc_ * 3;
    }

    /** Way of the block at @p tags whose tag is @p key, or -1. */
    int findWay(const std::uint64_t *tags, std::uint64_t key) const;

    /**
     * Tag word of the way holding (ctx, vpn, size), or nullptr. The
     * way's stamp sits assoc_ words after it and its frame 2 * assoc_.
     */
    std::uint64_t *findTag(ContextId ctx, PageNum vpn,
                           PageSize size) const;

    /** findTag() for @p vaddr at 4 KB, then 2 MB, then 1 GB. */
    std::uint64_t *findAnySize(ContextId ctx, Addr vaddr) const;

    /** Refresh a hit way's recency and clear its prefetched mark. */
    void touchWay(std::uint64_t *tag);

    /** Count a demand hit (and a prefetched one), then touchWay(). */
    void demandHit(std::uint64_t *tag);

    /** Replacement victim among @p stamps: first empty way, else LRU. */
    std::uint32_t victimWay(const std::uint64_t *stamps) const;

    /** Empty every way: all-ones tags, zero stamps and frames. */
    void clear();

    /** Frees words_ with the delete matching its 64-byte alignment. */
    struct AlignedDelete
    {
        void
        operator()(std::uint64_t *words) const
        {
            ::operator delete[](words, std::align_val_t{64});
        }
    };

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
     * The set blocks, then padWords all-ones words. Each block is
     * assoc_ tags, assoc_ LRU stamps and assoc_ frames. Empty ways
     * hold stamp 0 and valid ways hold distinct stamps >= 1, so one
     * strict min-scan picks the first empty way when any exists and
     * the unique least-recently-used way otherwise.
     */
    std::unique_ptr<std::uint64_t[], AlignedDelete> words_;
};

} // namespace nocstar::tlb

#endif // NOCSTAR_TLB_SET_ASSOC_TLB_HH
