/**
 * @file
 * Differential test for the set-block SetAssocTlb: drives identical
 * randomized lookup/insert/evict/invalidate sequences through the old
 * array-of-structs implementation (kept here as the executable
 * reference, with its own LRU stamps) and the production array, and
 * demands agreement on every observable: hit/miss outcomes, rebuilt
 * translations, evictions, invalidation counts, occupancy and all
 * statistics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/random.hh"
#include "tlb/set_assoc_tlb.hh"

using namespace nocstar;
using namespace nocstar::tlb;

namespace
{

/** @return true if @p e translates (@p c, @p v, @p s). */
bool
matches(const TlbEntry &e, ContextId c, PageNum v, PageSize s)
{
    return e.valid && e.ctx == c && e.vpn == v && e.size == s;
}

/**
 * The old array-of-structs SetAssocTlb, minus the stats plumbing
 * (plain counters instead): scalar per-way tag probes, an LRU stamp
 * per entry, first-invalid-else-LRU victim selection, full-array
 * invalidation scans. This is the semantic spec the set blocks must
 * match.
 */
class ReferenceTlb
{
  public:
    ReferenceTlb(std::uint32_t entries, std::uint32_t assoc)
    {
        if (assoc > entries)
            assoc = entries;
        assoc_ = assoc;
        numSets_ = entries / assoc;
        entries_.resize(entries);
        stamps_.resize(entries);
    }

    std::uint32_t
    setIndex(PageNum vpn, PageSize size) const
    {
        std::uint64_t x =
            vpn + (static_cast<std::uint64_t>(size) << 60);
        x ^= x >> 33;
        x *= 0xff51afd7ed558ccdULL;
        x ^= x >> 33;
        return static_cast<std::uint32_t>(x % numSets_);
    }

    /** Index of the entry translating (ctx, vpn, size), or -1. */
    int
    find(ContextId ctx, PageNum vpn, PageSize size) const
    {
        std::size_t base =
            static_cast<std::size_t>(setIndex(vpn, size)) * assoc_;
        for (std::uint32_t way = 0; way < assoc_; ++way) {
            if (matches(entries_[base + way], ctx, vpn, size))
                return static_cast<int>(base + way);
        }
        return -1;
    }

    /** A demand hit on entry @p i: count it, consume the mark. */
    TlbEntry
    demandHit(int i)
    {
        TlbEntry &entry = entries_[static_cast<std::size_t>(i)];
        ++hits;
        if (entry.prefetched) {
            ++prefetchHits;
            entry.prefetched = false;
        }
        stamps_[static_cast<std::size_t>(i)] = ++lruClock_;
        return entry;
    }

    bool
    lookup(ContextId ctx, PageNum vpn, PageSize size)
    {
        int i = find(ctx, vpn, size);
        if (i < 0) {
            ++misses;
            return false;
        }
        demandHit(i);
        return true;
    }

    std::optional<TlbEntry>
    lookupAnySize(ContextId ctx, Addr vaddr)
    {
        static constexpr PageSize sizes[] = {
            PageSize::FourKB, PageSize::TwoMB, PageSize::OneGB};
        for (PageSize size : sizes) {
            int i = find(ctx, pageNumber(vaddr, size), size);
            if (i >= 0)
                return demandHit(i);
        }
        ++misses;
        return std::nullopt;
    }

    /** @return the evicted valid entry, if any. */
    std::optional<TlbEntry>
    insert(const TlbEntry &entry)
    {
        ++insertions;
        if (int i = find(entry.ctx, entry.vpn, entry.size); i >= 0) {
            TlbEntry &existing = entries_[static_cast<std::size_t>(i)];
            bool was_prefetched =
                existing.prefetched && entry.prefetched;
            existing = entry;
            existing.prefetched = was_prefetched;
            stamps_[static_cast<std::size_t>(i)] = ++lruClock_;
            return std::nullopt;
        }

        std::size_t base =
            static_cast<std::size_t>(setIndex(entry.vpn, entry.size)) *
            assoc_;
        std::size_t victim = base;
        for (std::size_t i = base; i < base + assoc_; ++i) {
            if (!entries_[i].valid) {
                victim = i;
                break;
            }
            if (stamps_[i] < stamps_[victim])
                victim = i;
        }

        std::optional<TlbEntry> evicted;
        if (entries_[victim].valid) {
            ++evictions;
            evicted = entries_[victim];
        }
        entries_[victim] = entry;
        stamps_[victim] = ++lruClock_;
        return evicted;
    }

    bool
    present(ContextId ctx, PageNum vpn, PageSize size) const
    {
        return find(ctx, vpn, size) >= 0;
    }

    bool
    invalidate(ContextId ctx, PageNum vpn, PageSize size)
    {
        int i = find(ctx, vpn, size);
        if (i < 0)
            return false;
        entries_[static_cast<std::size_t>(i)].valid = false;
        ++invalidations;
        return true;
    }

    std::uint64_t
    invalidateAll()
    {
        std::uint64_t count = 0;
        for (TlbEntry &entry : entries_) {
            if (entry.valid) {
                entry.valid = false;
                ++count;
            }
        }
        invalidations += count;
        return count;
    }

    std::uint64_t
    occupancy() const
    {
        std::uint64_t count = 0;
        for (const TlbEntry &entry : entries_)
            count += entry.valid ? 1 : 0;
        return count;
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t prefetchHits = 0;

  private:
    std::uint32_t assoc_;
    std::uint32_t numSets_;
    std::uint64_t lruClock_ = 0;
    std::vector<TlbEntry> entries_;
    std::vector<std::uint64_t> stamps_;
};

void
expectSameEntry(const std::optional<TlbEntry> &ref,
                const std::optional<TlbEntry> &soa, std::uint64_t op)
{
    ASSERT_EQ(ref.has_value(), soa.has_value()) << "op " << op;
    if (!ref)
        return;
    EXPECT_TRUE(soa->valid) << "op " << op;
    EXPECT_EQ(ref->vpn, soa->vpn) << "op " << op;
    EXPECT_EQ(ref->ppn, soa->ppn) << "op " << op;
    EXPECT_EQ(ref->ctx, soa->ctx) << "op " << op;
    EXPECT_EQ(ref->size, soa->size) << "op " << op;
    EXPECT_EQ(ref->prefetched, soa->prefetched) << "op " << op;
}

struct Geometry
{
    std::uint32_t entries;
    std::uint32_t assoc;
};

class TlbDifferentialTest : public ::testing::TestWithParam<Geometry>
{};

TEST_P(TlbDifferentialTest, RandomizedOpsMatchReference)
{
    const Geometry geom = GetParam();
    ReferenceTlb ref(geom.entries, geom.assoc);
    SetAssocTlb soa("soa_under_test", geom.entries, geom.assoc);

    Random rng(0xd1ffe7e57ULL ^ (static_cast<std::uint64_t>(
                                     geom.entries) << 16) ^ geom.assoc);
    static constexpr PageSize sizes[] = {
        PageSize::FourKB, PageSize::TwoMB, PageSize::OneGB};

    // Page pool sized ~3x the array so lookups hit, miss and evict.
    const std::uint64_t pool =
        std::max<std::uint64_t>(8, geom.entries * 3);

    for (std::uint64_t op = 0; op < 20000; ++op) {
        ContextId ctx = static_cast<ContextId>(rng.below(4));
        PageNum vpn = rng.below(pool) + 0x40000;
        PageSize size = sizes[rng.below(3)];
        std::uint64_t kind = rng.below(100);

        if (kind < 40) {
            EXPECT_EQ(ref.lookup(ctx, vpn, size),
                      soa.lookup(ctx, vpn, size)) << "op " << op;
        } else if (kind < 70) {
            TlbEntry entry;
            entry.valid = true;
            entry.ctx = ctx;
            entry.vpn = vpn;
            entry.ppn = vpn ^ 0x5aa5;
            entry.size = size;
            entry.prefetched = rng.below(4) == 0;
            std::optional<TlbEntry> evicted = ref.insert(entry);
            soa.insert(entry);
            EXPECT_EQ(ref.evictions,
                      static_cast<std::uint64_t>(soa.evictions.value()))
                << "op " << op;
            EXPECT_TRUE(soa.present(ctx, vpn, size)) << "op " << op;
            if (evicted) {
                EXPECT_FALSE(soa.present(evicted->ctx, evicted->vpn,
                                         evicted->size))
                    << "op " << op;
            }
        } else if (kind < 80) {
            Addr vaddr = (vpn << pageShift(PageSize::FourKB)) |
                         (rng.below(512) << 3);
            expectSameEntry(ref.lookupAnySize(ctx, vaddr),
                            soa.lookupAnySize(ctx, vaddr), op);
        } else if (kind < 88) {
            EXPECT_EQ(ref.present(ctx, vpn, size),
                      soa.present(ctx, vpn, size)) << "op " << op;
        } else if (kind < 99) {
            EXPECT_EQ(ref.invalidate(ctx, vpn, size),
                      soa.invalidate(ctx, vpn, size)) << "op " << op;
        } else {
            EXPECT_EQ(ref.invalidateAll(), soa.invalidateAll())
                << "op " << op;
        }

        if (op % 512 == 0) {
            ASSERT_EQ(ref.occupancy(), soa.occupancy()) << "op " << op;
        }
        if (::testing::Test::HasFailure())
            FAIL() << "first divergence at op " << op;
    }

    EXPECT_EQ(ref.occupancy(), soa.occupancy());
    EXPECT_EQ(ref.hits, static_cast<std::uint64_t>(soa.hits.value()));
    EXPECT_EQ(ref.misses,
              static_cast<std::uint64_t>(soa.misses.value()));
    EXPECT_EQ(ref.insertions,
              static_cast<std::uint64_t>(soa.insertions.value()));
    EXPECT_EQ(ref.evictions,
              static_cast<std::uint64_t>(soa.evictions.value()));
    EXPECT_EQ(ref.invalidations,
              static_cast<std::uint64_t>(soa.invalidations.value()));
    EXPECT_EQ(ref.prefetchHits,
              static_cast<std::uint64_t>(soa.prefetchHits.value()));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TlbDifferentialTest,
    ::testing::Values(Geometry{64, 4},   // L1-style, pow2 sets
                      Geometry{32, 4},   // 2M L1 array
                      Geometry{4, 4},    // fully associative
                      Geometry{48, 4},   // 12 sets: Lemire fastmod
                      Geometry{96, 8},   // 12 sets, wide ways (2 chunks)
                      Geometry{16, 1},   // direct mapped
                      Geometry{24, 6},   // assoc not a lane multiple
                      Geometry{8, 16})); // assoc clamped to entries

TEST(SetAssocTlbSoa, PackedTagRangeLimitsAreEnforced)
{
    SetAssocTlb tlb("range_test", 16, 4);

    // Out-of-range probes are deterministic misses, never aliases.
    EXPECT_FALSE(tlb.lookup(0, SetAssocTlb::maxVpn + 1,
                            PageSize::FourKB));
    EXPECT_FALSE(tlb.present(SetAssocTlb::maxCtx + 1, 1,
                             PageSize::FourKB));
    EXPECT_FALSE(tlb.invalidate(0, SetAssocTlb::maxVpn + 1,
                                PageSize::FourKB));

    // The widest encodable tag round-trips.
    TlbEntry entry;
    entry.valid = true;
    entry.ctx = SetAssocTlb::maxCtx;
    entry.vpn = SetAssocTlb::maxVpn;
    entry.ppn = 0x1234;
    entry.size = PageSize::OneGB;
    tlb.insert(entry);
    EXPECT_TRUE(tlb.lookup(SetAssocTlb::maxCtx, SetAssocTlb::maxVpn,
                           PageSize::OneGB));

    // Unpackable inserts fail loudly instead of corrupting a tag.
    TlbEntry wide = entry;
    wide.vpn = SetAssocTlb::maxVpn + 1;
    EXPECT_THROW(tlb.insert(wide), FatalError);

    // lookupAnySize() rebuilds exactly what was inserted at the
    // extremes of every field, for each page size: the largest context
    // and frame, and the largest VPN a 64-bit address reaches at that
    // size that the tag can hold. The prefetched mark is consumed by
    // the first demand hit and counted once.
    for (PageSize size :
         {PageSize::FourKB, PageSize::TwoMB, PageSize::OneGB}) {
        SetAssocTlb any("any_size_test", 16, 4);
        TlbEntry widest;
        widest.valid = true;
        widest.ctx = SetAssocTlb::maxCtx;
        widest.vpn = std::min(SetAssocTlb::maxVpn,
                              ~Addr{0} >> pageShift(size));
        widest.ppn = ~PageNum{0} >> 1;
        widest.size = size;
        widest.prefetched = true;
        any.insert(widest);
        Addr vaddr = (widest.vpn << pageShift(size)) |
                     (pageBytes(size) - 1);
        for (int probe = 0; probe < 2; ++probe) {
            std::optional<TlbEntry> hit =
                any.lookupAnySize(SetAssocTlb::maxCtx, vaddr);
            ASSERT_TRUE(hit);
            EXPECT_TRUE(hit->valid);
            EXPECT_EQ(hit->vpn, widest.vpn);
            EXPECT_EQ(hit->ppn, widest.ppn);
            EXPECT_EQ(hit->ctx, widest.ctx);
            EXPECT_EQ(hit->size, size);
            EXPECT_FALSE(hit->prefetched);
        }
        EXPECT_EQ(any.hits.value(), 2.0);
        EXPECT_EQ(any.prefetchHits.value(), 1.0);
    }
}

TEST(SetAssocTlbSoa, FrameBit63IsRefused)
{
    // Bit 63 of a frame word is the prefetched mark, so no ppn may set
    // it; the array stays untouched.
    SetAssocTlb tlb("frame_test", 16, 4);
    TlbEntry entry;
    entry.valid = true;
    entry.vpn = 7;
    entry.ppn = PageNum{1} << 63;
    EXPECT_THROW(tlb.insert(entry), FatalError);
    EXPECT_EQ(tlb.occupancy(), 0u);
    EXPECT_EQ(tlb.insertions.value(), 0.0);
}

TEST(SetAssocTlbSoa, EachWayCosts24BytesPlusThePad)
{
    // Tag, LRU stamp and frame: three words per way, plus the three
    // trailing pad words that keep every 4-lane tag load in bounds.
    EXPECT_EQ(SetAssocTlb("slice", 920, 8).memoryBytes(),
              920u * 24 + 3 * 8);
    EXPECT_EQ(SetAssocTlb("l1_4k", 64, 4).memoryBytes(),
              64u * 24 + 3 * 8);
}

TEST(SetAssocTlbSoa, OccupancyIsLiveAndEmptyFlushesShortCircuit)
{
    SetAssocTlb tlb("occupancy_test", 32, 4);
    EXPECT_EQ(tlb.occupancy(), 0u);
    // Flushing an empty array must not count invalidations.
    EXPECT_EQ(tlb.invalidateAll(), 0u);
    EXPECT_EQ(tlb.invalidations.value(), 0.0);

    TlbEntry entry;
    entry.valid = true;
    entry.size = PageSize::FourKB;
    for (PageNum vpn = 0; vpn < 10; ++vpn) {
        entry.ctx = vpn & 1 ? 1 : 2;
        entry.vpn = 0x900 + vpn;
        entry.ppn = vpn;
        tlb.insert(entry);
    }
    EXPECT_EQ(tlb.occupancy(), 10u);
    EXPECT_TRUE(tlb.invalidate(1, 0x901, PageSize::FourKB));
    EXPECT_EQ(tlb.occupancy(), 9u);
    EXPECT_EQ(tlb.invalidateAll(), 9u);
    EXPECT_EQ(tlb.occupancy(), 0u);
    EXPECT_EQ(tlb.invalidations.value(), 10.0);
}

} // namespace
