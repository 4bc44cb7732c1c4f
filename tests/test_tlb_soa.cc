/**
 * @file
 * Differential test for the structure-of-arrays SetAssocTlb: drives
 * identical randomized lookup/insert/evict/invalidate sequences
 * through the pre-SoA array-of-structs implementation (kept here as
 * the executable reference) and the production array, and demands
 * byte-for-byte agreement on every observable: hit/miss outcomes,
 * returned translations, evicted entries, invalidation counts,
 * occupancy and all statistics.
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

/**
 * The old array-of-structs SetAssocTlb, verbatim minus the stats
 * plumbing (plain counters instead): scalar per-way tag probes,
 * first-invalid-else-LRU victim selection, full-array invalidation
 * scans. This is the semantic spec the SoA rewrite must match.
 */
class ReferenceTlb
{
  public:
    ReferenceTlb(std::uint32_t entries, std::uint32_t assoc)
    {
        if (assoc > entries)
            assoc = entries;
        numEntries_ = entries;
        assoc_ = assoc;
        numSets_ = entries / assoc;
        entries_.resize(entries);
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

    TlbEntry *
    findEntry(ContextId ctx, PageNum vpn, PageSize size)
    {
        std::uint32_t set = setIndex(vpn, size);
        TlbEntry *base =
            &entries_[static_cast<std::size_t>(set) * assoc_];
        for (std::uint32_t way = 0; way < assoc_; ++way) {
            if (base[way].matches(ctx, vpn, size))
                return &base[way];
        }
        return nullptr;
    }

    const TlbEntry *
    lookup(ContextId ctx, PageNum vpn, PageSize size)
    {
        TlbEntry *entry = findEntry(ctx, vpn, size);
        if (!entry) {
            ++misses;
            return nullptr;
        }
        ++hits;
        if (entry->prefetched) {
            ++prefetchHits;
            entry->prefetched = false;
        }
        entry->lastUse = ++lruClock_;
        return entry;
    }

    const TlbEntry *
    lookupAnySize(ContextId ctx, Addr vaddr)
    {
        static constexpr PageSize sizes[] = {
            PageSize::FourKB, PageSize::TwoMB, PageSize::OneGB};
        for (PageSize size : sizes) {
            TlbEntry *entry =
                findEntry(ctx, pageNumber(vaddr, size), size);
            if (entry) {
                ++hits;
                if (entry->prefetched) {
                    ++prefetchHits;
                    entry->prefetched = false;
                }
                entry->lastUse = ++lruClock_;
                return entry;
            }
        }
        ++misses;
        return nullptr;
    }

    std::optional<TlbEntry>
    insert(const TlbEntry &entry)
    {
        ++insertions;
        if (TlbEntry *existing =
                findEntry(entry.ctx, entry.vpn, entry.size)) {
            bool was_prefetched =
                existing->prefetched && entry.prefetched;
            *existing = entry;
            existing->prefetched = was_prefetched;
            existing->lastUse = ++lruClock_;
            return std::nullopt;
        }

        std::uint32_t set = setIndex(entry.vpn, entry.size);
        TlbEntry *base =
            &entries_[static_cast<std::size_t>(set) * assoc_];
        TlbEntry *victim = &base[0];
        for (std::uint32_t way = 0; way < assoc_; ++way) {
            if (!base[way].valid) {
                victim = &base[way];
                break;
            }
            if (base[way].lastUse < victim->lastUse)
                victim = &base[way];
        }

        std::optional<TlbEntry> evicted;
        if (victim->valid) {
            ++evictions;
            evicted = *victim;
        }
        *victim = entry;
        victim->lastUse = ++lruClock_;
        return evicted;
    }

    bool
    present(ContextId ctx, PageNum vpn, PageSize size)
    {
        std::uint32_t set = setIndex(vpn, size);
        const TlbEntry *base =
            &entries_[static_cast<std::size_t>(set) * assoc_];
        for (std::uint32_t way = 0; way < assoc_; ++way) {
            if (base[way].matches(ctx, vpn, size))
                return true;
        }
        return false;
    }

    bool
    invalidate(ContextId ctx, PageNum vpn, PageSize size)
    {
        if (TlbEntry *entry = findEntry(ctx, vpn, size)) {
            entry->valid = false;
            ++invalidations;
            return true;
        }
        return false;
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
    std::uint32_t numEntries_;
    std::uint32_t assoc_;
    std::uint32_t numSets_;
    std::uint64_t lruClock_ = 0;
    std::vector<TlbEntry> entries_;
};

void
expectSameEntry(const TlbEntry *ref, const TlbEntry *soa,
                std::uint64_t op)
{
    ASSERT_EQ(ref != nullptr, soa != nullptr) << "op " << op;
    if (!ref)
        return;
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
            expectSameEntry(ref.lookup(ctx, vpn, size),
                            soa.lookup(ctx, vpn, size), op);
        } else if (kind < 70) {
            TlbEntry entry;
            entry.valid = true;
            entry.ctx = ctx;
            entry.vpn = vpn;
            entry.ppn = vpn ^ 0x5aa5;
            entry.size = size;
            entry.prefetched = rng.below(4) == 0;
            std::optional<TlbEntry> re = ref.insert(entry);
            std::optional<TlbEntry> se = soa.insert(entry);
            expectSameEntry(re ? &*re : nullptr,
                            se ? &*se : nullptr, op);
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
    EXPECT_EQ(tlb.lookup(0, SetAssocTlb::maxVpn + 1,
                         PageSize::FourKB), nullptr);
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
    const TlbEntry *hit =
        tlb.lookup(SetAssocTlb::maxCtx, SetAssocTlb::maxVpn,
                   PageSize::OneGB);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->ppn, 0x1234u);

    // Unpackable inserts fail loudly instead of corrupting a tag.
    TlbEntry wide = entry;
    wide.vpn = SetAssocTlb::maxVpn + 1;
    EXPECT_THROW(tlb.insert(wide), FatalError);
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
