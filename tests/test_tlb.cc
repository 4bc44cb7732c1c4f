/**
 * @file
 * Unit and property tests for the set-associative TLB, the L1 TLB
 * group and the prefetcher.
 */

#include <gtest/gtest.h>

#include <optional>

#include "sim/random.hh"
#include "tlb/l1_tlb.hh"
#include "tlb/prefetcher.hh"
#include "tlb/set_assoc_tlb.hh"

using namespace nocstar;
using namespace nocstar::tlb;

namespace
{

TlbEntry
entry(ContextId ctx, PageNum vpn, PageSize size = PageSize::FourKB,
      PageNum ppn = 0)
{
    TlbEntry e;
    e.valid = true;
    e.ctx = ctx;
    e.vpn = vpn;
    e.ppn = ppn ? ppn : vpn + 1000;
    e.size = size;
    return e;
}

} // namespace

TEST(SetAssocTlb, MissThenHit)
{
    stats::StatGroup g("g");
    SetAssocTlb tlb("t", 64, 4, &g);
    EXPECT_FALSE(tlb.lookup(1, 42, PageSize::FourKB));
    tlb.insert(entry(1, 42));
    EXPECT_TRUE(tlb.lookup(1, 42, PageSize::FourKB));
    EXPECT_EQ(tlb.hits.value(), 1.0);
    EXPECT_EQ(tlb.misses.value(), 1.0);
    std::optional<TlbEntry> hit = tlb.lookupAnySize(1, Addr{42} << 12);
    ASSERT_TRUE(hit);
    EXPECT_EQ(hit->ppn, 1042u);
}

TEST(SetAssocTlb, ContextIsolation)
{
    stats::StatGroup g("g");
    SetAssocTlb tlb("t", 64, 4, &g);
    tlb.insert(entry(1, 42));
    EXPECT_FALSE(tlb.lookup(2, 42, PageSize::FourKB));
    EXPECT_TRUE(tlb.lookup(1, 42, PageSize::FourKB));
}

TEST(SetAssocTlb, PageSizeIsolation)
{
    stats::StatGroup g("g");
    SetAssocTlb tlb("t", 64, 4, &g);
    tlb.insert(entry(1, 42, PageSize::FourKB));
    EXPECT_FALSE(tlb.lookup(1, 42, PageSize::TwoMB));
}

TEST(SetAssocTlb, LruEvictsLeastRecentlyUsed)
{
    stats::StatGroup g("g");
    // Single set of 2 ways: every insert maps to set 0.
    SetAssocTlb tlb("t", 2, 2, &g);
    tlb.insert(entry(1, 10));
    tlb.insert(entry(1, 20));
    // Touch 10 so 20 becomes LRU.
    EXPECT_TRUE(tlb.lookup(1, 10, PageSize::FourKB));
    tlb.insert(entry(1, 30));
    EXPECT_EQ(tlb.evictions.value(), 1.0);
    EXPECT_TRUE(tlb.lookup(1, 10, PageSize::FourKB));
    EXPECT_FALSE(tlb.lookup(1, 20, PageSize::FourKB));
}

TEST(SetAssocTlb, ReinsertRefreshesInPlace)
{
    stats::StatGroup g("g");
    SetAssocTlb tlb("t", 8, 8, &g);
    tlb.insert(entry(1, 5, PageSize::FourKB, 100));
    tlb.insert(entry(1, 5, PageSize::FourKB, 200));
    EXPECT_EQ(tlb.evictions.value(), 0.0);
    EXPECT_EQ(tlb.lookupAnySize(1, Addr{5} << 12)->ppn, 200u);
    EXPECT_EQ(tlb.occupancy(), 1u);
}

TEST(SetAssocTlb, InvalidateSingleEntry)
{
    stats::StatGroup g("g");
    SetAssocTlb tlb("t", 64, 4, &g);
    tlb.insert(entry(1, 7));
    EXPECT_TRUE(tlb.invalidate(1, 7, PageSize::FourKB));
    EXPECT_FALSE(tlb.invalidate(1, 7, PageSize::FourKB));
    EXPECT_FALSE(tlb.lookup(1, 7, PageSize::FourKB));
    EXPECT_EQ(tlb.invalidations.value(), 1.0);
}

TEST(SetAssocTlb, InvalidateAll)
{
    stats::StatGroup g("g");
    SetAssocTlb tlb("t", 64, 4, &g);
    for (PageNum v = 0; v < 10; ++v)
        tlb.insert(entry(1, v));
    for (PageNum v = 0; v < 5; ++v)
        tlb.insert(entry(2, v));
    EXPECT_EQ(tlb.occupancy(), 15u);
    EXPECT_EQ(tlb.invalidateAll(), 15u);
    EXPECT_EQ(tlb.occupancy(), 0u);
}

TEST(SetAssocTlb, EmptyArrayMissesAndCountsTheMiss)
{
    stats::StatGroup g("g");
    SetAssocTlb tlb("t", 64, 4, &g);
    EXPECT_FALSE(tlb.lookup(1, 42, PageSize::FourKB));
    EXPECT_FALSE(tlb.lookupAnySize(1, Addr{42} << 12));
    EXPECT_FALSE(tlb.touch(1, 42, PageSize::FourKB));
    EXPECT_FALSE(tlb.touchAnySize(1, Addr{42} << 12));
    EXPECT_FALSE(tlb.present(1, 42, PageSize::FourKB));
    EXPECT_FALSE(tlb.invalidate(1, 42, PageSize::FourKB));
    EXPECT_EQ(tlb.misses.value(), 2.0);

    // Emptied again by an invalidation, it still counts its misses.
    tlb.insert(entry(1, 42));
    EXPECT_TRUE(tlb.invalidate(1, 42, PageSize::FourKB));
    EXPECT_FALSE(tlb.lookup(1, 42, PageSize::FourKB));
    EXPECT_EQ(tlb.misses.value(), 3.0);
    EXPECT_EQ(tlb.hits.value(), 0.0);
}

TEST(SetAssocTlb, PresentDoesNotPerturbStats)
{
    stats::StatGroup g("g");
    SetAssocTlb tlb("t", 64, 4, &g);
    tlb.insert(entry(1, 3));
    EXPECT_TRUE(tlb.present(1, 3, PageSize::FourKB));
    EXPECT_FALSE(tlb.present(1, 4, PageSize::FourKB));
    EXPECT_EQ(tlb.hits.value(), 0.0);
    EXPECT_EQ(tlb.misses.value(), 0.0);
}

TEST(SetAssocTlb, PrefetchedFlagCountsFirstDemandHit)
{
    stats::StatGroup g("g");
    SetAssocTlb tlb("t", 64, 4, &g);
    TlbEntry e = entry(1, 9);
    e.prefetched = true;
    tlb.insert(e);
    tlb.lookup(1, 9, PageSize::FourKB);
    tlb.lookup(1, 9, PageSize::FourKB);
    EXPECT_EQ(tlb.prefetchHits.value(), 1.0);
}

TEST(SetAssocTlb, LookupAnySizeFindsLargerPages)
{
    stats::StatGroup g("g");
    SetAssocTlb tlb("t", 64, 4, &g);
    Addr vaddr = 0x40000000; // 1 GB aligned
    tlb.insert(entry(1, pageNumber(vaddr, PageSize::TwoMB),
                     PageSize::TwoMB));
    std::optional<TlbEntry> hit = tlb.lookupAnySize(1, vaddr + 0x1234);
    ASSERT_TRUE(hit);
    EXPECT_EQ(hit->size, PageSize::TwoMB);
}

TEST(SetAssocTlb, NonPowerOfTwoCapacityWorks)
{
    stats::StatGroup g("g");
    SetAssocTlb tlb("t", 920, 8, &g); // the NOCSTAR slice geometry
    EXPECT_EQ(tlb.numSets(), 115u);
    for (PageNum v = 0; v < 920; ++v)
        tlb.insert(entry(1, v * 16)); // slice-interleaved VPNs
    // Hash indexing must reach most sets despite the stride.
    EXPECT_GT(tlb.occupancy(), 800u);
}

TEST(SetAssocTlb, InvalidGeometryFatal)
{
    stats::StatGroup g("g");
    EXPECT_THROW(SetAssocTlb("t", 0, 4, &g), FatalError);
    EXPECT_THROW(SetAssocTlb("t", 100, 8, &g), FatalError);
}

TEST(SetAssocTlb, InsertInvalidEntryPanics)
{
    stats::StatGroup g("g");
    SetAssocTlb tlb("t", 64, 4, &g);
    TlbEntry bad;
    EXPECT_THROW(tlb.insert(bad), PanicError);
}

/** Property: after arbitrary operations, no duplicate (ctx,vpn,size). */
class TlbPropertyTest : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(TlbPropertyTest, NoDuplicateTranslations)
{
    stats::StatGroup g("g");
    SetAssocTlb tlb("t", 128, 4, &g);
    Random rng(GetParam());
    for (int i = 0; i < 5000; ++i) {
        PageNum vpn = rng.below(300);
        ContextId ctx = static_cast<ContextId>(rng.below(3));
        switch (rng.below(3)) {
          case 0:
            tlb.insert(entry(ctx, vpn));
            break;
          case 1:
            tlb.lookup(ctx, vpn, PageSize::FourKB);
            break;
          default:
            tlb.invalidate(ctx, vpn, PageSize::FourKB);
            break;
        }
    }
    // Scan for duplicates via present+invalidate: invalidating an entry
    // twice must never succeed twice.
    for (ContextId ctx = 0; ctx < 3; ++ctx) {
        for (PageNum vpn = 0; vpn < 300; ++vpn) {
            if (tlb.invalidate(ctx, vpn, PageSize::FourKB)) {
                EXPECT_FALSE(tlb.invalidate(ctx, vpn,
                                            PageSize::FourKB));
            }
        }
    }
    EXPECT_EQ(tlb.occupancy(), 0u);
}

TEST_P(TlbPropertyTest, OccupancyNeverExceedsCapacity)
{
    stats::StatGroup g("g");
    SetAssocTlb tlb("t", 64, 4, &g);
    Random rng(GetParam() ^ 0x1234);
    for (int i = 0; i < 2000; ++i) {
        tlb.insert(entry(0, rng.below(100000)));
        ASSERT_LE(tlb.occupancy(), 64u);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TlbPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

TEST(L1TlbGroup, RoutesBySizeAndScales)
{
    stats::StatGroup g("g");
    L1TlbConfig config;
    config.scale = 0.5;
    L1TlbGroup l1("l1", config, &g);
    EXPECT_EQ(l1.arrayFor(PageSize::FourKB).numEntries(), 32u);
    EXPECT_EQ(l1.arrayFor(PageSize::TwoMB).numEntries(), 16u);
    EXPECT_EQ(l1.arrayFor(PageSize::OneGB).numEntries(), 4u);

    l1.insert(entry(1, 10, PageSize::FourKB));
    l1.insert(entry(1, 10, PageSize::TwoMB));
    EXPECT_TRUE(l1.lookup(1, 10, PageSize::FourKB));
    EXPECT_TRUE(l1.lookup(1, 10, PageSize::TwoMB));
    double accesses = 0;
    double misses = 0;
    for (PageSize size :
         {PageSize::FourKB, PageSize::TwoMB, PageSize::OneGB}) {
        const SetAssocTlb &array = l1.arrayFor(size);
        accesses += array.hits.value() + array.misses.value();
        misses += array.misses.value();
    }
    EXPECT_EQ(accesses, 2.0);
    EXPECT_EQ(misses, 0.0);

    // The stat-free probe names the array that holds the translation.
    Addr vaddr = Addr{10} << pageShift(PageSize::TwoMB);
    EXPECT_EQ(l1.touchAnySize(1, vaddr), &l1.arrayFor(PageSize::TwoMB));
    EXPECT_EQ(l1.touchAnySize(2, vaddr), nullptr);
}

TEST(L1TlbGroup, InvalidateAllFlushesEverySize)
{
    stats::StatGroup g("g");
    L1TlbGroup l1("l1", L1TlbConfig{}, &g);
    l1.insert(entry(1, 1, PageSize::FourKB));
    l1.insert(entry(1, 2, PageSize::TwoMB));
    l1.insert(entry(1, 3, PageSize::OneGB));
    EXPECT_EQ(l1.invalidateAll(), 3u);
    EXPECT_FALSE(l1.lookup(1, 1, PageSize::FourKB));
}

TEST(L1TlbGroup, ScaleKeepsWholeSets)
{
    stats::StatGroup g("g");
    L1TlbConfig config;
    config.scale = 1.5;
    L1TlbGroup l1("l1", config, &g);
    EXPECT_EQ(l1.arrayFor(PageSize::FourKB).numEntries() % 4, 0u);
    EXPECT_EQ(l1.arrayFor(PageSize::FourKB).numEntries(), 96u);
}

TEST(Prefetcher, CandidatesAlternateAroundMiss)
{
    TlbPrefetcher pf(2);
    auto c = pf.candidates(100);
    EXPECT_EQ(c, (std::vector<PageNum>{101, 99, 102, 98}));
}

TEST(Prefetcher, ClampsAtPageZero)
{
    TlbPrefetcher pf(3);
    auto c = pf.candidates(1);
    // vpn 1: +1, -1, +2, (no -2), +3, (no -3)
    EXPECT_EQ(c, (std::vector<PageNum>{2, 0, 3, 4}));
}

TEST(Prefetcher, DistanceZeroEmitsNothing)
{
    TlbPrefetcher pf(0);
    EXPECT_TRUE(pf.candidates(50).empty());
}
