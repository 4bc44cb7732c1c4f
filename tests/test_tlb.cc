/**
 * @file
 * Unit and property tests for the set-associative TLB, the L1 TLB
 * group and the prefetcher.
 */

#include <gtest/gtest.h>

#include <set>

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
    EXPECT_EQ(tlb.lookup(1, 42, PageSize::FourKB), nullptr);
    tlb.insert(entry(1, 42));
    const TlbEntry *hit = tlb.lookup(1, 42, PageSize::FourKB);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->ppn, 1042u);
    EXPECT_EQ(tlb.hits.value(), 1.0);
    EXPECT_EQ(tlb.misses.value(), 1.0);
}

TEST(SetAssocTlb, ContextIsolation)
{
    stats::StatGroup g("g");
    SetAssocTlb tlb("t", 64, 4, &g);
    tlb.insert(entry(1, 42));
    EXPECT_EQ(tlb.lookup(2, 42, PageSize::FourKB), nullptr);
    EXPECT_NE(tlb.lookup(1, 42, PageSize::FourKB), nullptr);
}

TEST(SetAssocTlb, PageSizeIsolation)
{
    stats::StatGroup g("g");
    SetAssocTlb tlb("t", 64, 4, &g);
    tlb.insert(entry(1, 42, PageSize::FourKB));
    EXPECT_EQ(tlb.lookup(1, 42, PageSize::TwoMB), nullptr);
}

TEST(SetAssocTlb, LruEvictsLeastRecentlyUsed)
{
    stats::StatGroup g("g");
    // Single set of 2 ways: every insert maps to set 0.
    SetAssocTlb tlb("t", 2, 2, &g);
    tlb.insert(entry(1, 10));
    tlb.insert(entry(1, 20));
    // Touch 10 so 20 becomes LRU.
    EXPECT_NE(tlb.lookup(1, 10, PageSize::FourKB), nullptr);
    auto evicted = tlb.insert(entry(1, 30));
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->vpn, 20u);
    EXPECT_NE(tlb.lookup(1, 10, PageSize::FourKB), nullptr);
    EXPECT_EQ(tlb.lookup(1, 20, PageSize::FourKB), nullptr);
}

TEST(SetAssocTlb, ReinsertRefreshesInPlace)
{
    stats::StatGroup g("g");
    SetAssocTlb tlb("t", 8, 8, &g);
    tlb.insert(entry(1, 5, PageSize::FourKB, 100));
    auto evicted = tlb.insert(entry(1, 5, PageSize::FourKB, 200));
    EXPECT_FALSE(evicted.has_value());
    EXPECT_EQ(tlb.lookup(1, 5, PageSize::FourKB)->ppn, 200u);
    EXPECT_EQ(tlb.occupancy(), 1u);
}

TEST(SetAssocTlb, InvalidateSingleEntry)
{
    stats::StatGroup g("g");
    SetAssocTlb tlb("t", 64, 4, &g);
    tlb.insert(entry(1, 7));
    EXPECT_TRUE(tlb.invalidate(1, 7, PageSize::FourKB));
    EXPECT_FALSE(tlb.invalidate(1, 7, PageSize::FourKB));
    EXPECT_EQ(tlb.lookup(1, 7, PageSize::FourKB), nullptr);
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
    const TlbEntry *hit = tlb.lookupAnySize(1, vaddr + 0x1234);
    ASSERT_NE(hit, nullptr);
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
    EXPECT_NE(l1.lookup(1, 10, PageSize::FourKB), nullptr);
    EXPECT_NE(l1.lookup(1, 10, PageSize::TwoMB), nullptr);
    EXPECT_EQ(l1.demandAccesses(), 2u);
    EXPECT_EQ(l1.demandMisses(), 0u);
}

TEST(L1TlbGroup, InvalidateAllFlushesEverySize)
{
    stats::StatGroup g("g");
    L1TlbGroup l1("l1", L1TlbConfig{}, &g);
    l1.insert(entry(1, 1, PageSize::FourKB));
    l1.insert(entry(1, 2, PageSize::TwoMB));
    l1.insert(entry(1, 3, PageSize::OneGB));
    EXPECT_EQ(l1.invalidateAll(), 3u);
    EXPECT_EQ(l1.lookup(1, 1, PageSize::FourKB), nullptr);
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
