/**
 * @file
 * Unit tests for the functional page table.
 */

#include <gtest/gtest.h>

#include <set>

#include "mem/page_table.hh"
#include "sim/logging.hh"

using namespace nocstar;
using namespace nocstar::mem;

TEST(PageTable, TranslationIsDeterministic)
{
    PageTable a(0.5, 77), b(0.5, 77);
    for (Addr va = 0; va < 64 << 12; va += 4096) {
        Translation ta = a.translate(1, va);
        Translation tb = b.translate(1, va);
        EXPECT_EQ(ta.ppn, tb.ppn);
        EXPECT_EQ(ta.size, tb.size);
    }
}

TEST(PageTable, DistinctPagesGetDistinctFrames)
{
    PageTable table(0.0, 1);
    std::set<PageNum> ppns;
    for (Addr va = 0; va < (Addr{256} << 12); va += 4096) {
        Translation t = table.translate(3, va);
        EXPECT_EQ(t.size, PageSize::FourKB);
        EXPECT_TRUE(ppns.insert(t.ppn).second)
            << "duplicate ppn for va " << va;
    }
}

TEST(PageTable, ContextsDoNotShareFrames)
{
    PageTable table(0.0, 1);
    Translation a = table.translate(1, 0x1000);
    Translation b = table.translate(2, 0x1000);
    EXPECT_NE(a.ppn, b.ppn);
}

TEST(PageTable, SuperpageFractionApproximatelyHonored)
{
    PageTable table(0.6, 99);
    unsigned super = 0, regions = 2000;
    for (unsigned r = 0; r < regions; ++r) {
        Addr va = static_cast<Addr>(r) << pageShift(PageSize::TwoMB);
        if (table.translate(1, va).size == PageSize::TwoMB)
            ++super;
    }
    EXPECT_NEAR(super / static_cast<double>(regions), 0.6, 0.05);
}

TEST(PageTable, PerContextFractionOverride)
{
    PageTable table(0.0, 7);
    table.setContextSuperpageFraction(5, 1.0);
    EXPECT_EQ(table.translate(1, 0x200000).size, PageSize::FourKB);
    EXPECT_EQ(table.translate(5, 0x200000).size, PageSize::TwoMB);
}

TEST(PageTable, WalkDepthMatchesPageSize)
{
    PageTable table(1.0, 5); // everything superpage-backed
    EXPECT_EQ(table.walkAddresses(1, 0x40000000).size(), 3u);
    PageTable table4k(0.0, 5);
    EXPECT_EQ(table4k.walkAddresses(1, 0x40000000).size(), 4u);
}

TEST(PageTable, AdjacentPagesShareUpperWalkLines)
{
    PageTable table(0.0, 5);
    auto a = table.walkAddresses(1, 0x1000000);
    auto b = table.walkAddresses(1, 0x1000000 + 4096);
    ASSERT_EQ(a.size(), 4u);
    // PML4 / PDPT / PD entries identical; PTEs share one 64-byte line
    // for adjacent pages (8 entries per line).
    EXPECT_EQ(a[0], b[0]);
    EXPECT_EQ(a[1], b[1]);
    EXPECT_EQ(a[2], b[2]);
    EXPECT_EQ(a[3], b[3]);
    auto far = table.walkAddresses(1, 0x1000000 + (Addr{9} << 12));
    EXPECT_NE(a[3], far[3]);
}

TEST(PageTable, PromoteDemoteInvalidationCounts)
{
    PageTable table(0.0, 5);
    Translation before = table.translate(1, 0x0);
    EXPECT_EQ(table.setRegionSuperpage(1, 0x0, true), 512u);
    EXPECT_TRUE(table.isSuperpage(1, 0x0));
    // The version bump is what tells stale TLB entries apart.
    EXPECT_EQ(table.translate(1, 0x0).version, before.version + 1);
    EXPECT_EQ(table.setRegionSuperpage(1, 0x0, true), 0u); // no change
    EXPECT_EQ(table.setRegionSuperpage(1, 0x0, false), 1u);
    EXPECT_FALSE(table.isSuperpage(1, 0x0));
}

TEST(PageTable, SuperpageOffsetsResolveWithinFrame)
{
    PageTable table(1.0, 5);
    Translation t1 = table.translate(1, 0x200000);
    Translation t2 = table.translate(1, 0x200000 + 0x1000);
    EXPECT_EQ(t1.ppn, t2.ppn); // same 2 MB frame
    EXPECT_EQ(t1.size, PageSize::TwoMB);
}

TEST(PageTable, BadFractionIsFatal)
{
    EXPECT_THROW(PageTable(-0.1, 1), FatalError);
    EXPECT_THROW(PageTable(1.5, 1), FatalError);
}

TEST(PageTable, RegionsAllocatedLazily)
{
    PageTable table(0.0, 1);
    EXPECT_EQ(table.regionsAllocated(), 0u);
    table.translate(1, 0x0);
    table.translate(1, 0x1000); // same 2 MB region
    EXPECT_EQ(table.regionsAllocated(), 1u);
    table.translate(1, 0x200000);
    EXPECT_EQ(table.regionsAllocated(), 2u);
}
