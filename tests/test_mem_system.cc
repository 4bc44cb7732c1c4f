/**
 * @file
 * Unit tests for the walk-reference cache model and the page-table
 * walker.
 */

#include <gtest/gtest.h>

#include "mem/cache_model.hh"
#include "mem/page_walker.hh"

using namespace nocstar;
using namespace nocstar::mem;

namespace
{

CacheModelConfig
smallCaches()
{
    CacheModelConfig config;
    config.l2Lines = 4;
    config.llcLines = 16;
    config.l2RetentionCycles = 1000;
    config.llcRetentionCycles = 100000;
    return config;
}

} // namespace

TEST(CacheModel, MissGoesToDramThenHitsL2)
{
    stats::StatGroup g("g");
    CacheModel caches("c", 2, smallCaches(), &g);
    auto first = caches.access(0, 0, 0x1000, 10);
    EXPECT_EQ(first.service, energy::WalkService::Dram);
    auto second = caches.access(0, 0, 0x1000, 20);
    EXPECT_EQ(second.service, energy::WalkService::L2Hit);
    EXPECT_EQ(second.latency, smallCaches().l2Latency);
}

TEST(CacheModel, OtherCoreHitsSharedLlc)
{
    stats::StatGroup g("g");
    CacheModel caches("c", 2, smallCaches(), &g);
    caches.access(0, 0, 0x2000, 10);
    auto other = caches.access(1, 1, 0x2000, 20);
    EXPECT_EQ(other.service, energy::WalkService::LlcHit);
}

TEST(CacheModel, TtlExpiresL2Lines)
{
    stats::StatGroup g("g");
    CacheModel caches("c", 1, smallCaches(), &g);
    caches.access(0, 0, 0x3000, 0);
    auto later = caches.access(0, 0, 0x3000, 5000); // beyond 1000 TTL
    EXPECT_NE(later.service, energy::WalkService::L2Hit);
}

TEST(CacheModel, CapacityEvictsFifo)
{
    stats::StatGroup g("g");
    CacheModel caches("c", 1, smallCaches(), &g);
    for (Addr line = 0; line < 8; ++line)
        caches.access(0, 0, 0x1000 * (line + 1), 10 + line);
    // The first line must have been evicted from the 4-line L2 but
    // still be in the 16-line LLC.
    auto revisit = caches.access(0, 0, 0x1000, 30);
    EXPECT_EQ(revisit.service, energy::WalkService::LlcHit);
}

TEST(CacheModel, ForeignFillsTrackedAndHooked)
{
    stats::StatGroup g("g");
    CacheModel caches("c", 2, smallCaches(), &g);
    unsigned hook_calls = 0;
    caches.setForeignFillHook([&](CoreId core) {
        EXPECT_EQ(core, 1u);
        ++hook_calls;
    });
    caches.access(1, 0, 0x9000, 10); // walk on core 1 for requester 0
    EXPECT_EQ(caches.foreignFills(1), 1u);
    EXPECT_EQ(caches.foreignFills(0), 0u);
    EXPECT_EQ(hook_calls, 1u);
    // A local walk never counts as foreign.
    caches.access(0, 0, 0xa000, 11);
    EXPECT_EQ(caches.foreignFills(0), 0u);
}

TEST(CacheModel, BeyondL2FractionComputed)
{
    stats::StatGroup g("g");
    CacheModel caches("c", 1, smallCaches(), &g);
    caches.access(0, 0, 0x1000, 0); // DRAM
    caches.access(0, 0, 0x1000, 1); // L2 hit
    EXPECT_NEAR(caches.beyondL2Fraction(), 0.5, 1e-9);
}

TEST(PageWalker, FixedLatencyMode)
{
    stats::StatGroup g("g");
    PageTable table(0.0, 1);
    CacheModel caches("c", 1, smallCaches(), &g);
    WalkerConfig config;
    config.fixedLatency = 40;
    PageTableWalker walker("w", 0, table, caches, config, &g);
    WalkResult result = walker.walk(1, 0x123000, 0, 100);
    EXPECT_EQ(result.walkLatency, 40u);
    EXPECT_EQ(result.queueDelay, 0u);
    EXPECT_EQ(result.llcRefs, 1u); // energy proxy
}

TEST(PageWalker, VariableWalksGetCheaperWithPscWarmup)
{
    stats::StatGroup g("g");
    PageTable table(0.0, 1);
    CacheModelConfig cache_config; // default big caches
    CacheModel caches("c", 1, cache_config, &g);
    PageTableWalker walker("w", 0, table, caches, WalkerConfig{}, &g);

    WalkResult cold = walker.walk(1, 0x400000, 0, 0);
    WalkResult warm = walker.walk(1, 0x400000 + 4096,
                                  0, cold.totalLatency() + 10);
    EXPECT_GT(cold.walkLatency, warm.walkLatency);
    EXPECT_GT(warm.pscHits, 0u);
}

TEST(PageWalker, SuperpageWalkIsShorter)
{
    stats::StatGroup g("g");
    PageTable table(1.0, 1); // all superpages
    PageTable table4k(0.0, 1);
    CacheModelConfig cache_config;
    CacheModel caches("c", 1, cache_config, &g);
    PageTableWalker w2m("w2m", 0, table, caches, WalkerConfig{}, &g);
    PageTableWalker w4k("w4k", 0, table4k, caches, WalkerConfig{}, &g);
    WalkResult r2m = w2m.walk(1, 0x40000000, 0, 0);
    WalkResult r4k = w4k.walk(1, 0x40000000, 0, 0);
    unsigned refs2m = r2m.pscHits + r2m.l2Refs + r2m.llcRefs +
                      r2m.dramRefs;
    unsigned refs4k = r4k.pscHits + r4k.l2Refs + r4k.llcRefs +
                      r4k.dramRefs;
    EXPECT_EQ(refs2m, 3u);
    EXPECT_EQ(refs4k, 4u);
}

TEST(PageWalker, ConcurrentWalksQueue)
{
    stats::StatGroup g("g");
    PageTable table(0.0, 1);
    CacheModel caches("c", 1, CacheModelConfig{}, &g);
    PageTableWalker walker("w", 0, table, caches, WalkerConfig{}, &g);

    WalkResult first = walker.walk(1, 0x1000000, 0, 100);
    EXPECT_EQ(first.queueDelay, 0u);
    // A second walk issued while the first is in flight must wait.
    WalkResult second = walker.walk(1, 0x2000000, 0, 101);
    EXPECT_EQ(second.queueDelay, first.walkLatency - 1);
    EXPECT_EQ(walker.busyUntil(),
              101 + second.queueDelay + second.walkLatency);
}

TEST(PageWalker, WalkEccPlanDoublesEveryWalk)
{
    stats::StatGroup g("g");
    PageTable table(0.0, 1);
    CacheModel caches("c", 1, smallCaches(), &g);
    WalkerConfig config;
    config.fixedLatency = 40;
    sim::FaultPlan plan;
    plan.walkEccProb = 1.0;
    PageTableWalker faulty("faulty", 0, table, caches, config, &g, &plan);
    PageTableWalker plain("plain", 0, table, caches, config, &g);
    for (Addr vaddr : {0x1000, 0x200000, 0x40000000}) {
        WalkResult doubled = faulty.walk(1, vaddr, 0, 0);
        EXPECT_EQ(doubled.walkLatency, 80u);
        EXPECT_TRUE(doubled.eccRetried);
        WalkResult single = plain.walk(1, vaddr, 0, 0);
        EXPECT_EQ(single.walkLatency, 40u);
        EXPECT_FALSE(single.eccRetried);
    }
    EXPECT_EQ(faulty.eccRewalks.value(), 3.0);
    EXPECT_EQ(faulty.eccRewalks.value(), faulty.walks.value());
    EXPECT_EQ(plain.eccRewalks.value(), 0.0);
}

TEST(PageWalker, StatsAccumulate)
{
    stats::StatGroup g("g");
    PageTable table(0.0, 1);
    CacheModel caches("c", 1, CacheModelConfig{}, &g);
    PageTableWalker walker("w", 0, table, caches, WalkerConfig{}, &g);
    walker.walk(1, 0x1000, 0, 0);
    walker.walk(1, 0x2000, 0, 10000);
    EXPECT_EQ(walker.walks.value(), 2.0);
    EXPECT_GT(walker.walkCycles.value(), 0.0);
}
