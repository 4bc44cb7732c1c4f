/**
 * @file
 * Tests of the four last-level TLB organizations: timing (including
 * the Fig 10 remote-access timeline), hit/miss handling, walk
 * placement, and the steps every organization shares (preload, entry
 * count, flush, shootdown, slice-ECC discard), checked on all seven
 * kinds and pinned by whole-system goldens.
 */

#include <gtest/gtest.h>

#include "core/distributed_org.hh"
#include "core/monolithic_org.hh"
#include "core/nocstar_org.hh"
#include "core/private_org.hh"
#include "cpu/system.hh"
#include "energy/sram_model.hh"
#include "mem/cache_model.hh"
#include "mem/page_walker.hh"

using namespace nocstar;
using namespace nocstar::core;

namespace
{

/** Self-contained environment for one organization. */
struct OrgHarness
{
    EventQueue queue;
    stats::StatGroup root{"root"};
    mem::PageTable table{0.0, 1};
    mem::CacheModel caches;
    std::vector<std::unique_ptr<mem::PageTableWalker>> walkers;
    energy::TranslationEnergyModel energy;
    OrgConfig config;
    std::unique_ptr<TlbOrganization> org;
    std::vector<std::pair<CoreId, PageNum>> l1Invalidations;

    explicit OrgHarness(OrgKind kind, unsigned cores = 16,
                        std::function<void(OrgConfig &)> tweak = {})
        : caches("caches", cores, mem::CacheModelConfig{}, &root)
    {
        config.kind = kind;
        config.numCores = cores;
        if (tweak)
            tweak(config);

        OrgContext context;
        context.queue = &queue;
        context.pageTable = &table;
        context.energy = &energy;
        for (CoreId c = 0; c < cores; ++c) {
            walkers.push_back(std::make_unique<mem::PageTableWalker>(
                "walker" + std::to_string(c), c, table, caches,
                mem::WalkerConfig{}, &root));
            context.walkers.push_back(walkers.back().get());
        }
        context.l1Invalidate = [this](CoreId core, ContextId,
                                      PageNum vpn, PageSize) {
            l1Invalidations.push_back({core, vpn});
        };
        org = makeOrganization(config, std::move(context), &root);
    }

    /** Preload @p vaddr into the home array @p core's lookups probe. */
    void
    preload(CoreId core, Addr vaddr)
    {
        org->preload(core, 1, vaddr, table.translate(1, vaddr));
    }

    /** Blocking translate helper. */
    TranslationResult
    translate(CoreId core, Addr vaddr, Cycle now)
    {
        TranslationResult out;
        bool done = false;
        org->translate(core, 1, vaddr, now,
                       [&](const TranslationResult &r) {
                           out = r;
                           done = true;
                       });
        queue.run();
        EXPECT_TRUE(done);
        return out;
    }
};

/** A 4 KB address homed on a given slice of an N-core system. */
Addr
addrOnSlice(CoreId slice, unsigned cores, std::uint64_t salt = 0)
{
    PageNum vpn = salt * cores + slice;
    return vpn << pageShift(PageSize::FourKB);
}

} // namespace

TEST(PrivateOrg, HitTakesInitiatePlusNineCycles)
{
    OrgHarness h(OrgKind::Private);
    Addr vaddr = 0x7000;
    h.preload(2, vaddr);

    auto result = h.translate(2, vaddr, 100);
    EXPECT_TRUE(result.l2Hit);
    // initiate (1) + SRAM lookup (9).
    EXPECT_EQ(result.completedAt, 110u);
}

TEST(PrivateOrg, MissWalksAndFills)
{
    OrgHarness h(OrgKind::Private);
    auto result = h.translate(0, 0x9000, 50);
    EXPECT_FALSE(result.l2Hit);
    EXPECT_TRUE(result.walked);
    EXPECT_GT(result.completedAt, 60u);
    // Refill is now resident.
    auto again = h.translate(0, 0x9000, result.completedAt + 10);
    EXPECT_TRUE(again.l2Hit);
    EXPECT_EQ(h.org->l2Misses.value(), 1.0);
    EXPECT_EQ(h.org->l2Hits.value(), 1.0);
}

TEST(PrivateOrg, CoresDoNotShareArrays)
{
    OrgHarness h(OrgKind::Private);
    h.translate(0, 0x9000, 0); // fills core 0 only
    auto other = h.translate(1, 0x9000, 2000);
    EXPECT_FALSE(other.l2Hit);
}

TEST(PrivateOrg, ShootdownInvalidatesEverywhere)
{
    OrgHarness h(OrgKind::Private);
    h.translate(0, 0x9000, 0);
    h.translate(1, 0x9000, 2000);
    Cycle completed = 0;
    h.org->shootdown(0, 1, 0x9000, {0, 1, 2}, 4000,
                     [&](Cycle at) { completed = at; });
    h.queue.run();
    EXPECT_EQ(completed, 4000 + PrivateOrg::shootdownLatency);
    EXPECT_EQ(h.org->shootdownL2Invalidations.value(), 2.0);
    EXPECT_EQ(h.l1Invalidations.size(), 3u);
    auto after = h.translate(0, 0x9000, 5000);
    EXPECT_FALSE(after.l2Hit);
}

TEST(NocstarOrg, RemoteHitFollowsFig10Timeline)
{
    OrgHarness h(OrgKind::Nocstar);

    // Find an address homed on a slice one hop from core 0.
    Addr vaddr = addrOnSlice(1, 16);
    ASSERT_EQ(h.org->homeArrayOf(0, vaddr), 1u);
    h.preload(0, vaddr);

    auto result = h.translate(0, vaddr, 0);
    EXPECT_TRUE(result.l2Hit);
    // Fig 10: L1 miss at 0, path setup at 1, traversal at 2, slice
    // access 3..11 (9 cycles), response setup overlapped, response
    // traversal, insert at 13.
    EXPECT_EQ(result.completedAt, 13u);
}

TEST(NocstarOrg, LocalHitMatchesPrivateLatency)
{
    OrgHarness h(OrgKind::Nocstar);
    Addr vaddr = addrOnSlice(5, 16);
    h.preload(5, vaddr);
    auto result = h.translate(5, vaddr, 0);
    EXPECT_TRUE(result.l2Hit);
    EXPECT_EQ(result.completedAt, 10u); // initiate + 9-cycle slice
}

TEST(NocstarOrg, SliceEntriesAreaNormalized)
{
    OrgHarness h(OrgKind::Nocstar);
    EXPECT_EQ(h.org->array(0).numEntries(), 920u);
    EXPECT_EQ(h.org->totalEntries(), 920u * 16);
}

TEST(NocstarOrg, MissFillsHomeSliceForAllCores)
{
    OrgHarness h(OrgKind::Nocstar);
    Addr vaddr = addrOnSlice(3, 16);
    auto first = h.translate(0, vaddr, 0);
    EXPECT_FALSE(first.l2Hit);
    // Another core now hits the shared slice: the sharing benefit.
    auto second = h.translate(7, vaddr, first.completedAt + 100);
    EXPECT_TRUE(second.l2Hit);
}

TEST(NocstarOrg, RemoteWalkPlacementRespondsAfterWalk)
{
    OrgHarness requester(OrgKind::Nocstar, 16, [](OrgConfig &c) {
        c.ptwPlacement = PtwPlacement::Requester;
    });
    OrgHarness remote(OrgKind::Nocstar, 16, [](OrgConfig &c) {
        c.ptwPlacement = PtwPlacement::Remote;
    });
    Addr vaddr = addrOnSlice(2, 16);
    auto r1 = requester.translate(0, vaddr, 0);
    auto r2 = remote.translate(0, vaddr, 0);
    EXPECT_TRUE(r1.walked);
    EXPECT_TRUE(r2.walked);
    // Remote placement walks on the slice core: the requester's walker
    // stays idle and the slice core's walker was used.
    EXPECT_EQ(requester.walkers[0]->walks.value(), 1.0);
    EXPECT_EQ(requester.walkers[2]->walks.value(), 0.0);
    EXPECT_EQ(remote.walkers[0]->walks.value(), 0.0);
    EXPECT_EQ(remote.walkers[2]->walks.value(), 1.0);
}

TEST(NocstarOrg, RoundTripAcquireStillResolves)
{
    OrgHarness h(OrgKind::Nocstar, 16, [](OrgConfig &c) {
        c.pathAcquire = PathAcquire::RoundTrip;
    });
    Addr vaddr = addrOnSlice(1, 16);
    h.preload(0, vaddr);
    auto result = h.translate(0, vaddr, 0);
    EXPECT_TRUE(result.l2Hit);
    EXPECT_EQ(result.completedAt, 13u);
}

TEST(NocstarOrg, ShootdownLeaderDeduplicates)
{
    // 4 sharers in one leader group -> 1 downstream invalidation.
    OrgHarness direct(OrgKind::Nocstar, 16);
    OrgHarness leader(OrgKind::Nocstar, 16, [](OrgConfig &c) {
        c.invalLeaderGroup = 4;
    });
    Addr vaddr = addrOnSlice(9, 16);
    std::vector<CoreId> sharers{0, 1, 2, 3};

    direct.translate(0, vaddr, 0);
    leader.translate(0, vaddr, 0);

    Cycle direct_done = 0, leader_done = 0;
    direct.org->shootdown(0, 1, vaddr, sharers, 10000,
                          [&](Cycle at) { direct_done = at; });
    direct.queue.run();
    leader.org->shootdown(0, 1, vaddr, sharers, 10000,
                          [&](Cycle at) { leader_done = at; });
    leader.queue.run();

    EXPECT_GT(direct_done, 10000u);
    EXPECT_GT(leader_done, 10000u);
    // Direct mode sends 4 slice messages; leader mode sends 4 leader
    // notifications + 1 slice message. Check via fabric counters.
    auto &dfab = dynamic_cast<NocstarOrg &>(*direct.org).fabric();
    auto &lfab = dynamic_cast<NocstarOrg &>(*leader.org).fabric();
    double dmsgs = dfab.messagesSent.value();
    double lmsgs = lfab.messagesSent.value();
    // Leader group of {0..3} has leader 0; sharer 0's upstream
    // message is local (not counted), so: direct 4 vs leader 3+1.
    EXPECT_DOUBLE_EQ(dmsgs - lmsgs, 0.0);
    EXPECT_EQ(direct.org->shootdownL2Invalidations.value(), 1.0);
    EXPECT_EQ(leader.org->shootdownL2Invalidations.value(), 1.0);
}

TEST(NocstarOrg, FlushAllEmptiesSlices)
{
    OrgHarness h(OrgKind::Nocstar);
    for (unsigned i = 0; i < 8; ++i)
        h.preload(0, addrOnSlice(i, 16, 3));
    h.org->flushAll();
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_EQ(h.org->array(i).occupancy(), 0u);
}

TEST(DistributedOrg, RemoteHitPaysMeshRoundTrip)
{
    OrgHarness h(OrgKind::Distributed);
    Addr vaddr = addrOnSlice(1, 16); // one hop from core 0
    h.preload(0, vaddr);
    auto result = h.translate(0, vaddr, 0);
    EXPECT_TRUE(result.l2Hit);
    // initiate 1 + mesh 2 + latch 1 + lookup 9 + mesh 2 = 15.
    EXPECT_EQ(result.completedAt, 15u);
}

TEST(DistributedOrg, IdealSharedHasZeroNetworkLatency)
{
    OrgHarness h(OrgKind::IdealShared);
    Addr vaddr = addrOnSlice(9, 16); // far from core 0
    h.preload(0, vaddr);
    auto result = h.translate(0, vaddr, 0);
    EXPECT_TRUE(result.l2Hit);
    // initiate 1 + latch 1 + lookup 9; no interconnect latency.
    EXPECT_EQ(result.completedAt, 11u);
}

TEST(MonolithicOrg, BankGeometryAndLatency)
{
    OrgHarness h(OrgKind::MonolithicMesh, 16, [](OrgConfig &c) {
        c.banks = 4;
    });
    auto &mono = dynamic_cast<MonolithicOrg &>(*h.org);
    // 16 cores x 1024 entries / 4 banks = 4096 entries per bank.
    EXPECT_EQ(h.org->numHomeArrays(), 4u);
    EXPECT_EQ(h.org->array(0).numEntries(), 4096u);
    EXPECT_EQ(h.org->totalEntries(), 16384u);
    // Banking buys ports, not latency: the access pays the full
    // 16K-entry array, 9 + 1.2*log2(16384/1536) -> 14 cycles.
    EXPECT_EQ(mono.bankLatency(),
              energy::SramModel::accessLatency(16384));
    EXPECT_EQ(mono.bankLatency(), 14u);

    // 32 cores: the full 32K-entry array -> 15 cycles (Table II).
    OrgHarness h32(OrgKind::MonolithicMesh, 32);
    EXPECT_EQ(dynamic_cast<MonolithicOrg &>(*h32.org).bankLatency(), 15u);
    EXPECT_EQ(MonolithicOrg::lookupLatency(32), 15u);
}

TEST(MonolithicOrg, AccessPaysNetworkBothWays)
{
    OrgHarness h(OrgKind::MonolithicMesh);
    auto &mono = dynamic_cast<MonolithicOrg &>(*h.org);
    Addr vaddr = 0x4000;
    h.preload(0, vaddr);
    CoreId far_core = 0; // top-left; structure is bottom-middle
    auto result = h.translate(far_core, vaddr, 0);
    EXPECT_TRUE(result.l2Hit);
    unsigned hops = noc::GridTopology::forCores(16).hops(
        far_core, mono.structureTile());
    Cycle expected = 1 + 2 * hops + 1 + mono.bankLatency() + 2 * hops;
    EXPECT_EQ(result.completedAt, expected);
}

TEST(MonolithicOrg, AccessOverrideReplacesTiming)
{
    OrgHarness h(OrgKind::MonolithicMesh, 16, [](OrgConfig &c) {
        c.monolithicAccessOverride = 25;
    });
    Addr vaddr = 0x4000;
    h.preload(0, vaddr);
    auto result = h.translate(0, vaddr, 0);
    EXPECT_TRUE(result.l2Hit);
    EXPECT_EQ(result.completedAt, 26u); // initiate + 25-cycle access
}

TEST(MonolithicOrg, SmartVariantIsFasterThanMesh)
{
    OrgHarness mesh(OrgKind::MonolithicMesh);
    OrgHarness smart(OrgKind::MonolithicSmart);
    Addr vaddr = 0x4000;
    mesh.preload(0, vaddr);
    smart.preload(0, vaddr);
    auto rm = mesh.translate(0, vaddr, 0);
    auto rs = smart.translate(0, vaddr, 0);
    EXPECT_LT(rs.completedAt, rm.completedAt);
}

TEST(Organizations, FactoryBuildsEveryKind)
{
    for (OrgKind kind :
         {OrgKind::Private, OrgKind::MonolithicMesh,
          OrgKind::MonolithicSmart, OrgKind::Distributed,
          OrgKind::IdealShared, OrgKind::Nocstar,
          OrgKind::NocstarIdeal}) {
        OrgHarness h(kind, 16);
        EXPECT_NE(h.org, nullptr);
        EXPECT_GT(h.org->totalEntries(), 0u);
        EXPECT_STRNE(orgKindName(kind), "?");
    }
}

TEST(Organizations, ConcurrencyTrackingBalances)
{
    OrgHarness h(OrgKind::Nocstar);
    for (unsigned i = 0; i < 6; ++i)
        h.org->translate(i, 1, addrOnSlice(8, 16, i), 0,
                         [](const TranslationResult &) {});
    h.queue.run();
    const sim::LatencyHistogram &chip = h.org->concurrency.value();
    const sim::LatencyHistogram &slice = h.org->sliceConcurrency.value();
    EXPECT_EQ(chip.numSamples(), 6u);
    EXPECT_EQ(slice.numSamples(), 6u);
    // All six target slice 8: the last sampled concurrency must have
    // seen several outstanding accesses, chip-wide and on the slice.
    EXPECT_GT(chip.maxValue(), 1u);
    EXPECT_GT(slice.maxValue(), 1u);
    // A sample counts the access itself, so none is below 1.
    EXPECT_GE(chip.minValue(), 1u);
    EXPECT_GE(slice.minValue(), 1u);
}

// ---------------------------------------------------------------------
// The steps every organization shares, on all seven kinds.
// ---------------------------------------------------------------------

namespace
{

const OrgKind kAllKinds[] = {
    OrgKind::Private, OrgKind::MonolithicMesh, OrgKind::MonolithicSmart,
    OrgKind::Distributed, OrgKind::IdealShared, OrgKind::Nocstar,
    OrgKind::NocstarIdeal,
};

std::string
kindTestName(const ::testing::TestParamInfo<OrgKind> &info)
{
    std::string name = orgKindName(info.param);
    for (char &c : name)
        if (c == '-')
            c = '_';
    return name;
}

std::uint64_t
totalOccupancy(TlbOrganization &org)
{
    std::uint64_t n = 0;
    for (unsigned i = 0; i < org.numHomeArrays(); ++i)
        n += org.array(i).occupancy();
    return n;
}

} // namespace

class EveryOrganization : public ::testing::TestWithParam<OrgKind>
{};

TEST_P(EveryOrganization, PreloadThenTranslateHits)
{
    OrgHarness h(GetParam());
    Addr vaddr = addrOnSlice(5, 16, 2);
    h.preload(3, vaddr);
    auto result = h.translate(3, vaddr, 0);
    EXPECT_TRUE(result.l2Hit);
    EXPECT_FALSE(result.walked);
    EXPECT_EQ(h.org->l2Hits.value(), 1.0);
    EXPECT_EQ(h.org->l2Misses.value(), 0.0);
}

TEST_P(EveryOrganization, TotalEntriesSumsTheArrays)
{
    OrgHarness h(GetParam());
    std::uint64_t sum = 0;
    for (unsigned i = 0; i < h.org->numHomeArrays(); ++i)
        sum += h.org->array(i).numEntries();
    EXPECT_GT(sum, 0u);
    EXPECT_EQ(h.org->totalEntries(), sum);
}

TEST_P(EveryOrganization, FlushAllEmptiesEveryArray)
{
    OrgHarness h(GetParam());
    for (CoreId c = 0; c < 16; ++c)
        h.preload(c, addrOnSlice(c, 16, 3));
    ASSERT_EQ(totalOccupancy(*h.org), 16u);
    h.org->flushAll();
    for (unsigned i = 0; i < h.org->numHomeArrays(); ++i)
        EXPECT_EQ(h.org->array(i).occupancy(), 0u) << "array " << i;
}

TEST_P(EveryOrganization, ShootdownRemovesStaleL2Copy)
{
    OrgHarness h(GetParam());
    Addr vaddr = addrOnSlice(6, 16, 1);
    PageNum vpn = pageNumber(vaddr, PageSize::FourKB);
    h.preload(2, vaddr);
    tlb::SetAssocTlb &home = h.org->array(h.org->homeArrayOf(2, vaddr));
    ASSERT_TRUE(home.present(1, vpn, PageSize::FourKB));

    Cycle completed = 0;
    h.org->shootdown(2, 1, vaddr, {2, 3}, 100,
                     [&](Cycle at) { completed = at; });
    h.queue.run();
    EXPECT_GT(completed, 100u);
    EXPECT_FALSE(home.present(1, vpn, PageSize::FourKB));
    EXPECT_EQ(h.org->shootdowns.value(), 1.0);
    EXPECT_EQ(h.org->shootdownL2Invalidations.value(), 1.0);
    EXPECT_EQ(h.l1Invalidations.size(), 2u);
    EXPECT_FALSE(h.translate(2, vaddr, completed + 10).l2Hit);
}

TEST_P(EveryOrganization, CorruptHitIsDiscardedAndRewalked)
{
    OrgHarness h(GetParam(), 16,
                 [](OrgConfig &c) { c.faults.sliceEccProb = 1.0; });
    Addr vaddr = addrOnSlice(7, 16, 4);
    h.preload(1, vaddr);
    auto result = h.translate(1, vaddr, 0);
    EXPECT_FALSE(result.l2Hit);
    EXPECT_TRUE(result.walked);
    EXPECT_TRUE(result.eccRewalk);
    EXPECT_EQ(h.org->sliceEccRewalks.value(), 1.0);
    EXPECT_EQ(h.org->l2Misses.value(), 1.0);
    EXPECT_EQ(h.org->walksLaunched.value(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, EveryOrganization,
                         ::testing::ValuesIn(kAllKinds), kindTestName);

TEST(Organizations, PrefetchedNeighbourLandsInItsOwnHome)
{
    // V+1 homes on the array after V's, so a neighbour left in the
    // array that missed V would be found only when the prefetch stride
    // is a multiple of the array count.
    for (OrgKind kind : kAllKinds) {
        if (!isShared(kind))
            continue;
        OrgHarness h(kind, 16,
                     [](OrgConfig &c) { c.prefetchDistance = 1; });
        Addr vaddr = addrOnSlice(4, 16, 2);
        Addr next = vaddr + (Addr{1} << pageShift(PageSize::FourKB));
        ASSERT_NE(h.org->homeArrayOf(0, vaddr),
                  h.org->homeArrayOf(9, next))
            << orgKindName(kind);

        auto first = h.translate(0, vaddr, 0);
        ASSERT_TRUE(first.walked) << orgKindName(kind);
        auto second = h.translate(9, next, first.completedAt + 100);
        EXPECT_TRUE(second.l2Hit) << orgKindName(kind);
        EXPECT_EQ(h.org->array(h.org->homeArrayOf(9, next))
                      .prefetchHits.value(),
                  1.0)
            << orgKindName(kind);
    }
}

/**
 * Whole-system goldens through every step the organizations share:
 * storm remaps (shootdowns with leader relay), context-switch flushes,
 * remote walks, and slice and walk ECC faults, on 16-core graph500
 * runs of 2000 accesses per thread. The values were captured while
 * each organization still carried its own copy of those steps, so
 * sharing them in TlbOrganization must leave every value unchanged.
 */
TEST(Organizations, StormFaultRunResultsMatchGoldens)
{
    struct Golden
    {
        OrgKind kind;
        Cycle cycles;
        double meanCycles;
        std::uint64_t l2Hits;
        std::uint64_t l2Misses;
        std::uint64_t walks;
        std::uint64_t shootdowns;
        double avgShootdownLatency;
        std::uint64_t eccRewalks;
    };
    const Golden goldens[] = {
        {OrgKind::Private, 33985u, 22197.875, 2483u, 3018u, 3018u, 61u,
         50.0, 51u},
        {OrgKind::MonolithicMesh, 51118u, 27613.3125, 2354u, 3508u,
         3508u, 85u, 28.035294117647059, 58u},
        {OrgKind::MonolithicSmart, 44003u, 24960.9375, 2585u, 3127u,
         3127u, 67u, 21.597014925373134, 58u},
        {OrgKind::Distributed, 60543u, 35022.4375, 2260u, 3789u, 3789u,
         120u, 10.0, 58u},
        {OrgKind::IdealShared, 47157u, 28569.5, 2709u, 2953u, 2953u, 68u,
         3.0, 52u},
        {OrgKind::Nocstar, 52831u, 30808.0, 2559u, 3242u, 3242u, 86u,
         55.383720930232556, 54u},
        {OrgKind::NocstarIdeal, 52724u, 31172.6875, 2543u, 3315u, 3315u,
         86u, 10.848837209302326, 54u},
    };
    for (const Golden &g : goldens) {
        cpu::SystemConfig config;
        config.org.kind = g.kind;
        config.org.numCores = 16;
        config.org.banks = 4;
        // Remote walks and leader relays only where the organization
        // has them; validate() refuses both elsewhere.
        if (g.kind != OrgKind::MonolithicMesh &&
            g.kind != OrgKind::MonolithicSmart)
            config.org.ptwPlacement = PtwPlacement::Remote;
        if (g.kind != OrgKind::Private &&
            g.kind != OrgKind::MonolithicMesh &&
            g.kind != OrgKind::MonolithicSmart)
            config.org.invalLeaderGroup = 4;
        config.org.faults.sliceEccProb = 0.01;
        config.org.faults.walkEccProb = 0.01;
        cpu::AppConfig app;
        app.spec = workload::paperWorkloads()[0];
        app.threads = 16;
        config.apps.push_back(app);
        config.superpages = true;
        config.seed = 12345;
        config.contextSwitchInterval = 8000;
        config.stormRemapInterval = 2000;

        cpu::System system(config);
        cpu::RunResult r = system.run(2000);
        const char *name = orgKindName(g.kind);
        // Both storm drivers fired within the run.
        EXPECT_GT(r.cycles, 2 * config.contextSwitchInterval) << name;
        EXPECT_EQ(r.cycles, g.cycles) << name;
        EXPECT_DOUBLE_EQ(r.meanCycles, g.meanCycles) << name;
        EXPECT_EQ(r.l2Hits, g.l2Hits) << name;
        EXPECT_EQ(r.l2Misses, g.l2Misses) << name;
        EXPECT_EQ(r.walks, g.walks) << name;
        EXPECT_EQ(r.shootdowns, g.shootdowns) << name;
        EXPECT_DOUBLE_EQ(r.avgShootdownLatency, g.avgShootdownLatency)
            << name;
        EXPECT_EQ(r.eccRewalks, g.eccRewalks) << name;
    }
}
