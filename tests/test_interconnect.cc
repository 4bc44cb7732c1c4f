/**
 * @file
 * Tests of the Interconnect seam: the flat fabric behind the interface
 * must be indistinguishable from the pre-seam implementation (golden
 * RunResult identity across every organization), and the hierarchical
 * crossbar-of-clusters fabric must degenerate correctly at both ends
 * of its cluster-size range (whole-chip cluster = pure crossbar,
 * 1x1 clusters = the flat mesh), stay shard-count invariant, and
 * route around dead inter-cluster links.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "core/hier_fabric.hh"
#include "core/interconnect.hh"
#include "cpu/system.hh"
#include "sim/parallel.hh"
#include "sim/random.hh"
#include "tests/move_counter.hh"

using namespace nocstar;
using namespace nocstar::core;
using nocstar::test::MoveCounter;
using nocstar::test::MoveLog;

namespace
{

struct InterconnectHarness
{
    EventQueue queue;
    stats::StatGroup root{"root"};
    noc::GridTopology topo;
    std::unique_ptr<Interconnect> fabricPtr;
    Interconnect &fabric;

    explicit InterconnectHarness(unsigned cores = 16,
                                 FabricConfig cfg = {})
        : topo(noc::GridTopology::forCores(cores)),
          fabricPtr(makeInterconnect("fabric", queue, topo, cfg, &root)),
          fabric(*fabricPtr)
    {}

    HierFabric &
    hier()
    {
        return dynamic_cast<HierFabric &>(fabric);
    }
};

FabricConfig
hierConfig(unsigned cw, unsigned ch)
{
    FabricConfig cfg;
    cfg.kind = FabricKind::Hierarchical;
    cfg.clusterWidth = cw;
    cfg.clusterHeight = ch;
    return cfg;
}

/** NOCSTAR system config mirroring bench::makeConfig. */
cpu::SystemConfig
paperConfig(core::OrgKind kind, unsigned cores)
{
    cpu::SystemConfig config;
    config.org.kind = kind;
    config.org.numCores = cores;
    config.org.banks = cores >= 64 ? 8 : 4;
    cpu::AppConfig app;
    app.spec = workload::paperWorkloads()[0];
    app.threads = cores;
    config.apps.push_back(std::move(app));
    config.superpages = true;
    config.seed = 12345;
    return config;
}

} // namespace

// ---------------------------------------------------------------------
// Flat fabric behind the seam: golden identity.
// ---------------------------------------------------------------------

/**
 * The seam refactor must not perturb a single cycle: these RunResult
 * values were captured from the pre-Interconnect tree (seed commit)
 * with makeConfig(kind, 16, paperWorkloads()[0]) and run(2000).
 */
TEST(InterconnectSeam, FlatRunResultsMatchPreSeamGoldens)
{
    struct Golden
    {
        core::OrgKind kind;
        std::uint64_t cycles;
        double meanCycles;
        std::uint64_t l2Hits;
        std::uint64_t l2Misses;
        std::uint64_t walks;
    };
    const Golden goldens[] = {
        {core::OrgKind::Private, 19104u, 14951.875, 3533u, 597u, 597u},
        {core::OrgKind::MonolithicMesh, 26387u, 15524.8125, 4016u, 114u,
         114u},
        {core::OrgKind::MonolithicSmart, 22043u, 14212.375, 4017u, 113u,
         113u},
        {core::OrgKind::Distributed, 21507u, 13971.6875, 4001u, 129u,
         129u},
        {core::OrgKind::IdealShared, 14960u, 11330.5625, 4001u, 129u,
         129u},
        {core::OrgKind::Nocstar, 16363u, 12241.1875, 3976u, 154u, 154u},
        {core::OrgKind::NocstarIdeal, 16371u, 12231.6875, 3976u, 154u,
         154u},
    };
    for (const Golden &g : goldens) {
        cpu::System system(paperConfig(g.kind, 16));
        cpu::RunResult r = system.run(2000);
        EXPECT_EQ(r.cycles, g.cycles) << orgKindName(g.kind);
        EXPECT_DOUBLE_EQ(r.meanCycles, g.meanCycles)
            << orgKindName(g.kind);
        EXPECT_EQ(r.l2Hits, g.l2Hits) << orgKindName(g.kind);
        EXPECT_EQ(r.l2Misses, g.l2Misses) << orgKindName(g.kind);
        EXPECT_EQ(r.walks, g.walks) << orgKindName(g.kind);
    }
}

TEST(InterconnectSeam, OnDemandPathsMatchTopologyPastTableCap)
{
    // Past kPathTableMaxTiles the flat fabric stops precomputing the
    // dense pair table and walks GridTopology on demand; the paths it
    // serves must stay identical.
    InterconnectHarness h(1024);
    Random rng(7);
    for (unsigned i = 0; i < 200; ++i) {
        CoreId src = static_cast<CoreId>(rng.below(1024));
        CoreId dst = static_cast<CoreId>(rng.below(1024));
        auto expected = h.topo.xyPath(src, dst);
        std::vector<std::uint32_t> got;
        h.fabric.pathLinksInto(src, dst, got);
        ASSERT_EQ(got.size(), expected.size()) << src << " -> " << dst;
        for (std::size_t k = 0; k < expected.size(); ++k)
            EXPECT_EQ(got[k], expected[k].flatten())
                << src << " -> " << dst << " link " << k;
        EXPECT_EQ(h.fabric.pathHops(src, dst), h.topo.hops(src, dst));
    }
    // And messages still flow through the on-demand path machinery.
    Cycle delivered = invalidCycle;
    h.fabric.send(0, 1023, 10, [&](Cycle at) { delivered = at; });
    h.queue.run();
    EXPECT_NE(delivered, invalidCycle);
}

// ---------------------------------------------------------------------
// Continuations: built once inside a pooled message, run in place.
// ---------------------------------------------------------------------

namespace
{

/** Plan cutting every output link of @p tile from cycle 0 on. */
sim::FaultPlan
isolateTile(CoreId tile)
{
    sim::FaultPlan plan;
    for (auto dir : {noc::Direction::East, noc::Direction::West,
                     noc::Direction::North, noc::Direction::South})
        plan.linkFaults.push_back({noc::LinkId{tile, dir}.flatten(), 0, 0});
    return plan;
}

/** The callable ran once, moved at most once and was destroyed once. */
void
expectDeliveredOnce(const MoveLog &log)
{
    EXPECT_EQ(log.calls, 1);
    EXPECT_LE(log.moves, 1);
    EXPECT_EQ(log.destroyed, 1);
    EXPECT_EQ(log.live, 0);
}

} // namespace

TEST(InterconnectContinuation, OneWayMovesAtMostOnce)
{
    InterconnectHarness h(16);
    MoveLog log;
    h.fabric.send(0, 15, 10, MoveCounter{&log});
    EXPECT_LE(log.moves, 1);
    EXPECT_EQ(log.calls, 0);
    h.queue.run();
    expectDeliveredOnce(log);
}

TEST(InterconnectContinuation, RoundTripMovesAtMostOnce)
{
    InterconnectHarness h(16);
    MoveLog log;
    h.fabric.sendRoundTrip(0, 5, 10, 8, MoveCounter{&log});
    h.queue.run();
    expectDeliveredOnce(log);
}

TEST(InterconnectContinuation, LocalDeliversInlineWithoutMoving)
{
    InterconnectHarness h(16);
    MoveLog log;
    h.fabric.send(3, 3, 17, MoveCounter{&log});
    EXPECT_EQ(log.calls, 1); // before the queue ever runs
    EXPECT_EQ(log.moves, 0);
    EXPECT_EQ(log.destroyed, 1);
    EXPECT_EQ(log.live, 0);
    EXPECT_EQ(h.fabric.allocatedMessages(), 0u);
}

TEST(InterconnectContinuation, DegradedMeshPathMovesAtMostOnce)
{
    sim::FaultPlan plan = isolateTile(9);
    FabricConfig cfg;
    cfg.faults = &plan;
    InterconnectHarness h(16, cfg);
    MoveLog log;
    bool degraded = false;
    h.fabric.send(9, 10, 20,
                  [counter = MoveCounter{&log}, &h,
                   &degraded](Cycle) mutable {
                      counter();
                      degraded = h.fabric.deliveredDegraded();
                  });
    h.queue.run();
    expectDeliveredOnce(log);
    EXPECT_TRUE(degraded);
    EXPECT_FALSE(h.fabric.deliveredDegraded());
    EXPECT_DOUBLE_EQ(h.fabric.degradedMessages.value(), 1.0);
}

TEST(InterconnectContinuation, MessagePoolStopsGrowing)
{
    // A closed loop keeping one message in flight per source reuses
    // its pooled messages: the pool holds the in-flight peak plus the
    // message being delivered, however long the loop runs.
    InterconnectHarness h(16);
    std::uint64_t delivered = 0;
    struct Loop
    {
        InterconnectHarness *h;
        std::uint64_t *delivered;
        CoreId src;

        void
        operator()(Cycle at)
        {
            if (++*delivered >= 4000)
                return;
            h->fabric.send(src, static_cast<CoreId>((src + 5) % 16), at,
                           Loop{*this});
        }
    };
    for (CoreId src = 0; src < 4; ++src)
        h.fabric.send(src, static_cast<CoreId>(src + 8), 0,
                      Loop{&h, &delivered, src});
    h.queue.run();
    EXPECT_GE(delivered, 4000u);
    EXPECT_LE(h.fabric.allocatedMessages(), 5u);
}

// ---------------------------------------------------------------------
// Lifetimes: teardown mid-run and throwing continuations.
// ---------------------------------------------------------------------

TEST(InterconnectLifetime, TeardownWithQueuedAndInFlightMessages)
{
    // Destroy a fabric, then its queue, after run(limit) stopped with
    // two messages in flight (granted, scheduled for their arrival)
    // and five still queued behind the first: every continuation is
    // destroyed exactly once without running, and no scheduled event
    // outlives its owner.
    MoveLog log;
    MoveLog lambda_log;
    {
        auto queue = std::make_unique<EventQueue>();
        FabricConfig cfg;
        cfg.hpcMax = 1; // 0 -> 15 takes 6 traversal cycles
        std::unique_ptr<Interconnect> fabric = makeInterconnect(
            "fabric", *queue, noc::GridTopology::forCores(16), cfg);
        for (int i = 0; i < 6; ++i)
            fabric->send(0, 15, 5, MoveCounter{&log});
        fabric->sendRoundTrip(12, 3, 5, 4, MoveCounter{&log});
        queue->scheduleLambda(1000, MoveCounter{&lambda_log});
        queue->run(8);
        EXPECT_EQ(log.calls, 0);
        EXPECT_GE(queue->size(), 3u); // two arrivals + the pending lambda
        fabric.reset();
        queue.reset();
    }
    EXPECT_EQ(log.calls, 0);
    EXPECT_EQ(log.destroyed, 7);
    EXPECT_EQ(log.live, 0);
    EXPECT_EQ(lambda_log.calls, 0);
    EXPECT_EQ(lambda_log.destroyed, 1);
    EXPECT_EQ(lambda_log.live, 0);
}

TEST(InterconnectLifetime, ThrowingContinuationIsRecycled)
{
    // panic() inside a delivery propagates out of run(); the message
    // still returns to the pool with its continuation destroyed, the
    // degraded flag drops, and the fabric keeps working.
    sim::FaultPlan plan = isolateTile(9);
    FabricConfig cfg;
    cfg.faults = &plan;
    InterconnectHarness h(16, cfg);
    MoveLog log;
    h.fabric.send(9, 10, 20,
                  [counter = MoveCounter{&log}](Cycle) mutable {
                      counter();
                      panic("delivery failed");
                  });
    EXPECT_THROW(h.queue.run(), PanicError);
    EXPECT_EQ(log.calls, 1);
    EXPECT_EQ(log.destroyed, 1);
    EXPECT_EQ(log.live, 0);
    EXPECT_FALSE(h.fabric.deliveredDegraded());

    Cycle delivered = invalidCycle;
    h.fabric.send(0, 3, h.queue.curCycle(),
                  [&](Cycle at) { delivered = at; });
    h.queue.run();
    EXPECT_NE(delivered, invalidCycle);
    EXPECT_EQ(h.fabric.allocatedMessages(), 1u);
}

TEST(InterconnectSeam, GrantWaitHistogramsAreOptIn)
{
    InterconnectHarness off(16);
    EXPECT_EQ(off.fabric.grantWaitOf(0), nullptr);

    FabricConfig cfg;
    cfg.recordGrantWait = true;
    InterconnectHarness on(16, cfg);
    // Two requests collide on the East link out of tile 1: the winner
    // waits 0 cycles, the loser 1.
    on.fabric.send(0, 3, 5, [](Cycle) {});
    on.fabric.send(1, 2, 5, [](Cycle) {});
    on.queue.run();
    const sim::LatencyHistogram *w0 = on.fabric.grantWaitOf(0);
    const sim::LatencyHistogram *w1 = on.fabric.grantWaitOf(1);
    ASSERT_NE(w0, nullptr);
    ASSERT_NE(w1, nullptr);
    EXPECT_EQ(w0->numSamples(), 1u);
    EXPECT_EQ(w0->maxValue(), 0u);
    EXPECT_EQ(w1->numSamples(), 1u);
    EXPECT_EQ(w1->maxValue(), 1u);
}

// ---------------------------------------------------------------------
// Hierarchical fabric: degeneracies.
// ---------------------------------------------------------------------

TEST(HierFabric, WholeChipClusterDegeneratesToCrossbar)
{
    // One 4x4 cluster covering the whole 16-tile chip: every remote
    // pair is one crossbar hop regardless of Manhattan distance, even
    // with HPCmax 1 (which would make the far corner 6 mesh cycles).
    FabricConfig cfg = hierConfig(4, 4);
    cfg.hpcMax = 1;
    InterconnectHarness h(16, cfg);
    EXPECT_EQ(h.hier().numClusters(), 1u);
    for (CoreId src = 0; src < 16; ++src)
        for (CoreId dst = 0; dst < 16; ++dst) {
            EXPECT_EQ(h.fabric.traversal(src, dst),
                      src == dst ? 0u : 1u);
            EXPECT_EQ(h.fabric.pathHops(src, dst),
                      src == dst ? 0u : 1u);
        }
    Cycle delivered = invalidCycle;
    h.fabric.send(0, 15, 10, [&](Cycle at) { delivered = at; });
    h.queue.run();
    EXPECT_EQ(delivered, 11u); // setup at 10, one crossbar cycle
    EXPECT_EQ(h.hier().clusterLocalMessages.value(), 1.0);
    EXPECT_EQ(h.hier().interClusterMessages.value(), 0.0);
}

TEST(HierFabric, CrossbarOutputPortIsTheContendedResource)
{
    InterconnectHarness h(16, hierConfig(4, 4));
    std::map<int, Cycle> log;
    // Two same-cycle messages into tile 0: one crossbar output port,
    // so the lower-priority source retries.
    h.fabric.send(1, 0, 5, [&](Cycle at) { log[1] = at; });
    h.fabric.send(2, 0, 5, [&](Cycle at) { log[2] = at; });
    h.queue.run();
    EXPECT_EQ(log[1], 6u);
    EXPECT_EQ(log[2], 7u);
    EXPECT_EQ(h.fabric.setupFailures.value(), 1.0);
    EXPECT_EQ(h.hier().xbarDenies.value(), 1.0);
    // Disjoint destinations do not contend.
    std::vector<Cycle> arrivals;
    h.fabric.send(4, 8, 100, [&](Cycle at) { arrivals.push_back(at); });
    h.fabric.send(5, 9, 100, [&](Cycle at) { arrivals.push_back(at); });
    h.queue.run();
    EXPECT_EQ(arrivals, (std::vector<Cycle>{101, 101}));
}

TEST(HierFabric, UnitClustersMatchFlatCycleForCycle)
{
    // clusterSize == 1 collapses the hierarchy onto the plain mesh:
    // same link ids, same grant order, same timing, same stats.
    InterconnectHarness flat(16);
    InterconnectHarness unit(16, hierConfig(1, 1));
    EXPECT_EQ(unit.hier().numClusters(), 16u);

    auto drive = [](InterconnectHarness &h) {
        std::vector<Cycle> arrivals;
        Random rng(99);
        for (Cycle t = 0; t < 2000; ++t) {
            for (CoreId src = 0; src < 16; ++src) {
                if (rng.uniform() >= 0.15)
                    continue;
                CoreId dst = static_cast<CoreId>(rng.below(16));
                if (dst == src)
                    continue;
                h.fabric.send(src, dst, t, [&arrivals](Cycle at) {
                    arrivals.push_back(at);
                });
            }
        }
        h.queue.run();
        return arrivals;
    };
    std::vector<Cycle> flatArrivals = drive(flat);
    std::vector<Cycle> unitArrivals = drive(unit);
    EXPECT_EQ(flatArrivals, unitArrivals);
    EXPECT_DOUBLE_EQ(flat.fabric.messagesSent.value(),
                     unit.fabric.messagesSent.value());
    EXPECT_DOUBLE_EQ(flat.fabric.setupAttempts.value(),
                     unit.fabric.setupAttempts.value());
    EXPECT_DOUBLE_EQ(flat.fabric.setupFailures.value(),
                     unit.fabric.setupFailures.value());
    EXPECT_DOUBLE_EQ(flat.fabric.totalNetworkLatency.value(),
                     unit.fabric.totalNetworkLatency.value());
    ASSERT_EQ(flat.fabric.linkGrants.size(),
              unit.fabric.linkGrants.size());
    for (std::uint32_t l = 0; l < flat.fabric.linkGrants.size(); ++l) {
        EXPECT_DOUBLE_EQ(flat.fabric.linkGrants[l],
                         unit.fabric.linkGrants[l])
            << "link " << l;
        EXPECT_DOUBLE_EQ(flat.fabric.linkHoldCycles[l],
                         unit.fabric.linkHoldCycles[l])
            << "link " << l;
    }
    EXPECT_EQ(unit.hier().clusterLocalMessages.value(), 0.0);
}

TEST(HierFabric, InterClusterTraversalClimbsGateways)
{
    // 8x8 mesh in 4x4 clusters -> 2x2 cluster grid. Gateways are the
    // top-left tiles of each cluster: 0, 4, 32, 36.
    InterconnectHarness h(64, hierConfig(4, 4));
    HierFabric &hf = h.hier();
    EXPECT_EQ(hf.numClusters(), 4u);
    EXPECT_EQ(hf.gatewayOf(0), 0u);
    EXPECT_EQ(hf.gatewayOf(1), 4u);
    EXPECT_EQ(hf.gatewayOf(2), 32u);
    EXPECT_EQ(hf.gatewayOf(3), 36u);
    EXPECT_EQ(hf.clusterOf(9), 0u);  // (1,1)
    EXPECT_EQ(hf.clusterOf(13), 1u); // (5,1)

    // Same cluster: one crossbar hop.
    EXPECT_EQ(h.fabric.traversal(9, 0), 1u);
    // Non-gateway -> non-gateway across adjacent clusters: climb (1)
    // + 1 cluster-mesh hop (HPCmax covers it) + descend (1).
    EXPECT_EQ(h.fabric.pathHops(9, 13), 3u);
    EXPECT_EQ(h.fabric.traversal(9, 13), 3u);
    // Gateway -> gateway skips both crossbar legs.
    EXPECT_EQ(h.fabric.traversal(0, 4), 1u);
    // The mesh segment only occupies the inter-cluster link.
    std::vector<std::uint32_t> links;
    h.fabric.pathLinksInto(9, 13, links);
    ASSERT_EQ(links.size(), 1u);
    EXPECT_EQ(links[0],
              0u * 4 + static_cast<std::uint32_t>(
                           noc::Direction::East)); // gateway 0, East
}

// ---------------------------------------------------------------------
// Hierarchical fabric: faults.
// ---------------------------------------------------------------------

TEST(HierFabric, RoutesAroundDeadInterClusterLink)
{
    // Kill the East link out of gateway 0 (link id 0) permanently:
    // cluster 0 -> cluster 1 traffic must re-route over clusters
    // 2 and 3 without ever being degraded onto the fallback mesh.
    sim::FaultPlan plan;
    plan.linkFaults.push_back({0u, 0, 0});
    FabricConfig cfg = hierConfig(2, 2); // 4x4 mesh -> 2x2 clusters
    cfg.faults = &plan;
    InterconnectHarness h(16, cfg);

    Cycle delivered = invalidCycle;
    h.fabric.send(0, 2, 10, [&](Cycle at) { delivered = at; });
    h.queue.run();
    EXPECT_NE(delivered, invalidCycle);
    EXPECT_EQ(h.fabric.degradedMessages.value(), 0.0);
    EXPECT_EQ(h.fabric.linkGrants[0], 0.0); // dead link never granted
    // The detour holds three cluster-mesh links.
    std::vector<std::uint32_t> links;
    h.fabric.pathLinksInto(0, 2, links);
    EXPECT_EQ(links.size(), 3u);
    for (std::uint32_t l : links)
        EXPECT_NE(l, 0u);
}

// ---------------------------------------------------------------------
// Hierarchical fabric: whole-system invariances.
// ---------------------------------------------------------------------

TEST(HierFabric, SystemResultsAreShardCountInvariant)
{
    auto runWith = [](unsigned shards) {
        cpu::SystemConfig config = paperConfig(core::OrgKind::Nocstar,
                                               64);
        config.org.fabricKind = core::FabricKind::Hierarchical;
        config.shards = shards;
        cpu::System system(config);
        return system.run(1000);
    };
    cpu::RunResult one = runWith(1);
    cpu::RunResult four = runWith(4);
    cpu::RunResult autoN = runWith(sim::autoShards(64));
    for (const cpu::RunResult *r : {&four, &autoN}) {
        EXPECT_EQ(r->cycles, one.cycles);
        EXPECT_DOUBLE_EQ(r->meanCycles, one.meanCycles);
        EXPECT_EQ(r->l2Hits, one.l2Hits);
        EXPECT_EQ(r->l2Misses, one.l2Misses);
        EXPECT_EQ(r->walks, one.walks);
    }
}

TEST(HierFabric, ClusterLocalSliceMappingRunsAndStaysInCluster)
{
    cpu::SystemConfig config = paperConfig(core::OrgKind::Nocstar, 64);
    config.org.fabricKind = core::FabricKind::Hierarchical;
    config.org.sliceMapping = core::SliceMapping::ClusterLocal;
    EXPECT_TRUE(config.validate().empty());
    cpu::System system(config);
    cpu::RunResult r = system.run(500);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_EQ(r.l2Hits + r.l2Misses, r.l2Accesses);
}

TEST(HierFabric, GrantWaitPercentilesReachRunResult)
{
    cpu::SystemConfig config = paperConfig(core::OrgKind::Nocstar, 16);
    config.org.recordGrantWait = true;
    cpu::System system(config);
    cpu::RunResult r = system.run(1000);
    EXPECT_GT(r.fabricSetupAttempts, 0u);
    EXPECT_GE(r.fabricGrantWaitP99Max, 0.0);
    EXPECT_GE(r.fabricGrantWaitP99Max, r.fabricGrantWaitP99Mean);
}
