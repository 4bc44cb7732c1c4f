/**
 * @file
 * Tests of the NOCSTAR interconnect as organizations and the system
 * use it: golden RunResult identity across every organization,
 * on-demand paths past the path-table cap, continuations built and
 * run in place inside pooled messages, teardown with messages in
 * flight, and the opt-in grant-wait histograms.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/interconnect.hh"
#include "cpu/system.hh"
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
    Interconnect fabric;

    explicit InterconnectHarness(unsigned cores = 16,
                                 OrgConfig cfg = {})
        : topo(noc::GridTopology::forCores(cores)),
          fabric("fabric", queue, topo, cfg, &root)
    {}
};

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
// Whole-system golden identity.
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
    OrgConfig cfg;
    cfg.faults = plan;
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
        OrgConfig cfg;
        cfg.hpcMax = 1; // 0 -> 15 takes 6 traversal cycles
        auto fabric = std::make_unique<Interconnect>(
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
    OrgConfig cfg;
    cfg.faults = plan;
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

    OrgConfig cfg;
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

TEST(InterconnectSeam, GrantWaitPercentilesReachRunResult)
{
    cpu::SystemConfig config = paperConfig(core::OrgKind::Nocstar, 16);
    config.org.recordGrantWait = true;
    cpu::System system(config);
    cpu::RunResult r = system.run(1000);
    EXPECT_GT(r.fabricSetupAttempts, 0u);
    EXPECT_GE(r.fabricGrantWaitP99Max, 0.0);
    EXPECT_GE(r.fabricGrantWaitP99Max, r.fabricGrantWaitP99Mean);
}
