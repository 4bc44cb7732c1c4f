/**
 * @file
 * Cycle-level tests of the NOCSTAR circuit-switched fabric: setup /
 * traversal timing, all-or-nothing link acquisition, priority
 * rotation, round-trip holds, HPCmax pipelining and starvation
 * freedom.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/interconnect.hh"
#include "sim/random.hh"

using namespace nocstar;
using namespace nocstar::core;

namespace
{

struct FabricHarness
{
    EventQueue queue;
    stats::StatGroup root{"root"};
    noc::GridTopology topo;
    Interconnect fabric;

    explicit FabricHarness(unsigned cores = 16, OrgConfig cfg = {})
        : topo(noc::GridTopology::forCores(cores)),
          fabric("fabric", queue, topo, cfg, &root)
    {}
};

} // namespace

TEST(Fabric, LocalDeliveryIsImmediate)
{
    FabricHarness h;
    Cycle delivered = invalidCycle;
    h.fabric.send(3, 3, 17, [&](Cycle at) { delivered = at; });
    EXPECT_EQ(delivered, 17u); // synchronous, no network
}

TEST(Fabric, UncontendedRemoteTakesSetupPlusTraversal)
{
    FabricHarness h;
    Cycle delivered = invalidCycle;
    // 4x4 grid: 0 -> 15 is 6 hops, HPCmax 16 -> 1-cycle traversal.
    h.fabric.send(0, 15, 10, [&](Cycle at) { delivered = at; });
    h.queue.run();
    EXPECT_EQ(delivered, 11u); // setup in 10, latched end of 11
    EXPECT_DOUBLE_EQ(h.fabric.averageLatency(), 2.0);
    EXPECT_DOUBLE_EQ(h.fabric.noContentionFraction(), 1.0);
}

TEST(Fabric, HpcMaxPipelinesLongPaths)
{
    OrgConfig cfg;
    cfg.hpcMax = 4;
    FabricHarness h(64, cfg);
    Cycle delivered = invalidCycle;
    // 8x8 grid: 0 -> 63 is 14 hops -> ceil(14/4) = 4 cycles.
    h.fabric.send(0, 63, 0, [&](Cycle at) { delivered = at; });
    h.queue.run();
    EXPECT_EQ(delivered, 4u);
}

TEST(Fabric, OverlappingPathsConflictAndRetry)
{
    FabricHarness h;
    std::map<int, Cycle> log;
    // Both requests need the East link out of tile 1 in cycle 5; tile
    // 0 holds priority in epoch 0, so tile 1's request fails and
    // retries.
    h.fabric.send(0, 3, 5, [&](Cycle at) { log[0] = at; });
    h.fabric.send(1, 2, 5, [&](Cycle at) { log[1] = at; });
    h.queue.run();
    ASSERT_EQ(log.size(), 2u);
    // Winner arrives at 6; loser retries at 6, arrives at 7.
    EXPECT_EQ(log[0], 6u);
    EXPECT_EQ(log[1], 7u);
    EXPECT_EQ(h.fabric.setupFailures.value(), 1.0);
    EXPECT_DOUBLE_EQ(h.fabric.noContentionFraction(), 0.5);
}

TEST(Fabric, SameSourceRequestsQueueOnTheSetupPort)
{
    FabricHarness h;
    std::vector<Cycle> arrivals;
    // One setup port per tile: back-to-back messages from tile 0
    // arbitrate oldest-first, one per cycle, without "failing".
    h.fabric.send(0, 3, 5, [&](Cycle at) { arrivals.push_back(at); });
    h.fabric.send(0, 2, 5, [&](Cycle at) { arrivals.push_back(at); });
    h.queue.run();
    EXPECT_EQ(arrivals, (std::vector<Cycle>{6, 7}));
    EXPECT_EQ(h.fabric.setupFailures.value(), 0.0);
    EXPECT_DOUBLE_EQ(h.fabric.noContentionFraction(), 0.5);
}

TEST(Fabric, DisjointPathsGrantedSameCycle)
{
    FabricHarness h;
    std::vector<Cycle> arrivals;
    h.fabric.send(0, 1, 5, [&](Cycle at) { arrivals.push_back(at); });
    h.fabric.send(15, 14, 5, [&](Cycle at) { arrivals.push_back(at); });
    h.queue.run();
    EXPECT_EQ(arrivals, (std::vector<Cycle>{6, 6}));
    EXPECT_EQ(h.fabric.setupFailures.value(), 0.0);
}

TEST(Fabric, AllOrNothingAcquisition)
{
    FabricHarness h;
    // Request A: 0 -> 2 (east, east). Request B: 1 -> 3 (east, east).
    // They share the east link out of tile 1, so they cannot both be
    // granted in cycle 5 even though B's first link is free.
    std::map<int, Cycle> arrivals;
    h.fabric.send(0, 2, 5, [&](Cycle at) { arrivals[0] = at; });
    h.fabric.send(1, 3, 5, [&](Cycle at) { arrivals[1] = at; });
    h.queue.run();
    EXPECT_EQ(arrivals[0], 6u);
    EXPECT_EQ(arrivals[1], 7u);
}

TEST(Fabric, PriorityRotationChangesWinner)
{
    OrgConfig cfg;
    cfg.priorityEpoch = 1000;
    FabricHarness h(16, cfg);

    // In epoch 0 (rotation base 0), core 0 outranks core 1.
    std::map<int, Cycle> first;
    h.fabric.send(1, 3, 5, [&](Cycle at) { first[1] = at; });
    h.fabric.send(0, 2, 5, [&](Cycle at) { first[0] = at; });
    h.queue.run();
    EXPECT_LT(first[0], first[1]);

    // In epoch 1 (rotation base 1), core 1 outranks core 0.
    std::map<int, Cycle> second;
    h.fabric.send(1, 3, 1005, [&](Cycle at) { second[1] = at; });
    h.fabric.send(0, 2, 1005, [&](Cycle at) { second[0] = at; });
    h.queue.run();
    EXPECT_LT(second[1], second[0]);
}

TEST(Fabric, IdealModeNeverFails)
{
    OrgConfig cfg;
    cfg.kind = OrgKind::NocstarIdeal;
    FabricHarness h(16, cfg);
    std::vector<Cycle> arrivals;
    // Eight different sources converge on tile 0's links; the ideal
    // fabric grants all of them in the same cycle anyway.
    for (CoreId src = 1; src <= 8; ++src)
        h.fabric.send(src, 0, 5,
                      [&](Cycle at) { arrivals.push_back(at); });
    h.queue.run();
    ASSERT_EQ(arrivals.size(), 8u);
    for (Cycle at : arrivals)
        EXPECT_EQ(at, 6u);
    EXPECT_EQ(h.fabric.setupFailures.value(), 0.0);
}

TEST(Fabric, RoundTripHoldsLinksThroughOccupancy)
{
    FabricHarness h;
    Cycle arrival = invalidCycle;
    h.fabric.sendRoundTrip(0, 1, 5, 10, [&](Cycle at) { arrival = at; });
    // A one-way request over the same link cannot be granted until the
    // round trip completes (hold = 1 + 10 + 1 = 12 cycles from 5).
    Cycle second = invalidCycle;
    h.fabric.send(0, 1, 6, [&](Cycle at) { second = at; });
    h.queue.run();
    EXPECT_EQ(arrival, 6u);
    EXPECT_GE(second, 18u); // granted at >= 17, arrives >= 18
}

TEST(Fabric, RoundTripReservesReversePath)
{
    FabricHarness h;
    Cycle rt = invalidCycle, rev = invalidCycle;
    h.fabric.sendRoundTrip(0, 1, 5, 10, [&](Cycle at) { rt = at; });
    h.fabric.send(1, 0, 6, [&](Cycle at) { rev = at; });
    h.queue.run();
    EXPECT_EQ(rt, 6u);
    EXPECT_GE(rev, 18u);
}

TEST(Fabric, StarvationFreedomUnderSaturation)
{
    FabricHarness h;
    // Every core bombards core 0's column simultaneously; all
    // messages must eventually be delivered.
    unsigned delivered = 0;
    for (CoreId src = 1; src < 16; ++src) {
        for (int k = 0; k < 4; ++k) {
            h.fabric.send(src, 0, 5,
                          [&](Cycle) { ++delivered; });
        }
    }
    h.queue.run();
    EXPECT_EQ(delivered, 60u);
    EXPECT_GT(h.fabric.setupFailures.value(), 0.0);
}

TEST(Fabric, RetryDistributionRecorded)
{
    FabricHarness h;
    for (int i = 0; i < 4; ++i)
        h.fabric.send(0, 3, 5, [](Cycle) {});
    h.queue.run();
    const sim::LatencyHistogram &retries = h.fabric.retries.value();
    EXPECT_EQ(retries.numSamples(), 4u);
    // Port queueing is not a retry: each request is granted on its
    // first arbitration attempt, one per cycle.
    EXPECT_EQ(retries.maxValue(), 0u);
    EXPECT_EQ(retries.buckets()[0], 4u);
    // But only the first message saw zero contention delay.
    EXPECT_DOUBLE_EQ(h.fabric.noContentionFraction(), 0.25);
    // Average latency: (2 + 3 + 4 + 5) / 4.
    EXPECT_DOUBLE_EQ(h.fabric.averageLatency(), 3.5);

    // Sources 0 and 1 both need link 1E in cycle 5: 0 wins under the
    // unrotated priority, and 1 retries once.
    FabricHarness c;
    c.fabric.send(0, 3, 5, [](Cycle) {});
    c.fabric.send(1, 3, 5, [](Cycle) {});
    c.queue.run();
    const sim::LatencyHistogram &contended = c.fabric.retries.value();
    EXPECT_EQ(contended.numSamples(), 2u);
    EXPECT_EQ(contended.buckets()[0], 1u);
    EXPECT_EQ(contended.buckets()[1], 1u);
}

TEST(Fabric, PrecomputedPathTableMatchesTopology)
{
    // The arbitration hot path reads paths from a table built once at
    // construction; it must agree link-for-link (and in hop count)
    // with GridTopology::xyPath for every (src, dst) pair.
    for (unsigned cores : {16u, 32u, 64u}) {
        FabricHarness h(cores);
        const noc::GridTopology &topo = h.fabric.topology();
        for (CoreId src = 0; src < topo.numTiles(); ++src) {
            for (CoreId dst = 0; dst < topo.numTiles(); ++dst) {
                auto expected = topo.xyPath(src, dst);
                std::vector<std::uint32_t> table;
                h.fabric.pathLinksInto(src, dst, table);
                ASSERT_EQ(table.size(), expected.size())
                    << cores << " cores, " << src << " -> " << dst;
                for (std::size_t i = 0; i < expected.size(); ++i)
                    EXPECT_EQ(table[i], expected[i].flatten())
                        << cores << " cores, " << src << " -> " << dst
                        << " link " << i;
                EXPECT_EQ(h.fabric.pathHops(src, dst),
                          topo.hops(src, dst));
            }
        }
    }
}

TEST(Fabric, ZeroHpcMaxIsFatal)
{
    EventQueue queue;
    stats::StatGroup root("root");
    noc::GridTopology topo(4, 4);
    OrgConfig cfg;
    cfg.hpcMax = 0;
    EXPECT_THROW(Interconnect("f", queue, topo, cfg, &root), FatalError);
}

TEST(Fabric, ZeroPriorityEpochIsFatal)
{
    // A fabric built without OrgConfig::validate() must still refuse
    // the value arbitrate() would divide by.
    EventQueue queue;
    stats::StatGroup root("root");
    noc::GridTopology topo(4, 4);
    OrgConfig cfg;
    cfg.priorityEpoch = 0;
    EXPECT_THROW(Interconnect("f", queue, topo, cfg, &root), FatalError);
}

/** Property: under random traffic, every message is delivered exactly
 * once and no two same-cycle deliveries share a link (checked via the
 * fabric's own accounting: attempts = deliveries + failures). */
class FabricLoadTest : public ::testing::TestWithParam<double>
{};

TEST_P(FabricLoadTest, ConservationUnderLoad)
{
    FabricHarness h(16);
    nocstar::Random rng(99);
    unsigned sent = 0, delivered = 0;
    for (Cycle t = 0; t < 2000; ++t) {
        for (CoreId src = 0; src < 16; ++src) {
            if (rng.uniform() < GetParam()) {
                CoreId dst = static_cast<CoreId>(rng.below(16));
                if (dst == src)
                    continue;
                ++sent;
                h.fabric.send(src, dst, t,
                              [&](Cycle) { ++delivered; });
            }
        }
    }
    h.queue.run();
    EXPECT_EQ(delivered, sent);
    EXPECT_DOUBLE_EQ(h.fabric.messagesSent.value(),
                     static_cast<double>(sent));
    EXPECT_DOUBLE_EQ(h.fabric.setupAttempts.value(),
                     h.fabric.messagesSent.value() +
                         h.fabric.setupFailures.value());
}

INSTANTIATE_TEST_SUITE_P(InjectionRates, FabricLoadTest,
                         ::testing::Values(0.02, 0.1, 0.3));
