/**
 * @file
 * Unit tests for the baseline interconnect latency models and the
 * Table I design-space evaluation.
 */

#include <gtest/gtest.h>

#include "noc/design_space.hh"
#include "noc/network.hh"
#include "noc/queued_mesh.hh"

using namespace nocstar;
using namespace nocstar::noc;

TEST(MeshNetwork, TwoCyclesPerHop)
{
    stats::StatGroup g("g");
    GridTopology topo(4, 4);
    MeshNetwork mesh("mesh", topo, &g);
    EXPECT_EQ(mesh.traverse(0, 0, 0), 0u);
    EXPECT_EQ(mesh.traverse(0, 3, 0), 6u); // 3 hops
    EXPECT_EQ(mesh.traverse(0, 15, 0), 12u); // 6 hops
    EXPECT_EQ(mesh.messages.value(), 3.0);
}

TEST(SmartNetwork, BypassesUpToHpcMax)
{
    stats::StatGroup g("g");
    GridTopology topo(8, 8);
    SmartNetwork smart("smart", topo, 8, &g);
    // 7 hops straight east: 1 SSR + ceil(7/8) = 2 cycles.
    EXPECT_EQ(smart.traverse(0, 7, 0), 2u);
    // (0,0) -> (7,7): two segments of 7: 2 * (1 + 1) = 4.
    EXPECT_EQ(smart.traverse(0, 63, 0), 4u);
    // HPCmax 4: 7-hop segment takes 1 + 2.
    SmartNetwork smart4("smart4", topo, 4, &g);
    EXPECT_EQ(smart4.traverse(0, 7, 0), 3u);
}

TEST(SmartNetwork, FasterThanMeshForLongPaths)
{
    stats::StatGroup g("g");
    GridTopology topo(8, 8);
    MeshNetwork mesh("mesh", topo, &g);
    SmartNetwork smart("smart", topo, 16, &g);
    for (CoreId d : {7u, 21u, 63u})
        EXPECT_LT(smart.traverse(0, d, 0), mesh.traverse(0, d, 0));
}

TEST(IdealNetwork, AlwaysZero)
{
    stats::StatGroup g("g");
    GridTopology topo(8, 4);
    IdealNetwork ideal("ideal", topo, &g);
    EXPECT_EQ(ideal.traverse(0, 31, 12345), 0u);
}

TEST(QueuedMesh, UncontendedMatchesMesh)
{
    stats::StatGroup g("g");
    GridTopology topo(4, 4);
    QueuedMeshNetwork queued("q", topo, &g);
    EXPECT_EQ(queued.traverse(0, 3, 0), 6u);
}

TEST(QueuedMesh, ContentionAddsQueueing)
{
    stats::StatGroup g("g");
    GridTopology topo(4, 4);
    QueuedMeshNetwork queued("q", topo, &g);
    // Two messages over the same first link in the same cycle: the
    // second waits for the link.
    Cycle a = queued.traverse(0, 3, 0);
    Cycle b = queued.traverse(0, 3, 0);
    EXPECT_EQ(a, 6u);
    EXPECT_GT(b, a);
}

TEST(QueuedMesh, DisjointPathsDoNotInterfere)
{
    stats::StatGroup g("g");
    GridTopology topo(4, 4);
    QueuedMeshNetwork queued("q", topo, &g);
    Cycle a = queued.traverse(0, 1, 0);
    Cycle b = queued.traverse(15, 14, 0);
    EXPECT_EQ(a, 2u);
    EXPECT_EQ(b, 2u);
}

TEST(DesignSpace, ReproducesTableIPattern)
{
    DesignSpace space(64, 16);
    auto figures = space.evaluate();
    ASSERT_EQ(figures.size(), 6u);

    auto find = [&](NocDesign d) -> const NocFigures & {
        for (const auto &f : figures)
            if (f.design == d)
                return f;
        throw std::runtime_error("missing design");
    };

    // Table I: Bus = latency good, bandwidth bad.
    EXPECT_EQ(find(NocDesign::Bus).latencyRating, Rating::Good);
    EXPECT_EQ(find(NocDesign::Bus).bandwidthRating, Rating::Bad);
    // Mesh = latency bad, bandwidth good.
    EXPECT_EQ(find(NocDesign::Mesh).latencyRating, Rating::Bad);
    EXPECT_EQ(find(NocDesign::Mesh).bandwidthRating, Rating::Good);
    // FBFly-wide = latency good, bandwidth very good, area/power very
    // bad.
    EXPECT_EQ(find(NocDesign::FbflyWide).latencyRating, Rating::Good);
    EXPECT_EQ(find(NocDesign::FbflyWide).bandwidthRating,
              Rating::VeryGood);
    EXPECT_EQ(find(NocDesign::FbflyWide).areaRating, Rating::VeryBad);
    // FBFly-narrow = serialization hurts latency.
    EXPECT_EQ(find(NocDesign::FbflyNarrow).latencyRating, Rating::Bad);
    // SMART = latency good but area/power bad (buffers + SSR logic).
    EXPECT_EQ(find(NocDesign::Smart).latencyRating, Rating::Good);
    EXPECT_EQ(find(NocDesign::Smart).areaRating, Rating::Bad);
    // NOCSTAR = good across the board.
    const auto &nocstar = find(NocDesign::Nocstar);
    EXPECT_EQ(nocstar.latencyRating, Rating::Good);
    EXPECT_EQ(nocstar.bandwidthRating, Rating::Good);
    EXPECT_EQ(nocstar.areaRating, Rating::Good);
    EXPECT_EQ(nocstar.powerRating, Rating::Good);
}

TEST(DesignSpace, NocstarLatencyIsTwoCycles)
{
    DesignSpace space(64, 16);
    for (const auto &f : space.evaluate()) {
        if (f.design == NocDesign::Nocstar) {
            EXPECT_DOUBLE_EQ(f.avgLatency, 2.0);
        }
    }
}
