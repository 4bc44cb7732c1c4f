/**
 * @file
 * Unit and property tests for the grid topology and XY routing.
 */

#include <gtest/gtest.h>

#include "noc/topology.hh"

using namespace nocstar;
using namespace nocstar::noc;

TEST(Topology, ForCoresPicksNearSquareGrids)
{
    EXPECT_EQ(GridTopology::forCores(16).width(), 4u);
    EXPECT_EQ(GridTopology::forCores(16).height(), 4u);
    EXPECT_EQ(GridTopology::forCores(32).width(), 8u);
    EXPECT_EQ(GridTopology::forCores(32).height(), 4u);
    EXPECT_EQ(GridTopology::forCores(64).width(), 8u);
    EXPECT_EQ(GridTopology::forCores(64).height(), 8u);
    EXPECT_EQ(GridTopology::forCores(256).width(), 16u);
    EXPECT_EQ(GridTopology::forCores(512).width(), 32u);
}

TEST(Topology, CoordRoundTrips)
{
    GridTopology topo(8, 4);
    for (CoreId t = 0; t < topo.numTiles(); ++t) {
        Coord c = topo.coordOf(t);
        EXPECT_EQ(topo.tileAt(c), t);
        EXPECT_LT(c.x, 8u);
        EXPECT_LT(c.y, 4u);
    }
}

TEST(Topology, NeighbourStopsAtTheMeshEdge)
{
    GridTopology topo(8, 4);
    EXPECT_EQ(topo.neighbour(6, Direction::East), 7u);
    EXPECT_FALSE(topo.neighbour(7, Direction::East));
    EXPECT_EQ(topo.neighbour(8, Direction::North), 0u);
    EXPECT_FALSE(topo.neighbour(0, Direction::North));
    EXPECT_FALSE(topo.neighbour(0, Direction::West));
    EXPECT_EQ(topo.neighbour(23, Direction::South), 31u);
    EXPECT_FALSE(topo.neighbour(31, Direction::South));
    EXPECT_FALSE(topo.neighbour(32, Direction::West)); // off the grid

    // The existing ids are exactly the mesh's links, and every XY path
    // runs over them.
    unsigned links = 0;
    for (std::uint32_t id = 0; id < topo.linkIndexSpace() + 8; ++id)
        links += topo.hasLink(id) ? 1 : 0;
    EXPECT_EQ(links, topo.numLinks());
    for (const LinkId &link : topo.xyPath(0, 31))
        EXPECT_TRUE(topo.hasLink(link.flatten()));
}

TEST(Topology, HopsAreManhattan)
{
    GridTopology topo(4, 4);
    EXPECT_EQ(topo.hops(0, 0), 0u);
    EXPECT_EQ(topo.hops(0, 3), 3u);
    EXPECT_EQ(topo.hops(0, 15), 6u); // (0,0) -> (3,3)
    EXPECT_EQ(topo.hops(5, 10), topo.hops(10, 5));
}

TEST(Topology, XyPathLengthEqualsHops)
{
    GridTopology topo(8, 8);
    for (CoreId s : {0u, 7u, 35u, 63u}) {
        for (CoreId d : {0u, 8u, 21u, 56u, 63u}) {
            auto path = topo.xyPath(s, d);
            EXPECT_EQ(path.size(), topo.hops(s, d));
        }
    }
}

TEST(Topology, XyPathGoesXFirst)
{
    GridTopology topo(4, 4);
    // From (0,0) to (2,2): two East links then two South links.
    auto path = topo.xyPath(0, 10);
    ASSERT_EQ(path.size(), 4u);
    EXPECT_EQ(path[0].dir, Direction::East);
    EXPECT_EQ(path[1].dir, Direction::East);
    EXPECT_EQ(path[2].dir, Direction::South);
    EXPECT_EQ(path[3].dir, Direction::South);
    EXPECT_EQ(path[0].node, 0u);
    EXPECT_EQ(path[2].node, 2u);
}

TEST(Topology, ReversePathUsesDifferentLinks)
{
    GridTopology topo(4, 4);
    auto fwd = topo.xyPath(0, 5);
    auto rev = topo.xyPath(5, 0);
    for (const LinkId &f : fwd)
        for (const LinkId &r : rev)
            EXPECT_FALSE(f == r);
}

TEST(Topology, NumLinksMatchesGridFormula)
{
    GridTopology topo(4, 4);
    // 2 * ((w-1)*h + (h-1)*w) = 2 * (12 + 12) = 48 directed links.
    EXPECT_EQ(topo.numLinks(), 48u);
}

TEST(Topology, DegenerateGridFatal)
{
    EXPECT_THROW(GridTopology(0, 4), FatalError);
    EXPECT_THROW(GridTopology::forCores(0), FatalError);
}

/** Property: analytic average hops matches brute force enumeration. */
class TopologyAvgTest : public ::testing::TestWithParam<unsigned>
{};

TEST_P(TopologyAvgTest, AverageHopsMatchesBruteForce)
{
    GridTopology topo = GridTopology::forCores(GetParam());
    double sum = 0;
    unsigned n = topo.numTiles();
    for (CoreId a = 0; a < n; ++a)
        for (CoreId b = 0; b < n; ++b)
            sum += topo.hops(a, b);
    double brute = sum / (static_cast<double>(n) * n);
    EXPECT_NEAR(topo.averageHops(), brute, 1e-9);
}

TEST_P(TopologyAvgTest, AllPathsStayInGrid)
{
    GridTopology topo = GridTopology::forCores(GetParam());
    for (CoreId a = 0; a < topo.numTiles(); a += 3) {
        for (CoreId b = 0; b < topo.numTiles(); b += 5) {
            for (const LinkId &link : topo.xyPath(a, b)) {
                EXPECT_LT(link.node, topo.numTiles());
                EXPECT_LT(link.flatten(), topo.linkIndexSpace());
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Grids, TopologyAvgTest,
                         ::testing::Values(4, 16, 32, 64));
