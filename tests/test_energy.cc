/**
 * @file
 * Tests for the SRAM timing / energy / area models and the interconnect
 * energy model, anchored to the paper's published points.
 */

#include <gtest/gtest.h>

#include "energy/area.hh"
#include "energy/noc_energy.hh"
#include "energy/sram_model.hh"
#include "energy/translation_energy.hh"
#include "sim/logging.hh"

using namespace nocstar;
using namespace nocstar::energy;

TEST(SramModel, MatchesPaperAnchors)
{
    // Fig 3 anchors: 1536 entries -> 9 cycles; 32x -> ~15 cycles.
    EXPECT_EQ(SramModel::accessLatency(1536), 9u);
    EXPECT_EQ(SramModel::accessLatency(32 * 1536), 15u);
}

TEST(SramModel, PrivateAndSliceLatenciesMatchMethodology)
{
    // §IV: 1024-entry private L2 TLBs are 9 cycles; the 920-entry
    // NOCSTAR slice keeps the same latency.
    EXPECT_EQ(SramModel::accessLatency(1024), 9u);
    EXPECT_EQ(SramModel::accessLatency(920), 9u);
}

TEST(SramModel, HalfSizeIsFaster)
{
    EXPECT_LT(SramModel::accessLatency(768),
              SramModel::accessLatency(1536));
    EXPECT_GE(SramModel::accessLatency(768), 6u);
}

TEST(SramModel, ZeroEntriesPanics)
{
    EXPECT_THROW(SramModel::accessLatency(0), PanicError);
}

class SramScalingTest
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(SramScalingTest, LatencyEnergyAreaMonotoneInSize)
{
    std::uint64_t entries = GetParam();
    EXPECT_LE(SramModel::accessLatency(entries),
              SramModel::accessLatency(entries * 2));
    EXPECT_LT(SramModel::accessEnergyPj(entries),
              SramModel::accessEnergyPj(entries * 2));
    EXPECT_LT(SramModel::leakageMw(entries),
              SramModel::leakageMw(entries * 2));
    EXPECT_LT(SramModel::areaMm2(entries),
              SramModel::areaMm2(entries * 2));
}

INSTANTIATE_TEST_SUITE_P(Sizes, SramScalingTest,
                         ::testing::Values(256, 512, 1024, 1536, 4096,
                                           12288, 49152));

TEST(TileArea, InterconnectIsUnderOnePercentOfSram)
{
    // Fig 9: switch + arbiters are < 1.3 % of the tile SRAM area.
    EXPECT_LT(TileAreaReport::interconnectAreaFraction(), 0.015);
}

TEST(TileArea, AreaEquivalentSliceMatchesTableII)
{
    // Table II: 1024-entry private -> 920-entry NOCSTAR slice.
    EXPECT_EQ(TileAreaReport::areaEquivalentSliceEntries(1024), 920u);
}

TEST(TileArea, SliceEntriesAreMultipleOfAssociativity)
{
    for (std::uint64_t n : {512u, 1024u, 1536u, 2048u})
        EXPECT_EQ(TileAreaReport::areaEquivalentSliceEntries(n) % 8, 0u);
}

TEST(NocEnergy, ComponentsGrowWithHops)
{
    auto near = NocEnergyModel::message(NocStyle::Nocstar, 2, 920);
    auto far = NocEnergyModel::message(NocStyle::Nocstar, 10, 920);
    EXPECT_LT(near.link, far.link);
    EXPECT_LT(near.switching, far.switching);
    EXPECT_LT(near.control, far.control);
    EXPECT_DOUBLE_EQ(near.sram, far.sram);
}

TEST(NocEnergy, NocstarSwitchesCheaperThanMeshRouters)
{
    // Fig 11(b): circuit-switched muxes beat buffered routers on the
    // datapath, but NOCSTAR pays more control energy per hop.
    auto mesh = NocEnergyModel::message(NocStyle::DistributedMesh, 8,
                                        1024);
    auto nocstar = NocEnergyModel::message(NocStyle::Nocstar, 8, 920);
    EXPECT_LT(nocstar.switching, mesh.switching);
    EXPECT_GT(nocstar.control, mesh.control);
    EXPECT_LT(nocstar.total(), mesh.total());
}

TEST(NocEnergy, MonolithicSramDominates)
{
    // The monolithic array is ~48K entries at 32 cores: its SRAM term
    // should dominate the slice-based designs' full message energy.
    auto mono = NocEnergyModel::message(NocStyle::MonolithicMesh, 6,
                                        32 * 1536);
    auto dist = NocEnergyModel::message(NocStyle::DistributedMesh, 6,
                                        1024);
    EXPECT_GT(mono.sram, dist.total() * 0.5);
    EXPECT_GT(mono.total(), dist.total());
}

TEST(TranslationEnergy, Accumulates)
{
    TranslationEnergyModel model;
    model.addL1Lookup();
    model.addPrivateL2Lookup(1024);
    model.addWalkReference(WalkService::Dram);
    EXPECT_GT(model.dynamicPj(), 0.0);
    model.addLeakage(10.0, 1000); // 10 mW for 1000 cycles
    EXPECT_DOUBLE_EQ(model.leakagePj(), 10.0 * 0.5 * 1000);
    EXPECT_DOUBLE_EQ(model.totalPj(),
                     model.dynamicPj() + model.leakagePj());
}

TEST(TranslationEnergy, WalkReferencesOrderedByDepth)
{
    // A DRAM PTE fetch must dwarf an L1 TLB probe (paper cites orders
    // of magnitude).
    EXPECT_GT(TranslationEnergyModel::dramAccessPj,
              100 * TranslationEnergyModel::l1TlbLookupPj);
    EXPECT_GT(TranslationEnergyModel::llcAccessPj,
              TranslationEnergyModel::l2CacheAccessPj);
    EXPECT_GT(TranslationEnergyModel::l2CacheAccessPj,
              TranslationEnergyModel::pwcLookupPj);
}
