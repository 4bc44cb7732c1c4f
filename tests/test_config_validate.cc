/**
 * @file
 * Structured configuration validation: OrgConfig::validate() and
 * SystemConfig::validate() return one message per violation, the
 * factory and the System constructor reject invalid configurations
 * with the full list, and valid configurations pass untouched.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/organization.hh"
#include "cpu/system.hh"

using namespace nocstar;
using namespace nocstar::core;

namespace
{

cpu::SystemConfig
validSystemConfig(unsigned cores = 16)
{
    cpu::SystemConfig config;
    config.org.kind = OrgKind::Nocstar;
    config.org.numCores = cores;
    config.org.banks = 4;
    cpu::AppConfig app;
    app.spec = workload::findWorkload("gups");
    app.threads = cores;
    config.apps.push_back(app);
    return config;
}

bool
mentions(const std::vector<std::string> &errors,
         const std::string &needle)
{
    for (const std::string &e : errors)
        if (e.find(needle) != std::string::npos)
            return true;
    return false;
}

} // namespace

TEST(OrgValidate, DefaultConfigsAreValid)
{
    for (OrgKind kind :
         {OrgKind::Private, OrgKind::MonolithicMesh,
          OrgKind::MonolithicSmart, OrgKind::Distributed,
          OrgKind::IdealShared, OrgKind::Nocstar,
          OrgKind::NocstarIdeal}) {
        OrgConfig config;
        config.kind = kind;
        config.numCores = 16;
        EXPECT_TRUE(config.validate().empty())
            << orgKindName(kind) << ": "
            << joinConfigErrors(config.validate());
    }
}

TEST(OrgValidate, ReportsEveryViolationAtOnce)
{
    OrgConfig config;
    config.kind = OrgKind::Nocstar;
    config.numCores = 0;
    config.l2Entries = 0;
    config.readPortsPerCycle = 0;
    config.nocstarSliceEntries = 0;
    std::vector<std::string> errors = config.validate();
    EXPECT_TRUE(mentions(errors, "numCores"));
    EXPECT_TRUE(mentions(errors, "l2Entries"));
    EXPECT_TRUE(mentions(errors, "readPortsPerCycle"));
    EXPECT_TRUE(mentions(errors, "nocstarSliceEntries"));
    EXPECT_GE(errors.size(), 4u);
}

TEST(OrgValidate, CatchesEntriesNotMultipleOfAssoc)
{
    OrgConfig config;
    config.kind = OrgKind::Private;
    config.numCores = 4;
    config.l2Entries = 1000;
    config.l2Assoc = 16; // 1000 % 16 != 0
    EXPECT_TRUE(mentions(config.validate(), "not a multiple"));
}

TEST(OrgValidate, CatchesNonTilingCoreCount)
{
    OrgConfig config;
    config.kind = OrgKind::Nocstar;
    config.numCores = 13; // no full WxH mesh
    EXPECT_TRUE(mentions(config.validate(), "does not tile"));
}

TEST(OrgValidate, CatchesBankOverflow)
{
    OrgConfig config;
    config.kind = OrgKind::MonolithicMesh;
    config.numCores = 4;
    config.banks = 8;
    EXPECT_TRUE(mentions(config.validate(), "banks"));
}

TEST(OrgValidate, CatchesPrefetchDistanceOutOfRange)
{
    OrgConfig config;
    config.kind = OrgKind::Nocstar;
    config.numCores = 16;
    config.prefetchDistance = OrgConfig::maxPrefetchDistance;
    EXPECT_TRUE(config.validate().empty());
    // The prefetcher reserves 2 * distance candidates per L2 miss, so
    // an unchecked huge distance aborts the run with std::bad_alloc.
    for (unsigned d : {4u, 4000000000u}) {
        config.prefetchDistance = d;
        EXPECT_TRUE(mentions(config.validate(), "prefetchDistance"))
            << "distance " << d;
    }
}

TEST(OrgValidate, ChecksFaultPlanAgainstTopology)
{
    OrgConfig config;
    config.kind = OrgKind::Nocstar;
    config.numCores = 16; // 4x4: link ids < 64
    config.faults.linkFaults.push_back({200, 0, 0});
    EXPECT_TRUE(mentions(config.validate(), "faults:"));

    config.faults.linkFaults.clear();
    config.faults.grantLossProb = 1.5;
    EXPECT_TRUE(mentions(config.validate(), "faults:"));
}

TEST(OrgValidate, HierFabricGeometryRules)
{
    // The hierarchical fabric needs a NOCSTAR organization.
    OrgConfig config;
    config.kind = OrgKind::Distributed;
    config.numCores = 16;
    config.fabricKind = FabricKind::Hierarchical;
    EXPECT_TRUE(mentions(config.validate(), "NOCSTAR organization"));

    // Non-power-of-two mesh dimensions are rejected with a hint.
    config = OrgConfig{};
    config.kind = OrgKind::Nocstar;
    config.numCores = 24; // tiles 8x3
    config.fabricKind = FabricKind::Hierarchical;
    EXPECT_TRUE(mentions(config.validate(), "power-of-two"));
    EXPECT_TRUE(mentions(config.validate(), "try"));

    // Cluster dimensions must divide the mesh.
    config.numCores = 64;
    config.clusterWidth = 3;
    config.clusterHeight = 4;
    EXPECT_TRUE(mentions(config.validate(), "must divide"));

    // Either both cluster dimensions or neither.
    config.clusterWidth = 4;
    config.clusterHeight = 0;
    EXPECT_TRUE(mentions(config.validate(), "set together"));

    // A valid hierarchical geometry passes.
    config.clusterHeight = 4;
    EXPECT_TRUE(config.validate().empty())
        << joinConfigErrors(config.validate());
}

TEST(OrgValidate, FabricKnobsNeedTheRightFabric)
{
    // Cluster geometry on the flat fabric is a contradiction.
    OrgConfig config;
    config.kind = OrgKind::Nocstar;
    config.numCores = 16;
    config.clusterWidth = 2;
    config.clusterHeight = 2;
    EXPECT_TRUE(mentions(config.validate(), "fabric is flat"));

    // Cluster-local slice placement needs the hierarchy.
    config = OrgConfig{};
    config.kind = OrgKind::Nocstar;
    config.numCores = 16;
    config.sliceMapping = SliceMapping::ClusterLocal;
    EXPECT_TRUE(
        mentions(config.validate(), "needs the hierarchical fabric"));
}

TEST(OrgValidate, ParseFabricSpec)
{
    OrgConfig config;
    EXPECT_TRUE(parseFabricSpec("flat", config).empty());
    EXPECT_EQ(config.fabricKind, FabricKind::Flat);

    EXPECT_TRUE(parseFabricSpec("hier", config).empty());
    EXPECT_EQ(config.fabricKind, FabricKind::Hierarchical);
    EXPECT_EQ(config.clusterWidth, 0u); // auto geometry
    EXPECT_EQ(config.clusterHeight, 0u);

    EXPECT_TRUE(parseFabricSpec("hier:8x4", config).empty());
    EXPECT_EQ(config.fabricKind, FabricKind::Hierarchical);
    EXPECT_EQ(config.clusterWidth, 8u);
    EXPECT_EQ(config.clusterHeight, 4u);

    // Selecting flat again clears the stale geometry.
    EXPECT_TRUE(parseFabricSpec("flat", config).empty());
    EXPECT_EQ(config.clusterWidth, 0u);

    EXPECT_FALSE(parseFabricSpec("mesh", config).empty());
    EXPECT_FALSE(parseFabricSpec("hier:", config).empty());
    EXPECT_FALSE(parseFabricSpec("hier:4", config).empty());
    EXPECT_FALSE(parseFabricSpec("hier:ax4", config).empty());
    EXPECT_FALSE(parseFabricSpec("hier:4xb", config).empty());
    EXPECT_FALSE(parseFabricSpec("hier:0x4", config).empty());
    EXPECT_FALSE(parseFabricSpec("hier:4x4x4", config).empty());
}

TEST(OrgValidate, FactoryRejectsInvalidConfig)
{
    OrgConfig config;
    config.kind = OrgKind::Nocstar;
    config.numCores = 0;
    EventQueue queue;
    stats::StatGroup root("root");
    OrgContext context;
    context.queue = &queue;
    // Validation runs before any member is touched.
    EXPECT_THROW(makeOrganization(config, std::move(context), &root),
                 FatalError);
}

TEST(SystemValidate, ValidConfigPasses)
{
    EXPECT_TRUE(validSystemConfig().validate().empty());
}

TEST(SystemValidate, RequiresApps)
{
    cpu::SystemConfig config = validSystemConfig();
    config.apps.clear();
    EXPECT_TRUE(mentions(config.validate(), "at least one application"));
}

TEST(SystemValidate, OrgErrorsArePrefixed)
{
    cpu::SystemConfig config = validSystemConfig();
    config.org.l2Entries = 0;
    EXPECT_TRUE(mentions(config.validate(), "org: "));
}

TEST(SystemValidate, CatchesThreadOversubscription)
{
    cpu::SystemConfig config = validSystemConfig(16);
    config.apps[0].threads = 99;
    EXPECT_FALSE(config.validate().empty());

    // SMT widens the budget.
    config.apps[0].threads = 32;
    config.smtPerCore = 2;
    EXPECT_TRUE(config.validate().empty());
}

TEST(SystemValidate, CatchesZeroThreadApp)
{
    cpu::SystemConfig config = validSystemConfig();
    config.apps[0].threads = 0;
    EXPECT_FALSE(config.validate().empty());
}

TEST(SystemValidate, CatchesBadHotspotAndEccSettings)
{
    cpu::SystemConfig config = validSystemConfig(16);
    config.hotspotSlice = 16; // slices are 0..15
    EXPECT_TRUE(mentions(config.validate(), "hotspotSlice"));

    config = validSystemConfig(16);
    config.hotspotSlice = 3;
    config.hotspotFraction = 1.5;
    EXPECT_TRUE(mentions(config.validate(), "hotspotFraction"));

    config = validSystemConfig(16);
    config.walker.eccRetryProb = 2.0;
    EXPECT_FALSE(config.validate().empty());
}

TEST(SystemValidate, ConstructorRejectsWithFullList)
{
    cpu::SystemConfig config = validSystemConfig();
    config.org.l2Entries = 0;
    config.apps[0].threads = 0;
    try {
        cpu::System system(config);
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        std::string what = err.what();
        EXPECT_NE(what.find("l2Entries"), std::string::npos);
        EXPECT_NE(what.find("threads"), std::string::npos);
    }
}
