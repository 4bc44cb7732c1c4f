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
#include "noc/topology.hh"

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
    config.hpcMax = 0;
    config.priorityEpoch = 0;
    config.nocstarSliceEntries = 0;
    std::vector<std::string> errors = config.validate();
    EXPECT_TRUE(mentions(errors, "numCores"));
    EXPECT_TRUE(mentions(errors, "hpcMax"));
    EXPECT_TRUE(mentions(errors, "priorityEpoch"));
    EXPECT_TRUE(mentions(errors, "nocstarSliceEntries"));
    EXPECT_GE(errors.size(), 4u);
}

TEST(OrgValidate, CatchesEntriesNotMultipleOfAssoc)
{
    OrgConfig config;
    config.kind = OrgKind::Nocstar;
    config.numCores = 16;
    config.nocstarSliceEntries = 1020; // 1020 % 8 != 0
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

TEST(OrgValidate, RefusesPoliciesTheOrganizationIgnores)
{
    struct Row
    {
        OrgKind kind;
        bool remoteWalks; ///< ptwPlacement = Remote is accepted
        bool leaders;     ///< invalLeaderGroup > 0 is accepted
    };
    const Row rows[] = {
        {OrgKind::Private, true, false},
        {OrgKind::MonolithicMesh, false, false},
        {OrgKind::MonolithicSmart, false, false},
        {OrgKind::Distributed, true, true},
        {OrgKind::IdealShared, true, true},
        {OrgKind::Nocstar, true, true},
        {OrgKind::NocstarIdeal, true, true},
    };
    for (const Row &row : rows) {
        const char *name = orgKindName(row.kind);
        OrgConfig remote;
        remote.kind = row.kind;
        remote.numCores = 16;
        remote.ptwPlacement = PtwPlacement::Remote;
        EXPECT_EQ(remote.validate().empty(), row.remoteWalks) << name;
        EXPECT_EQ(mentions(remote.validate(), "ptwPlacement"),
                  !row.remoteWalks)
            << name;

        OrgConfig leaders;
        leaders.kind = row.kind;
        leaders.numCores = 16;
        leaders.invalLeaderGroup = 4;
        EXPECT_EQ(leaders.validate().empty(), row.leaders) << name;
        EXPECT_EQ(mentions(leaders.validate(), "invalLeaderGroup"),
                  !row.leaders)
            << name;
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

TEST(OrgValidate, RefusesFaultOnLinkOffTheMesh)
{
    OrgConfig config;
    config.kind = OrgKind::Nocstar;
    auto link = [](CoreId tile, noc::Direction dir) {
        return sim::LinkFaultSpec{noc::LinkId{tile, dir}.flatten(), 0, 0};
    };
    // 4x4: tile 3 is on the east edge.
    config.numCores = 16;
    config.faults.linkFaults = {link(3, noc::Direction::East)};
    EXPECT_TRUE(mentions(config.validate(), "tile 3 has no E link"));
    // 8x4: tile 7 is on the east edge, tile 31 in the south-east corner.
    config.numCores = 32;
    config.faults.linkFaults = {link(7, noc::Direction::East)};
    EXPECT_TRUE(mentions(config.validate(), "tile 7 has no E link"));
    config.faults.linkFaults = {link(31, noc::Direction::South)};
    EXPECT_TRUE(mentions(config.validate(), "tile 31 has no S link"));
    config.faults.linkFaults = {link(8, noc::Direction::North)};
    EXPECT_TRUE(config.validate().empty());
    // An interior link is still accepted.
    config.faults.linkFaults = {link(6, noc::Direction::East)};
    EXPECT_TRUE(config.validate().empty());
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
    config.org.prefetchDistance = OrgConfig::maxPrefetchDistance + 1;
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

TEST(SystemValidate, CatchesZeroSmtPerCore)
{
    cpu::SystemConfig config = validSystemConfig();
    config.smtPerCore = 0;
    EXPECT_TRUE(mentions(config.validate(), "smtPerCore"));
}

TEST(SystemValidate, SmtSlotCountDoesNotWrap)
{
    // 16 cores x 2^28 SMT slots is 2^32: a 32-bit product wraps to 0
    // slots, which validate() (64-bit) accepted and the constructor
    // then rejected with "more threads than SMT slots (0)".
    cpu::SystemConfig config = validSystemConfig(16);
    config.smtPerCore = 1u << 28;
    EXPECT_EQ(config.smtSlots(), std::uint64_t{1} << 32);
    EXPECT_TRUE(config.validate().empty());
    EXPECT_NO_THROW(cpu::System system(config));
}

TEST(SystemValidate, CatchesZeroThreadApp)
{
    cpu::SystemConfig config = validSystemConfig();
    config.apps[0].threads = 0;
    EXPECT_FALSE(config.validate().empty());
}

TEST(SystemValidate, CatchesHotspotSliceBeyondLastCore)
{
    cpu::SystemConfig config = validSystemConfig(16);
    config.hotspotSlice = 16; // slices are 0..15
    EXPECT_TRUE(mentions(config.validate(), "hotspotSlice"));

    config.hotspotSlice = 15;
    EXPECT_TRUE(config.validate().empty());
}

TEST(SystemValidate, FastForwardRefusesPrefetch)
{
    // Fast-forward fills the home arrays without prefetching, so a
    // sampled or warmed run would evolve TLB state detail never would.
    cpu::SystemConfig config = validSystemConfig();
    config.org.prefetchDistance = 2;
    EXPECT_TRUE(config.validate().empty());

    cpu::SystemConfig sampled = config;
    sampled.sampling.windows = 4;
    sampled.sampling.detailAccesses = 500;
    EXPECT_TRUE(mentions(sampled.validate(),
                         "sampled simulation cannot run with "
                         "prefetchDistance"));

    cpu::SystemConfig warmed = config;
    warmed.sampling.warmupAccesses = 1000;
    EXPECT_TRUE(mentions(warmed.validate(),
                         "fast-forward warming cannot run with "
                         "prefetchDistance"));

    // Prewarm never prefetches: checkpoint-only runs stay allowed.
    cpu::SystemConfig checkpointed = config;
    checkpointed.checkpointSavePath = "unused.ckpt";
    EXPECT_TRUE(checkpointed.validate().empty());
}

TEST(SystemValidate, ConstructorRejectsWithFullList)
{
    cpu::SystemConfig config = validSystemConfig();
    config.org.numCores = 0;
    config.apps[0].threads = 0;
    try {
        cpu::System system(config);
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        std::string what = err.what();
        EXPECT_NE(what.find("numCores"), std::string::npos);
        EXPECT_NE(what.find("threads"), std::string::npos);
    }
}
