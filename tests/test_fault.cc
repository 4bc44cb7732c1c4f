/**
 * @file
 * Fault-injection subsystem: plan parsing and validation, seeded
 * injector determinism, fabric outages (route-around, mesh fallback,
 * the fixed retry budget, backoff cap and watchdog) and end-to-end
 * reproducibility of faulted full-system runs.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/interconnect.hh"
#include "cpu/system.hh"
#include "sim/fault.hh"

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

sim::FaultPlan
planFromString(const std::string &text)
{
    std::istringstream in(text);
    return sim::FaultPlan::parse(in, "test");
}

cpu::SystemConfig
faultedSystemConfig(const sim::FaultPlan &plan)
{
    cpu::SystemConfig config;
    config.org.kind = OrgKind::Nocstar;
    config.org.numCores = 16;
    config.org.banks = 4;
    config.org.faults = plan;
    cpu::AppConfig app;
    app.spec = workload::findWorkload("gups");
    app.threads = 16;
    config.apps.push_back(app);
    return config;
}

} // namespace

TEST(FaultPlan, ParsesEveryDirective)
{
    sim::FaultPlan plan = planFromString(
        "# comment\n"
        "seed 42\n"
        "link 1 E 100 permanent\n"
        "link 2 W 200 50   # transient\n"
        "grant-loss 0.25\n"
        "slice-ecc 0.5\n"
        "walk-ecc 0.125\n");
    EXPECT_EQ(plan.seed, 42u);
    ASSERT_EQ(plan.linkFaults.size(), 2u);
    EXPECT_EQ(plan.linkFaults[0].link, 1u * 4 + 0);
    EXPECT_EQ(plan.linkFaults[0].start, 100u);
    EXPECT_TRUE(plan.linkFaults[0].permanent());
    EXPECT_EQ(plan.linkFaults[1].link, 2u * 4 + 1);
    EXPECT_EQ(plan.linkFaults[1].end(), 250u);
    EXPECT_DOUBLE_EQ(plan.grantLossProb, 0.25);
    EXPECT_DOUBLE_EQ(plan.sliceEccProb, 0.5);
    EXPECT_DOUBLE_EQ(plan.walkEccProb, 0.125);
    EXPECT_FALSE(plan.empty());
}

TEST(FaultPlan, RejectsGarbageListingEveryError)
{
    try {
        planFromString("grant-loss 1.5\n"
                       "link 3 Q 0 permanent\n"
                       "seed minus-one\n");
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        std::string what = err.what();
        EXPECT_NE(what.find("grant-loss"), std::string::npos);
        EXPECT_NE(what.find("test:2"), std::string::npos);
        EXPECT_NE(what.find("test:3: seed"), std::string::npos);
    }
}

TEST(FaultPlan, RemovedDirectivesAreRefused)
{
    // The resilience policy is fixed, and a link is named only by
    // tile and direction.
    for (const char *line :
         {"retry-budget 8", "backoff-cap 16", "watchdog 5000",
          "watchdog 5000 fatal", "link-id 37 0 permanent"}) {
        try {
            planFromString(std::string(line) + "\n");
            ADD_FAILURE() << "accepted '" << line << "'";
        } catch (const FatalError &err) {
            EXPECT_NE(std::string(err.what()).find("unknown directive"),
                      std::string::npos)
                << err.what();
        }
    }
}

TEST(FaultPlan, ValidateCatchesOutOfRangeLink)
{
    const noc::GridTopology topo(4, 4);
    auto exists = [&topo](std::uint32_t link) {
        return topo.hasLink(link);
    };
    sim::FaultPlan plan;
    plan.linkFaults.push_back({9999, 0, 0});
    EXPECT_TRUE(plan.validate().empty()); // mesh unknown: no check
    EXPECT_FALSE(plan.validate(exists).empty());
    // Tile 3 sits on the east edge of the 4x4 mesh; tile 2 does not.
    plan.linkFaults = {{noc::LinkId{3, noc::Direction::East}.flatten(), 0, 0}};
    EXPECT_FALSE(plan.validate(exists).empty());
    plan.linkFaults = {{noc::LinkId{2, noc::Direction::East}.flatten(), 0, 0}};
    EXPECT_TRUE(plan.validate(exists).empty());
}

TEST(FaultPlan, TileBeyondLinkIdSpaceIsRefused)
{
    // 2^30 * 4 wraps the 32-bit link id onto link 0 (tile 0 East).
    EXPECT_THROW(planFromString("link 1073741824 E 0 permanent\n"),
                 FatalError);
    EXPECT_THROW(planFromString("link 18446744073709551615 S 0 5\n"),
                 FatalError);
    // The largest tile whose four links all fit still parses.
    sim::FaultPlan plan =
        planFromString("link 1073741823 S 0 permanent\n");
    ASSERT_EQ(plan.linkFaults.size(), 1u);
    EXPECT_EQ(plan.linkFaults[0].link, 0xffffffffu);
}

TEST(FaultPlan, EmptyPlanIsEmpty)
{
    sim::FaultPlan plan;
    EXPECT_TRUE(plan.empty());
    plan.grantLossProb = 0.1;
    EXPECT_FALSE(plan.empty());
}

TEST(FaultInjector, SameSeedSameSequence)
{
    sim::FaultPlan plan;
    plan.grantLossProb = 0.3;
    plan.seed = 99;
    sim::FaultInjector a(plan, sim::FaultInjector::Stream::Fabric);
    sim::FaultInjector b(plan, sim::FaultInjector::Stream::Fabric);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.loseGrant(), b.loseGrant());
}

TEST(FaultInjector, StreamsAreIndependent)
{
    sim::FaultPlan plan;
    plan.grantLossProb = 0.5;
    plan.sliceEccProb = 0.5;
    plan.seed = 7;
    sim::FaultInjector fabric(plan,
                              sim::FaultInjector::Stream::Fabric);
    sim::FaultInjector ecc(plan,
                           sim::FaultInjector::Stream::SliceEcc);
    bool differ = false;
    for (int i = 0; i < 64; ++i)
        differ |= fabric.loseGrant() != ecc.sliceEcc();
    EXPECT_TRUE(differ);
}

TEST(FaultInjector, ZeroProbabilityNeverFires)
{
    sim::FaultPlan plan; // all probabilities zero
    sim::FaultInjector inj(plan, sim::FaultInjector::Stream::Fabric);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(inj.loseGrant());
        EXPECT_FALSE(inj.sliceEcc());
        EXPECT_FALSE(inj.walkEcc());
    }
}

TEST(FaultFabric, RejectsPlanWithOutOfRangeLink)
{
    sim::FaultPlan plan;
    plan.linkFaults.push_back({9999, 0, 0});
    OrgConfig cfg;
    cfg.faults = plan;
    EXPECT_THROW(FabricHarness(16, cfg), FatalError);
}

TEST(FaultFabric, RejectsPlanWithEdgeLink)
{
    // Tile 3 is the 4x4 mesh's north-east corner: no East link.
    OrgConfig cfg;
    cfg.faults.linkFaults.push_back(
        {noc::LinkId{3, noc::Direction::East}.flatten(), 0, 0});
    EXPECT_THROW(FabricHarness(16, cfg), FatalError);
    cfg.faults.linkFaults = {
        {noc::LinkId{12, noc::Direction::South}.flatten(), 0, 0}};
    EXPECT_THROW(FabricHarness(16, cfg), FatalError);
}

TEST(FaultFabric, RoutesAroundDeadLink)
{
    // Kill tile 1's East output: the 1 -> 2 xy path's only link.
    sim::FaultPlan plan;
    plan.linkFaults.push_back(
        {noc::LinkId{1, noc::Direction::East}.flatten(), 0, 0});
    OrgConfig cfg;
    cfg.faults = plan;
    FabricHarness h(16, cfg);

    Cycle delivered = invalidCycle;
    h.fabric.send(1, 2, 5, [&](Cycle at) { delivered = at; });
    h.queue.run();

    EXPECT_NE(delivered, invalidCycle);
    // The dead link was never granted; the detour stayed on-fabric.
    unsigned dead = noc::LinkId{1, noc::Direction::East}.flatten();
    EXPECT_DOUBLE_EQ(h.fabric.linkGrants[dead], 0.0);
    EXPECT_DOUBLE_EQ(h.fabric.degradedMessages.value(), 0.0);
    EXPECT_DOUBLE_EQ(h.fabric.faultsInjected.value(), 1.0);
}

TEST(FaultFabric, IsolatedSourceFallsBackToMesh)
{
    // All four outputs of tile 5 die: no circuit path from 5 exists,
    // so its messages must take the store-and-forward mesh.
    sim::FaultPlan plan;
    for (auto dir : {noc::Direction::East, noc::Direction::West,
                     noc::Direction::North, noc::Direction::South})
        plan.linkFaults.push_back(
            {noc::LinkId{5, dir}.flatten(), 0, 0});
    OrgConfig cfg;
    cfg.faults = plan;
    FabricHarness h(16, cfg);

    Cycle delivered = invalidCycle;
    h.fabric.send(5, 6, 10, [&](Cycle at) { delivered = at; });
    h.queue.run();

    EXPECT_NE(delivered, invalidCycle);
    EXPECT_GT(delivered, 10u);
    EXPECT_DOUBLE_EQ(h.fabric.degradedMessages.value(), 1.0);
}

TEST(FaultFabric, TransientOutageDelaysUntilRepair)
{
    // Tile 1's East output is out for cycles [0, 100); the message
    // retries with exponential backoff and succeeds after repair.
    sim::FaultPlan plan;
    plan.linkFaults.push_back(
        {noc::LinkId{1, noc::Direction::East}.flatten(), 0, 100});
    OrgConfig cfg;
    cfg.faults = plan;
    FabricHarness h(16, cfg);

    Cycle delivered = invalidCycle;
    h.fabric.send(1, 2, 5, [&](Cycle at) { delivered = at; });
    h.queue.run();

    EXPECT_NE(delivered, invalidCycle);
    EXPECT_GE(delivered, 100u);
    EXPECT_GT(h.fabric.backoffCycles.value(), 0.0);
    EXPECT_DOUBLE_EQ(h.fabric.degradedMessages.value(), 0.0);
}

TEST(FaultFabric, BackoffCapBoundsRetrySpacing)
{
    // Uncapped doubling would retry at cycles 516 and 1028, far past
    // the end of a 600-cycle outage; capped retries come every
    // backoffCap cycles and stay within the retry budget.
    sim::FaultPlan plan;
    plan.linkFaults.push_back(
        {noc::LinkId{1, noc::Direction::East}.flatten(), 0, 600});
    OrgConfig cfg;
    cfg.faults = plan;
    FabricHarness h(16, cfg);

    Cycle delivered = invalidCycle;
    h.fabric.send(1, 2, 5, [&](Cycle at) { delivered = at; });
    h.queue.run();

    // Retries arrive at most backoffCap apart, so delivery lands
    // within one cap of the repair (plus traversal), on the fabric.
    EXPECT_GE(delivered, 600u);
    EXPECT_LE(delivered, 600u + sim::FaultPlan::backoffCap + 2);
    EXPECT_DOUBLE_EQ(h.fabric.degradedMessages.value(), 0.0);
}

TEST(FaultFabric, RetryBudgetExhaustionDegrades)
{
    sim::FaultPlan plan;
    plan.linkFaults.push_back(
        {noc::LinkId{1, noc::Direction::East}.flatten(), 0, 10000});
    OrgConfig cfg;
    cfg.faults = plan;
    FabricHarness h(16, cfg);

    Cycle delivered = invalidCycle;
    h.fabric.send(1, 2, 5, [&](Cycle at) { delivered = at; });
    h.queue.run();

    EXPECT_NE(delivered, invalidCycle);
    EXPECT_LT(delivered, 10000u); // did not wait out the outage
    EXPECT_DOUBLE_EQ(h.fabric.degradedMessages.value(), 1.0);
    EXPECT_DOUBLE_EQ(h.fabric.watchdogTrips.value(), 0.0);
    // Degraded on the first failure past the budget.
    EXPECT_EQ(h.fabric.retries.value().maxValue(),
              sim::FaultPlan::retryBudget + 1);
}

TEST(FaultFabric, WatchdogRescuesStuckMessage)
{
    // Thirty messages queue behind a 200000-cycle outage. Each head
    // spends its retry budget (about 3.8K cycles) before degrading, so
    // a message about 27 deep has waited past watchdogCycles when it
    // first arbitrates, and the watchdog degrades it at once.
    sim::FaultPlan plan;
    plan.linkFaults.push_back(
        {noc::LinkId{1, noc::Direction::East}.flatten(), 0, 200000});
    OrgConfig cfg;
    cfg.faults = plan;
    FabricHarness h(16, cfg);

    constexpr unsigned kMessages = 30;
    unsigned delivered = 0;
    Cycle last = 0;
    for (unsigned i = 0; i < kMessages; ++i)
        h.fabric.send(1, 2, 5, [&](Cycle at) {
            ++delivered;
            last = at;
        });
    h.queue.run();

    EXPECT_EQ(delivered, kMessages);
    EXPECT_LT(last, 200000u); // none waited out the outage
    EXPECT_DOUBLE_EQ(h.fabric.degradedMessages.value(), kMessages);
    // Heads 0-25 degrade on their budget; head 26 passes the watchdog
    // mid-budget, and heads 27-29 on their first arbitration.
    EXPECT_DOUBLE_EQ(h.fabric.watchdogTrips.value(), 4.0);
}

TEST(FaultFabric, GrantLossInjectsAndRetries)
{
    sim::FaultPlan plan;
    plan.grantLossProb = 1.0;
    OrgConfig cfg;
    cfg.faults = plan;
    FabricHarness h(16, cfg);

    Cycle delivered = invalidCycle;
    h.fabric.send(0, 3, 5, [&](Cycle at) { delivered = at; });
    h.queue.run();

    EXPECT_NE(delivered, invalidCycle);
    // Every grant is lost, through the whole retry budget.
    EXPECT_DOUBLE_EQ(h.fabric.faultsInjected.value(),
                     sim::FaultPlan::retryBudget + 1.0);
    EXPECT_DOUBLE_EQ(h.fabric.degradedMessages.value(), 1.0);
}

TEST(FaultFabric, LinkDeadCyclesAccountsOutageWindows)
{
    sim::FaultPlan plan;
    unsigned dead = noc::LinkId{1, noc::Direction::East}.flatten();
    plan.linkFaults.push_back({dead, 10, 40}); // [10, 50)
    OrgConfig cfg;
    cfg.faults = plan;
    FabricHarness h(16, cfg);
    h.queue.run();

    h.fabric.syncFaultStats(100);
    EXPECT_DOUBLE_EQ(h.fabric.linkDeadCycles[dead], 40.0);
    // Second sync past the window adds nothing.
    h.fabric.syncFaultStats(200);
    EXPECT_DOUBLE_EQ(h.fabric.linkDeadCycles[dead], 40.0);
}

TEST(FaultSystem, FaultedRunsAreReproducible)
{
    sim::FaultPlan plan = planFromString(
        "link 5 E 0 permanent\n"
        "link 5 W 0 permanent\n"
        "link 5 N 0 permanent\n"
        "link 5 S 0 permanent\n"
        "grant-loss 0.01\n"
        "slice-ecc 0.002\n"
        "walk-ecc 0.002\n"
        "seed 7\n");

    cpu::RunResult first, second;
    {
        cpu::System system(faultedSystemConfig(plan));
        first = system.run(800);
    }
    {
        cpu::System system(faultedSystemConfig(plan));
        second = system.run(800);
    }
    EXPECT_EQ(first.cycles, second.cycles);
    EXPECT_EQ(first.instructions, second.instructions);
    EXPECT_EQ(first.faultsInjected, second.faultsInjected);
    EXPECT_EQ(first.degradedMessages, second.degradedMessages);
    EXPECT_EQ(first.eccRewalks, second.eccRewalks);
    EXPECT_GT(first.faultsInjected, 0u);
    EXPECT_GT(first.degradedMessages, 0u);
}

TEST(FaultSystem, DifferentSeedsDiverge)
{
    sim::FaultPlan plan;
    plan.grantLossProb = 0.05;
    plan.seed = 1;
    cpu::RunResult a, b;
    {
        cpu::System system(faultedSystemConfig(plan));
        a = system.run(800);
    }
    plan.seed = 2;
    {
        cpu::System system(faultedSystemConfig(plan));
        b = system.run(800);
    }
    EXPECT_GT(a.faultsInjected, 0u);
    EXPECT_GT(b.faultsInjected, 0u);
    // Not a hard guarantee, but with thousands of draws the streams
    // should not produce identical injection counts and timings.
    EXPECT_TRUE(a.faultsInjected != b.faultsInjected ||
                a.cycles != b.cycles);
}

TEST(FaultSystem, WalkEccDoublesFlaggedWalks)
{
    sim::FaultPlan plan;
    plan.walkEccProb = 1.0;
    cpu::SystemConfig config = faultedSystemConfig(plan);
    cpu::System system(config);
    cpu::RunResult result = system.run(500);
    EXPECT_GT(result.walks, 0u);
    EXPECT_GE(result.eccRewalks, result.walks);
}
