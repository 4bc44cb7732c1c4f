/**
 * @file
 * Full-system tests: smoke runs of every organization, determinism,
 * SMT and multiprogramming, microbenchmark drivers, the paper
 * bucketing helper, and the lazily created latency stats group.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "cpu/system.hh"
#include "workload/generator.hh"
#include "workload/trace.hh"

using namespace nocstar;
using namespace nocstar::cpu;

namespace
{

SystemConfig
smallConfig(core::OrgKind kind, unsigned cores = 8)
{
    SystemConfig config;
    config.org.kind = kind;
    config.org.numCores = cores;
    {
        cpu::AppConfig app_config;
        app_config.spec = workload::testWorkload();
        app_config.threads = cores;
        config.apps.push_back(std::move(app_config));
    }
    config.seed = 7;
    return config;
}

} // namespace

class SystemSmokeTest
    : public ::testing::TestWithParam<core::OrgKind>
{};

TEST_P(SystemSmokeTest, RunsToCompletionWithSaneStats)
{
    System system(smallConfig(GetParam()));
    RunResult result = system.run(2000);

    EXPECT_GT(result.cycles, 0u);
    EXPECT_GE(static_cast<double>(result.cycles), result.meanCycles);
    EXPECT_EQ(result.l1Accesses, 8u * 2000u);
    EXPECT_EQ(result.l2Accesses, result.l1Misses);
    EXPECT_EQ(result.l2Hits + result.l2Misses, result.l2Accesses);
    EXPECT_EQ(result.walks, result.l2Misses);
    EXPECT_GT(result.ipc, 0.0);
    EXPECT_GT(result.energyPj, 0.0);
    EXPECT_GE(result.avgL2AccessLatency, 9.0);
    // Bucket fractions sum to ~1.
    double sum = 0;
    for (double b : result.concurrencyBuckets)
        sum += b;
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllOrgs, SystemSmokeTest,
    ::testing::Values(core::OrgKind::Private,
                      core::OrgKind::MonolithicMesh,
                      core::OrgKind::MonolithicSmart,
                      core::OrgKind::Distributed,
                      core::OrgKind::IdealShared,
                      core::OrgKind::Nocstar,
                      core::OrgKind::NocstarIdeal));

TEST(System, DeterministicAcrossRuns)
{
    RunResult a = System(smallConfig(core::OrgKind::Nocstar)).run(3000);
    RunResult b = System(smallConfig(core::OrgKind::Nocstar)).run(3000);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_DOUBLE_EQ(a.energyPj, b.energyPj);
}

TEST(System, SeedChangesStreams)
{
    SystemConfig config = smallConfig(core::OrgKind::Private);
    RunResult a = System(config).run(3000);
    config.seed = 8;
    RunResult b = System(config).run(3000);
    EXPECT_NE(a.cycles, b.cycles);
}

TEST(System, SharedOrgEliminatesMisses)
{
    RunResult priv =
        System(smallConfig(core::OrgKind::Private)).run(6000);
    RunResult nocstar =
        System(smallConfig(core::OrgKind::Nocstar)).run(6000);
    EXPECT_EQ(priv.l1Misses, nocstar.l1Misses);
    EXPECT_LT(nocstar.l2Misses, priv.l2Misses);
}

TEST(System, IdealSharedBeatsDistributed)
{
    RunResult dist =
        System(smallConfig(core::OrgKind::Distributed)).run(6000);
    RunResult ideal =
        System(smallConfig(core::OrgKind::IdealShared)).run(6000);
    EXPECT_LT(ideal.meanCycles, dist.meanCycles);
}

TEST(System, NocstarReportsFabricStats)
{
    RunResult r = System(smallConfig(core::OrgKind::Nocstar)).run(4000);
    EXPECT_GT(r.fabricAvgLatency, 1.0);
    EXPECT_LT(r.fabricAvgLatency, 6.0);
    EXPECT_GT(r.fabricNoContention, 0.5);
    RunResult p = System(smallConfig(core::OrgKind::Private)).run(1000);
    EXPECT_EQ(p.fabricAvgLatency, 0.0);
}

TEST(System, SmtMultipliesThreads)
{
    SystemConfig config = smallConfig(core::OrgKind::Private, 4);
    config.apps[0].threads = 8; // 2 threads per core
    config.smtPerCore = 2;
    System system(config);
    RunResult r = system.run(1000);
    EXPECT_EQ(r.l1Accesses, 8000u);
}

TEST(System, TooManyThreadsIsFatal)
{
    SystemConfig config = smallConfig(core::OrgKind::Private, 4);
    config.apps[0].threads = 8;
    config.smtPerCore = 1;
    EXPECT_THROW(System system(config), FatalError);
}

TEST(System, MultiprogrammedAppsTrackSeparateIpc)
{
    SystemConfig config;
    config.org.kind = core::OrgKind::Nocstar;
    config.org.numCores = 8;
    {
        cpu::AppConfig app_config;
        app_config.spec = workload::testWorkload();
        app_config.threads = 4;
        config.apps.push_back(std::move(app_config));
    }
    auto second = workload::testWorkload();
    second.warmFraction = 0.3;
    {
        cpu::AppConfig app_config;
        app_config.spec = second;
        app_config.threads = 4;
        config.apps.push_back(std::move(app_config));
    }
    config.seed = 3;
    System system(config);
    RunResult r = system.run(2000);
    ASSERT_EQ(r.appCycles.size(), 2u);
    ASSERT_EQ(r.appIpc.size(), 2u);
    EXPECT_GT(r.appIpc[0], 0.0);
    EXPECT_GT(r.appIpc[1], 0.0);
}

TEST(System, EachAppDrawsFromItsOwnWarmPool)
{
    // Two apps with different warm pools: every thread's consumed
    // stream must equal a standalone generator's, so the sampler each
    // app's threads share is that app's own.
    SystemConfig config;
    config.org.kind = core::OrgKind::Private;
    config.org.numCores = 4;
    for (const char *name : {"graph500", "gups"}) {
        cpu::AppConfig app_config;
        app_config.spec = workload::findWorkload(name);
        app_config.threads = 2;
        config.apps.push_back(std::move(app_config));
    }
    config.seed = 11;
    config.captureTracePath =
        ::testing::TempDir() + "nocstar_two_apps.trace";
    System(config).run(1000);

    auto trace = workload::TraceFile::load(config.captureTracePath);
    unsigned index = 0;
    for (std::size_t a = 0; a < config.apps.size(); ++a) {
        for (unsigned t = 0; t < config.apps[a].threads; ++t, ++index) {
            workload::AccessGenerator own(config.apps[a].spec,
                                          static_cast<ContextId>(a), t,
                                          config.seed);
            auto consumed = trace.sourceFor(index);
            ASSERT_GE(trace.recordCount(index), 1000u);
            for (std::size_t i = 0; i < trace.recordCount(index); ++i)
                ASSERT_EQ(consumed->next(), own.next())
                    << "app " << a << " thread " << t << " access " << i;
        }
    }
}

TEST(System, HotspotSliceConcentratesTraffic)
{
    SystemConfig config = smallConfig(core::OrgKind::Nocstar);
    config.hotspotSlice = 3;
    System system(config);
    RunResult r = system.run(2000);
    // Per-slice concurrency must pile up relative to the spread case.
    RunResult spread =
        System(smallConfig(core::OrgKind::Nocstar)).run(2000);
    EXPECT_GT(r.sliceConcurrencyBuckets.back() +
                  r.sliceConcurrencyBuckets[1],
              spread.sliceConcurrencyBuckets.back() +
                  spread.sliceConcurrencyBuckets[1] - 1e-9);
    EXPECT_GT(r.meanCycles, spread.meanCycles);
}

TEST(System, ContextSwitchFlushCausesMisses)
{
    SystemConfig base = smallConfig(core::OrgKind::Nocstar);
    RunResult quiet = System(base).run(4000);
    base.contextSwitchInterval = 3000;
    RunResult flushed = System(base).run(4000);
    EXPECT_GT(flushed.l2Misses, quiet.l2Misses);
    EXPECT_GT(flushed.meanCycles, quiet.meanCycles);
}

TEST(System, StormDriverIssuesShootdowns)
{
    SystemConfig config = smallConfig(core::OrgKind::Nocstar);
    config.stormRemapInterval = 2000;
    config.stormMessagesPerOp = 4;
    System system(config);
    RunResult r = system.run(4000);
    EXPECT_GT(r.shootdowns, 0u);
    EXPECT_GT(r.avgShootdownLatency, 0.0);
}

TEST(System, PaperBucketsBinning)
{
    stats::StatGroup g("g");
    stats::Distribution d(&g, "d", "conc", 1, 513, 1);
    d.sample(1, 40); // bucket "1"
    d.sample(3, 30); // bucket "2-4"
    d.sample(7, 20); // bucket "5-8"
    d.sample(29, 5); // bucket "29+"
    d.sample(600, 5); // overflow -> "29+"
    auto bins = System::paperBuckets(d);
    ASSERT_EQ(bins.size(), 9u);
    EXPECT_NEAR(bins[0], 0.40, 1e-9);
    EXPECT_NEAR(bins[1], 0.30, 1e-9);
    EXPECT_NEAR(bins[2], 0.20, 1e-9);
    EXPECT_NEAR(bins[8], 0.10, 1e-9);
}

TEST(System, NoAppsIsFatal)
{
    SystemConfig config;
    config.org.numCores = 4;
    EXPECT_THROW(System system(config), FatalError);
}

TEST(System, SuperpagesReduceL1Misses)
{
    SystemConfig on = smallConfig(core::OrgKind::Private);
    SystemConfig off = smallConfig(core::OrgKind::Private);
    off.superpages = false;
    RunResult with_sp = System(on).run(4000);
    RunResult without_sp = System(off).run(4000);
    EXPECT_LT(with_sp.l1Misses, without_sp.l1Misses);
}

TEST(System, LatencyStatsOffLeavesDocumentUnchanged)
{
    // With the knob off, the stats document must be byte-identical to
    // one from a system that never had the feature: the latency group
    // is created lazily, so its absence is the whole guarantee.
    auto document = [](bool lat) {
        SystemConfig config = smallConfig(core::OrgKind::Nocstar);
        config.latencyStats = lat;
        System system(config);
        system.run(1000);
        std::ostringstream os;
        system.dumpStatsJson(os);
        return os.str();
    };
    std::string off = document(false);
    EXPECT_EQ(off.find("\"latency\""), std::string::npos);
    EXPECT_NE(off, document(true));
}
