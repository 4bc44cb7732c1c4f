/**
 * @file
 * Tests for the workload specifications and the address generator.
 */

#include <gtest/gtest.h>

#include <optional>
#include <set>

#include "workload/generator.hh"
#include "workload/spec.hh"

using namespace nocstar;
using namespace nocstar::workload;

TEST(WorkloadSpec, ElevenPaperWorkloads)
{
    const auto &table = paperWorkloads();
    ASSERT_EQ(table.size(), 11u);
    EXPECT_EQ(table.front().name, "graph500");
    EXPECT_EQ(table.back().name, "gups");
    std::set<std::string> names;
    for (const auto &spec : table) {
        EXPECT_TRUE(names.insert(spec.name).second)
            << "duplicate workload " << spec.name;
        EXPECT_GT(spec.hotPages, 0u);
        EXPECT_GT(spec.warmPages, spec.hotPages);
        EXPECT_GT(spec.coldPages, spec.warmPages);
        EXPECT_GT(spec.warmFraction, 0.0);
        EXPECT_LT(spec.warmFraction + spec.coldFraction, 1.0);
        EXPECT_GE(spec.superpageFraction, 0.5);
        EXPECT_LE(spec.superpageFraction, 0.8);
    }
}

TEST(WorkloadSpec, FindByName)
{
    EXPECT_EQ(findWorkload("gups").name, "gups");
    EXPECT_THROW(findWorkload("doom"), FatalError);
    EXPECT_EQ(unknownWorkloadError("gups"), "");
    // The command-line error names the bad value and every valid one.
    const std::string error = unknownWorkloadError("doom");
    EXPECT_NE(error.find("'doom'"), std::string::npos);
    for (const WorkloadSpec &spec : paperWorkloads())
        EXPECT_NE(error.find(spec.name), std::string::npos) << spec.name;
}

TEST(WorkloadSpec, PoorLocalityTrioHasLargerPools)
{
    // The paper singles out canneal, gups and xsbench as poor-locality.
    double avg_warm = 0;
    for (const auto &spec : paperWorkloads())
        avg_warm += static_cast<double>(spec.warmPages) / 11.0;
    for (const char *name : {"canneal", "gups", "xsbench"})
        EXPECT_GT(findWorkload(name).warmPages, avg_warm);
}

TEST(Generator, DeterministicForSameSeed)
{
    auto spec = testWorkload();
    AccessGenerator a(spec, 0, 0, 5), b(spec, 0, 0, 5);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Generator, SharedSamplerMatchesOwnSampler)
{
    // Two threads of one app share a sampler, as System builds them,
    // and draw interleaved; each must match a generator that built its
    // own sampler.
    for (const WorkloadSpec &spec : paperWorkloads()) {
        std::optional<ZipfSampler> app_zipf(std::in_place, spec.warmPages,
                                            spec.warmAlpha);
        AccessGenerator shared0(spec, 3, 0, 12345, *app_zipf);
        AccessGenerator shared1(spec, 3, 1, 12345, *app_zipf);
        app_zipf.reset();
        AccessGenerator own0(spec, 3, 0, 12345), own1(spec, 3, 1, 12345);
        for (int i = 0; i < 20000; ++i) {
            ASSERT_EQ(shared0.next(), own0.next())
                << spec.name << " thread 0, draw " << i;
            ASSERT_EQ(shared1.next(), own1.next())
                << spec.name << " thread 1, draw " << i;
        }
    }
}

TEST(Generator, MismatchedSamplerPanics)
{
    auto spec = testWorkload();
    EXPECT_THROW(AccessGenerator(spec, 0, 0, 5,
                                 ZipfSampler(spec.warmPages + 1,
                                             spec.warmAlpha)),
                 PanicError);
    EXPECT_THROW(AccessGenerator(spec, 0, 0, 5,
                                 ZipfSampler(spec.warmPages,
                                             spec.warmAlpha + 0.1)),
                 PanicError);
}

TEST(Generator, ThreadsProduceDistinctStreams)
{
    auto spec = testWorkload();
    AccessGenerator a(spec, 0, 0, 5), b(spec, 0, 1, 5);
    bool differ = false;
    for (int i = 0; i < 64 && !differ; ++i)
        differ = a.next() != b.next();
    EXPECT_TRUE(differ);
}

TEST(Generator, PoolsDoNotOverlap)
{
    Addr shared = AccessGenerator::sharedBase(0);
    Addr cold = AccessGenerator::coldBase(0);
    Addr priv0 = AccessGenerator::privateBase(0, 0);
    Addr priv63 = AccessGenerator::privateBase(0, 63);
    auto spec = testWorkload();
    EXPECT_LT(shared + (spec.warmPages << 12), priv0);
    EXPECT_LT(priv63 + (spec.hotPages << 12), cold);
    EXPECT_LT(cold + (spec.coldPages << 12),
              AccessGenerator::sharedBase(1));
}

TEST(Generator, AddressesLandInDeclaredPools)
{
    auto spec = testWorkload();
    AccessGenerator gen(spec, 2, 3, 9);
    Addr shared_lo = AccessGenerator::sharedBase(2);
    Addr shared_hi = shared_lo + (spec.warmPages << 12);
    Addr priv_lo = AccessGenerator::privateBase(2, 3);
    Addr priv_hi = priv_lo + (spec.hotPages << 12);
    Addr cold_lo = AccessGenerator::coldBase(2);
    Addr cold_hi = cold_lo + (spec.coldPages << 12);

    int shared_n = 0, priv_n = 0, cold_n = 0;
    constexpr int draws = 20000;
    for (int i = 0; i < draws; ++i) {
        Addr a = gen.next();
        if (a >= shared_lo && a < shared_hi)
            ++shared_n;
        else if (a >= priv_lo && a < priv_hi)
            ++priv_n;
        else if (a >= cold_lo && a < cold_hi)
            ++cold_n;
        else
            FAIL() << "address outside every pool: " << std::hex << a;
    }
    EXPECT_NEAR(shared_n / static_cast<double>(draws),
                spec.warmFraction, 0.02);
    EXPECT_NEAR(cold_n / static_cast<double>(draws), spec.coldFraction,
                0.005);
    EXPECT_GT(priv_n, draws / 2);
}

TEST(Generator, SharedPoolOverlapsAcrossThreads)
{
    auto spec = testWorkload();
    AccessGenerator a(spec, 0, 0, 5), b(spec, 0, 7, 5);
    std::set<PageNum> pages_a;
    for (int i = 0; i < 5000; ++i) {
        Addr addr = a.next();
        if (addr < AccessGenerator::privateBase(0, 0))
            pages_a.insert(addr >> 12);
    }
    int overlap = 0, shared_b = 0;
    for (int i = 0; i < 5000; ++i) {
        Addr addr = b.next();
        if (addr < AccessGenerator::privateBase(0, 0)) {
            ++shared_b;
            overlap += pages_a.count(addr >> 12) ? 1 : 0;
        }
    }
    ASSERT_GT(shared_b, 0);
    // Zipf heads coincide: most shared draws overlap.
    EXPECT_GT(overlap / static_cast<double>(shared_b), 0.5);
}
