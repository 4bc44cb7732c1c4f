/**
 * @file
 * Unit and property tests for the deterministic random sources.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "sim/random.hh"

using namespace nocstar;

TEST(Random, DeterministicForSameSeed)
{
    Random a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, DiffersAcrossSeeds)
{
    Random a(1), b(2);
    bool any_diff = false;
    for (int i = 0; i < 16; ++i)
        any_diff |= a.next() != b.next();
    EXPECT_TRUE(any_diff);
}

TEST(Random, BelowIsWithinBound)
{
    Random rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000000007ull}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.below(bound), bound);
    }
}

TEST(Random, BelowZeroPanics)
{
    Random rng(7);
    EXPECT_THROW(rng.below(0), PanicError);
}

TEST(Random, BetweenIsInclusive)
{
    Random rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        std::uint64_t v = rng.between(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        saw_lo |= v == 3;
        saw_hi |= v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Random, UniformInUnitInterval)
{
    Random rng(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Random, ChanceMatchesProbability)
{
    Random rng(13);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Random, BelowIsRoughlyUniform)
{
    Random rng(17);
    std::map<std::uint64_t, int> counts;
    constexpr int draws = 40000;
    for (int i = 0; i < draws; ++i)
        counts[rng.below(8)]++;
    for (std::uint64_t v = 0; v < 8; ++v)
        EXPECT_NEAR(counts[v] / static_cast<double>(draws), 0.125, 0.01);
}

TEST(Zipf, ZeroAlphaIsUniform)
{
    Random rng(19);
    ZipfSampler zipf(16, 0.0);
    std::map<std::uint64_t, int> counts;
    constexpr int draws = 64000;
    for (int i = 0; i < draws; ++i)
        counts[zipf.sample(rng)]++;
    for (std::uint64_t v = 0; v < 16; ++v)
        EXPECT_NEAR(counts[v] / static_cast<double>(draws), 1.0 / 16,
                    0.01);
}

TEST(Zipf, SamplesStayInRange)
{
    Random rng(23);
    ZipfSampler zipf(1000, 1.2);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(zipf.sample(rng), 1000u);
}

TEST(Zipf, EmptyRangePanics)
{
    EXPECT_THROW(ZipfSampler(0, 1.0), PanicError);
}

TEST(Zipf, NegativeAlphaPanics)
{
    EXPECT_THROW(ZipfSampler(10, -0.5), PanicError);
}

TEST(Zipf, CopiesDrawTheIdenticalSequence)
{
    // n below, at and above the 4096-entry rejection table, alpha = 1
    // (the log branch) and alpha = 0 (uniform, no table).
    struct Shape
    {
        std::uint64_t n;
        double alpha;
    };
    for (const Shape &shape :
         {Shape{1000, 1.2}, Shape{4096, 0.8}, Shape{4097, 1.2},
          Shape{1u << 20, 1.0}, Shape{1u << 20, 0.6},
          Shape{5000, 0.0}}) {
        auto original =
            std::make_unique<ZipfSampler>(shape.n, shape.alpha);
        ZipfSampler copy = *original;
        Random a(41), b(41);
        std::vector<std::uint64_t> expected(20000);
        for (std::uint64_t &v : expected)
            v = original->sample(a);
        // The copy keeps the shared table alive on its own.
        original.reset();
        for (std::size_t i = 0; i < expected.size(); ++i)
            ASSERT_EQ(copy.sample(b), expected[i])
                << "n=" << shape.n << " alpha=" << shape.alpha
                << " draw " << i;
    }
}

/** Property sweep: rank popularity must be non-increasing. */
class ZipfAlphaTest : public ::testing::TestWithParam<double>
{};

TEST_P(ZipfAlphaTest, PopularityDecreasesWithRank)
{
    double alpha = GetParam();
    Random rng(31);
    ZipfSampler zipf(256, alpha);
    std::vector<int> counts(256, 0);
    for (int i = 0; i < 200000; ++i)
        counts[zipf.sample(rng)]++;

    // Compare coarse buckets; exact per-rank ordering is too noisy.
    auto bucket = [&](int lo, int hi) {
        int sum = 0;
        for (int i = lo; i < hi; ++i)
            sum += counts[i];
        return sum;
    };
    int first = bucket(0, 16), mid = bucket(16, 64),
        tail = bucket(64, 256);
    EXPECT_GT(first, mid * 16 / 48 - 1000); // per-item density ordering
    double first_density = first / 16.0;
    double mid_density = mid / 48.0;
    double tail_density = tail / 192.0;
    EXPECT_GE(first_density, mid_density);
    EXPECT_GE(mid_density, tail_density);
}

TEST_P(ZipfAlphaTest, HeadMassGrowsWithAlpha)
{
    double alpha = GetParam();
    Random rng(37);
    ZipfSampler zipf(1024, alpha);
    int head = 0;
    constexpr int draws = 100000;
    for (int i = 0; i < draws; ++i)
        head += zipf.sample(rng) < 32 ? 1 : 0;
    double frac = head / static_cast<double>(draws);
    if (alpha >= 1.2) {
        EXPECT_GT(frac, 0.45);
    }
    if (alpha <= 0.5) {
        EXPECT_LT(frac, 0.35);
    }
}

INSTANTIATE_TEST_SUITE_P(AlphaSweep, ZipfAlphaTest,
                         ::testing::Values(0.3, 0.5, 0.8, 1.0, 1.2,
                                           1.5));
