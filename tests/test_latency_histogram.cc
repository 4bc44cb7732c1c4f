/**
 * @file
 * Property tests for the HDR-style latency histogram: bucket geometry,
 * randomized differential percentiles against a sorted-vector
 * reference, merge order/partition invariance, saturation, and the
 * Stat wrapper's dump formats.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <sstream>
#include <vector>

#include "sim/latency_histogram.hh"
#include "sim/stats.hh"

using namespace nocstar;
using sim::LatencyHistogram;

namespace
{

/** Exact q-quantile under the histogram's rank convention. */
std::uint64_t
exactPercentile(const std::vector<std::uint64_t> &sorted, double q)
{
    const auto n = static_cast<double>(sorted.size());
    auto rank = static_cast<std::uint64_t>(std::ceil(q * n));
    rank = std::max<std::uint64_t>(1, rank);
    return sorted[rank - 1];
}

/** Values drawn across every magnitude the histogram tracks. */
std::vector<std::uint64_t>
drawSamples(std::mt19937_64 &rng, std::size_t count)
{
    std::vector<std::uint64_t> values;
    values.reserve(count);
    std::uniform_int_distribution<unsigned> exponent(0, 40);
    for (std::size_t i = 0; i < count; ++i) {
        const std::uint64_t lo = std::uint64_t{1} << exponent(rng);
        std::uniform_int_distribution<std::uint64_t> value(0, 2 * lo);
        values.push_back(value(rng));
    }
    return values;
}

} // namespace

TEST(LatencyHistogramTest, BucketGeometryIsContiguousAndCovering)
{
    // Every bucket's [low, high] range is non-empty, adjacent buckets
    // tile the domain with no gaps, and bucketIndex is the inverse of
    // the range functions.
    for (std::uint32_t i = 0; i < LatencyHistogram::numBuckets; ++i) {
        const std::uint64_t lo = LatencyHistogram::bucketLow(i);
        const std::uint64_t hi = LatencyHistogram::bucketHigh(i);
        ASSERT_LE(lo, hi);
        EXPECT_EQ(LatencyHistogram::bucketIndex(lo), i);
        EXPECT_EQ(LatencyHistogram::bucketIndex(hi), i);
        if (i + 1 < LatencyHistogram::numBuckets)
            EXPECT_EQ(LatencyHistogram::bucketHigh(i) + 1,
                      LatencyHistogram::bucketLow(i + 1));
    }
    EXPECT_EQ(LatencyHistogram::bucketHigh(LatencyHistogram::numBuckets -
                                           1),
              LatencyHistogram::maxTrackable);
}

TEST(LatencyHistogramTest, RandomizedPercentilesMatchSortedReference)
{
    std::mt19937_64 rng(0xfeedface);
    for (int round = 0; round < 20; ++round) {
        std::vector<std::uint64_t> values =
            drawSamples(rng, 1 + rng() % 4000);
        LatencyHistogram hist;
        for (std::uint64_t v : values)
            hist.record(v);
        std::sort(values.begin(), values.end());

        EXPECT_EQ(hist.numSamples(), values.size());
        EXPECT_EQ(hist.minValue(), values.front());
        EXPECT_EQ(hist.maxValue(), values.back());
        for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
            const std::uint64_t exact = exactPercentile(values, q);
            const std::uint64_t est = hist.percentile(q);
            // Never below the true value, never more than one bucket
            // width (1/64 relative) above it.
            ASSERT_GE(est, exact) << "q=" << q;
            ASSERT_LE(est - exact, exact / 64) << "q=" << q;
        }
    }
}

TEST(LatencyHistogramTest, MergeIsOrderAndPartitionInvariant)
{
    std::mt19937_64 rng(0xabad1dea);
    const std::vector<std::uint64_t> values = drawSamples(rng, 6000);

    LatencyHistogram reference;
    for (std::uint64_t v : values)
        reference.record(v);

    for (int round = 0; round < 8; ++round) {
        // Random partition into a random number of parts.
        const std::size_t parts = 1 + rng() % 9;
        std::vector<LatencyHistogram> shards(parts);
        for (std::uint64_t v : values)
            shards[rng() % parts].record(v);

        // Fold in a random order.
        std::vector<std::size_t> order(parts);
        for (std::size_t i = 0; i < parts; ++i)
            order[i] = i;
        std::shuffle(order.begin(), order.end(), rng);
        LatencyHistogram merged;
        for (std::size_t i : order)
            merged.merge(shards[i]);

        EXPECT_TRUE(merged == reference) << "round " << round;
        for (double q : {0.5, 0.99})
            EXPECT_EQ(merged.percentile(q), reference.percentile(q));
    }
}

TEST(LatencyHistogramTest, BulkRecordMatchesRepeatedRecord)
{
    LatencyHistogram bulk, repeated;
    bulk.record(0, 1000);
    bulk.record(17, 3);
    bulk.record(900, 0); // count 0: no-op, must not disturb extrema
    for (int i = 0; i < 1000; ++i)
        repeated.record(0);
    for (int i = 0; i < 3; ++i)
        repeated.record(17);
    EXPECT_TRUE(bulk == repeated);
    EXPECT_EQ(bulk.maxValue(), 17u);
}

TEST(LatencyHistogramTest, Saturation)
{
    LatencyHistogram hist;
    const std::uint64_t huge = LatencyHistogram::maxTrackable * 2;
    hist.record(huge);
    hist.record(5);
    // The raw extremum is preserved even though the bucket saturates;
    // the percentile walk reports the top bucket's upper bound.
    EXPECT_EQ(hist.maxValue(), huge);
    EXPECT_EQ(hist.percentile(1.0), LatencyHistogram::maxTrackable);
    EXPECT_EQ(hist.percentile(0.0), 5u);
}

TEST(LatencyHistogramTest, StatDumpAndJson)
{
    stats::StatGroup root("root");
    stats::Histogram stat(&root, "lat", "a latency histogram");
    for (std::uint64_t v = 0; v < 100; ++v)
        stat.record(v);

    std::ostringstream dump;
    root.dumpAll(dump);
    const std::string text = dump.str();
    EXPECT_NE(text.find("lat.samples"), std::string::npos) << text;
    EXPECT_NE(text.find("lat.p50"), std::string::npos) << text;
    EXPECT_NE(text.find("lat.p999"), std::string::npos) << text;

    std::ostringstream js;
    stat.dumpJson(js);
    const std::string doc = js.str();
    EXPECT_NE(doc.find("\"samples\":100"), std::string::npos) << doc;
    EXPECT_NE(doc.find("\"p50\":"), std::string::npos) << doc;
    EXPECT_NE(doc.find("\"buckets\":[[0,1]"), std::string::npos) << doc;
    EXPECT_EQ(std::count(doc.begin(), doc.end(), '{'),
              std::count(doc.begin(), doc.end(), '}'));
    EXPECT_EQ(std::count(doc.begin(), doc.end(), '['),
              std::count(doc.begin(), doc.end(), ']'));
}
