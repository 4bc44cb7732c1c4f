/**
 * @file
 * HDR-style log-bucketed latency histogram with exact-rank percentiles.
 *
 * The value domain is split into a linear region (values below 64 get
 * one bucket each, so small latencies are exact) and log-linear region:
 * for each power-of-two magnitude up to 2^40 cycles, 64 sub-buckets of
 * equal width. A bucket's width is therefore never more than 1/64th of
 * the values it holds, bounding the relative error of any reported
 * percentile at 2^-6 ~ 1.6 % (< the 2 % budget). record() is O(1) --
 * one bit-scan and one array increment -- and merge() is a bucket-wise
 * integer add, so it is commutative and associative: partial
 * instances fold into one canonical result regardless of how the
 * recording work was partitioned. All state is integral (counts and
 * sums, never running doubles), which is what makes the fold
 * deterministic.
 *
 * `sim::LatencyHistogram` is the plain value type; `stats::Histogram`
 * wraps one as a Stat so percentile stats appear in dumpAll() listings
 * and the stats JSON document next to Scalars and Vectors. Every
 * distribution the simulator measures is one: latencies, Fig 5/6
 * concurrency and the fabric's per-message retries.
 */

#ifndef NOCSTAR_SIM_LATENCY_HISTOGRAM_HH
#define NOCSTAR_SIM_LATENCY_HISTOGRAM_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "sim/stats.hh"

namespace nocstar::sim
{

/** Mergeable log-bucketed histogram of cycle counts in [0, 2^41). */
class LatencyHistogram
{
  public:
    /** Sub-buckets per power-of-two magnitude (2^6 = 64). */
    static constexpr unsigned subBucketBits = 6;
    static constexpr unsigned subBuckets = 1u << subBucketBits;
    /** Largest tracked magnitude: values up to 2^(40+1)-1 cycles. */
    static constexpr unsigned maxExponent = 40;
    /** Values at or above this saturate into the top bucket. */
    static constexpr std::uint64_t maxTrackable =
        (std::uint64_t{1} << (maxExponent + 1)) - 1;
    static constexpr unsigned numBuckets =
        subBuckets + (maxExponent - subBucketBits + 1) * subBuckets;

    LatencyHistogram() : buckets_(numBuckets, 0) {}

    /** Add @p count samples of value @p v. O(1). */
    void
    record(std::uint64_t v, std::uint64_t count = 1)
    {
        if (!count)
            return;
        if (v < min_)
            min_ = v;
        if (v > max_)
            max_ = v;
        samples_ += count;
        sum_ += v * count;
        buckets_[bucketIndex(v)] += count;
    }

    std::uint64_t numSamples() const { return samples_; }
    std::uint64_t sum() const { return sum_; }
    bool empty() const { return samples_ == 0; }
    std::uint64_t minValue() const { return empty() ? 0 : min_; }
    std::uint64_t maxValue() const { return max_; }
    double
    mean() const
    {
        return samples_
            ? static_cast<double>(sum_) / static_cast<double>(samples_)
            : 0.0;
    }

    /**
     * Exact-rank percentile: the reported value is the inclusive upper
     * bound of the bucket holding the ceil(q * samples)-th smallest
     * sample, clamped to [min, max] -- so it is never below the true
     * percentile's bucket and never more than one bucket width (<= 1.6
     * % relative) above the true value. @p q in [0, 1]; 0 on empty.
     */
    std::uint64_t percentile(double q) const;

    /**
     * Fold @p other into this histogram. Pure integer adds: the result
     * depends only on the multiset of recorded samples, not on how
     * they were split across instances or the order of the folds.
     */
    void merge(const LatencyHistogram &other);

    bool
    operator==(const LatencyHistogram &other) const
    {
        return samples_ == other.samples_ && sum_ == other.sum_ &&
               min_ == other.min_ && max_ == other.max_ &&
               buckets_ == other.buckets_;
    }

    /** Raw bucket counts, for the sparse dumpers and tests. */
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }

    /** Bucket of value @p v (values > maxTrackable saturate). */
    static std::uint32_t
    bucketIndex(std::uint64_t v)
    {
        if (v < subBuckets)
            return static_cast<std::uint32_t>(v);
        if (v > maxTrackable)
            v = maxTrackable;
        const unsigned e = 63u - static_cast<unsigned>(std::countl_zero(v));
        const unsigned shift = e - subBucketBits;
        return subBuckets + shift * subBuckets +
               static_cast<std::uint32_t>((v >> shift) - subBuckets);
    }

    /** Smallest value landing in bucket @p i. */
    static std::uint64_t
    bucketLow(std::uint32_t i)
    {
        if (i < subBuckets)
            return i;
        const std::uint32_t r = i - subBuckets;
        const unsigned shift = r / subBuckets;
        return (std::uint64_t{subBuckets} + r % subBuckets) << shift;
    }

    /** Largest value landing in bucket @p i (inclusive). */
    static std::uint64_t
    bucketHigh(std::uint32_t i)
    {
        if (i < subBuckets)
            return i;
        const unsigned shift = (i - subBuckets) / subBuckets;
        return bucketLow(i) + (std::uint64_t{1} << shift) - 1;
    }

  private:
    std::vector<std::uint64_t> buckets_;
    std::uint64_t samples_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = ~std::uint64_t{0};
    std::uint64_t max_ = 0;
};

} // namespace nocstar::sim

namespace nocstar::stats
{

/**
 * A LatencyHistogram registered as a named Stat: dumps samples, mean,
 * extrema and exact-rank p50/p90/p99/p99.9 lines, and a JSON object
 * with the same summary plus the sparse bucket counts (so merged
 * documents can re-derive any percentile).
 */
class Histogram : public Stat
{
  public:
    using Stat::Stat;

    void
    record(std::uint64_t v, std::uint64_t count = 1)
    {
        hist_.record(v, count);
    }

    sim::LatencyHistogram &value() { return hist_; }
    const sim::LatencyHistogram &value() const { return hist_; }

    void dump(std::ostream &os, const std::string &prefix) const override;
    void dumpJson(std::ostream &os) const override;

  private:
    sim::LatencyHistogram hist_;
};

} // namespace nocstar::stats

#endif // NOCSTAR_SIM_LATENCY_HISTOGRAM_HH
