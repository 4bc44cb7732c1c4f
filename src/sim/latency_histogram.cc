/**
 * @file
 * LatencyHistogram percentile walk and stat dumpers.
 */

#include "sim/latency_histogram.hh"

#include <algorithm>
#include <cmath>

#include "sim/json.hh"

namespace nocstar::sim
{

std::uint64_t
LatencyHistogram::percentile(double q) const
{
    if (empty())
        return 0;
    q = std::clamp(q, 0.0, 1.0);
    // Rank of the q-quantile among the sorted samples, 1-based; q = 0
    // asks for the smallest sample.
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(q * static_cast<double>(samples_))));
    std::uint64_t cumulative = 0;
    for (std::uint32_t i = 0; i < numBuckets; ++i) {
        cumulative += buckets_[i];
        if (cumulative >= rank)
            return std::clamp(bucketHigh(i), minValue(), max_);
    }
    return max_; // unreachable: cumulative reaches samples_
}

void
LatencyHistogram::merge(const LatencyHistogram &other)
{
    if (other.empty())
        return;
    samples_ += other.samples_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    for (std::uint32_t i = 0; i < numBuckets; ++i)
        buckets_[i] += other.buckets_[i];
}

} // namespace nocstar::sim

namespace nocstar::stats
{

void
Histogram::dump(std::ostream &os, const std::string &prefix) const
{
    dumpLine(os, prefix, ".samples",
             static_cast<double>(hist_.numSamples()));
    dumpLine(os, prefix, ".mean", hist_.mean());
    dumpLine(os, prefix, ".min", static_cast<double>(hist_.minValue()));
    dumpLine(os, prefix, ".max", static_cast<double>(hist_.maxValue()));
    dumpLine(os, prefix, ".p50",
             static_cast<double>(hist_.percentile(0.50)));
    dumpLine(os, prefix, ".p90",
             static_cast<double>(hist_.percentile(0.90)));
    dumpLine(os, prefix, ".p99",
             static_cast<double>(hist_.percentile(0.99)));
    dumpLine(os, prefix, ".p999",
             static_cast<double>(hist_.percentile(0.999)));
}

void
Histogram::dumpJson(std::ostream &os) const
{
    os << "{\"samples\":" << hist_.numSamples()
       << ",\"sum\":" << hist_.sum() << ",\"mean\":";
    json::number(os, hist_.mean());
    os << ",\"min\":" << hist_.minValue()
       << ",\"max\":" << hist_.maxValue()
       << ",\"p50\":" << hist_.percentile(0.50)
       << ",\"p90\":" << hist_.percentile(0.90)
       << ",\"p99\":" << hist_.percentile(0.99)
       << ",\"p999\":" << hist_.percentile(0.999);
    // Sparse buckets as [inclusive low edge, count] pairs: enough to
    // re-derive any percentile after merging documents offline.
    os << ",\"buckets\":[";
    bool first = true;
    const auto &buckets = hist_.buckets();
    for (std::uint32_t i = 0; i < buckets.size(); ++i) {
        if (!buckets[i])
            continue;
        if (!first)
            os << ",";
        first = false;
        os << "[" << sim::LatencyHistogram::bucketLow(i) << ","
           << buckets[i] << "]";
    }
    os << "]}";
}

} // namespace nocstar::stats
