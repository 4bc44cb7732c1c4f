/**
 * @file
 * Statistics package implementation.
 */

#include "sim/stats.hh"

#include <cmath>
#include <iomanip>

#include "sim/json.hh"

namespace nocstar::stats
{

Stat::Stat(StatGroup *parent, std::string name, std::string desc)
    : name_(std::move(name)), desc_(std::move(desc))
{
    if (!parent)
        panic("stat '", name_, "' constructed without a parent group");
    parent->addStat(this);
}

void
Stat::dumpLine(std::ostream &os, const std::string &prefix,
               const std::string &suffix, double value) const
{
    os << std::left << std::setw(44) << (prefix + name_ + suffix) << " "
       << std::setw(16) << std::setprecision(8) << value
       << " # " << desc_ << "\n";
}

void
Scalar::dump(std::ostream &os, const std::string &prefix) const
{
    dumpLine(os, prefix, "", value_);
}

void
Scalar::dumpJson(std::ostream &os) const
{
    json::number(os, value_);
}

double
Vector::total() const
{
    double sum = 0;
    for (double v : values_)
        sum += v;
    return sum;
}

void
Vector::dump(std::ostream &os, const std::string &prefix) const
{
    for (std::size_t i = 0; i < values_.size(); ++i)
        dumpLine(os, prefix, "[" + std::to_string(i) + "]", values_[i]);
    dumpLine(os, prefix, ".total", total());
}

void
Vector::dumpJson(std::ostream &os) const
{
    os << "{\"values\":[";
    for (std::size_t i = 0; i < values_.size(); ++i) {
        if (i)
            os << ",";
        json::number(os, values_[i]);
    }
    os << "],\"total\":";
    json::number(os, total());
    os << "}";
}

Distribution::Distribution(StatGroup *parent, std::string name,
                           std::string desc, double min, double max,
                           double bucket_size)
    : Stat(parent, std::move(name), std::move(desc)),
      min_(min), max_(max), bucketSize_(bucket_size)
{
    // A distribution's bounds come from configuration knobs (core
    // counts, latency ranges), so a degenerate range is a user error,
    // not a simulator bug: report it instead of silently allocating a
    // nonsense bucket vector.
    if (max <= min)
        fatal("distribution '", this->name(), "': max (", max,
              ") must exceed min (", min, ")");
    if (bucket_size <= 0)
        fatal("distribution '", this->name(), "': bucket size (",
              bucket_size, ") must be positive");
    auto buckets = static_cast<std::size_t>(
        std::ceil((max - min) / bucket_size));
    buckets_.assign(buckets, 0);
}

void
Distribution::sample(double v, std::uint64_t count)
{
    if (samples_ == 0) {
        minSample_ = v;
        maxSample_ = v;
    } else {
        minSample_ = std::min(minSample_, v);
        maxSample_ = std::max(maxSample_, v);
    }
    samples_ += count;
    sum_ += v * count;

    if (v < min_) {
        underflow_ += count;
    } else if (v >= max_) {
        overflow_ += count;
    } else {
        auto idx = static_cast<std::size_t>((v - min_) / bucketSize_);
        buckets_[std::min(idx, buckets_.size() - 1)] += count;
    }
}

void
Distribution::dump(std::ostream &os, const std::string &prefix) const
{
    dumpLine(os, prefix, ".samples", static_cast<double>(samples_));
    dumpLine(os, prefix, ".mean", mean());
    dumpLine(os, prefix, ".min", minSample_);
    dumpLine(os, prefix, ".max", maxSample_);
    if (underflow_)
        dumpLine(os, prefix, ".underflow", static_cast<double>(underflow_));
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        if (!buckets_[i])
            continue;
        double lo = min_ + bucketSize_ * static_cast<double>(i);
        dumpLine(os, prefix, ".bucket[" + std::to_string(lo) + "]",
                 static_cast<double>(buckets_[i]));
    }
    if (overflow_)
        dumpLine(os, prefix, ".overflow", static_cast<double>(overflow_));
}

void
Distribution::dumpJson(std::ostream &os) const
{
    os << "{\"samples\":" << samples_ << ",\"mean\":";
    json::number(os, mean());
    os << ",\"min\":";
    json::number(os, minSample_);
    os << ",\"max\":";
    json::number(os, maxSample_);
    os << ",\"underflow\":" << underflow_
       << ",\"overflow\":" << overflow_ << ",\"bucket_size\":";
    json::number(os, bucketSize_);
    // Sparse buckets: [bucket low edge, count] pairs, non-zero only.
    os << ",\"buckets\":[";
    bool first = true;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        if (!buckets_[i])
            continue;
        if (!first)
            os << ",";
        first = false;
        os << "[";
        json::number(os, min_ + bucketSize_ * static_cast<double>(i));
        os << "," << buckets_[i] << "]";
    }
    os << "]}";
}

StatGroup::StatGroup(std::string name, StatGroup *parent)
    : name_(std::move(name)), parent_(parent)
{
    if (parent_)
        parent_->addChild(this);
}

StatGroup::~StatGroup()
{
    if (parent_)
        parent_->removeChild(this);
}

void
StatGroup::addStat(Stat *stat)
{
    auto [it, inserted] = statsByName_.emplace(stat->name(), stat);
    if (!inserted)
        panic("duplicate stat name '", stat->name(), "' in group ", name_);
    statList_.push_back(stat);
}

void
StatGroup::addChild(StatGroup *child)
{
    children_.push_back(child);
}

void
StatGroup::removeChild(StatGroup *child)
{
    auto it = std::find(children_.begin(), children_.end(), child);
    if (it != children_.end())
        children_.erase(it);
}

void
StatGroup::dumpAll(std::ostream &os, const std::string &prefix) const
{
    std::string path = prefix.empty() ? name_ + "." : prefix + name_ + ".";
    for (const Stat *stat : statList_)
        stat->dump(os, path);
    for (const StatGroup *child : children_)
        child->dumpAll(os, path);
}

void
StatGroup::dumpJson(std::ostream &os) const
{
    os << "{";
    bool first = true;
    for (const Stat *stat : statList_) {
        if (!first)
            os << ",";
        first = false;
        os << "\"" << json::escape(stat->name()) << "\":";
        stat->dumpJson(os);
    }
    for (const StatGroup *child : children_) {
        if (!first)
            os << ",";
        first = false;
        os << "\"" << json::escape(child->name_) << "\":";
        child->dumpJson(os);
    }
    os << "}";
}

const Stat *
StatGroup::find(const std::string &name) const
{
    auto it = statsByName_.find(name);
    return it == statsByName_.end() ? nullptr : it->second;
}

} // namespace nocstar::stats
