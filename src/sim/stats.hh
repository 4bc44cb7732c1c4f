/**
 * @file
 * A lightweight statistics package inspired by gem5's Stats.
 *
 * Stats register themselves with an owning StatGroup by name; groups dump
 * a flat, sorted, machine-parseable listing. Only the pieces the
 * simulator needs are implemented: scalars, vectors, linear-bucket
 * distributions here, and HDR histograms (stats::Histogram) in
 * sim/latency_histogram.hh. Stats only accumulate: an interval's values
 * are the difference of two snapshots of the tree.
 */

#ifndef NOCSTAR_SIM_STATS_HH
#define NOCSTAR_SIM_STATS_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "sim/logging.hh"

namespace nocstar::stats
{

class StatGroup;

/** Base class for all named statistics. */
class Stat
{
  public:
    Stat(StatGroup *parent, std::string name, std::string desc);
    virtual ~Stat() = default;

    Stat(const Stat &) = delete;
    Stat &operator=(const Stat &) = delete;

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

    /** Write one or more "name value # desc" lines. */
    virtual void dump(std::ostream &os, const std::string &prefix) const = 0;

    /** Write this stat's value as one JSON value (no name, no desc). */
    virtual void dumpJson(std::ostream &os) const = 0;

  protected:
    /** Write the dump line "prefix name suffix  value  # desc". */
    void dumpLine(std::ostream &os, const std::string &prefix,
                  const std::string &suffix, double value) const;

  private:
    std::string name_;
    std::string desc_;
};

/** A single accumulating counter / value. */
class Scalar : public Stat
{
  public:
    using Stat::Stat;

    Scalar &operator+=(double v) { value_ += v; return *this; }
    Scalar &operator++() { value_ += 1; return *this; }
    Scalar &operator=(double v) { value_ = v; return *this; }

    double value() const { return value_; }

    void dump(std::ostream &os, const std::string &prefix) const override;
    void dumpJson(std::ostream &os) const override;

  private:
    double value_ = 0;
};

/** A fixed-length vector of counters. */
class Vector : public Stat
{
  public:
    Vector(StatGroup *parent, std::string name, std::string desc,
           std::size_t size)
        : Stat(parent, std::move(name), std::move(desc)), values_(size, 0.0)
    {}

    double &operator[](std::size_t i) { return values_.at(i); }
    double operator[](std::size_t i) const { return values_.at(i); }
    std::size_t size() const { return values_.size(); }

    double total() const;

    void dump(std::ostream &os, const std::string &prefix) const override;
    void dumpJson(std::ostream &os) const override;

  private:
    std::vector<double> values_;
};

/**
 * A bucketed histogram over [min, max) plus running mean / extrema;
 * samples outside the range land in underflow/overflow buckets. Only
 * the bypass-streak stat and the benchmark's stats-record replay use
 * it; every other distribution the simulator measures is an integer
 * stats::Histogram.
 */
class Distribution : public Stat
{
  public:
    Distribution(StatGroup *parent, std::string name, std::string desc,
                 double min, double max, double bucketSize);

    void sample(double v, std::uint64_t count = 1);

    std::uint64_t numSamples() const { return samples_; }
    double mean() const { return samples_ ? sum_ / samples_ : 0.0; }
    double minSample() const { return minSample_; }
    double maxSample() const { return maxSample_; }
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }

    void dump(std::ostream &os, const std::string &prefix) const override;
    void dumpJson(std::ostream &os) const override;

  private:
    double min_;
    double max_;
    double bucketSize_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t samples_ = 0;
    double sum_ = 0;
    double minSample_ = 0;
    double maxSample_ = 0;
};

/**
 * Owner of a set of stats (and child groups), keyed by name.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name, StatGroup *parent = nullptr);
    virtual ~StatGroup();

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    const std::string &name() const { return name_; }

    /** Dump this group's stats and all children, prefixed by path. */
    void dumpAll(std::ostream &os, const std::string &prefix = "") const;

    /**
     * Write this group as one JSON object: a key per stat (value only)
     * plus a key per child group (nested object). Machine-readable
     * counterpart of dumpAll() for sweep post-processing and the
     * epoch-snapshot mechanism.
     */
    void dumpJson(std::ostream &os) const;

    /** Look up a stat by name in this group only (nullptr if missing). */
    const Stat *find(const std::string &name) const;

  private:
    friend class Stat;

    void addStat(Stat *stat);
    void addChild(StatGroup *child);
    void removeChild(StatGroup *child);

    std::string name_;
    StatGroup *parent_;
    std::vector<Stat *> statList_;
    std::map<std::string, Stat *> statsByName_;
    std::vector<StatGroup *> children_;
};

} // namespace nocstar::stats

#endif // NOCSTAR_SIM_STATS_HH
