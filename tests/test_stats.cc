/**
 * @file
 * Unit tests for the statistics package.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "sim/stats.hh"

using namespace nocstar;
using namespace nocstar::stats;

TEST(Stats, ScalarAccumulates)
{
    StatGroup group("g");
    Scalar s(&group, "s", "a scalar");
    EXPECT_EQ(s.value(), 0.0);
    ++s;
    s += 2.5;
    EXPECT_DOUBLE_EQ(s.value(), 3.5);
    s = 7;
    EXPECT_DOUBLE_EQ(s.value(), 7.0);
}

TEST(Stats, VectorIndexingAndTotal)
{
    StatGroup group("g");
    Vector v(&group, "v", "a vector", 4);
    v[0] = 1;
    v[3] = 9;
    EXPECT_DOUBLE_EQ(v.total(), 10.0);
    EXPECT_THROW(v[4], std::out_of_range);
}

TEST(Stats, DistributionBucketsAndMoments)
{
    StatGroup group("g");
    Distribution d(&group, "d", "a distribution", 0, 10, 2);
    d.sample(1);
    d.sample(3);
    d.sample(3);
    d.sample(-5); // underflow
    d.sample(42); // overflow
    EXPECT_EQ(d.numSamples(), 5u);
    EXPECT_EQ(d.underflow(), 1u);
    EXPECT_EQ(d.overflow(), 1u);
    EXPECT_EQ(d.buckets()[0], 1u); // [0,2)
    EXPECT_EQ(d.buckets()[1], 2u); // [2,4)
    EXPECT_DOUBLE_EQ(d.minSample(), -5.0);
    EXPECT_DOUBLE_EQ(d.maxSample(), 42.0);
    EXPECT_NEAR(d.mean(), (1 + 3 + 3 - 5 + 42) / 5.0, 1e-9);
}

TEST(Stats, DistributionWeightedSamples)
{
    StatGroup group("g");
    Distribution d(&group, "d", "weighted", 0, 8, 1);
    d.sample(2, 10);
    EXPECT_EQ(d.numSamples(), 10u);
    EXPECT_EQ(d.buckets()[2], 10u);
}

TEST(Stats, DistributionBadBoundsIsFatal)
{
    // Misconfigured bounds are a user error, not an internal invariant
    // violation: fatal(), not panic().
    StatGroup group("g");
    EXPECT_THROW(Distribution(&group, "bad", "x", 5, 5, 1), FatalError);
    EXPECT_THROW(Distribution(&group, "bad2", "x", 7, 3, 1), FatalError);
    EXPECT_THROW(Distribution(&group, "bad3", "x", 0, 5, 0), FatalError);
    EXPECT_THROW(Distribution(&group, "bad4", "x", 0, 5, -1),
                 FatalError);
}

TEST(Stats, DistributionFirstSampleSetsExtrema)
{
    StatGroup group("g");
    Distribution d(&group, "d", "x", 0, 10, 1);
    // The first sample must become both min and max, even when it is
    // above/below the zero the extrema are initialized to.
    d.sample(7);
    EXPECT_DOUBLE_EQ(d.minSample(), 7.0);
    EXPECT_DOUBLE_EQ(d.maxSample(), 7.0);

    Distribution e(&group, "e", "x", -10, 10, 1);
    e.sample(-4);
    EXPECT_DOUBLE_EQ(e.minSample(), -4.0);
    EXPECT_DOUBLE_EQ(e.maxSample(), -4.0);
}

TEST(Stats, DuplicateNamePanics)
{
    StatGroup group("g");
    Scalar a(&group, "x", "first");
    EXPECT_THROW(Scalar(&group, "x", "second"), PanicError);
}

TEST(Stats, OrphanStatPanics)
{
    EXPECT_THROW(Scalar(nullptr, "x", "orphan"), PanicError);
}

TEST(Stats, FindLocatesByName)
{
    StatGroup group("g");
    Scalar a(&group, "alpha", "a");
    EXPECT_EQ(group.find("alpha"), &a);
    EXPECT_EQ(group.find("missing"), nullptr);
}

TEST(Stats, DumpIncludesHierarchy)
{
    StatGroup parent("root");
    StatGroup child("leaf", &parent);
    Scalar a(&parent, "a", "top level");
    Scalar b(&child, "b", "nested");
    a += 1;
    b += 2;
    std::ostringstream os;
    parent.dumpAll(os);
    std::string text = os.str();
    EXPECT_NE(text.find("root.a"), std::string::npos);
    EXPECT_NE(text.find("root.leaf.b"), std::string::npos);
    EXPECT_NE(text.find("# top level"), std::string::npos);
}

TEST(Stats, DumpJsonScalarVector)
{
    StatGroup group("g");
    Scalar s(&group, "s", "scalar");
    s += 2.5;
    Vector v(&group, "v", "vector", 3);
    v[1] = 4;

    std::ostringstream os;
    group.dumpJson(os);
    std::string text = os.str();
    EXPECT_NE(text.find("\"s\":2.5"), std::string::npos) << text;
    EXPECT_NE(text.find("\"v\":{\"values\":[0,4,0],\"total\":4}"),
              std::string::npos)
        << text;
}

TEST(Stats, DumpJsonDistribution)
{
    StatGroup group("g");
    Distribution d(&group, "d", "dist", 0, 10, 2);
    d.sample(1);
    d.sample(3);
    d.sample(-5);
    std::ostringstream os;
    group.dumpJson(os);
    std::string text = os.str();
    EXPECT_NE(text.find("\"samples\":3"), std::string::npos) << text;
    EXPECT_NE(text.find("\"underflow\":1"), std::string::npos) << text;
    // Only non-zero buckets appear, as [lo, count] pairs.
    EXPECT_NE(text.find("[0,1]"), std::string::npos) << text;
    EXPECT_NE(text.find("[2,1]"), std::string::npos) << text;
    EXPECT_EQ(text.find("[4,"), std::string::npos) << text;
}

TEST(Stats, DumpJsonNestedGroupsParse)
{
    StatGroup parent("root");
    StatGroup child("leaf", &parent);
    Scalar a(&parent, "a", "top");
    Scalar b(&child, "b", "nested");
    a += 1;
    b += 2;
    std::ostringstream os;
    parent.dumpJson(os);
    std::string text = os.str();
    EXPECT_NE(text.find("\"leaf\":{\"b\":2}"), std::string::npos)
        << text;
    // Shape sanity: braces balance.
    EXPECT_EQ(std::count(text.begin(), text.end(), '{'),
              std::count(text.begin(), text.end(), '}'));
}

TEST(Stats, ChildRemovesItselfOnDestruction)
{
    StatGroup parent("root");
    {
        StatGroup child("leaf", &parent);
        Scalar b(&child, "b", "nested");
    }
    std::ostringstream os;
    parent.dumpAll(os);
    EXPECT_EQ(os.str().find("leaf"), std::string::npos);
}
