/**
 * @file
 * Unit tests for StatSet and Histogram.
 */

#include "sim/stats.hh"

#include <gtest/gtest.h>

#include <sstream>

using namespace proact;

TEST(StatSet, AbsentNamesReadZero)
{
    StatSet s;
    EXPECT_DOUBLE_EQ(s.get("nothing"), 0.0);
    EXPECT_FALSE(s.has("nothing"));
}

TEST(StatSet, IncrementAndSet)
{
    StatSet s;
    s.inc("a");
    s.inc("a", 2.5);
    EXPECT_DOUBLE_EQ(s.get("a"), 3.5);
    s.set("a", 7.0);
    EXPECT_DOUBLE_EQ(s.get("a"), 7.0);
    EXPECT_TRUE(s.has("a"));
}

TEST(StatSet, MaxTracksMaximum)
{
    StatSet s;
    s.max("m", 5.0);
    s.max("m", 3.0);
    s.max("m", 9.0);
    EXPECT_DOUBLE_EQ(s.get("m"), 9.0);
}

TEST(StatSet, MergeSums)
{
    StatSet a, b;
    a.inc("x", 1.0);
    a.inc("y", 2.0);
    b.inc("y", 3.0);
    b.inc("z", 4.0);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.get("x"), 1.0);
    EXPECT_DOUBLE_EQ(a.get("y"), 5.0);
    EXPECT_DOUBLE_EQ(a.get("z"), 4.0);
}

TEST(StatSet, CounterThatNeverFiresLeavesNoEntry)
{
    StatSet s;
    s.inc("a");
    std::ostringstream before;
    s.dump(before);

    const StatSet::Counter idle(&s, "idle");
    EXPECT_DOUBLE_EQ(idle.value(), 0.0); // Reading creates nothing.
    EXPECT_FALSE(s.has("idle"));
    EXPECT_EQ(s.all().size(), 1u);
    std::ostringstream after;
    s.dump(after);
    EXPECT_EQ(after.str(), before.str());
}

TEST(StatSet, CounterAndNamedIncAddIntoOneValueInCallOrder)
{
    // 1e16 + 1 rounds back to 1e16, so only the call order
    // 1e16, +1, -1e16, +1 gives exactly 1.
    StatSet s;
    StatSet::Counter c(&s, "x");
    c.inc(1e16);
    EXPECT_TRUE(s.has("x"));
    s.inc("x", 1.0);
    c.inc(-1e16);
    s.inc("x", 1.0);
    EXPECT_DOUBLE_EQ(s.get("x"), 1.0);
    EXPECT_DOUBLE_EQ(c.value(), 1.0);

    // A counter made after the entry exists adds into the same value.
    StatSet::Counter late(&s, "x");
    late.inc();
    EXPECT_DOUBLE_EQ(c.value(), 2.0);
    EXPECT_EQ(s.all().size(), 1u);
}

TEST(StatSet, CounterOnNullSetDoesNothing)
{
    StatSet::Counter c(nullptr, "x");
    c.inc(5.0);
    EXPECT_DOUBLE_EQ(c.value(), 0.0);
}

TEST(StatSet, DumpIsSortedByName)
{
    StatSet s;
    s.set("zeta", 1);
    s.set("alpha", 2);
    std::ostringstream oss;
    s.dump(oss, "p.");
    EXPECT_EQ(oss.str(), "p.alpha = 2\np.zeta = 1\n");
}

TEST(Histogram, PowerOfTwoBuckets)
{
    Histogram h;
    h.record(1);
    h.record(2);
    h.record(3);
    h.record(4);
    // [1,2): 1 sample; [2,4): 2; [4,8): 1.
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 2u);
    EXPECT_EQ(h.bucket(2), 1u);
    EXPECT_EQ(h.bucket(99), 0u);
}

TEST(Histogram, ZeroGoesToBucketZero)
{
    Histogram h;
    h.record(0);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.samples(), 1u);
}

TEST(Histogram, WeightedSamples)
{
    Histogram h;
    h.record(256, 10);
    EXPECT_EQ(h.samples(), 10u);
    EXPECT_EQ(h.total(), 2560u);
    EXPECT_EQ(h.bucket(8), 10u);
    EXPECT_DOUBLE_EQ(h.mean(), 256.0);
}

TEST(Histogram, MinMaxTracking)
{
    Histogram h;
    h.record(100);
    h.record(7);
    h.record(5000);
    EXPECT_EQ(h.minValue(), 7u);
    EXPECT_EQ(h.maxValue(), 5000u);
}

TEST(Histogram, MeanOfEmptyIsZero)
{
    Histogram h;
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, ClearResets)
{
    Histogram h;
    h.record(64, 3);
    h.clear();
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.numBuckets(), 0u);
}
