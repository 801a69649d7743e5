/**
 * @file
 * Unit tests for StatSet.
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
