/**
 * @file
 * Unit tests for the serializing bandwidth channel.
 */

#include "sim/channel.hh"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

using namespace proact;

namespace {

/** 1 GB/s: 1 byte per millisecond of... no — 1e9 B/s. */
constexpr double gigabytePerSec = 1.0e9;

} // namespace

TEST(Channel, RejectsNonPositiveRate)
{
    EventQueue eq;
    EXPECT_THROW(Channel(eq, "bad", 0.0), std::invalid_argument);
    EXPECT_THROW(Channel(eq, "bad", -1.0), std::invalid_argument);
}

TEST(Channel, ServiceTimeMatchesRate)
{
    EventQueue eq;
    Channel ch(eq, "ch", gigabytePerSec);
    // 1e9 B at 1e9 B/s = 1 s = 1e12 ticks.
    const Tick done = ch.submit(1000000000, 1000000000);
    EXPECT_EQ(done, ticksPerSecond);
}

TEST(Channel, LatencyDelaysDeliveryNotOccupancy)
{
    EventQueue eq;
    Channel ch(eq, "ch", gigabytePerSec, 500);
    const Tick d1 = ch.submit(1000, 1000);
    // Service = 1000 ns = 1e6 ticks, delivery 500 ticks later.
    EXPECT_EQ(d1, 1000 * ticksPerNanosecond + 500);
    // Occupancy ends at service end, so the next submission starts
    // at 1e6, not 1e6+500.
    const Tick d2 = ch.submit(1000, 1000);
    EXPECT_EQ(d2, 2000 * ticksPerNanosecond + 500);
}

TEST(Channel, FifoQueueing)
{
    EventQueue eq;
    Channel ch(eq, "ch", gigabytePerSec);
    const Tick d1 = ch.submit(500, 500);
    const Tick d2 = ch.submit(500, 500);
    EXPECT_EQ(d2, 2 * d1);
    EXPECT_EQ(ch.busyUntil(), d2);
}

TEST(Channel, SubmitAfterHonorsNotBefore)
{
    EventQueue eq;
    Channel ch(eq, "ch", gigabytePerSec);
    const Tick done = ch.submitTimed(10000, 1000, 1000).delivered;
    EXPECT_EQ(done, 10000 + 1000 * ticksPerNanosecond);
}

TEST(Channel, NextStartIsTheStartSubmitTimedGets)
{
    EventQueue eq;
    Channel ch(eq, "ch", gigabytePerSec);
    ch.submit(1000, 1000);
    const Tick start = ch.nextStart(0);
    EXPECT_EQ(start, ch.busyUntil());
    const Tick start_late = ch.nextStart(start + 77);
    EXPECT_EQ(start_late, start + 77);
    EXPECT_EQ(ch.submitTimed(start + 77, 1000, 1000).start, start_late);
}

TEST(Channel, DeliveryCallbackFiresAtDeliveryTick)
{
    EventQueue eq;
    Channel ch(eq, "ch", gigabytePerSec, 123);
    Tick seen = 0;
    const Tick expected =
        ch.submit(1000, 1000, [&] { seen = eq.curTick(); });
    eq.run();
    EXPECT_EQ(seen, expected);
}

TEST(Channel, ZeroBytesTakeNoTime)
{
    EventQueue eq;
    Channel ch(eq, "ch", gigabytePerSec);
    EXPECT_EQ(ch.submit(0, 0), 0u);
    EXPECT_EQ(ch.busyTicks(), 0u);
}

TEST(Channel, NonZeroBytesTakeAtLeastOneTick)
{
    EventQueue eq;
    Channel ch(eq, "ch", 1e15); // Faster than 1 B/tick.
    EXPECT_GE(ch.submit(1, 1), 1u);
}

TEST(Channel, StatsAccumulate)
{
    EventQueue eq;
    Channel ch(eq, "ch", gigabytePerSec);
    ch.submit(600, 500);
    ch.submit(400, 300);
    EXPECT_EQ(ch.numTransfers(), 2u);
    EXPECT_EQ(ch.wireBytes(), 1000u);
    EXPECT_EQ(ch.payloadBytes(), 800u);
    EXPECT_DOUBLE_EQ(ch.goodput(), 0.8);
    EXPECT_EQ(ch.busyTicks(), 1000 * ticksPerNanosecond);
}

TEST(Channel, ResetStatsKeepsConfiguration)
{
    EventQueue eq;
    Channel ch(eq, "ch", gigabytePerSec, 42);
    ch.submit(1000, 1000);
    ch.resetStats();
    EXPECT_EQ(ch.numTransfers(), 0u);
    EXPECT_EQ(ch.wireBytes(), 0u);
    EXPECT_EQ(ch.busyTicks(), 0u);
    EXPECT_DOUBLE_EQ(ch.rate(), gigabytePerSec);
    EXPECT_EQ(ch.latency(), 42u);
}

TEST(Channel, UtilizationIsBusyFraction)
{
    EventQueue eq;
    Channel ch(eq, "ch", gigabytePerSec);
    ch.submit(1000, 1000); // 1 us busy.
    EXPECT_DOUBLE_EQ(ch.utilization(2000 * ticksPerNanosecond), 0.5);
    EXPECT_DOUBLE_EQ(ch.utilization(0), 0.0);
}

TEST(Channel, SetRateAffectsFutureSubmissions)
{
    EventQueue eq;
    Channel ch(eq, "ch", gigabytePerSec);
    const Tick d1 = ch.submit(1000, 1000);
    ch.setRate(2.0 * gigabytePerSec);
    const Tick d2 = ch.submit(1000, 1000);
    EXPECT_EQ(d2 - d1, (1000 * ticksPerNanosecond) / 2);
    EXPECT_THROW(ch.setRate(0.0), std::invalid_argument);
}

TEST(Channel, GoodputIsOneWhenIdle)
{
    EventQueue eq;
    Channel ch(eq, "ch", gigabytePerSec);
    EXPECT_DOUBLE_EQ(ch.goodput(), 1.0);
}

TEST(Channel, RebookRetimesLiveBookingsAndReturnsTheirTags)
{
    // Three back-to-back 1 us bookings; halving the rate 0.5 us in
    // re-times the first one's remainder and the two queued behind
    // it. The listener hears every live booking, in FIFO order, with
    // the tag it was submitted with and its new service end. A
    // re-time moves bookings only, so the channel refuses delivery
    // callbacks while a listener is installed.
    EventQueue eq;
    const Tick latency = 100;
    Channel ch(eq, "ch", gigabytePerSec, latency);

    struct Move
    {
        Channel::BookingTag tag;
        Tick serviceEnd;
    };
    std::vector<Move> moves;
    ch.setRebookListener([&moves](Channel::BookingTag tag, Tick end) {
        moves.push_back({tag, end});
    });
    EXPECT_THROW(ch.submit(1000, 1000, [] {}), std::logic_error);

    const Tick us = 1000 * ticksPerNanosecond;
    const Channel::BookingTag tags[] = {11, 22, 33};
    Tick booked[3] = {0, 0, 0};
    for (int i = 0; i < 3; ++i)
        booked[i] = ch.submitTimed(0, 1000, 1000, tags[i]).serviceEnd;
    EXPECT_EQ(booked[2], 3 * us);

    eq.schedule(us / 2, [&ch] { ch.setRateScale(0.5); });
    eq.run();

    // In service: the unserved half takes twice as long. Queued: the
    // whole booking does, chained behind its predecessor.
    const Tick ends[] = {us / 2 + us, us / 2 + us + 2 * us,
                         us / 2 + us + 4 * us};
    ASSERT_EQ(moves.size(), 3u);
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(moves[i].tag, tags[i]);
        EXPECT_EQ(moves[i].serviceEnd, ends[i]);
        EXPECT_GT(moves[i].serviceEnd, booked[i]);
    }
    EXPECT_EQ(ch.busyUntil(), ends[2]);
}
