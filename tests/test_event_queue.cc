/**
 * @file
 * Unit tests for the discrete-event engine.
 */

#include "sim/event_queue.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

using namespace proact;

TEST(EventQueue, StartsAtTickZeroAndEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.curTick(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_FALSE(eq.runNext());
}

TEST(EventQueue, DispatchAdvancesClock)
{
    EventQueue eq;
    bool fired = false;
    eq.schedule(100, [&] { fired = true; });
    EXPECT_FALSE(fired);
    EXPECT_TRUE(eq.runNext());
    EXPECT_TRUE(fired);
    EXPECT_EQ(eq.curTick(), 100u);
}

TEST(EventQueue, EventsRunInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(300, [&] { order.push_back(3); });
    eq.schedule(100, [&] { order.push_back(1); });
    eq.schedule(200, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTickOrderedByPriorityThenInsertion)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(50, [&] { order.push_back(2); }, 1);
    eq.schedule(50, [&] { order.push_back(0); }, 0);
    eq.schedule(50, [&] { order.push_back(3); }, 1);
    eq.schedule(50, [&] { order.push_back(1); }, 0);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, SchedulingInThePastThrows)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    EXPECT_THROW(eq.schedule(50, [] {}), std::logic_error);
}

TEST(EventQueue, CallbackMayScheduleAtCurrentTick)
{
    EventQueue eq;
    bool nested = false;
    eq.schedule(10, [&] {
        eq.schedule(eq.curTick(), [&] { nested = true; });
    });
    eq.run();
    EXPECT_TRUE(nested);
    EXPECT_EQ(eq.curTick(), 10u);
}

TEST(EventQueue, DescheduleCancelsPendingEvent)
{
    EventQueue eq;
    bool fired = false;
    const EventId id = eq.schedule(100, [&] { fired = true; });
    EXPECT_TRUE(eq.deschedule(id));
    eq.run();
    EXPECT_FALSE(fired);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, DescheduleUnknownIdIsNoop)
{
    EventQueue eq;
    EXPECT_FALSE(eq.deschedule(12345));
}

TEST(EventQueue, DescheduleFiredEventIsNoop)
{
    EventQueue eq;
    const EventId id = eq.schedule(10, [] {});
    eq.run();
    EXPECT_FALSE(eq.deschedule(id));
}

TEST(EventQueue, ScheduleInIsRelative)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(100, [&] {
        eq.scheduleIn(50, [&] { seen = eq.curTick(); });
    });
    eq.run();
    EXPECT_EQ(seen, 150u);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(100, [&] { ++fired; });
    eq.schedule(200, [&] { ++fired; });
    eq.schedule(300, [&] { ++fired; });
    eq.runUntil(200);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.curTick(), 200u);
    EXPECT_EQ(eq.pendingEvents(), 1u);
}

TEST(EventQueue, RunUntilAdvancesClockOnIdleQueue)
{
    EventQueue eq;
    eq.runUntil(500);
    EXPECT_EQ(eq.curTick(), 500u);
}

TEST(EventQueue, PendingAndDispatchedCounts)
{
    EventQueue eq;
    eq.schedule(1, [] {});
    eq.schedule(2, [] {});
    EXPECT_EQ(eq.pendingEvents(), 2u);
    eq.run();
    EXPECT_EQ(eq.pendingEvents(), 0u);
    EXPECT_EQ(eq.dispatchedEvents(), 2u);
}

TEST(EventQueue, ManyEventsDeterministicOrder)
{
    // The same schedule must dispatch identically across runs.
    auto run_once = [] {
        EventQueue eq;
        std::vector<int> order;
        for (int i = 0; i < 1000; ++i) {
            eq.schedule((i * 37) % 251, [&order, i] {
                order.push_back(i);
            });
        }
        eq.run();
        return order;
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(EventQueue, CancelledEventsDoNotBlockRunUntil)
{
    EventQueue eq;
    const EventId id = eq.schedule(100, [] {});
    eq.schedule(300, [] {});
    eq.deschedule(id);
    eq.runUntil(200);
    EXPECT_EQ(eq.curTick(), 200u);
    EXPECT_EQ(eq.pendingEvents(), 1u);
}

TEST(EventQueue, DescheduleDuringDispatch)
{
    // A callback cancels a later same-tick event mid-dispatch; the
    // victim must not fire and the bookkeeping must stay exact.
    EventQueue eq;
    bool victim_fired = false;
    bool after_fired = false;
    EventId victim = 0;
    eq.schedule(50, [&] { eq.deschedule(victim); });
    victim = eq.schedule(50, [&] { victim_fired = true; });
    eq.schedule(50, [&] { after_fired = true; });
    eq.run();
    EXPECT_FALSE(victim_fired);
    EXPECT_TRUE(after_fired);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.dispatchedEvents(), 2u);
}

TEST(EventQueue, DescheduleOwnLaterScheduleDuringDispatch)
{
    // Schedule-then-cancel inside one callback: the id minted during
    // dispatch must be immediately cancellable.
    EventQueue eq;
    bool fired = false;
    eq.schedule(10, [&] {
        const EventId id =
            eq.schedule(eq.curTick(), [&] { fired = true; });
        EXPECT_TRUE(eq.deschedule(id));
    });
    eq.run();
    EXPECT_FALSE(fired);
}

TEST(EventQueue, RescheduleStormAtOneTick)
{
    // Retry storms reschedule at the current tick thousands of times;
    // order must stay insertion-stable and nothing may leak.
    EventQueue eq;
    std::vector<int> order;
    int remaining = 2000;
    std::function<void()> step = [&] {
        order.push_back(2000 - remaining);
        if (--remaining > 0)
            eq.schedule(eq.curTick(), step);
    };
    eq.schedule(7, step);
    eq.run();
    ASSERT_EQ(order.size(), 2000u);
    for (int i = 0; i < 2000; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
    EXPECT_EQ(eq.curTick(), 7u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, EventIdReuseAfterGenerationBump)
{
    // Descheduling frees the slot; the recycled slot must mint a
    // *different* id, and the stale id must stay dead even though it
    // aliases the same slot.
    EventQueue eq;
    const EventId first = eq.schedule(100, [] {});
    EXPECT_TRUE(eq.deschedule(first));

    bool second_fired = false;
    const EventId second =
        eq.schedule(100, [&] { second_fired = true; });
    EXPECT_NE(first, second);

    // The stale handle is a no-op and must not kill the new event.
    EXPECT_FALSE(eq.deschedule(first));
    eq.run();
    EXPECT_TRUE(second_fired);

    // After firing, the second handle is stale too.
    EXPECT_FALSE(eq.deschedule(second));
}

TEST(EventQueue, FiredSlotReuseInvalidatesOldId)
{
    EventQueue eq;
    const EventId first = eq.schedule(10, [] {});
    eq.run();

    bool fired = false;
    const EventId second = eq.schedule(20, [&] { fired = true; });
    EXPECT_NE(first, second);
    EXPECT_FALSE(eq.deschedule(first));
    eq.run();
    EXPECT_TRUE(fired);
}

TEST(EventQueue, TombstoneCompactionKeepsOrderAndCounts)
{
    // Cancel far more events than survive: compaction must fire (the
    // tombstone count stays bounded) without disturbing live order.
    EventQueue eq;
    std::vector<int> order;
    std::vector<EventId> ids;
    for (int i = 0; i < 5000; ++i) {
        ids.push_back(eq.schedule(
            static_cast<Tick>((i * 37) % 997),
            [&order, i] { order.push_back(i); }));
    }
    // Cancel ~90%: keep only every 10th event.
    std::uint64_t cancelled = 0;
    for (int i = 0; i < 5000; ++i) {
        if (i % 10 != 0) {
            EXPECT_TRUE(
                eq.deschedule(ids[static_cast<std::size_t>(i)]));
            ++cancelled;
        }
    }
    EXPECT_EQ(eq.pendingEvents(), 5000u - cancelled);
    // Compaction triggered: dead entries cannot outnumber the living
    // by more than the compaction threshold allows.
    EXPECT_LE(eq.tombstones(), eq.pendingEvents() + 64u);

    eq.run();
    EXPECT_EQ(order.size(), 500u);
    // Survivors still run in (tick, seq) order.
    std::vector<int> expected;
    for (int i = 0; i < 5000; i += 10)
        expected.push_back(i);
    std::sort(expected.begin(), expected.end(), [](int a, int b) {
        const int ta = (a * 37) % 997, tb = (b * 37) % 997;
        return ta != tb ? ta < tb : a < b;
    });
    EXPECT_EQ(order, expected);
}

TEST(EventQueue, NextEventTickPeeksWithoutDispatch)
{
    EventQueue eq;
    eq.schedule(42, [] {});
    EXPECT_EQ(eq.nextEventTick(), 42u);
    EXPECT_EQ(eq.dispatchedEvents(), 0u);

    EventQueue empty;
    EXPECT_EQ(empty.nextEventTick(), maxTick);
}

TEST(EventQueue, CallbackCapturesBeyondInlineBufferStillWork)
{
    // Oversized captures take SmallFn's heap fallback; semantics must
    // be unchanged.
    EventQueue eq;
    std::array<std::uint64_t, 16> payload{};
    payload[15] = 99;
    std::uint64_t seen = 0;
    eq.schedule(5, [payload, &seen] { seen = payload[15]; });
    eq.run();
    EXPECT_EQ(seen, 99u);
}
