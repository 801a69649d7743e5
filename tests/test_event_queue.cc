/**
 * @file
 * Unit tests for the discrete-event engine.
 */

#include "sim/event_queue.hh"
#include "sim/random.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <climits>
#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <tuple>
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

TEST(EventQueue, OutOfRangePriorityThrows)
{
    // The priority is packed into 8 bits of the heap's order word;
    // anything wider would corrupt the order, so it is refused and
    // the queue is left as it was.
    EventQueue eq;
    EXPECT_THROW(eq.schedule(10, [] {}, EventQueue::maxPriority + 1),
                 std::logic_error);
    EXPECT_THROW(eq.schedule(10, [] {}, EventQueue::minPriority - 1),
                 std::logic_error);
    EXPECT_THROW(eq.schedule(10, [] {}, INT_MAX), std::logic_error);
    EXPECT_THROW(eq.scheduleIn(10, [] {}, INT_MIN), std::logic_error);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.tombstones(), 0u);

    bool fired = false;
    eq.schedule(10, [&] { fired = true; }, EventQueue::minPriority);
    eq.run();
    EXPECT_TRUE(fired);
    EXPECT_EQ(eq.dispatchedEvents(), 1u);
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

namespace {

/**
 * Reference queue for EventQueue: every node, live or cancelled, in
 * a map sorted by (tick, priority, seq). Its top is what a correct
 * heap's top must be, so skimming cancelled nodes off the front and
 * compacting on the same trigger reproduces EventQueue's tombstone
 * count as well as its dispatch order.
 */
class ReferenceQueue
{
  public:
    using Callback = std::function<void()>;

    Tick curTick() const { return _curTick; }
    std::uint64_t pendingEvents() const { return _live; }
    std::uint64_t dispatchedEvents() const { return _dispatched; }
    std::uint64_t tombstones() const { return _tombstones; }
    int compactions() const { return _compactions; }

    EventId
    schedule(Tick when, Callback cb, int priority)
    {
        if (when < _curTick)
            throw std::logic_error("reference: scheduling into the past");
        const Key key{when, priority, _nextSeq++};
        _nodes.emplace(key, Node{std::move(cb), true});
        _keys.push_back(key);
        ++_live;
        return _keys.size(); // Ids are 1-based indices into _keys.
    }

    bool
    deschedule(EventId id)
    {
        if (id == 0 || id > _keys.size())
            return false;
        auto it = _nodes.find(_keys[id - 1]);
        if (it == _nodes.end() || !it->second.live)
            return false;
        it->second.live = false;
        it->second.cb = nullptr;
        --_live;
        ++_tombstones;
        if (_tombstones > 64 && _tombstones > _live) {
            std::erase_if(_nodes,
                          [](const auto &kv) { return !kv.second.live; });
            _tombstones = 0;
            ++_compactions;
        }
        return true;
    }

    Tick
    nextEventTick()
    {
        skim();
        return _nodes.empty() ? maxTick : std::get<0>(_nodes.begin()->first);
    }

    bool
    runNext()
    {
        skim();
        if (_nodes.empty())
            return false;
        auto it = _nodes.begin();
        _curTick = std::get<0>(it->first);
        Callback cb = std::move(it->second.cb);
        _nodes.erase(it);
        --_live;
        ++_dispatched;
        cb();
        return true;
    }

    void
    runUntil(Tick limit)
    {
        while (nextEventTick() <= limit) {
            if (!runNext())
                break;
        }
        if (_curTick < limit)
            _curTick = limit;
    }

  private:
    using Key = std::tuple<Tick, int, std::uint64_t>;
    struct Node
    {
        Callback cb;
        bool live;
    };

    void
    skim()
    {
        while (!_nodes.empty() && !_nodes.begin()->second.live) {
            _nodes.erase(_nodes.begin());
            --_tombstones;
        }
    }

    std::map<Key, Node> _nodes;
    std::vector<Key> _keys;
    Tick _curTick = 0;
    std::uint64_t _nextSeq = 0;
    std::uint64_t _live = 0;
    std::uint64_t _dispatched = 0;
    std::uint64_t _tombstones = 0;
    int _compactions = 0;
};

/** What the ordering test compares after every step. */
struct QueueState
{
    std::vector<int> fired; ///< Tokens dispatched in the step, in order.
    std::vector<bool> cancelled; ///< The step's deschedule() results.
    Tick curTick = 0;
    std::uint64_t dispatched = 0;
    std::uint64_t tombstones = 0;
    std::uint64_t pending = 0;

    bool operator==(const QueueState &) const = default;
};

/**
 * Drives one queue through a seeded random program. Every random
 * choice, including those made by callbacks while they dispatch,
 * comes from the driver's own Rng, so two drivers with the same seed
 * make the same choices for as long as their queues agree.
 */
template <typename Queue>
class RandomDriver
{
  public:
    explicit RandomDriver(std::uint64_t seed) : _rng(seed) {}

    /** Run one random operation. */
    void
    step()
    {
        _state.fired.clear();
        _state.cancelled.clear();
        const std::uint64_t op = _rng.below(100);
        if (op < 30) {
            scheduleOne(_q.curTick() + _rng.below(2000));
        } else if (op < 40) {
            // A burst at one tick, priorities from the range's ends
            // and 0, so (tick, priority) ties fall back to insertion
            // order.
            constexpr std::array<int, 3> prios{EventQueue::minPriority, 0,
                                               EventQueue::maxPriority};
            const Tick when = _q.curTick() + _rng.below(500);
            const int count = static_cast<int>(_rng.between(2, 100));
            for (int i = 0; i < count; ++i)
                schedule(when, prios[_rng.below(prios.size())]);
        } else if (op < 55) {
            descheduleAny();
        } else if (op < 60) {
            // Cancel most of what was ever issued: the tombstones
            // then outnumber the living, which forces compact().
            for (std::size_t i = 0; i < _ids.size(); ++i) {
                if (_rng.below(10) != 0)
                    _state.cancelled.push_back(_q.deschedule(_ids[i]));
            }
        } else if (op < 88) {
            _q.runNext();
        } else {
            _q.runUntil(_q.curTick() + _rng.below(3000));
        }
        snapshot();
    }

    const QueueState &state() const { return _state; }
    const Queue &queue() const { return _q; }

  private:
    void
    scheduleOne(Tick when)
    {
        schedule(when, static_cast<int>(_rng.between(
                           EventQueue::minPriority,
                           EventQueue::maxPriority)));
    }

    void
    schedule(Tick when, int priority)
    {
        const int token = _nextToken++;
        _ids.push_back(_q.schedule(when, [this, token] { fire(token); },
                                   priority));
    }

    /** A live, fired, cancelled or never-issued id, at random. */
    void
    descheduleAny()
    {
        EventId id = 0xdead0000beefull; // Never issued by either queue.
        if (!_ids.empty() && _rng.below(8) != 0)
            id = _ids[_rng.below(_ids.size())];
        _state.cancelled.push_back(_q.deschedule(id));
    }

    /** Callback body: log, then sometimes schedule or cancel more. */
    void
    fire(int token)
    {
        _state.fired.push_back(token);
        const std::uint64_t action = _rng.below(10);
        if (action < 3)
            scheduleOne(_q.curTick() + _rng.below(4) * _rng.below(300));
        if (action == 3 || action == 4)
            descheduleAny();
        if (action == 5) {
            scheduleOne(_q.curTick());
            descheduleAny();
        }
    }

    void
    snapshot()
    {
        _state.curTick = _q.curTick();
        _state.dispatched = _q.dispatchedEvents();
        _state.tombstones = _q.tombstones();
        _state.pending = _q.pendingEvents();
    }

    Queue _q;
    Rng _rng;
    std::vector<EventId> _ids;
    int _nextToken = 0;
    QueueState _state;
};

} // namespace

TEST(EventQueue, MatchesReferenceUnderRandomOperations)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        RandomDriver<EventQueue> real(seed);
        RandomDriver<ReferenceQueue> ref(seed);
        for (int i = 0; i < 3000; ++i) {
            real.step();
            ref.step();
            ASSERT_EQ(real.state(), ref.state()) << "after step " << i;
        }
        EXPECT_GT(ref.state().dispatched, 1000u);
        EXPECT_GT(ref.queue().compactions(), 0);
    }
}
