/**
 * @file
 * Discrete-event engine driving the multi-GPU simulator.
 *
 * Every timing-visible action in the system — CTA completion, chunk
 * transfer delivery, DMA completion, polling-agent wakeup, page-fault
 * service — is an event scheduled on a queue. Events at equal ticks
 * are ordered by priority, then by insertion sequence so execution is
 * fully deterministic.
 *
 * The engine is built for throughput (the profiler sweeps hundreds of
 * configurations per application, so simulation speed is a product
 * feature):
 *
 *  - Entries live in a slab: a flat slot vector recycled through a
 *    freelist, no per-event heap allocation and no shared_ptr control
 *    blocks.
 *  - The ready structure is a 4-ary heap of 24-byte plain-old-data
 *    nodes keyed (tick, priority, seq): the tick, then one order word
 *    packing the biased priority above the sequence number, so a key
 *    comparison is a single 128-bit compare. The heap is shallower
 *    than a binary one, picks the least of four children without
 *    branching, and sifts by moving a hole instead of swapping.
 *  - EventIds carry a generation counter, so deschedule() is an O(1)
 *    slot probe with no hash map; stale ids (fired, cancelled, or
 *    recycled slots) are rejected by the generation check.
 *  - Cancelled events leave a tombstone node in the heap that is
 *    skipped lazily at pop; when tombstones outnumber live nodes the
 *    heap is compacted in one O(n) filter + heapify pass.
 *  - Callbacks use small-buffer storage (SmallFn) so capturing a few
 *    pointers never allocates.
 */

#ifndef PROACT_SIM_EVENT_QUEUE_HH
#define PROACT_SIM_EVENT_QUEUE_HH

#include "sim/small_fn.hh"
#include "sim/types.hh"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace proact {

/**
 * Opaque handle identifying a scheduled event (used to cancel it).
 *
 * Packs (generation << 32) | (slot + 1); value 0 is never issued, so
 * callers can use 0 as "no event". A handle is invalidated the moment
 * its event fires or is descheduled — the slot's generation bumps and
 * any later use of the stale id is a harmless no-op.
 */
using EventId = std::uint64_t;

/**
 * Deterministic discrete-event queue.
 *
 * The queue owns the simulated clock: curTick() advances only when an
 * event is dispatched. Callbacks may schedule further events (including
 * at the current tick) but never in the past.
 */
class EventQueue
{
  public:
    using Callback = SmallFn<void()>;

    /** @{ Range of schedule()'s priority (it is packed into 8 bits). */
    static constexpr int minPriority = -128;
    static constexpr int maxPriority = 127;
    /** @} */

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick curTick() const { return _curTick; }

    /**
     * Schedule @p cb to run at absolute time @p when.
     *
     * @param when Absolute tick; must be >= curTick().
     * @param cb Callback invoked when the event fires.
     * @param priority Lower values run first among same-tick events;
     *        must lie in [minPriority, maxPriority].
     * @return Handle usable with deschedule().
     * @throws std::logic_error if @p when is in the past or
     *         @p priority is out of range.
     */
    EventId schedule(Tick when, Callback cb, int priority = 0);

    /** Schedule @p cb to run @p delay ticks from now. */
    EventId
    scheduleIn(Tick delay, Callback cb, int priority = 0)
    {
        return schedule(_curTick + delay, std::move(cb), priority);
    }

    /**
     * Cancel a pending event. Cancelling an already-fired or unknown
     * event is a harmless no-op.
     * @return true iff the event was pending and is now cancelled.
     */
    bool deschedule(EventId id);

    /** Whether any live (non-cancelled) events remain. */
    bool empty() const { return _liveEvents == 0; }

    /** Number of live pending events. */
    std::uint64_t pendingEvents() const { return _liveEvents; }

    /** Total events dispatched so far. */
    std::uint64_t dispatchedEvents() const { return _dispatched; }

    /** Cancelled entries still occupying heap nodes (tombstones). */
    std::uint64_t tombstones() const { return _tombstones; }

    /**
     * Earliest live event's tick without dispatching it, or maxTick
     * when no live events remain. Pops tombstones off the heap top as
     * a side effect (hence non-const).
     */
    Tick nextEventTick();

    /**
     * Dispatch the single next event.
     * @return true if an event ran, false if the queue was empty.
     */
    bool runNext();

    /** Run until no live events remain. */
    void run();

    /**
     * Run until the clock would pass @p limit; events at exactly
     * @p limit still execute. The clock always ends at >= @p limit,
     * even when the queue drains early.
     */
    void runUntil(Tick limit);

  private:
    static constexpr std::uint32_t NoIndex = ~std::uint32_t(0);

    /** Slab slot holding one pending event's callback. */
    struct Slot
    {
        Callback cb;
        std::uint32_t gen = 0;      ///< Bumped when the slot is freed.
        std::uint32_t nextFree = NoIndex; ///< Freelist link when free.
        bool pending = false;
    };

    /** Sequence numbers fill the order word below the priority. */
    static constexpr unsigned SeqBits = 56;

    /**
     * Heap node: ordering key + validating id, no indirection. The
     * order word is (priority - minPriority) << SeqBits | seq; the
     * bias makes unsigned order agree with signed priority order.
     */
    struct HeapNode
    {
        Tick when;
        std::uint64_t order;
        EventId id;
    };

    static EventId
    makeId(std::uint32_t slot, std::uint32_t gen)
    {
        return (static_cast<EventId>(gen) << 32)
            | static_cast<EventId>(slot + 1);
    }

    static std::uint32_t slotOf(EventId id)
    {
        return static_cast<std::uint32_t>(id & 0xffffffffu) - 1;
    }

    static std::uint32_t genOf(EventId id)
    {
        return static_cast<std::uint32_t>(id >> 32);
    }

    bool
    isLive(EventId id) const
    {
        const std::uint32_t slot = slotOf(id);
        return slot < _slots.size() && _slots[slot].pending
            && _slots[slot].gen == genOf(id);
    }

    /** Strict (tick, priority, seq) ordering: one 128-bit compare. */
    static bool
    before(const HeapNode &a, const HeapNode &b)
    {
        using Key = __uint128_t;
        return ((Key(a.when) << 64) | a.order)
            < ((Key(b.when) << 64) | b.order);
    }

    std::uint32_t allocSlot();
    void freeSlot(std::uint32_t slot);

    void heapPush(HeapNode node);
    void heapPop();
    void heapify();

    /** Move the hole at @p hole down until @p node fits, fill it. */
    void siftDown(std::size_t hole, HeapNode node);

    /** Drop stale nodes off the heap top; heap top is live after. */
    void skimTombstones();

    /** Filter every tombstone out and re-heapify (O(n)). */
    void compact();

    /**
     * Tombstone bookkeeping can't silently drift: every heap node is
     * either live or an accounted tombstone. Checked (debug builds)
     * on every mutation; compact() additionally recounts the heap.
     */
    void
    assertBookkeeping() const
    {
        assert(_liveEvents + _tombstones == _heap.size());
    }

    std::vector<Slot> _slots;
    std::uint32_t _freeHead = NoIndex;
    std::vector<HeapNode> _heap;

    Tick _curTick = 0;
    std::uint64_t _nextSeq = 0;
    std::uint64_t _liveEvents = 0;
    std::uint64_t _tombstones = 0;
    std::uint64_t _dispatched = 0;
};

} // namespace proact

#endif // PROACT_SIM_EVENT_QUEUE_HH
