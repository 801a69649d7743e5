#include "sim/event_queue.hh"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace proact {

namespace {

/** Children per heap node; 4-ary keeps the tree shallow and one
 * parent's children inside a single cache line pair. */
constexpr std::size_t HeapArity = 4;

/** Compaction triggers only past this many tombstones, so small
 * queues never pay the O(n) filter. */
constexpr std::uint64_t CompactMinTombstones = 64;

} // namespace

std::uint32_t
EventQueue::allocSlot()
{
    if (_freeHead != NoIndex) {
        const std::uint32_t slot = _freeHead;
        _freeHead = _slots[slot].nextFree;
        _slots[slot].nextFree = NoIndex;
        return slot;
    }
    _slots.emplace_back();
    return static_cast<std::uint32_t>(_slots.size() - 1);
}

void
EventQueue::freeSlot(std::uint32_t slot)
{
    Slot &s = _slots[slot];
    s.cb = nullptr;
    s.pending = false;
    ++s.gen; // Invalidate every outstanding EventId for this slot.
    s.nextFree = _freeHead;
    _freeHead = slot;
}

void
EventQueue::heapPush(HeapNode node)
{
    _heap.push_back(node);
    std::size_t i = _heap.size() - 1;
    while (i > 0) {
        const std::size_t parent = (i - 1) / HeapArity;
        if (!before(_heap[i], _heap[parent]))
            break;
        std::swap(_heap[i], _heap[parent]);
        i = parent;
    }
}

void
EventQueue::heapPop()
{
    _heap.front() = _heap.back();
    _heap.pop_back();
    if (_heap.empty())
        return;

    const std::size_t n = _heap.size();
    std::size_t i = 0;
    for (;;) {
        const std::size_t first = i * HeapArity + 1;
        if (first >= n)
            break;
        std::size_t best = first;
        const std::size_t last = std::min(first + HeapArity, n);
        for (std::size_t c = first + 1; c < last; ++c) {
            if (before(_heap[c], _heap[best]))
                best = c;
        }
        if (!before(_heap[best], _heap[i]))
            break;
        std::swap(_heap[i], _heap[best]);
        i = best;
    }
}

void
EventQueue::heapify()
{
    if (_heap.size() <= 1)
        return;
    const std::size_t n = _heap.size();
    for (std::size_t i = (n - 2) / HeapArity + 1; i-- > 0;) {
        std::size_t j = i;
        for (;;) {
            const std::size_t first = j * HeapArity + 1;
            if (first >= n)
                break;
            std::size_t best = first;
            const std::size_t last = std::min(first + HeapArity, n);
            for (std::size_t c = first + 1; c < last; ++c) {
                if (before(_heap[c], _heap[best]))
                    best = c;
            }
            if (!before(_heap[best], _heap[j]))
                break;
            std::swap(_heap[j], _heap[best]);
            j = best;
        }
    }
}

void
EventQueue::compact()
{
    auto out = _heap.begin();
    for (const HeapNode &node : _heap) {
        if (isLive(node.id))
            *out++ = node;
    }
    _heap.erase(out, _heap.end());
    heapify();

    assert(_heap.size() == _liveEvents); // Debug recount of the slab.
    _tombstones = 0;
    assertBookkeeping();
}

EventId
EventQueue::schedule(Tick when, Callback cb, int priority)
{
    if (when < _curTick)
        throw std::logic_error("EventQueue: scheduling into the past");

    const std::uint32_t slot = allocSlot();
    Slot &s = _slots[slot];
    s.cb = std::move(cb);
    s.pending = true;

    const EventId id = makeId(slot, s.gen);
    heapPush(HeapNode{when, _nextSeq++, id,
                      static_cast<std::int32_t>(priority)});
    ++_liveEvents;
    assertBookkeeping();
    return id;
}

bool
EventQueue::deschedule(EventId id)
{
    if (!isLive(id))
        return false;

    freeSlot(slotOf(id));
    assert(_liveEvents > 0);
    --_liveEvents;
    ++_tombstones; // The heap node stays behind; pop skips it.

    // Reclaim heap space once the dead outnumber the living — keeps
    // deschedule-heavy phases (retry storms, mass rebooking) from
    // growing the heap without bound.
    if (_tombstones > CompactMinTombstones && _tombstones > _liveEvents)
        compact();

    assertBookkeeping();
    return true;
}

void
EventQueue::skimTombstones()
{
    while (!_heap.empty() && !isLive(_heap.front().id)) {
        heapPop();
        assert(_tombstones > 0);
        --_tombstones;
    }
    assertBookkeeping();
}

Tick
EventQueue::nextEventTick()
{
    skimTombstones();
    return _heap.empty() ? maxTick : _heap.front().when;
}

bool
EventQueue::runNext()
{
    skimTombstones();
    if (_heap.empty())
        return false;

    const HeapNode top = _heap.front();
    heapPop();

    assert(top.when >= _curTick);
    _curTick = top.when;

    const std::uint32_t slot = slotOf(top.id);
    // Move the callback out and retire the slot *before* invoking, so
    // the callback can schedule freely (growing the slab) and even
    // deschedule other events without observing a half-dead entry.
    Callback cb = std::move(_slots[slot].cb);
    freeSlot(slot);
    --_liveEvents;
    ++_dispatched;
    assertBookkeeping();

    cb();
    return true;
}

void
EventQueue::run()
{
    while (runNext()) {
    }
}

void
EventQueue::runUntil(Tick limit)
{
    while (nextEventTick() <= limit) {
        if (!runNext())
            break; // Guards limit == maxTick on an empty queue.
    }
    if (_curTick < limit)
        _curTick = limit;
}

} // namespace proact
