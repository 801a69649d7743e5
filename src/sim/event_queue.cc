#include "sim/event_queue.hh"

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
    std::size_t hole = _heap.size();
    _heap.push_back(node);
    HeapNode *const heap = _heap.data();
    while (hole > 0) {
        const std::size_t parent = (hole - 1) / HeapArity;
        if (!before(node, heap[parent]))
            break;
        heap[hole] = heap[parent];
        hole = parent;
    }
    heap[hole] = node;
}

void
EventQueue::siftDown(std::size_t hole, HeapNode node)
{
    HeapNode *const heap = _heap.data();
    const std::size_t n = _heap.size();
    for (;;) {
        const std::size_t first = hole * HeapArity + 1;
        std::size_t best;
        if (first + HeapArity <= n) {
            // Two pairwise minima, then the lesser of them: the
            // comparison results become index arithmetic and a
            // conditional move, so no branch depends on which child
            // wins.
            const std::size_t lo =
                first + before(heap[first + 1], heap[first]);
            const std::size_t hi =
                first + 2 + before(heap[first + 3], heap[first + 2]);
            best = before(heap[hi], heap[lo]) ? hi : lo;
        } else if (first < n) {
            best = first; // The last parent may have 1-3 children.
            for (std::size_t c = first + 1; c < n; ++c) {
                if (before(heap[c], heap[best]))
                    best = c;
            }
        } else {
            break;
        }
        if (!before(heap[best], node))
            break;
        heap[hole] = heap[best];
        hole = best;
    }
    heap[hole] = node;
}

void
EventQueue::heapPop()
{
    const HeapNode last = _heap.back();
    _heap.pop_back();
    if (!_heap.empty())
        siftDown(0, last);
}

void
EventQueue::heapify()
{
    if (_heap.size() <= 1)
        return;
    for (std::size_t i = (_heap.size() - 2) / HeapArity + 1; i-- > 0;)
        siftDown(i, _heap[i]);
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
    if (priority < minPriority || priority > maxPriority)
        throw std::logic_error("EventQueue: priority outside [-128, 127]");
    // 2^56 events at one per nanosecond would take over two years.
    assert(_nextSeq < (std::uint64_t(1) << SeqBits));

    const std::uint32_t slot = allocSlot();
    Slot &s = _slots[slot];
    s.cb = std::move(cb);
    s.pending = true;

    const EventId id = makeId(slot, s.gen);
    const auto biased = static_cast<std::uint64_t>(priority - minPriority);
    heapPush(HeapNode{when, (biased << SeqBits) | _nextSeq++, id});
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
