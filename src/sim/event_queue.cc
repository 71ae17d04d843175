#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>

namespace ditto::sim {

EventId
EventQueue::makeEvent(Callback cb)
{
    std::uint32_t slot;
    if (!freeSlots_.empty()) {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    } else {
        assert(slots_.size() < kSlotMask && "too many pending events");
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    }

    Slot &s = slots_[slot];
    s.seq = nextSeq_++;
    s.pending = true;
    s.cb = std::move(cb);
    ++liveEvents_;
    return (s.seq << kSlotBits) | slot;
}

EventQueue::Callback
EventQueue::takeCallback(EventId id)
{
    const auto slot = static_cast<std::uint32_t>(id & kSlotMask);
    // Move the callback out and free the slot *before* invoking: the
    // callback may schedule new events, which can recycle the slot or
    // grow the pool.
    Callback cb = std::move(slots_[slot].cb);
    slots_[slot].pending = false;
    freeSlots_.push_back(slot);
    --liveEvents_;
    return cb;
}

EventId
EventQueue::scheduleAt(Time when, Callback cb)
{
    assert(cb && "scheduling a null callback");
    const Time effective = std::max(when, now_);
    const EventId id = makeEvent(std::move(cb));
    heap_.push(QueueItem{effective, id});
    return id;
}

EventId
EventQueue::scheduleAfter(Time delay, Callback cb)
{
    return scheduleAt(now_ + delay, std::move(cb));
}

bool
EventQueue::cancel(EventId id)
{
    const std::uint32_t slot = static_cast<std::uint32_t>(id & kSlotMask);
    if (slot >= slots_.size())
        return false;
    Slot &s = slots_[slot];
    if (!s.pending || s.seq != (id >> kSlotBits))
        return false;  // already fired, already cancelled, or bogus id
    s.pending = false;
    s.cb.reset();  // release captured resources immediately
    freeSlots_.push_back(slot);
    --liveEvents_;
    // The heap still holds a stale item for this id; it is recognised
    // (sequence mismatch / non-pending slot) and dropped when it
    // surfaces.
    return true;
}

bool
EventQueue::isLive(EventId id) const
{
    const std::uint32_t slot = static_cast<std::uint32_t>(id & kSlotMask);
    const Slot &s = slots_[slot];
    return s.pending && s.seq == (id >> kSlotBits);
}

bool
EventQueue::skimDead()
{
    while (!heap_.empty() && !isLive(heap_.top().id))
        heap_.pop();
    return !heap_.empty();
}

// ---- execution ------------------------------------------------------

bool
EventQueue::runOne()
{
    if (!skimDead())
        return false;
    const QueueItem item = heap_.top();
    heap_.pop();
    assert(item.when >= now_ && "time went backwards");
    now_ = item.when;
    Callback cb = takeCallback(item.id);
    ++executed_;
    cb();
    return true;
}

std::uint64_t
EventQueue::runUntil(Time limit)
{
    std::uint64_t count = 0;
    while (skimDead() && heap_.top().when <= limit) {
        runOne();
        ++count;
    }
    // Even if no event fired at `limit`, the caller observed that much
    // simulated time pass.
    now_ = std::max(now_, limit);
    return count;
}

std::uint64_t
EventQueue::runAll()
{
    std::uint64_t count = 0;
    while (runOne())
        ++count;
    return count;
}

} // namespace ditto::sim
