/**
 * @file
 * Discrete-event simulation core: a time-ordered event queue.
 *
 * Events scheduled at the same timestamp fire in insertion order
 * (stable FIFO tie-break via a monotonically increasing sequence
 * number), which keeps simulations deterministic.
 *
 * Hot-path design: callbacks live in a recycled slot pool indexed by
 * the low bits of the id. Cancellation just invalidates the slot in
 * O(1) -- the stale heap item is recognised (sequence mismatch or
 * non-pending slot) and dropped when it surfaces. Slot reuse is
 * ABA-safe because the sequence number in the id's high bits is never
 * reused.
 *
 * Ordering is one std::priority_queue min-heap of 16-byte POD items
 * {when, id}: O(log n) schedule and pop, live items executed in
 * exactly (when, sequence) order. Event dispatch is well under 1% of
 * simulation time, so a cleverer structure buys nothing end to end
 * (DESIGN.md §13 has the measurements). tests/test_sim.cc checks the
 * queue against a linear-scan reference over generated scripts.
 */

#ifndef DITTO_SIM_EVENT_QUEUE_H_
#define DITTO_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <queue>
#include <vector>

#include "sim/callback.h"
#include "sim/time.h"

namespace ditto::sim {

/**
 * Opaque handle used to cancel a scheduled event.
 * Packs (sequence << kSlotBits | slot); sequence order == schedule
 * order, so comparing ids preserves the FIFO tie-break.
 */
using EventId = std::uint64_t;

/**
 * Time-ordered queue of callbacks driving the simulation.
 *
 * The queue owns the simulated clock: now() advances only when an
 * event is popped, never backwards.
 */
class EventQueue
{
  public:
    using Callback = InlineCallback;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Time now() const { return now_; }

    /** Schedule a callback at an absolute timestamp (>= now). */
    EventId scheduleAt(Time when, Callback cb);

    /** Schedule a callback after a relative delay from now. */
    EventId scheduleAfter(Time delay, Callback cb);

    /**
     * Cancel a previously scheduled event. O(1).
     * @retval true if the event was pending and is now cancelled;
     *         false for ids that already fired or were cancelled.
     */
    bool cancel(EventId id);

    /** True when no runnable events remain. */
    bool empty() const { return liveEvents_ == 0; }

    /** Number of pending (non-cancelled) events. */
    std::size_t size() const { return liveEvents_; }

    /**
     * Pop and run the next event.
     * @retval false when the queue was empty and nothing ran.
     */
    bool runOne();

    /**
     * Run events until the queue drains or the clock passes `limit`.
     * Events stamped exactly at `limit` still run.
     * @return number of events executed.
     */
    std::uint64_t runUntil(Time limit);

    /** Run all events to exhaustion. @return number executed. */
    std::uint64_t runAll();

    /** Total number of events ever executed. */
    std::uint64_t executedCount() const { return executed_; }

  private:
    /** Low bits of an EventId address the slot pool (<= 16M pending). */
    static constexpr unsigned kSlotBits = 24;
    static constexpr std::uint64_t kSlotMask =
        (std::uint64_t{1} << kSlotBits) - 1;

    /** 16-byte POD ordering item. */
    struct QueueItem
    {
        Time when;
        EventId id;

        bool
        operator>(const QueueItem &other) const
        {
            if (when != other.when)
                return when > other.when;
            return id > other.id;  // sequence dominates -> FIFO
        }
    };

    /** Pooled callback storage; recycled via freeSlots_. */
    struct Slot
    {
        Callback cb;
        std::uint64_t seq = 0;
        bool pending = false;
    };

    std::priority_queue<QueueItem, std::vector<QueueItem>,
                        std::greater<>>
        heap_;
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> freeSlots_;
    Time now_ = 0;
    std::uint64_t nextSeq_ = 1;
    std::size_t liveEvents_ = 0;
    std::uint64_t executed_ = 0;

    /** True when the queue item still references a live slot. */
    bool isLive(EventId id) const;

    /** Allocate a pool slot and build the id for a new event. */
    EventId makeEvent(Callback cb);

    /** Move the callback out of `id`'s slot and retire the slot. */
    Callback takeCallback(EventId id);

    /** Drop dead heap tops; false when the heap drained. */
    bool skimDead();
};

} // namespace ditto::sim

#endif // DITTO_SIM_EVENT_QUEUE_H_
