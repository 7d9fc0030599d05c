// rtlsim: intrusive timed events and the binary-heap event queue.
//
// The scheduler's hot path is "pop the earliest timestep, fire its events".
// Every testbench in src/ elaborates one clock and one reset, so the queue
// holds at most two events: a clock edge costs one heap push and one heap
// pop on a two-element vector (DESIGN.md "Kernel event path").
//
//   * TimedEvent is an intrusive, reusable node. Recurring sources (clocks)
//     embed one and reschedule it from fire() without ever allocating. A
//     pushed node leaves the queue only by firing or by clear().
//   * EventQueue is a min-heap of (time, push sequence, node) entries in a
//     std::vector, which keeps its capacity, so a steady-state push or pop
//     allocates nothing.
//
// Ordering contract (identical to the original std::map wheel, and pinned
// by the kernel-invariance tests): events fire in ascending time; events
// with the same timestamp fire in the order they were scheduled.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim_time.hpp"

namespace rtlsim {

class EventQueue;
class Scheduler;
struct EventTestAccess;  // white-box driver for the differential queue test

/// An intrusive schedulable event. Derive, implement fire(), and hand the
/// node to Scheduler::schedule_event(). The node must outlive its pending
/// schedule; it may be rescheduled from inside its own fire() (the scheduler
/// clears `pending` before firing), which is how clocks tick allocation-free.
class TimedEvent {
public:
    TimedEvent() = default;
    virtual ~TimedEvent() = default;

    TimedEvent(const TimedEvent&) = delete;
    TimedEvent& operator=(const TimedEvent&) = delete;

    /// True while the event sits in the queue awaiting its timestamp.
    [[nodiscard]] bool pending() const noexcept { return pending_; }
    /// Timestamp of the pending (or last) schedule.
    [[nodiscard]] Time time() const noexcept { return time_; }

protected:
    /// Called by the scheduler when simulated time reaches time().
    virtual void fire() = 0;

private:
    friend class EventQueue;
    friend class Scheduler;
    friend struct EventTestAccess;

    TimedEvent* next_ = nullptr;  ///< intrusive link (fire chain / free list)
    Time time_ = 0;
    bool pending_ = false;
};

/// Min-heap on (time, push sequence): the sequence number breaks timestamp
/// ties in push order, which is the FIFO-per-timestamp contract.
class EventQueue {
public:
    [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
    [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

    /// Enqueue `ev` at ev->time_. FIFO per timestamp.
    void push(TimedEvent* ev) {
        heap_.push_back({ev->time_, seq_++, ev});
        std::push_heap(heap_.begin(), heap_.end(), later);
    }

    /// Drain every pending event without firing it (checkpoint restore
    /// discards the pre-restore timeline): clears the pending flags and
    /// intrusive links so the nodes can be rescheduled.
    void clear() noexcept {
        for (const Entry& e : heap_) {
            e.ev->next_ = nullptr;
            e.ev->pending_ = false;
        }
        heap_.clear();
    }

    /// Earliest pending timestamp; false when the queue is empty.
    [[nodiscard]] bool peek_next(Time& t) const {
        if (heap_.empty()) return false;
        t = heap_.front().time;
        return true;
    }

    /// Unlink and return the FIFO chain (linked via TimedEvent::next_) of
    /// every event at the earliest timestamp, which is written to `t`.
    /// Events pushed while the chain fires land in a fresh timestep.
    [[nodiscard]] TimedEvent* pop_step(Time& t) {
        if (heap_.empty()) return nullptr;
        t = heap_.front().time;
        TimedEvent* head = nullptr;
        TimedEvent** link = &head;
        while (!heap_.empty() && heap_.front().time == t) {
            std::pop_heap(heap_.begin(), heap_.end(), later);
            *link = heap_.back().ev;
            link = &heap_.back().ev->next_;
            heap_.pop_back();
        }
        *link = nullptr;
        return head;
    }

private:
    struct Entry {
        Time time;
        std::uint64_t seq;
        TimedEvent* ev;
    };

    /// Heap order: the front is the entry no other entry is later than.
    static bool later(const Entry& a, const Entry& b) noexcept {
        return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }

    std::vector<Entry> heap_;
    std::uint64_t seq_ = 0;
};

}  // namespace rtlsim
