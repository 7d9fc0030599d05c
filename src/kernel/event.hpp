// rtlsim: intrusive timed events and the binary-heap event queue.
//
// The scheduler's hot path is "pop the earliest timestep, fire its events".
// Every testbench in src/ elaborates one clock and one reset, so the queue
// holds at most two events. A clock toggle alone at the front, with nothing
// else due, never leaves the queue: the scheduler toggles the signal itself
// and moves the front entry on by half a period (DESIGN.md "Kernel event
// path"). Any other timestep pops its events and fires them.
//
//   * TimedEvent is an intrusive, reusable node. Recurring sources (clocks)
//     embed one and reschedule it from fire() without ever allocating. A
//     pushed node leaves the queue only by firing or by clear().
//   * EventQueue is a min-heap of (time, push sequence, node) entries in a
//     std::vector, which keeps its capacity, so a steady-state push, pop or
//     front reschedule allocates nothing.
//
// Ordering contract (identical to the original std::map wheel, and pinned
// by the kernel-invariance tests): events fire in ascending time; events
// with the same timestamp fire in the order they were scheduled.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim_time.hpp"

namespace rtlsim {

class EventQueue;
class Scheduler;
class SignalBase;
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
    /// A clock's toggle node: its fire() flips the Logic signal `toggles`
    /// between L0 and L1 and reschedules the node `half` later. Naming both
    /// lets the scheduler do that itself when nothing else is due.
    TimedEvent(SignalBase& toggles, Time half) noexcept
        : toggles_(&toggles), half_(half) {}

    /// Called by the scheduler when simulated time reaches time().
    virtual void fire() = 0;

private:
    friend class EventQueue;
    friend class Scheduler;
    friend struct EventTestAccess;

    TimedEvent* next_ = nullptr;  ///< intrusive link (fire chain / free list)
    Time time_ = 0;
    bool pending_ = false;
    SignalBase* toggles_ = nullptr;  ///< set on a clock's toggle node only
    Time half_ = 0;
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

    /// The earliest entry's node when no other entry shares its time, else
    /// nullptr. The runner-up of a heap is one of the front's two children.
    [[nodiscard]] TimedEvent* lone_front() const noexcept {
        const std::size_t n = heap_.size();
        if (n == 0) return nullptr;
        const Time t = heap_[0].time;
        if ((n > 1 && heap_[1].time == t) || (n > 2 && heap_[2].time == t)) {
            return nullptr;
        }
        return heap_[0].ev;
    }

    /// Move the front entry's node to `t`, no earlier than its time, with a
    /// fresh push sequence: the order a pop and a push of the node would
    /// give, by one sift-down from the front.
    void reschedule_front(Time t) noexcept {
        assert(!heap_.empty() && t >= heap_.front().time);
        const Entry e{t, seq_++, heap_.front().ev};
        e.ev->time_ = t;
        const std::size_t n = heap_.size();
        std::size_t i = 0;
        for (std::size_t c = 1; c < n; c = 2 * i + 1) {
            if (c + 1 < n && later(heap_[c], heap_[c + 1])) ++c;
            if (!later(e, heap_[c])) break;
            heap_[i] = heap_[c];
            i = c;
        }
        heap_[i] = e;
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
