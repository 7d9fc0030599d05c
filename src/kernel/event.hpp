// rtlsim: intrusive timed events and the calendar-queue time wheel.
//
// The scheduler's hot path is "pop the earliest timestep, fire its events".
// A std::map time wheel pays a red-black-tree rebalance plus a heap-allocated
// closure vector for every clock edge — millions of times per simulated
// frame. The structures here exploit what an RTL workload actually looks
// like: almost every event is one clock half-period in the future.
//
//   * TimedEvent is an intrusive, reusable node. Recurring sources (clocks)
//     embed one and reschedule it from fire() without ever allocating. A
//     pushed node leaves the queue only by firing or by clear().
//   * CalendarQueue keys events into a ring of flat buckets covering the
//     near future; the rare far-future event (watchdogs, one-shot resets)
//     goes to a sorted overflow map and migrates into the ring as the
//     window advances.
//
// Ordering contract (identical to the old std::map wheel, and pinned by the
// kernel-invariance tests): events fire in ascending time; events with the
// same timestamp fire in the order they were scheduled, regardless of which
// side of the ring/overflow boundary they landed on.
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>

#include "sim_time.hpp"

namespace rtlsim {

class CalendarQueue;
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

    /// True while the event sits in the time wheel awaiting its timestamp.
    [[nodiscard]] bool pending() const noexcept { return pending_; }
    /// Timestamp of the pending (or last) schedule.
    [[nodiscard]] Time time() const noexcept { return time_; }

protected:
    /// Called by the scheduler when simulated time reaches time().
    virtual void fire() = 0;

private:
    friend class CalendarQueue;
    friend class Scheduler;
    friend struct EventTestAccess;

    TimedEvent* next_ = nullptr;  ///< intrusive link (bucket / fire / free list)
    Time time_ = 0;
    bool pending_ = false;
};

/// Calendar-queue time wheel: a power-of-two ring of FIFO buckets, each
/// covering `1 << bucket_shift` picoseconds of the near future, plus a
/// sorted overflow map for events beyond the ring's horizon. push/pop are
/// O(1) for the clock-period-spaced events that dominate RTL simulation.
///
/// The ring window is anchored at `floor_bucket_`, a monotone lower bound
/// on every pending timestamp (advanced by pops and by the caller-supplied
/// `now` on push — never by lookahead, so peeking can never strand a
/// subsequent schedule-at-now behind the scan position). Two invariants
/// hold between operations:
///   1. every ring event's bucket lies in [floor_bucket_, floor_bucket_ +
///      kBuckets), so a forward scan of at most kBuckets slots finds the
///      earliest one without aliasing;
///   2. every overflow timestamp is strictly later than every ring
///      timestamp (push migrates equal-or-earlier overflow entries into
///      the ring first), so the global minimum is in the ring whenever the
///      ring is non-empty.
class CalendarQueue {
public:
    /// Default bucket width 2^12 ps = 4.096 ns: a 100 MHz clock's 5 ns
    /// half-period lands successive edges in successive buckets, so the
    /// scan in pop_step() touches one, occasionally two, buckets.
    explicit CalendarQueue(unsigned bucket_shift = 12) noexcept
        : shift_(bucket_shift) {}

    [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
    [[nodiscard]] std::size_t size() const noexcept { return count_; }

    /// Enqueue `ev` at ev->time_, which must be >= `now` (the caller's
    /// current simulated time, itself <= every pending timestamp).
    /// FIFO per timestamp.
    void push(TimedEvent* ev, Time now) {
        assert(ev->time_ >= now);
        const std::uint64_t now_bucket = bucket_of(now);
        if (now_bucket > floor_bucket_) floor_bucket_ = now_bucket;
        ++count_;
        const Time t = ev->time_;
        if (bucket_of(t) >= floor_bucket_ + kBuckets) {
            overflow_.emplace(t, ev);  // multimap keeps same-key FIFO order
            return;
        }
        // Same-timestamp FIFO across the boundary (and invariant 2): any
        // equal-or-earlier event parked in the overflow enters the ring
        // first. All overflow events with time <= t fit the window when
        // t does, since bucketing is monotone.
        while (!overflow_.empty() && overflow_.begin()->first <= t) {
            migrate_front();
        }
        append(ev);
    }

    /// Drain every pending event without firing it (checkpoint restore
    /// discards the pre-restore timeline): clears the pending flags and
    /// intrusive links so the nodes can be rescheduled, empties the
    /// overflow, and rewinds the window anchor for the restored clock.
    void clear() noexcept {
        for (Bucket& bk : ring_) {
            for (TimedEvent* e = bk.head; e != nullptr;) {
                TimedEvent* next = e->next_;
                e->next_ = nullptr;
                e->pending_ = false;
                e = next;
            }
            bk.head = nullptr;
            bk.tail = nullptr;
        }
        for (auto& [t, e] : overflow_) {
            e->next_ = nullptr;
            e->pending_ = false;
        }
        overflow_.clear();
        count_ = 0;
        floor_bucket_ = 0;
    }

    /// Earliest pending timestamp; false when the queue is empty.
    [[nodiscard]] bool peek_next(Time& t) const {
        if (count_ == 0) return false;
        if (ring_count() == 0) {
            t = overflow_.begin()->first;
            return true;
        }
        t = min_time_in(first_bucket());
        return true;
    }

    /// Unlink and return the FIFO chain (linked via TimedEvent::next_) of
    /// every event at the earliest timestamp, which is written to `t`.
    /// Events pushed while the chain fires land in a fresh timestep.
    [[nodiscard]] TimedEvent* pop_step(Time& t) {
        if (count_ == 0) return nullptr;
        if (ring_count() == 0) return pop_overflow_step(t);

        Bucket& bk = first_bucket();
        const Time tmin = min_time_in(bk);
        floor_bucket_ = bucket_of(tmin);
        // Split the bucket: events at tmin leave (order preserved), the
        // rest — later residues sharing the bucket — stay.
        TimedEvent* out_head = nullptr;
        TimedEvent** out_link = &out_head;
        bk.tail = nullptr;
        TimedEvent** keep_link = &bk.head;
        for (TimedEvent* e = bk.head; e != nullptr;) {
            TimedEvent* next = e->next_;
            e->next_ = nullptr;
            if (e->time_ == tmin) {
                *out_link = e;
                out_link = &e->next_;
                --count_;
            } else {
                *keep_link = e;
                keep_link = &e->next_;
                bk.tail = e;
            }
            e = next;
        }
        *keep_link = nullptr;
        t = tmin;
        return out_head;
    }

private:
    static constexpr std::size_t kLogBuckets = 8;
    static constexpr std::size_t kBuckets = std::size_t{1} << kLogBuckets;
    static constexpr std::size_t kMask = kBuckets - 1;

    struct Bucket {
        TimedEvent* head = nullptr;
        TimedEvent* tail = nullptr;
    };

    [[nodiscard]] std::uint64_t bucket_of(Time t) const noexcept {
        return t >> shift_;
    }

    [[nodiscard]] std::size_t ring_count() const noexcept {
        return count_ - overflow_.size();
    }

    void append(TimedEvent* ev) {
        Bucket& bk = ring_[bucket_of(ev->time_) & kMask];
        if (bk.tail != nullptr) {
            bk.tail->next_ = ev;
        } else {
            bk.head = ev;
        }
        bk.tail = ev;
    }

    void migrate_front() {
        auto it = overflow_.begin();
        append(it->second);
        overflow_.erase(it);
    }

    /// First non-empty ring bucket at or after the floor (invariant 1
    /// bounds the scan). Precondition: ring_count() > 0.
    [[nodiscard]] const Bucket& first_bucket() const {
        std::uint64_t b = floor_bucket_;
        while (ring_[b & kMask].head == nullptr) ++b;
        return ring_[b & kMask];
    }
    [[nodiscard]] Bucket& first_bucket() {
        return const_cast<Bucket&>(std::as_const(*this).first_bucket());
    }

    /// A bucket spans `1 << shift_` ps and may hold several distinct
    /// timestamps; the step's time is the minimum over its (short) chain.
    [[nodiscard]] static Time min_time_in(const Bucket& bk) noexcept {
        Time tmin = bk.head->time_;
        for (TimedEvent* e = bk.head->next_; e != nullptr; e = e->next_) {
            if (e->time_ < tmin) tmin = e->time_;
        }
        return tmin;
    }

    /// Far-future jump: the ring is empty, so the whole earliest timestep
    /// lives at the front of the (time-sorted, same-key FIFO) overflow map.
    [[nodiscard]] TimedEvent* pop_overflow_step(Time& t) {
        const Time tmin = overflow_.begin()->first;
        floor_bucket_ = bucket_of(tmin);
        TimedEvent* head = nullptr;
        TimedEvent** link = &head;
        auto it = overflow_.begin();
        while (it != overflow_.end() && it->first == tmin) {
            *link = it->second;
            link = &it->second->next_;
            it = overflow_.erase(it);
            --count_;
        }
        *link = nullptr;
        t = tmin;
        return head;
    }

    unsigned shift_;
    std::uint64_t floor_bucket_ = 0;
    std::size_t count_ = 0;
    std::array<Bucket, kBuckets> ring_{};
    std::multimap<Time, TimedEvent*> overflow_;
};

}  // namespace rtlsim
