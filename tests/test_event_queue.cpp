// Micro-tests for the event queue (kernel/event.hpp) through its only
// production client, the Scheduler. These pin the ordering contract the
// original std::map wheel provided — ascending time, FIFO within a
// timestamp — for near and far-future events, events scheduled at
// different times for the same timestamp, and same-time rescheduling.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "kernel/kernel.hpp"
#include "kernel/prng.hpp"

namespace rtlsim {

/// White-box driver for testing EventQueue without a Scheduler: primes
/// the intrusive fields the way Scheduler::schedule_* does and walks the
/// FIFO chain pop_step() hands back. Declared a friend in event.hpp so the
/// production fields stay private.
struct EventTestAccess {
    static void prime(TimedEvent& e, Time t) {
        e.time_ = t;
        e.pending_ = true;
        e.next_ = nullptr;
    }
    [[nodiscard]] static TimedEvent* next(const TimedEvent& e) {
        return e.next_;
    }
    static void retire(TimedEvent& e) {
        e.pending_ = false;
        e.next_ = nullptr;
    }
};

}  // namespace rtlsim

namespace {

using rtlsim::EventQueue;
using rtlsim::NS;
using rtlsim::Scheduler;
using rtlsim::Time;
using rtlsim::TimedEvent;
using rtlsim::US;

/// An intrusive event that appends its tag to a shared log when fired.
class TagEvent final : public TimedEvent {
public:
    TagEvent(std::vector<int>& log, int tag) : log_(log), tag_(tag) {}

private:
    void fire() override { log_.push_back(tag_); }
    std::vector<int>& log_;
    int tag_;
};

// Far future for a 100 MHz clock: two hundred periods ahead.
constexpr Time kFarFuture = 2 * US;

TEST(EventQueue, SameTimestepIsFifo) {
    Scheduler sch;
    std::vector<int> log;
    for (int i = 0; i < 8; ++i) {
        sch.schedule_at(10 * NS, [&log, i] { log.push_back(i); });
    }
    EXPECT_TRUE(sch.advance());
    EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
    EXPECT_EQ(sch.stats.time_steps, 1u);
    EXPECT_EQ(sch.stats.timed_events, 8u);
}

TEST(EventQueue, SameTimestepFifoMixesClosureAndIntrusiveEvents) {
    Scheduler sch;
    std::vector<int> log;
    TagEvent e1(log, 1);
    TagEvent e3(log, 3);
    sch.schedule_at(10 * NS, [&log] { log.push_back(0); });
    sch.schedule_event(10 * NS, e1);
    sch.schedule_at(10 * NS, [&log] { log.push_back(2); });
    sch.schedule_event(10 * NS, e3);
    EXPECT_TRUE(e1.pending());
    EXPECT_TRUE(sch.advance());
    EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_FALSE(e1.pending());
}

TEST(EventQueue, FarFutureEventsFireInTimeOrder) {
    Scheduler sch;
    std::vector<int> log;
    // Far first, then near: must still fire time-ordered.
    sch.schedule_at(kFarFuture, [&log] { log.push_back(2); });
    sch.schedule_at(5 * kFarFuture, [&log] { log.push_back(3); });
    sch.schedule_at(10 * NS, [&log] { log.push_back(0); });
    sch.schedule_at(20 * NS, [&log] { log.push_back(1); });
    sch.run();
    EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(sch.now(), 5 * kFarFuture);
    EXPECT_EQ(sch.stats.time_steps, 4u);
}

TEST(EventQueue, FarFutureSameTimeEventsAreFifo) {
    Scheduler sch;
    std::vector<int> log;
    for (int i = 0; i < 4; ++i) {
        sch.schedule_at(kFarFuture, [&log, i] { log.push_back(i); });
    }
    sch.run();
    EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, SameTimeFifoSpansEventsScheduledAtDifferentTimes) {
    Scheduler sch;
    std::vector<int> log;
    // The first event is scheduled far ahead at t = 0; the second for the
    // same timestamp from an event shortly before it. Scheduling order
    // must win.
    sch.schedule_at(kFarFuture, [&log] { log.push_back(0); });
    sch.schedule_at(kFarFuture - 100 * NS, [&] {
        sch.schedule_at(kFarFuture, [&log] { log.push_back(1); });
    });
    sch.run();
    EXPECT_EQ(log, (std::vector<int>{0, 1}));
}

TEST(EventQueue, LoneFarFutureEventJumpsStraightToItsTime) {
    Scheduler sch;
    bool fired = false;
    sch.schedule_at(7 * kFarFuture + 3, [&] { fired = true; });
    EXPECT_TRUE(sch.advance());
    EXPECT_TRUE(fired);
    EXPECT_EQ(sch.now(), 7 * kFarFuture + 3);
    EXPECT_FALSE(sch.advance());
}

// schedule_at(now()) — e.g. from a fired event or a settling process —
// lands in a *new* timestep at the same timestamp: now() is unchanged but
// time_steps advances, exactly as with the old per-timestamp map entries.
TEST(EventQueue, ScheduleAtNowRunsInANewTimestepAtTheSameTime) {
    Scheduler sch;
    std::vector<int> log;
    sch.schedule_at(10 * NS, [&] {
        log.push_back(0);
        sch.schedule_at(sch.now(), [&] {
            log.push_back(1);
            EXPECT_EQ(sch.now(), 10 * NS);
        });
    });
    sch.schedule_at(20 * NS, [&log] { log.push_back(2); });
    EXPECT_TRUE(sch.advance());
    EXPECT_EQ(sch.now(), 10 * NS);
    EXPECT_EQ(log, (std::vector<int>{0}));
    EXPECT_TRUE(sch.advance());  // the schedule-at-now event, time unchanged
    EXPECT_EQ(sch.now(), 10 * NS);
    EXPECT_EQ(log, (std::vector<int>{0, 1}));
    EXPECT_EQ(sch.stats.time_steps, 2u);
    EXPECT_TRUE(sch.advance());
    EXPECT_EQ(log, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, ScheduleAtNowAfterRunUntilIsNotLost) {
    Scheduler sch;
    rtlsim::Clock clk(sch, "clk", 10 * NS);
    sch.run_until(50 * NS);  // lookahead peeked past 50 ns here
    bool fired = false;
    sch.schedule_in(0, [&] { fired = true; });
    sch.run_until(80 * NS);
    EXPECT_TRUE(fired);
}

// A stop request made by an event does not cut the current timestep short:
// the rest of the chain fires and the deltas settle (matching the old
// kernel, where the timestep's vector was already popped). Only the *next*
// advance() observes the stop.
TEST(EventQueue, StopRequestMidTimestepCompletesTheStep) {
    Scheduler sch;
    std::vector<int> log;
    sch.schedule_at(10 * NS, [&] {
        log.push_back(0);
        sch.request_stop("tb.watchdog");
    });
    sch.schedule_at(10 * NS, [&log] { log.push_back(1); });
    sch.schedule_at(20 * NS, [&log] { log.push_back(2); });  // never fires
    sch.run();
    EXPECT_EQ(log, (std::vector<int>{0, 1}));
    EXPECT_TRUE(sch.stop_requested());
    EXPECT_EQ(sch.stop_reason(), "tb.watchdog");
    EXPECT_EQ(sch.now(), 10 * NS);
    EXPECT_FALSE(sch.advance());
}

TEST(EventQueue, IntrusiveEventReschedulesItselfFromFire) {
    Scheduler sch;
    struct Repeater final : TimedEvent {
        explicit Repeater(Scheduler& s) : sch(s) {}
        void fire() override {
            ++count;
            EXPECT_FALSE(pending());
            if (count < 5) sch.schedule_event(sch.now() + 10 * NS, *this);
        }
        Scheduler& sch;
        int count = 0;
    } rep(sch);
    sch.schedule_event(10 * NS, rep);
    sch.run();
    EXPECT_EQ(rep.count, 5);
    EXPECT_EQ(sch.now(), 50 * NS);
    EXPECT_EQ(sch.stats.timed_events, 5u);
}

TEST(EventQueue, ClockTicksTwoEdgesPerPeriod) {
    Scheduler sch;
    rtlsim::Clock clk(sch, "clk", 10 * NS);
    int rising = 0;
    rtlsim::Process p(sch, "count", [&rising] { ++rising; });
    clk.out.add_listener(p, rtlsim::Edge::Pos);
    sch.run_until(100 * 10 * NS);
    EXPECT_EQ(rising, 100);
    EXPECT_EQ(sch.stats.timed_events, 200u);  // two edges per period
}

TEST(EventQueue, PooledClosureNodesAreRecycled) {
    Scheduler sch;
    // A self-rescheduling closure chain runs at a steady state with one
    // pooled node; interleave a second source to exercise the free list.
    int a = 0;
    int b = 0;
    std::function<void()> tick_a = [&] {
        if (++a < 1000) sch.schedule_in(10 * NS, tick_a);
    };
    std::function<void()> tick_b = [&] {
        if (++b < 500) sch.schedule_in(20 * NS, tick_b);
    };
    sch.schedule_in(10 * NS, tick_a);
    sch.schedule_in(20 * NS, tick_b);
    sch.run();
    EXPECT_EQ(a, 1000);
    EXPECT_EQ(b, 500);
}

TEST(EventQueue, RunUntilStopsAtRequestedTime) {
    Scheduler sch;
    rtlsim::Clock clk(sch, "clk", 10 * NS);
    sch.run_until(33 * NS);
    EXPECT_EQ(sch.now(), 33 * NS);
    sch.run_until(47 * NS);
    EXPECT_EQ(sch.now(), 47 * NS);
    // Events strictly after the limit stay queued.
    EXPECT_EQ(sch.stats.timed_events, 9u);  // edges at 5,10,...,45 ns
}

// --- differential property test ------------------------------------------
// Drives EventQueue directly (EventTestAccess) against a std::multimap,
// whose equal-key insertion order is exactly the FIFO-per-timestamp
// contract. Random push/pop_step/reschedule_front/clear sequences are
// biased toward the cases that break a time-ordered queue: timestamps
// quantised so equal-time chains recur and interleave with later pushes,
// deltas spread from zero to far ahead, and restore-style clear() calls
// that rewind simulated time.

using rtlsim::EventTestAccess;

/// Inert event node: the differential driver never fires, it only checks
/// structural order.
class NullEvent final : public TimedEvent {
    void fire() override {}
};

/// `scale_shift` sets the timestamp scale of the generated pushes: deltas
/// are multiples of a `1 << scale_shift` ps unit, up to a few thousand
/// units ahead.
void differential_run(std::uint64_t seed, unsigned scale_shift,
                      int iterations) {
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " shift=" + std::to_string(scale_shift));
    EventQueue q;
    // The reference: multimap insert places equal keys after existing ones,
    // i.e. same-timestamp FIFO — the contract under test.
    std::multimap<Time, NullEvent*> ref;

    const Time unit = Time{1} << scale_shift;
    const Time far = unit * 256;

    std::vector<std::unique_ptr<NullEvent>> pool;
    std::vector<NullEvent*> free_nodes;
    auto take_node = [&]() -> NullEvent* {
        if (free_nodes.empty()) {
            pool.push_back(std::make_unique<NullEvent>());
            return pool.back().get();
        }
        NullEvent* n = free_nodes.back();
        free_nodes.pop_back();
        return n;
    };

    std::uint64_t rng = rtlsim::derive_seed(seed, 0x4351'5546'5ull);  // "CQFUZ"
    auto draw = [&rng]() {
        rng = rtlsim::splitmix64(rng);
        return rng;
    };

    // A delta drawn from four bands, quantised to unit/4 so identical
    // timestamps recur often.
    auto draw_dt = [&]() -> Time {
        const std::uint64_t band = draw() % 10;
        if (band < 3) return 0;                      // same-time chain growth
        if (band < 6) return (draw() % 8) * unit;    // near
        if (band < 9) {
            // a dense band around `far`: [far - 2 units, far + 2)
            return far - 2 * unit + (draw() % (4 * 256)) * (unit / 4 + 1);
        }
        return far * (2 + draw() % 6);  // far ahead
    };

    Time now = 0;
    for (int i = 0; i < iterations; ++i) {
        ASSERT_EQ(q.size(), ref.size());
        const std::uint64_t op = draw() % 100;
        if (op < 50) {
            const Time t = now + draw_dt();
            NullEvent* ev = take_node();
            EventTestAccess::prime(*ev, t);
            q.push(ev);
            ref.emplace(t, ev);
        } else if (op < 60) {
            // reschedule_front — the scheduler's in-place clock toggle: the
            // front node moves on with a fresh sequence, so the reference
            // erases its first entry and inserts it after every equal key.
            if (ref.empty()) continue;
            const auto front = ref.begin();
            NullEvent* ev = front->second;
            now = front->first;
            const Time t = now + draw_dt();
            q.reschedule_front(t);
            ref.erase(front);
            ref.emplace(t, ev);
            ASSERT_EQ(ev->time(), t);
            ASSERT_TRUE(ev->pending());
        } else if (op < 90) {
            // pop_step — must return the reference's whole earliest
            // timestep, in reference (scheduling) order.
            Time t = 0;
            TimedEvent* chain = q.pop_step(t);
            if (ref.empty()) {
                ASSERT_EQ(chain, nullptr);
                continue;
            }
            ASSERT_NE(chain, nullptr);
            const Time tmin = ref.begin()->first;
            ASSERT_EQ(t, tmin);
            now = t;
            auto it = ref.begin();
            for (TimedEvent* e = chain; e != nullptr;) {
                TimedEvent* next = EventTestAccess::next(*e);
                ASSERT_NE(it, ref.end());
                ASSERT_EQ(it->first, tmin) << "chain longer than the step";
                ASSERT_EQ(e, it->second) << "FIFO order diverged at t=" << t;
                EventTestAccess::retire(*e);
                free_nodes.push_back(static_cast<NullEvent*>(e));
                it = ref.erase(it);
                e = next;
            }
            ASSERT_TRUE(it == ref.end() || it->first != tmin)
                << "pop_step left same-time events behind";
        } else if (op < 97) {
            // peek only: the earliest time, and its node when it is alone
            // at that time.
            Time t = 0;
            const bool have = q.peek_next(t);
            ASSERT_EQ(have, !ref.empty());
            if (have) {
                ASSERT_EQ(t, ref.begin()->first);
                const bool alone = ref.count(t) == 1;
                TimedEvent* const want = alone ? ref.begin()->second : nullptr;
                ASSERT_EQ(q.lone_front(), want);
            } else {
                ASSERT_EQ(q.lone_front(), nullptr);
            }
        } else {
            // restore-style clear: discard the timeline and rewind `now`
            // to an arbitrary earlier point; later pushes start from it.
            q.clear();
            for (auto& [t, e] : ref) {
                EXPECT_FALSE(e->pending());
                free_nodes.push_back(e);
            }
            ref.clear();
            ASSERT_TRUE(q.empty());
            now = (now > 0) ? draw() % now : 0;
        }
    }
    // Drain whatever is left so the final state also matches.
    Time t = 0;
    while (TimedEvent* chain = q.pop_step(t)) {
        ASSERT_FALSE(ref.empty());
        ASSERT_EQ(t, ref.begin()->first);
        auto it = ref.begin();
        for (TimedEvent* e = chain; e != nullptr;
             e = EventTestAccess::next(*e)) {
            ASSERT_NE(it, ref.end());
            ASSERT_EQ(e, it->second);
            it = ref.erase(it);
        }
    }
    ASSERT_TRUE(ref.empty());
}

// Timestamps 4.096 ns apart: a 100 MHz clock's half-period scale.
TEST(EventQueueDifferential, MatchesMultimapWithNanosecondSpacedTimestamps) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        differential_run(seed, /*scale_shift=*/12, /*iterations=*/20000);
    }
}

// Timestamps 4 ps apart, so far more pushes share or neighbour a timestamp.
TEST(EventQueueDifferential, MatchesMultimapWithPicosecondSpacedTimestamps) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        differential_run(seed, /*scale_shift=*/2, /*iterations=*/20000);
    }
}

// Checkpoint restore: run the queue far forward, clear(), then schedule
// near t=0 again. The earlier timeline must pop at its own time.
TEST(EventQueueDifferential, ClearAcceptsAnEarlierTimeline) {
    EventQueue q;
    NullEvent a;
    NullEvent b;
    EventTestAccess::prime(a, 50 * US);
    q.push(&a);
    Time t = 0;
    ASSERT_NE(q.pop_step(t), nullptr);  // the queue has reached 50 us
    EventTestAccess::retire(a);

    q.clear();
    EventTestAccess::prime(b, 10 * NS);  // pre-restore past would be illegal
    q.push(&b);
    ASSERT_NE(q.pop_step(t), nullptr);
    EXPECT_EQ(t, 10 * NS);
}

// An event pushed far ahead and one pushed for the same timestamp after an
// earlier step has popped fire in scheduling order: the first pushed fires
// first.
TEST(EventQueueDifferential, SameTimeFifoHoldsAcrossAnInterveningPop) {
    constexpr Time kT = 3 * US;
    EventQueue q;
    NullEvent first;
    NullEvent stepper;
    NullEvent second;
    EventTestAccess::prime(first, kT);
    q.push(&first);
    EventTestAccess::prime(stepper, kT - 500 * NS);
    q.push(&stepper);

    Time t = 0;
    ASSERT_NE(q.pop_step(t), nullptr);
    ASSERT_EQ(t, kT - 500 * NS);
    EventTestAccess::retire(stepper);

    EventTestAccess::prime(second, kT);
    q.push(&second);

    TimedEvent* chain = q.pop_step(t);
    ASSERT_EQ(t, kT);
    ASSERT_EQ(chain, &first);
    ASSERT_EQ(EventTestAccess::next(*chain), &second);
    ASSERT_EQ(EventTestAccess::next(second), nullptr);
}

}  // namespace
