// Unit tests for the event scheduler, signals, processes and tracing.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "kernel/kernel.hpp"

namespace rtlsim {
namespace {

TEST(Scheduler, TimedEventsRunInOrder) {
    Scheduler sch;
    std::vector<int> order;
    sch.schedule_at(30 * NS, [&] { order.push_back(3); });
    sch.schedule_at(10 * NS, [&] { order.push_back(1); });
    sch.schedule_at(20 * NS, [&] { order.push_back(2); });
    sch.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sch.now(), 30 * NS);
    EXPECT_EQ(sch.stats.timed_events, 3u);
    EXPECT_EQ(sch.stats.time_steps, 3u);
}

TEST(Scheduler, ScheduleInIsRelative) {
    Scheduler sch;
    Time seen = 0;
    sch.schedule_at(5 * NS, [&] {
        sch.schedule_in(7 * NS, [&] { seen = sch.now(); });
    });
    sch.run();
    EXPECT_EQ(seen, 12 * NS);
}

TEST(Scheduler, RunUntilStopsAtBound) {
    Scheduler sch;
    int hits = 0;
    for (int i = 1; i <= 10; ++i) {
        sch.schedule_at(static_cast<Time>(i) * NS, [&] { ++hits; });
    }
    sch.run_until(4 * NS);
    EXPECT_EQ(hits, 4);
    EXPECT_EQ(sch.now(), 4 * NS);
    sch.run();
    EXPECT_EQ(hits, 10);
}

// Testbench::run() starts with run_until(8 clock periods), so a second
// run() of one testbench asks for a time already passed.
TEST(Scheduler, RunUntilAnEarlierTimeDoesNotRewind) {
    Scheduler sch;
    Clock clk(sch, "clk", 10 * NS);
    sch.run_until(1000 * NS);
    sch.run_until(80 * NS);
    EXPECT_EQ(sch.now(), 1000 * NS);
    Time fired = 0;
    sch.schedule_in(1 * NS, [&] { fired = sch.now(); });
    sch.run_until(1001 * NS);
    EXPECT_EQ(fired, 1001 * NS);
    EXPECT_EQ(sch.now(), 1001 * NS);
}

TEST(Scheduler, StopRequestHaltsRun) {
    Scheduler sch;
    int hits = 0;
    for (int i = 1; i <= 10; ++i) {
        sch.schedule_at(static_cast<Time>(i) * NS, [&] {
            if (++hits == 3) sch.request_stop("enough");
        });
    }
    sch.run();
    EXPECT_EQ(hits, 3);
    EXPECT_TRUE(sch.stop_requested());
    EXPECT_EQ(sch.stop_reason(), "enough");
}

TEST(Scheduler, DiagnosticsAreRecorded) {
    Scheduler sch;
    sch.schedule_at(2 * NS, [&] { sch.report("tb.checker", "boom"); });
    sch.run();
    ASSERT_EQ(sch.diagnostics().size(), 1u);
    EXPECT_EQ(sch.diagnostics()[0].time, 2 * NS);
    EXPECT_TRUE(sch.has_diag_from("checker"));
    EXPECT_FALSE(sch.has_diag_from("scoreboard"));
}

TEST(Signal, NonBlockingWriteVisibleNextDelta) {
    Scheduler sch;
    Signal<int> s(sch, "s", 0);
    int seen_during_eval = -1;
    sch.schedule_at(1 * NS, [&] {
        s.write(42);
        seen_during_eval = s.read();  // still old value in the same delta
    });
    sch.run();
    EXPECT_EQ(seen_during_eval, 0);
    EXPECT_EQ(s.read(), 42);
}

TEST(Signal, SameValueWriteDoesNotNotify) {
    Scheduler sch;
    Signal<int> s(sch, "s", 7);
    int wakeups = 0;
    Process p(sch, "watcher", [&] { ++wakeups; });
    s.add_listener(p, Edge::Any);
    sch.schedule_at(1 * NS, [&] { s.write(7); });
    sch.schedule_at(2 * NS, [&] { s.write(8); });
    sch.run();
    EXPECT_EQ(wakeups, 1);
    EXPECT_EQ(sch.stats.signal_updates, 1u);
}

TEST(Signal, LogicStartsX) {
    Scheduler sch;
    Signal<Logic> s(sch, "s");
    EXPECT_EQ(s.read(), Logic::X);
    Signal<Word> w(sch, "w");
    EXPECT_TRUE(w.read().has_unknown());
}

TEST(Signal, EdgeFiltering) {
    Scheduler sch;
    Clock clk(sch, "clk", 10 * NS);
    int pos = 0;
    int neg = 0;
    int any = 0;
    Process pp(sch, "pos", [&] { ++pos; });
    Process pn(sch, "neg", [&] { ++neg; });
    Process pa(sch, "any", [&] { ++any; });
    clk.out.add_listener(pp, Edge::Pos);
    clk.out.add_listener(pn, Edge::Neg);
    clk.out.add_listener(pa, Edge::Any);
    // Period 10ns: rising edges at 5,15,...,95 and falling at 10,20,...,100.
    sch.run_until(100 * NS);
    EXPECT_EQ(pos, 10);
    EXPECT_EQ(neg, 10);
    EXPECT_EQ(any, 20);
}

TEST(Signal, XToOneCountsAsPosedge) {
    Scheduler sch;
    Signal<Logic> s(sch, "s");  // starts X
    int pos = 0;
    Process p(sch, "pos", [&] { ++pos; });
    s.add_listener(p, Edge::Pos);
    sch.schedule_at(1 * NS, [&] { s.write(Logic::L1); });
    sch.run();
    EXPECT_EQ(pos, 1);
}

// Two registers swapping values through each other on the same clock edge
// is the canonical race that non-blocking semantics must make deterministic.
TEST(Signal, SimultaneousSwapIsRaceFree) {
    Scheduler sch;
    Clock clk(sch, "clk", 10 * NS);
    Signal<int> a(sch, "a", 1);
    Signal<int> b(sch, "b", 2);
    Process pa(sch, "ra", [&] { a.write(b.read()); });
    Process pb(sch, "rb", [&] { b.write(a.read()); });
    clk.out.add_listener(pa, Edge::Pos);
    clk.out.add_listener(pb, Edge::Pos);
    sch.run_until(10 * NS);  // exactly one rising edge at t=5ns
    EXPECT_EQ(a.read(), 2);
    EXPECT_EQ(b.read(), 1);
    sch.run_until(20 * NS);  // second rising edge swaps back
    EXPECT_EQ(a.read(), 1);
    EXPECT_EQ(b.read(), 2);
}

// A combinational chain through three processes must settle within one
// timestep via delta cycles.
TEST(Scheduler, CombinationalChainSettles) {
    Scheduler sch;
    Signal<int> in(sch, "in", 0);
    Signal<int> s1(sch, "s1", 0);
    Signal<int> s2(sch, "s2", 0);
    Signal<int> out(sch, "out", 0);
    Process p1(sch, "p1", [&] { s1.write(in.read() + 1); });
    Process p2(sch, "p2", [&] { s2.write(s1.read() * 2); });
    Process p3(sch, "p3", [&] { out.write(s2.read() + 3); });
    in.add_listener(p1, Edge::Any);
    s1.add_listener(p2, Edge::Any);
    s2.add_listener(p3, Edge::Any);
    sch.schedule_at(1 * NS, [&] { in.write(10); });
    sch.run();
    EXPECT_EQ(sch.now(), 1 * NS);
    EXPECT_EQ(out.read(), 25);  // (10+1)*2+3, settled at the same timestamp
}

TEST(Module, HierarchicalNames) {
    Scheduler sch;
    struct Inner : Module {
        Inner(Scheduler& s, const Module* parent)
            : Module(s, "inner", parent) {}
    };
    struct Outer : Module {
        Inner child;
        explicit Outer(Scheduler& s) : Module(s, "outer"), child(s, this) {}
    };
    Outer o(sch);
    EXPECT_EQ(o.full_name(), "outer");
    EXPECT_EQ(o.child.full_name(), "outer.inner");
}

TEST(Module, CombProcRunsAtInit) {
    Scheduler sch;
    Signal<int> in(sch, "in", 5);
    Signal<int> out(sch, "out", 0);

    struct Doubler : Module {
        Doubler(Scheduler& s, Signal<int>& i, Signal<int>& o)
            : Module(s, "doubler") {
            comb_proc("eval", [&i, &o] { o.write(i.read() * 2); }, {anyedge(i)});
        }
    };
    Doubler d(sch, in, out);
    sch.schedule_at(0, [] {});  // force one timestep so init deltas run
    sch.run();
    EXPECT_EQ(out.read(), 10) << "comb process must establish initial output";
}

TEST(Module, SyncProcDoesNotRunAtInit) {
    Scheduler sch;
    Clock clk(sch, "clk", 10 * NS);
    int ticks = 0;
    struct Counter : Module {
        Counter(Scheduler& s, Signal<Logic>& clk, int& t) : Module(s, "ctr") {
            sync_proc("tick", [&t] { ++t; }, {posedge(clk)});
        }
    };
    Counter c(sch, clk.out, ticks);
    sch.run_until(25 * NS);
    EXPECT_EQ(ticks, 3) << "edges at 5/15/25ns only; no init invocation";
}

TEST(Clock, PeriodAndPhase) {
    Scheduler sch;
    Clock clk(sch, "clk", 10 * NS);
    std::vector<Time> rises;
    Process p(sch, "mon", [&] { rises.push_back(sch.now()); });
    clk.out.add_listener(p, Edge::Pos);
    sch.run_until(40 * NS);
    EXPECT_EQ(rises, (std::vector<Time>{5 * NS, 15 * NS, 25 * NS, 35 * NS}));
    EXPECT_EQ(clk.period(), 10 * NS);
}

TEST(ResetGen, AssertsThenReleases) {
    Scheduler sch;
    ResetGen rst(sch, "rst", 22 * NS);
    EXPECT_EQ(rst.out.read(), Logic::L1);
    sch.run_until(21 * NS);
    EXPECT_EQ(rst.out.read(), Logic::L1);
    sch.run_until(23 * NS);
    EXPECT_EQ(rst.out.read(), Logic::L0);
}

/// A body with work enough for a steady_clock pair to see.
void busy_body() {
    int sink = 0;
    for (int i = 0; i < 1000; ++i) sink += i;
    // Keep the loop from being optimised away so self_time is nonzero.
    asm volatile("" : : "r"(sink) : "memory");
}

TEST(Profiling, CountsInvocationsAndTime) {
    Scheduler sch;
    sch.enable_profiling();
    Clock clk(sch, "clk", 10 * NS);
    Process p(sch, "busy", busy_body);
    clk.out.add_listener(p, Edge::Pos);
    sch.run_until(100 * NS);
    EXPECT_EQ(p.invocations(), 10u);
    EXPECT_GT(p.self_time().count(), 0);
    EXPECT_GE(sch.processes().size(), 1u);
}

TEST(Profiling, TimesProcessesRegisteredBeforeAndAfterEnabling) {
    // `on` enables profiling between its two processes; `off` never does.
    Scheduler on;
    Scheduler off;
    Clock on_clk(on, "clk", 10 * NS);
    Clock off_clk(off, "clk", 10 * NS);
    Process on_before(on, "before", busy_body);
    Process off_before(off, "before", busy_body);
    on.enable_profiling();
    EXPECT_TRUE(on.profiling());
    EXPECT_FALSE(off.profiling());
    Process on_after(on, "after", busy_body);
    Process off_after(off, "after", busy_body);
    for (Process* p : {&on_before, &on_after}) {
        on_clk.out.add_listener(*p, Edge::Pos);
    }
    for (Process* p : {&off_before, &off_after}) {
        off_clk.out.add_listener(*p, Edge::Pos);
    }
    on.run_until(100 * NS);
    off.run_until(100 * NS);
    EXPECT_GT(on_before.self_time().count(), 0);
    EXPECT_GT(on_after.self_time().count(), 0);
    EXPECT_EQ(off_before.self_time().count(), 0);
    EXPECT_EQ(off_after.self_time().count(), 0);
    EXPECT_EQ(on_before.invocations(), 10u);
    EXPECT_EQ(on_after.invocations(), 10u);
    EXPECT_EQ(off_before.invocations(), 10u);
    EXPECT_EQ(off_after.invocations(), 10u);
    EXPECT_EQ(on.stats, off.stats);
}

TEST(Tracer, EmitsHeaderAndChanges) {
    Scheduler sch;
    std::ostringstream vcd;
    Tracer tr(vcd);
    Clock clk(sch, "clk", 10 * NS);
    Signal<LVec<8>> data(sch, "data", LVec<8>{0});
    tr.add(clk.out);
    tr.add(data);
    sch.set_tracer(&tr);
    sch.schedule_at(7 * NS, [&] { data.write(LVec<8>{0xA5}); });
    sch.run_until(20 * NS);
    tr.finish();

    const std::string out = vcd.str();
    EXPECT_NE(out.find("$timescale 1ps $end"), std::string::npos);
    EXPECT_NE(out.find("$var wire 1"), std::string::npos);
    EXPECT_NE(out.find("$var wire 8"), std::string::npos);
    EXPECT_NE(out.find("clk_out"), std::string::npos);
    EXPECT_NE(out.find("#5000"), std::string::npos) << "first clock edge";
    EXPECT_NE(out.find("b10100101 "), std::string::npos) << "data change";
    EXPECT_NE(out.find("#7000"), std::string::npos);
}

TEST(Stats, DeltaAndUpdateCounting) {
    Scheduler sch;
    Signal<int> a(sch, "a", 0);
    Signal<int> b(sch, "b", 0);
    Process p(sch, "fwd", [&] { b.write(a.read()); });
    a.add_listener(p, Edge::Any);
    sch.schedule_at(1 * NS, [&] { a.write(1); });
    sch.run();
    // a commits (delta 1), p runs and writes b, b commits (delta 2).
    EXPECT_EQ(sch.stats.signal_updates, 2u);
    EXPECT_GE(sch.stats.delta_cycles, 2u);
    SimStats snap = sch.stats;
    SimStats diff = sch.stats - snap;
    EXPECT_EQ(diff.signal_updates, 0u);
}

// --- activity gating ------------------------------------------------------
// A gated process is skipped by the evaluate loop until a wake. These pin
// the timing contract of DESIGN.md "Activity gating": skips are uncounted,
// an Edge::Wake commit reopens the gate for the *next* trigger, and an
// explicit wake() lets the process run in the current delta only if it has
// not been evaluated there yet.

TEST(KernelGate, GatedProcessIsNeitherRunNorCounted) {
    Scheduler sch;
    Clock clk(sch, "clk", 10 * NS);
    int runs = 0;
    Process* self = nullptr;
    Process p(sch, "p", [&] {
        ++runs;
        self->gate();
    });
    self = &p;
    clk.out.add_listener(p, Edge::Pos);
    const SimStats before = sch.stats;
    sch.run_until(50 * NS);  // posedges at 5/15/25/35/45 ns
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(p.invocations(), 1u);
    EXPECT_EQ((sch.stats - before).proc_invocations, 1u);
    EXPECT_TRUE(p.gated());
    EXPECT_EQ(p.skipped(), 4u);
}

TEST(KernelGate, WakeEdgeCommitRunsAtTheNextPosedgeNotInItsDelta) {
    Scheduler sch;
    Clock clk(sch, "clk", 10 * NS);
    Signal<int> in(sch, "in", 0);
    std::vector<std::pair<Time, int>> seen;
    Process* self = nullptr;
    Process p(sch, "p", [&] {
        seen.emplace_back(sch.now(), in.read());
        self->gate();
    });
    self = &p;
    clk.out.add_listener(p, Edge::Pos);
    in.add_listener(p, Edge::Wake);
    // A writer on the same edge as p: its write commits one delta after p
    // was skipped at 15 ns, inside that timestep.
    Process drv(sch, "drv", [&] {
        if (sch.now() == 15 * NS) in.write(1);
    });
    clk.out.add_listener(drv, Edge::Pos);
    // A timed write between edges commits in a delta of its own.
    sch.schedule_at(27 * NS, [&] { in.write(2); });

    sch.run_until(24 * NS);
    EXPECT_EQ(seen, (std::vector<std::pair<Time, int>>{{5 * NS, 0}}));
    EXPECT_FALSE(p.gated()) << "the committed change reopened the gate";
    sch.run_until(30 * NS);
    EXPECT_EQ(seen.size(), 2u) << "a wake never queues the process itself";
    sch.run_until(40 * NS);
    EXPECT_EQ(seen, (std::vector<std::pair<Time, int>>{
                        {5 * NS, 0}, {25 * NS, 1}, {35 * NS, 2}}));
    EXPECT_EQ(p.skipped(), 1u) << "only the 15 ns edge was swallowed";
}

TEST(KernelGate, WakeFromAnEarlierProcessRunsInTheSameDelta) {
    // `gating` off is the reference: p runs on every edge.
    const auto run = [](bool gating, std::vector<Time>& ran) {
        Scheduler sch;
        Clock clk(sch, "clk", 10 * NS);
        Process* gated = nullptr;
        // Fan-out order is registration order: the waker evaluates first.
        Process waker(sch, "waker", [&] {
            if (sch.now() == 25 * NS) gated->wake();
        });
        Process p(sch, "p", [&] {
            ran.push_back(sch.now());
            if (gating) gated->gate();
        });
        gated = &p;
        clk.out.add_listener(waker, Edge::Pos);
        clk.out.add_listener(p, Edge::Pos);
        sch.run_until(40 * NS);
        EXPECT_EQ(p.skipped(), gating ? 2u : 0u);  // 15 and 35 ns
        return sch.stats;
    };
    std::vector<Time> gated_runs;
    std::vector<Time> all_runs;
    const SimStats gated = run(true, gated_runs);
    const SimStats ungated = run(false, all_runs);
    EXPECT_EQ(gated_runs, (std::vector<Time>{5 * NS, 25 * NS}));
    EXPECT_EQ(all_runs.size(), 4u);
    // Skipping happens in the evaluate loop, not the fan-out, so a gated
    // process costs no delta cycle of its own and saves none either.
    EXPECT_EQ(gated.delta_cycles, ungated.delta_cycles);
    EXPECT_EQ(gated.proc_invocations + 2, ungated.proc_invocations);
}

TEST(KernelGate, WakeFromALaterProcessRunsAtTheNextEdge) {
    Scheduler sch;
    Clock clk(sch, "clk", 10 * NS);
    std::vector<Time> ran;
    Process* gated = nullptr;
    Process p(sch, "p", [&] {
        ran.push_back(sch.now());
        gated->gate();
    });
    Process waker(sch, "waker", [&] {
        if (sch.now() == 25 * NS) gated->wake();
    });
    gated = &p;
    clk.out.add_listener(p, Edge::Pos);
    clk.out.add_listener(waker, Edge::Pos);
    sch.run_until(40 * NS);
    // p was already skipped at 25 ns when the wake came, so it runs at 35.
    EXPECT_EQ(ran, (std::vector<Time>{5 * NS, 35 * NS}));
    EXPECT_EQ(p.skipped(), 2u);  // 15 and 25 ns
}

TEST(KernelGate, SkippedCountEqualsTheTriggersSwallowed) {
    Scheduler sch;
    Clock clk(sch, "clk", 10 * NS);
    Signal<int> en(sch, "en", 0);
    Process* self = nullptr;
    Process p(sch, "p", [&] {
        if (en.read() == 0) self->gate();
    });
    self = &p;
    clk.out.add_listener(p, Edge::Pos);
    en.add_listener(p, Edge::Wake);
    // Toggle the enable a few times between edges; each toggle reopens the
    // gate for one or more edges.
    for (const Time t : {32 * NS, 58 * NS, 91 * NS, 140 * NS}) {
        sch.schedule_at(t, [&] { en.write(1 - en.read()); });
    }
    sch.run_until(200 * NS);  // 20 posedges
    EXPECT_EQ(p.invocations() + p.skipped(), 20u);
    EXPECT_EQ(sch.stats.proc_invocations, p.invocations());
    EXPECT_LT(p.invocations(), 20u);
}

/// A self-contained design whose whole state lives in signals, so the
/// kernel section + clock + signal registry is a complete checkpoint:
/// `drv` counts cycles and raises `en` 4 cycles in 12; the gated `ctr`
/// counts enabled cycles and sleeps otherwise.
struct GateDesign {
    Scheduler sch;
    Clock clk{sch, "clk", 10 * NS};
    Signal<int> tick{sch, "tick", 0};
    Signal<int> en{sch, "en", 0};
    Signal<int> cnt{sch, "cnt", 0};
    Process drv{sch, "drv", [this] {
                    tick.write(tick.read() + 1);
                    en.write((tick.read() / 4) % 3 == 0 ? 1 : 0);
                }};
    Process ctr{sch, "ctr", [this] {
                    if (en.read() != 0) {
                        cnt.write(cnt.read() + 1);
                    } else {
                        ctr.gate();
                    }
                }};

    GateDesign() {
        clk.out.add_listener(drv, Edge::Pos);
        clk.out.add_listener(ctr, Edge::Pos);
        en.add_listener(ctr, Edge::Wake);
    }

    [[nodiscard]] std::vector<std::uint8_t> save() const {
        SnapWriter w;
        sch.ckpt_save(w);
        clk.ckpt_save(w);
        sch.ckpt_save_signals(w);
        return w.take();
    }
    [[nodiscard]] bool restore(const std::vector<std::uint8_t>& blob) {
        SnapReader r(blob);
        return sch.ckpt_restore(r) && clk.ckpt_restore(r) &&
               sch.ckpt_restore_signals(r) && r.ok();
    }
};

TEST(KernelGate, GateStateRoundTripsThroughCheckpoint) {
    GateDesign warm;
    warm.sch.run_until(63 * NS);  // mid-sleep: ctr gated at the 55 ns edge
    ASSERT_TRUE(warm.ctr.gated());
    ASSERT_TRUE(warm.sch.ckpt_quiescent());
    const std::vector<std::uint8_t> mid = warm.save();

    GateDesign restored;
    ASSERT_TRUE(restored.restore(mid));
    EXPECT_TRUE(restored.ctr.gated());
    EXPECT_EQ(restored.ctr.skipped(), warm.ctr.skipped());
    EXPECT_EQ(restored.sch.stats, warm.sch.stats);

    GateDesign cold;
    cold.sch.run_until(400 * NS);
    restored.sch.run_until(400 * NS);
    EXPECT_EQ(restored.cnt.read(), cold.cnt.read());
    EXPECT_EQ(restored.sch.stats, cold.sch.stats)
        << "warm and cold runs must count the same invocations";
    EXPECT_EQ(restored.ctr.skipped(), cold.ctr.skipped());
    EXPECT_EQ(restored.save(), cold.save());
    EXPECT_GT(cold.ctr.skipped(), 0u);
}

TEST(KernelGate, RestoreRejectsAMalformedGateTable) {
    GateDesign src;
    src.sch.run_until(63 * NS);
    SnapWriter w;
    src.sch.ckpt_save(w);
    const std::vector<std::uint8_t> good = w.take();
    // The gate table closes the section: u32 count, then per process a
    // flag byte and a u64 skipped count.
    const std::size_t nproc = src.sch.processes().size();
    const std::size_t table = good.size() - 4 - 9 * nproc;
    ASSERT_EQ(good[table + 3], nproc);
    {
        GateDesign d;
        SnapReader r(good);
        EXPECT_TRUE(d.sch.ckpt_restore(r));
    }
    {
        std::vector<std::uint8_t> bad = good;
        bad[table + 3] = static_cast<std::uint8_t>(nproc + 1);
        GateDesign d;
        SnapReader r(bad);
        EXPECT_FALSE(d.sch.ckpt_restore(r)) << "process count mismatch";
    }
    {
        std::vector<std::uint8_t> bad = good;
        bad[table + 4] = 2;
        GateDesign d;
        SnapReader r(bad);
        EXPECT_FALSE(d.sch.ckpt_restore(r)) << "gate flag must be 0 or 1";
    }
    {
        std::vector<std::uint8_t> bad(good.begin(), good.end() - 1);
        GateDesign d;
        SnapReader r(bad);
        EXPECT_FALSE(d.sch.ckpt_restore(r)) << "truncated gate table";
    }
}

// --- the posedge-only fast path --------------------------------------------
// A lone toggle of a clock whose listeners all want only its rising edge
// runs in place: a rise runs the open members in place, a fall wakes
// nobody, and every other rise fans out through the ordinary queue
// (DESIGN.md "Kernel event path"). Each design below is built twice. The
// `full` twin gives its clock an Edge::Wake listener on a process that
// never gates, which keeps every toggle on fire() and the ordinary fan-out
// and changes nothing else, so the two must agree on every count, level
// and checkpoint byte.

/// The kernel section and every signal, as a checkpoint writes them.
[[nodiscard]] std::vector<std::uint8_t> blob_of(const Scheduler& sch) {
    SnapWriter w;
    sch.ckpt_save(w);
    sch.ckpt_save_signals(w);
    return w.take();
}

/// Gated and ungated posedge processes, a process notified from a timed
/// event on a falling edge, and a timed read of the clock after its toggle.
struct EdgeDesign {
    Scheduler sch;
    Clock clk{sch, "clk", 10 * NS};
    Signal<int> cnt{sch, "cnt", 0};
    Signal<int> en{sch, "en", 0};
    Signal<int> acc{sch, "acc", 0};
    std::vector<std::pair<Time, Logic>> seen;  // clk as other code reads it
    Process counter{sch, "counter", [this] {
                        cnt.write(cnt.read() + 1);
                        en.write(cnt.read() % 5 == 0 ? 1 : 0);
                    }};
    Process sleeper{sch, "sleeper", [this] {
                        if (en.read() == 0) {
                            sleeper.gate();
                        } else {
                            acc.write(acc.read() + 1);
                        }
                    }};
    Process probe{sch, "probe",
                  [this] { seen.emplace_back(sch.now(), clk.out.read()); }};

    explicit EdgeDesign(bool full) {
        clk.out.add_listener(counter, Edge::Pos);
        clk.out.add_listener(sleeper, Edge::Pos);
        en.add_listener(sleeper, Edge::Wake);
        if (full) clk.out.add_listener(counter, Edge::Wake);
        // Two falling edges with a timed event after the toggle (scheduled
        // once the toggle is queued): at 20 ns it reads the clock, at 40 ns
        // it queues a process that reads it. Both see the old level, which
        // commits in the timestep's first update phase. Other falls have
        // neither.
        sch.schedule_at(16 * NS, [this] {
            sch.schedule_at(20 * NS, [this] {
                seen.emplace_back(sch.now(), clk.out.read());
            });
        });
        sch.schedule_at(36 * NS, [this] {
            sch.schedule_at(40 * NS, [this] { probe.notify(); });
        });
    }

    [[nodiscard]] std::vector<std::uint8_t> blob() const {
        return blob_of(sch);
    }
    [[nodiscard]] std::vector<Logic> levels() const { return {clk.out.read()}; }
};

TEST(KernelFastPath, EdgesMatchTheFullPathAtEveryPoint) {
    EdgeDesign fast(false);
    EdgeDesign full(true);
    // Edges sit at multiples of 5 ns; visit each one, 1 ps after it and
    // 2 ns after it.
    for (Time edge = 5 * NS; edge <= 120 * NS; edge += 5 * NS) {
        for (const Time t : {edge, edge + 1, edge + 2 * NS}) {
            fast.sch.run_until(t);
            full.sch.run_until(t);
            ASSERT_EQ(fast.sch.stats, full.sch.stats) << "t=" << t;
            ASSERT_EQ(fast.clk.out.read(), full.clk.out.read()) << "t=" << t;
            ASSERT_EQ(fast.blob(), full.blob()) << "t=" << t;
        }
    }
    EXPECT_EQ(fast.seen, full.seen);
    EXPECT_EQ(fast.seen,
              (std::vector<std::pair<Time, Logic>>{{20 * NS, Logic::L1},
                                                   {40 * NS, Logic::L1}}));
    EXPECT_EQ(fast.clk.out.read(), Logic::L0);
    EXPECT_GT(fast.sleeper.skipped(), 0u);
    EXPECT_GT(fast.acc.read(), 0);
}

// The in-place clock toggle: a lone toggle of a posedge-only clock with
// nothing else due neither fires nor commits in a delta of its own. Each
// case below steps the twins through every nanosecond and 1 ps past it.

/// Run both twins to every nanosecond of [start, end] and 1 ps past it,
/// and call `between(twin, t)` on each once it stops at t. They must agree
/// on every count, clock level and checkpoint byte at every stop.
template <typename Design, typename Between>
void run_twins(Design& fast, Design& full, Time end, Between between,
               Time start = NS) {
    for (Time ns = start; ns <= end; ns += NS) {
        for (const Time t : {ns, ns + 1}) {
            fast.sch.run_until(t);
            full.sch.run_until(t);
            ASSERT_EQ(fast.sch.stats, full.sch.stats) << "t=" << t;
            ASSERT_EQ(fast.levels(), full.levels()) << "t=" << t;
            ASSERT_EQ(blob_of(fast.sch), blob_of(full.sch)) << "t=" << t;
            between(fast, t);
            between(full, t);
        }
    }
}

constexpr auto kNothingBetween = [](auto&, Time) {};

TEST(KernelFastPath, TimedEventsAheadOfTheToggleMatchTheFullPath) {
    EdgeDesign fast(false);
    EdgeDesign full(true);
    // Pushed at elaboration, so each fires before the toggle that shares
    // its timestep: at a rising edge it queues the probe, which runs
    // before the rise commits, and at a falling edge it reads the clock.
    for (EdgeDesign* d : {&fast, &full}) {
        d->sch.schedule_at(65 * NS, [d] { d->probe.notify(); });
        d->sch.schedule_at(80 * NS, [d] {
            d->seen.emplace_back(d->sch.now(), d->clk.out.read());
        });
    }
    ASSERT_NO_FATAL_FAILURE(run_twins(fast, full, 120 * NS, kNothingBetween));
    EXPECT_EQ(fast.seen, full.seen);
    EXPECT_EQ(fast.seen,
              (std::vector<std::pair<Time, Logic>>{{20 * NS, Logic::L1},
                                                   {40 * NS, Logic::L1},
                                                   {65 * NS, Logic::L0},
                                                   {80 * NS, Logic::L1}}));
}

TEST(KernelFastPath, WritesAndNotifiesBetweenRunsMatchTheFullPath) {
    EdgeDesign fast(false);
    EdgeDesign full(true);
    // Test code between run_until() calls: a write of the sleeper's wake
    // signal before a rising edge, and a notify() of the probe before a
    // rising and before a falling edge. Each is still due when the
    // toggle's timestep begins.
    const auto poke = [](EdgeDesign& d, Time t) {
        if (t == 52 * NS) d.en.write(1);
        if (t == 72 * NS || t == 87 * NS) d.probe.notify();
    };
    ASSERT_NO_FATAL_FAILURE(run_twins(fast, full, 120 * NS, poke));
    EXPECT_EQ(fast.seen, full.seen);
    EXPECT_EQ(fast.seen,
              (std::vector<std::pair<Time, Logic>>{{20 * NS, Logic::L1},
                                                   {40 * NS, Logic::L1},
                                                   {75 * NS, Logic::L0},
                                                   {90 * NS, Logic::L1}}));
    EXPECT_EQ(fast.acc.read(), full.acc.read());
}

TEST(KernelFastPath, ProfiledTwinsMatch) {
    EdgeDesign fast(false);
    EdgeDesign full(true);
    fast.sch.enable_profiling();
    full.sch.enable_profiling();
    ASSERT_NO_FATAL_FAILURE(run_twins(fast, full, 120 * NS, kNothingBetween));
    EXPECT_EQ(fast.counter.invocations(), full.counter.invocations());
    // Each body times itself, walked in place or queued alike.
    EXPECT_GT(fast.counter.self_time().count(), 0);
}

/// Two clocks, of 10 ns and 14 ns, each with a posedge counter, and one
/// process on both rising edges. Their edges coincide every 35 ns, rising
/// at odd multiples and falling at even ones; between, each toggles alone.
struct TwoClockDesign {
    Scheduler sch;
    Clock a{sch, "a", 10 * NS};
    Clock b{sch, "b", 14 * NS};
    Signal<int> na{sch, "na", 0};
    Signal<int> nb{sch, "nb", 0};
    Signal<int> sum{sch, "sum", 0};
    Process count_a{sch, "count_a", [this] { na.write(na.read() + 1); }};
    Process count_b{sch, "count_b", [this] { nb.write(nb.read() + 1); }};
    Process both{sch, "both", [this] { sum.write(na.read() + nb.read()); }};

    explicit TwoClockDesign(bool full) {
        a.out.add_listener(count_a, Edge::Pos);
        a.out.add_listener(both, Edge::Pos);
        b.out.add_listener(count_b, Edge::Pos);
        b.out.add_listener(both, Edge::Pos);
        if (full) {
            a.out.add_listener(count_a, Edge::Wake);
            b.out.add_listener(count_b, Edge::Wake);
        }
    }
    [[nodiscard]] std::vector<Logic> levels() const {
        return {a.out.read(), b.out.read()};
    }
};

TEST(KernelFastPath, TwoClocksWithCoincidingEdgesMatchTheFullPath) {
    TwoClockDesign fast(false);
    TwoClockDesign full(true);
    ASSERT_NO_FATAL_FAILURE(run_twins(fast, full, 150 * NS, kNothingBetween));
    // a rises 15 times by 150 ns and b 11 times; `both` runs once at each
    // of the 24 distinct rise times, as 35 ns and 105 ns are shared.
    EXPECT_EQ(fast.na.read(), 15);
    EXPECT_EQ(fast.nb.read(), 11);
    EXPECT_EQ(fast.both.invocations(), 24u);
    EXPECT_EQ(fast.sch.stats.proc_invocations, 50u);
}

/// Three posedge processes on one clock; the middle one notifies both of
/// its neighbours on the first rising edge.
struct NotifyDesign {
    Scheduler sch;
    Clock clk{sch, "clk", 10 * NS};
    std::vector<std::string> ran;
    Process first{sch, "first", [this] { ran.push_back("first"); }};
    Process middle{sch, "middle", [this] {
                       ran.push_back("middle");
                       if (sch.now() == 5 * NS) {
                           last.notify();
                           first.notify();
                       }
                   }};
    Process last{sch, "last", [this] { ran.push_back("last"); }};

    explicit NotifyDesign(bool full) {
        clk.out.add_listener(first, Edge::Pos);
        clk.out.add_listener(middle, Edge::Pos);
        clk.out.add_listener(last, Edge::Pos);
        if (full) clk.out.add_listener(first, Edge::Wake);
    }
};

TEST(KernelFastPath, NotifyDuringARisingEdgeRunsLaterMembersOnce) {
    NotifyDesign fast(false);
    NotifyDesign full(true);
    fast.sch.run_until(5 * NS);
    full.sch.run_until(5 * NS);
    // `last` was still due in the edge's delta, so its notify() is a
    // no-op; `first` had run, so it runs again in the next delta.
    const std::vector<std::string> want = {"first", "middle", "last", "first"};
    EXPECT_EQ(fast.ran, want);
    EXPECT_EQ(full.ran, want);
    EXPECT_EQ(fast.sch.stats, full.sch.stats);
    EXPECT_EQ(fast.sch.stats.proc_invocations, 4u);
}

/// `both` listens to posedge(clk) and anyedge(x); a timed write of x
/// commits in the same update phase as the rising clock, before it when
/// `x_first` (scheduled ahead of the clock's first toggle), else after.
struct SharedPhaseDesign {
    Scheduler sch;
    std::vector<std::string> ran;
    Signal<int> x{sch, "x", 0};
    std::unique_ptr<Clock> clk;
    Process before{sch, "before", [this] { ran.push_back("before"); }};
    Process both{sch, "both", [this] { ran.push_back("both"); }};
    Process after{sch, "after", [this] { ran.push_back("after"); }};

    SharedPhaseDesign(bool full, bool x_first) {
        if (x_first) sch.schedule_at(5 * NS, [this] { x.write(1); });
        clk = std::make_unique<Clock>(sch, "clk", 10 * NS);
        if (!x_first) sch.schedule_at(5 * NS, [this] { x.write(1); });
        clk->out.add_listener(before, Edge::Pos);
        clk->out.add_listener(both, Edge::Pos);
        clk->out.add_listener(after, Edge::Pos);
        x.add_listener(both, Edge::Any);
        if (full) clk->out.add_listener(before, Edge::Wake);
    }
};

TEST(KernelFastPath, ProcessOnTheEdgeAndAnotherSignalRunsOnce) {
    for (const bool x_first : {false, true}) {
        SharedPhaseDesign fast(false, x_first);
        SharedPhaseDesign full(true, x_first);
        fast.sch.run_until(5 * NS);
        full.sch.run_until(5 * NS);
        // x's commit queues `both` at its own position only when it comes
        // first; after the clock's, `both` already holds its clock slot.
        const std::vector<std::string> want =
            x_first ? std::vector<std::string>{"both", "before", "after"}
                    : std::vector<std::string>{"before", "both", "after"};
        EXPECT_EQ(fast.ran, want) << "x_first=" << x_first;
        EXPECT_EQ(full.ran, want) << "x_first=" << x_first;
        EXPECT_EQ(fast.sch.stats, full.sch.stats) << "x_first=" << x_first;
    }
}

// --- the cycle loop and the open-set walk -----------------------------------
// Consecutive in-place toggles run in one kernel loop, and a rising edge's
// walk visits only the members whose open bit is set; a gated member's
// skipped count is derived from the walk counts (DESIGN.md "Kernel event
// path", "Activity gating"). Each case is again a fast twin against a full
// twin that a Wake listener keeps on the ordinary path.

/// Seventy posedge members of one clock, two open-set words. Member 0 counts
/// cycles and wakes every seventh member in turn, 5 wakes 66 (an earlier
/// member across the word boundary), 63 wakes its neighbour 64, and 67
/// wakes 2 (a later member, back across the boundary). Those four never
/// gate; every other member gates itself on two cycles in three.
struct WideDesign {
    static constexpr int kMembers = 70;
    Scheduler sch;
    Clock clk{sch, "clk", 10 * NS};
    Signal<int> tick{sch, "tick", 0};
    Signal<int> sum{sch, "sum", 0};
    std::vector<std::unique_ptr<Process>> members;
    std::vector<std::pair<Time, int>> ran;

    explicit WideDesign(bool full) {
        for (int i = 0; i < kMembers; ++i) {
            std::string name = "m";
            name += std::to_string(i);
            members.push_back(std::make_unique<Process>(
                sch, std::move(name), [this, i] { body(i); }));
            clk.out.add_listener(*members.back(), Edge::Pos);
        }
        if (full) clk.out.add_listener(*members[0], Edge::Wake);
    }

    void body(int i) {
        ran.emplace_back(sch.now(), i);
        const int t = tick.read();
        switch (i) {
            case 0:
                tick.write(t + 1);
                for (int j = t % 7; j < kMembers; j += 7) members[j]->wake();
                return;
            case 5:
                if (t % 3 == 0) members[66]->wake();
                return;
            case 63:
                if (t % 4 == 1) members[64]->wake();
                return;
            case 67:
                if (t % 5 == 2) members[2]->wake();
                return;
            default:
                if (i == 40) sum.write(sum.read() + t);
                if ((t + i) % 3 != 0) members[i]->gate();
        }
    }

    [[nodiscard]] std::vector<Logic> levels() const { return {clk.out.read()}; }
    [[nodiscard]] std::vector<std::uint8_t> save() const {
        SnapWriter w;
        sch.ckpt_save(w);
        clk.ckpt_save(w);
        sch.ckpt_save_signals(w);
        return w.take();
    }
    [[nodiscard]] bool restore(const std::vector<std::uint8_t>& blob) {
        SnapReader r(blob);
        return sch.ckpt_restore(r) && clk.ckpt_restore(r) &&
               sch.ckpt_restore_signals(r) && r.ok();
    }
};

TEST(KernelFastPath, SeventyMembersAcrossTwoMaskWordsMatchTheFullPath) {
    WideDesign fast(false);
    WideDesign full(true);
    ASSERT_NO_FATAL_FAILURE(run_twins(fast, full, 300 * NS, kNothingBetween));
    EXPECT_EQ(fast.ran, full.ran);
    std::uint64_t skipped = 0;
    for (int i = 0; i < WideDesign::kMembers; ++i) {
        EXPECT_EQ(fast.members[i]->skipped(), full.members[i]->skipped())
            << "member " << i;
        EXPECT_EQ(fast.members[i]->invocations() + fast.members[i]->skipped(),
                  30u)
            << "member " << i << ": one trigger per rising edge";
        skipped += fast.members[i]->skipped();
    }
    EXPECT_GT(skipped, 30u * WideDesign::kMembers / 2) << "mostly gated";
    // Each cross-boundary waker ran its wakee in the wake's own delta or
    // at the next edge, as the full path does.
    const auto runs_of = [&](int i) {
        std::vector<Time> v;
        for (const auto& [t, m] : fast.ran) {
            if (m == i) v.push_back(t);
        }
        return v;
    };
    EXPECT_FALSE(runs_of(64).empty());
    EXPECT_FALSE(runs_of(66).empty());
    EXPECT_FALSE(runs_of(2).empty());
}

// Profiling times each body from inside it, so a profiled run takes the
// kernel path an unprofiled one does, and they agree throughout.
TEST(KernelFastPath, ProfiledRunMatchesAnUnprofiledOne) {
    EdgeDesign edge_on(false);
    EdgeDesign edge_off(false);
    edge_on.sch.enable_profiling();
    ASSERT_NO_FATAL_FAILURE(
        run_twins(edge_on, edge_off, 120 * NS, kNothingBetween));
    EXPECT_EQ(edge_on.seen, edge_off.seen);
    EXPECT_EQ(edge_on.sleeper.skipped(), edge_off.sleeper.skipped());
    EXPECT_GT(edge_on.counter.self_time().count(), 0);
    EXPECT_EQ(edge_off.counter.self_time().count(), 0);

    WideDesign wide_on(false);
    WideDesign wide_off(false);
    wide_on.sch.enable_profiling();
    ASSERT_NO_FATAL_FAILURE(
        run_twins(wide_on, wide_off, 300 * NS, kNothingBetween));
    EXPECT_EQ(wide_on.ran, wide_off.ran);
    for (int i = 0; i < WideDesign::kMembers; ++i) {
        EXPECT_EQ(wide_on.members[i]->invocations(),
                  wide_off.members[i]->invocations())
            << "member " << i;
        EXPECT_EQ(wide_on.members[i]->skipped(),
                  wide_off.members[i]->skipped())
            << "member " << i;
    }
}

TEST(KernelFastPath, SaveWhileGatedRestoreAndContinueMatchesTheFullPath) {
    WideDesign fast(false);
    WideDesign full(true);
    fast.sch.run_until(123 * NS);
    full.sch.run_until(123 * NS);
    int gated = 0;
    for (const auto& m : fast.members) gated += m->gated() ? 1 : 0;
    ASSERT_GT(gated, 0);
    ASSERT_TRUE(fast.sch.ckpt_quiescent());
    const std::vector<std::uint8_t> blob = fast.save();
    ASSERT_EQ(blob, full.save());

    WideDesign warm(false);
    ASSERT_TRUE(warm.restore(blob));
    // A design that has already walked edges of its own restores the same
    // way: its walk counts and run marks start over from the blob.
    WideDesign used(false);
    used.sch.run_until(57 * NS);
    ASSERT_TRUE(used.restore(blob));
    for (int i = 0; i < WideDesign::kMembers; ++i) {
        ASSERT_EQ(warm.members[i]->gated(), fast.members[i]->gated());
        ASSERT_EQ(warm.members[i]->skipped(), fast.members[i]->skipped());
    }
    ASSERT_NO_FATAL_FAILURE(
        run_twins(warm, full, 300 * NS, kNothingBetween, 124 * NS));
    used.sch.run_until(300 * NS + 1);
    for (int i = 0; i < WideDesign::kMembers; ++i) {
        EXPECT_EQ(warm.members[i]->skipped(), full.members[i]->skipped())
            << "member " << i;
        EXPECT_EQ(used.members[i]->skipped(), full.members[i]->skipped())
            << "member " << i;
    }
    EXPECT_EQ(warm.save(), full.save());
    EXPECT_EQ(used.save(), full.save());
}

/// Two posedge members of one clock; `sleeper` gates itself after every
/// run. `waker` wakes it on every third edge; `waker_first` puts the waker
/// ahead of the sleeper in listener order.
struct WakeOrderDesign {
    Scheduler sch;
    Clock clk{sch, "clk", 10 * NS};
    Signal<int> n{sch, "n", 0};
    std::vector<Time> slept_runs;
    Process waker{sch, "waker", [this] {
                      n.write(n.read() + 1);
                      if (n.read() % 3 == 1) sleeper.wake();
                  }};
    Process sleeper{sch, "sleeper", [this] {
                        slept_runs.push_back(sch.now());
                        sleeper.gate();
                    }};

    WakeOrderDesign(bool full, bool waker_first) {
        if (waker_first) clk.out.add_listener(waker, Edge::Pos);
        clk.out.add_listener(sleeper, Edge::Pos);
        if (!waker_first) clk.out.add_listener(waker, Edge::Pos);
        if (full) clk.out.add_listener(waker, Edge::Wake);
    }
    [[nodiscard]] std::vector<Logic> levels() const { return {clk.out.read()}; }
};

TEST(KernelFastPath, EarlierMemberWakesALaterGatedOneInTheSameDelta) {
    WakeOrderDesign fast(false, true);
    WakeOrderDesign full(true, true);
    ASSERT_NO_FATAL_FAILURE(run_twins(fast, full, 100 * NS, kNothingBetween));
    // The waker reads n = 1, 4 and 7 at the edges of 15, 45 and 75 ns, and
    // each of its wakes runs the sleeper in the same delta.
    EXPECT_EQ(fast.slept_runs,
              (std::vector<Time>{5 * NS, 15 * NS, 45 * NS, 75 * NS}));
    EXPECT_EQ(fast.slept_runs, full.slept_runs);
    EXPECT_EQ(fast.sleeper.skipped(), 6u);
    EXPECT_EQ(fast.sleeper.skipped(), full.sleeper.skipped());
}

TEST(KernelFastPath, LaterMemberWakesAnEarlierGatedOneAtTheNextEdge) {
    WakeOrderDesign fast(false, false);
    WakeOrderDesign full(true, false);
    ASSERT_NO_FATAL_FAILURE(run_twins(fast, full, 100 * NS, kNothingBetween));
    // The sleeper was passed gated when the wake came, so that edge counts
    // as skipped and it runs at the next one.
    EXPECT_EQ(fast.slept_runs,
              (std::vector<Time>{5 * NS, 25 * NS, 55 * NS, 85 * NS}));
    EXPECT_EQ(fast.slept_runs, full.slept_runs);
    EXPECT_EQ(fast.sleeper.skipped(), 6u);
    EXPECT_EQ(fast.sleeper.skipped(), full.sleeper.skipped());
}

/// One member that gates itself once it has run, and reopens on a change
/// of `en`, which a timed closure writes; a second member counts cycles.
struct SelfGateDesign {
    Scheduler sch;
    Clock clk{sch, "clk", 10 * NS};
    Signal<int> n{sch, "n", 0};
    Signal<int> en{sch, "en", 0};
    Signal<int> acc{sch, "acc", 0};
    Process counter{sch, "counter", [this] { n.write(n.read() + 1); }};
    Process once{sch, "once", [this] {
                     acc.write(acc.read() + n.read());
                     once.gate();
                 }};

    explicit SelfGateDesign(bool full) {
        clk.out.add_listener(counter, Edge::Pos);
        clk.out.add_listener(once, Edge::Pos);
        en.add_listener(once, Edge::Wake);
        if (full) clk.out.add_listener(counter, Edge::Wake);
        for (const Time t : {33 * NS, 71 * NS}) {
            sch.schedule_at(t, [this] { en.write(1 - en.read()); });
        }
    }
    [[nodiscard]] std::vector<Logic> levels() const { return {clk.out.read()}; }
};

TEST(KernelFastPath, MemberThatGatesItselfAfterRunningMatchesTheFullPath) {
    SelfGateDesign fast(false);
    SelfGateDesign full(true);
    ASSERT_NO_FATAL_FAILURE(run_twins(fast, full, 100 * NS, kNothingBetween));
    // Runs at 5 ns, then after each wake at the next edge: 35 and 75 ns.
    EXPECT_EQ(fast.once.invocations(), 3u);
    EXPECT_EQ(fast.once.skipped(), 7u);
    EXPECT_EQ(fast.acc.read(), 0 + 3 + 7);
    EXPECT_EQ(fast.acc.read(), full.acc.read());
}

/// Three posedge members; the middle one reads every member's skipped()
/// from its body, in the middle of the walk.
struct SkippedReadDesign {
    Scheduler sch;
    Clock clk{sch, "clk", 10 * NS};
    Signal<int> n{sch, "n", 0};
    std::vector<std::uint64_t> reads;
    Process first{sch, "first", [this] {
                      if (n.read() % 4 != 0) first.gate();
                  }};
    Process reader{sch, "reader", [this] {
                       n.write(n.read() + 1);
                       for (const Process* p : {&first, &reader, &last}) {
                           reads.push_back(p->skipped());
                       }
                       if (n.read() % 4 == 3) {
                           first.wake();
                           last.wake();
                       }
                   }};
    Process last{sch, "last", [this] {
                     if (n.read() % 3 != 0) last.gate();
                 }};

    explicit SkippedReadDesign(bool full) {
        clk.out.add_listener(first, Edge::Pos);
        clk.out.add_listener(reader, Edge::Pos);
        clk.out.add_listener(last, Edge::Pos);
        if (full) clk.out.add_listener(reader, Edge::Wake);
    }
    [[nodiscard]] std::vector<Logic> levels() const { return {clk.out.read()}; }
};

TEST(KernelFastPath, SkippedReadFromABodyMidWalkMatchesTheFullPath) {
    SkippedReadDesign fast(false);
    SkippedReadDesign full(true);
    ASSERT_NO_FATAL_FAILURE(run_twins(fast, full, 200 * NS, kNothingBetween));
    ASSERT_EQ(fast.reads.size(), 3u * 20);
    EXPECT_EQ(fast.reads, full.reads);
    EXPECT_GT(fast.first.skipped(), 0u);
    EXPECT_GT(fast.last.skipped(), 0u);
}

/// One member on the rising edges of two clocks, of 10 ns and 14 ns, that
/// gates itself after every run. The first clock's counter, ahead of it,
/// wakes it on every third edge; the second clock's counter, behind it,
/// on every fourth. The clocks' rises coincide at 35 and 105 ns.
struct TwoClockGateDesign {
    Scheduler sch;
    Clock a{sch, "a", 10 * NS};
    Clock b{sch, "b", 14 * NS};
    Signal<int> na{sch, "na", 0};
    Signal<int> nb{sch, "nb", 0};
    Signal<int> sum{sch, "sum", 0};
    Process count_a{sch, "count_a", [this] {
                        na.write(na.read() + 1);
                        if (na.read() % 3 == 0) both.wake();
                    }};
    Process both{sch, "both", [this] {
                     sum.write((sum.read() + na.read() + 2 * nb.read()) % 1000);
                     both.gate();
                 }};
    Process count_b{sch, "count_b", [this] {
                        nb.write(nb.read() + 1);
                        if (nb.read() % 4 == 1) both.wake();
                    }};

    explicit TwoClockGateDesign(bool full) {
        a.out.add_listener(count_a, Edge::Pos);
        a.out.add_listener(both, Edge::Pos);
        b.out.add_listener(both, Edge::Pos);
        b.out.add_listener(count_b, Edge::Pos);
        if (full) {
            a.out.add_listener(count_a, Edge::Wake);
            b.out.add_listener(count_b, Edge::Wake);
        }
    }
    [[nodiscard]] std::vector<Logic> levels() const {
        return {a.out.read(), b.out.read()};
    }
};

TEST(KernelFastPath, OneMemberOnTwoClocksMatchesTheFullPath) {
    TwoClockGateDesign fast(false);
    TwoClockGateDesign full(true);
    ASSERT_NO_FATAL_FAILURE(run_twins(fast, full, 300 * NS, kNothingBetween));
    // 30 rises of a and 21 of b, at 47 distinct times (35, 105, 175 and
    // 245 ns are shared); each is one trigger the member ran or skipped.
    EXPECT_EQ(fast.both.invocations() + fast.both.skipped(), 47u);
    EXPECT_GT(fast.both.skipped(), fast.both.invocations());
    EXPECT_EQ(fast.both.skipped(), full.both.skipped());
    EXPECT_EQ(fast.sum.read(), full.sum.read());
}

/// A 400 ps clock, so one run_until() of a nanosecond runs up to five
/// toggles in the loop. `count` counts rises and wakes `sleeper`, which
/// gates itself, on every fourth; `hook` lets a case act from inside the
/// loop, in count's body.
struct LoopDesign {
    Scheduler sch;
    Clock clk{sch, "clk", 400 * PS};
    Signal<int> n{sch, "n", 0};
    Signal<int> acc{sch, "acc", 0};
    std::vector<std::pair<Time, int>> seen;
    std::function<void(LoopDesign&)> hook;
    std::ostringstream vcd;
    Tracer tracer{vcd};
    Process count{sch, "count", [this] {
                      n.write(n.read() + 1);
                      if (n.read() % 4 == 0) sleeper.wake();
                      if (hook) hook(*this);
                  }};
    Process sleeper{sch, "sleeper", [this] {
                        acc.write(acc.read() + n.read());
                        sleeper.gate();
                    }};

    explicit LoopDesign(bool full) {
        clk.out.add_listener(count, Edge::Pos);
        clk.out.add_listener(sleeper, Edge::Pos);
        if (full) clk.out.add_listener(count, Edge::Wake);
    }
    [[nodiscard]] std::vector<Logic> levels() const { return {clk.out.read()}; }
};

TEST(KernelFastPath, ClosureScheduledInsideTheLoopMatchesTheFullPath) {
    LoopDesign fast(false);
    LoopDesign full(true);
    // Rises sit at 200 + 400k ps. At the 7th a closure lands between the
    // fall and the next rise, at the 11th one at the next rise's own time,
    // and at the 15th one at the current time, in a timestep of its own.
    const auto hook = [](LoopDesign& d) {
        const int n = d.n.read();
        const Time now = d.sch.now();
        if (n == 6) {
            d.sch.schedule_at(now + 300 * PS,
                              [&d] { d.acc.write(d.acc.read() + 100); });
        } else if (n == 10) {
            d.sch.schedule_at(now + 400 * PS, [&d] { d.sleeper.notify(); });
        } else if (n == 14) {
            d.sch.schedule_at(now, [&d] {
                d.seen.emplace_back(d.sch.now(), d.n.read());
            });
        }
    };
    fast.hook = hook;
    full.hook = hook;
    ASSERT_NO_FATAL_FAILURE(run_twins(fast, full, 12 * NS, kNothingBetween));
    EXPECT_EQ(fast.seen, full.seen);
    EXPECT_EQ(fast.seen, (std::vector<std::pair<Time, int>>{{5800, 15}}));
    EXPECT_EQ(fast.acc.read(), full.acc.read());
    EXPECT_EQ(fast.n.read(), 30);
}

TEST(KernelFastPath, StopRequestedInsideTheLoopMatchesTheFullPath) {
    LoopDesign fast(false);
    LoopDesign full(true);
    const auto hook = [](LoopDesign& d) {
        if (d.n.read() == 8) d.sch.request_stop("ninth rise");
    };
    fast.hook = hook;
    full.hook = hook;
    ASSERT_NO_FATAL_FAILURE(run_twins(fast, full, 6 * NS, kNothingBetween));
    // The stop ends the loop at the 9th rise (3.4 ns); later bounds run
    // nothing and leave the time where the stop left it.
    EXPECT_TRUE(fast.sch.stop_requested());
    EXPECT_EQ(fast.sch.stop_reason(), "ninth rise");
    EXPECT_EQ(fast.sch.now(), 3400 * PS);
    EXPECT_EQ(fast.sch.now(), full.sch.now());
    EXPECT_EQ(fast.n.read(), 9);
}

TEST(KernelFastPath, TracerAttachedBetweenRunsMatchesTheFullPath) {
    LoopDesign fast(false);
    LoopDesign full(true);
    const auto attach = [](LoopDesign& d, Time t) {
        if (t != 3 * NS) return;
        d.tracer.add(d.clk.out);
        d.tracer.add(d.n);
        d.tracer.add(d.acc);
        d.sch.set_tracer(&d.tracer);
    };
    ASSERT_NO_FATAL_FAILURE(run_twins(fast, full, 8 * NS, attach));
    fast.tracer.finish();
    full.tracer.finish();
    EXPECT_EQ(fast.vcd.str(), full.vcd.str());
    // Every toggle after the attach is a timestep of its own.
    EXPECT_NE(fast.vcd.str().find("#3200\n"), std::string::npos);
    EXPECT_NE(fast.vcd.str().find("#8000\n"), std::string::npos);
    EXPECT_EQ(fast.vcd.str().find("#2800\n"), std::string::npos);
}

TEST(KernelFastPath, BoundsBetweenAFallAndARiseMatchTheFullPath) {
    LoopDesign fast(false);
    LoopDesign full(true);
    // Falls sit at 400k ps and rises at 400k + 200: each bound falls
    // strictly between a fall and the next rise, after many toggles in one
    // loop, two, or none; then a bound exactly on a rise, and past the
    // fall after it.
    for (const Time t : {Time{4100}, Time{4100}, Time{4199}, Time{4500},
                         Time{9301}, Time{9399}, Time{9400}, Time{9401},
                         Time{9700}}) {
        fast.sch.run_until(t);
        full.sch.run_until(t);
        ASSERT_EQ(fast.sch.now(), t);
        ASSERT_EQ(full.sch.now(), t);
        ASSERT_EQ(fast.sch.stats, full.sch.stats) << "t=" << t;
        ASSERT_EQ(fast.levels(), full.levels()) << "t=" << t;
        ASSERT_EQ(blob_of(fast.sch), blob_of(full.sch)) << "t=" << t;
        const bool after_rise = t == 9400 || t == 9401;
        EXPECT_EQ(fast.clk.out.read(), after_rise ? Logic::L1 : Logic::L0)
            << "t=" << t;
    }
    EXPECT_EQ(fast.n.read(), 24);
}

}  // namespace
}  // namespace rtlsim
