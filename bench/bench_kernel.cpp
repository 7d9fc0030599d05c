// Microbenchmarks of the rtlsim kernel primitives: 4-state vector algebra,
// signal commit, edge fan-out and delta-cycle propagation. These bound the
// full-system simulation rate (the denominator of every Table II number).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "kernel/kernel.hpp"

namespace {

using namespace rtlsim;

void bm_lvec_and(benchmark::State& state) {
    Word a{0xDEADBEEF};
    Word b = Word::from_planes(0x12345678, 0x0000FF00);
    for (auto _ : state) {
        Word c = a & b;
        benchmark::DoNotOptimize(c);
        a = c | b;
    }
}
BENCHMARK(bm_lvec_and);

void bm_lvec_add(benchmark::State& state) {
    Word a{1};
    Word b{0x9E3779B9};
    for (auto _ : state) {
        a = a + b;
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(bm_lvec_add);

void bm_signal_commit(benchmark::State& state) {
    Scheduler sch;
    Signal<Word> s(sch, "s", Word{0});
    std::uint32_t v = 0;
    for (auto _ : state) {
        sch.schedule_at(sch.now() + NS, [&] { s.write(Word{++v}); });
        sch.advance();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_signal_commit);

/// One clock edge fanning out to N sequential posedge processes — the inner
/// loop of the full-system simulation. With `wake`, the first process also
/// gets an Edge::Wake listener; it never gates, so that changes no run, but
/// the clock is no longer posedge-only and every edge pops and fires. Every
/// process after the first `open` gates itself for good at its first run.
void clock_fanout(benchmark::State& state, bool wake,
                  std::size_t open = SIZE_MAX) {
    const auto n = static_cast<std::size_t>(state.range(0));
    Scheduler sch;
    Clock clk(sch, "clk", 10 * NS);
    std::vector<std::unique_ptr<Process>> procs;
    std::uint64_t sink = 0;
    for (std::size_t i = 0; i < n; ++i) {
        std::function<void()> body = [&sink] { ++sink; };
        if (i >= open) {
            body = [&sink, &procs, i] {
                ++sink;
                procs[i]->gate();
            };
        }
        procs.push_back(std::make_unique<Process>(sch, "p", std::move(body)));
        clk.out.add_listener(*procs.back(), Edge::Pos);
    }
    if (wake) clk.out.add_listener(*procs.front(), Edge::Wake);
    for (auto _ : state) {
        sch.advance();  // half period; alternating edges
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * n / 2);
}

void bm_clock_fanout(benchmark::State& state) { clock_fanout(state, false); }
BENCHMARK(bm_clock_fanout)->Arg(1)->Arg(16)->Arg(64);

void bm_clock_fanout_wake(benchmark::State& state) {
    clock_fanout(state, true);
}
BENCHMARK(bm_clock_fanout_wake)->Arg(16);

/// What a mostly gated edge costs: two of the N processes stay open.
void bm_clock_fanout_gated(benchmark::State& state) {
    clock_fanout(state, false, 2);
}
BENCHMARK(bm_clock_fanout_gated)->Arg(64);

/// The allocation-free event path: an intrusive node rescheduling itself,
/// as a Clock does — the single hottest loop in any full-system run.
void bm_event_reschedule(benchmark::State& state) {
    Scheduler sch;
    struct Tick final : TimedEvent {
        explicit Tick(Scheduler& s) : sch(s) {}
        void fire() override {
            ++count;
            sch.schedule_event(sch.now() + 5 * NS, *this);
        }
        Scheduler& sch;
        std::uint64_t count = 0;
    } tick(sch);
    sch.schedule_event(5 * NS, tick);
    for (auto _ : state) {
        sch.advance();
    }
    benchmark::DoNotOptimize(tick.count);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_event_reschedule);

/// A pooled closure scheduled 5 us ahead (watchdog-style) and popped
/// alone: the schedule_at() and event-queue round trip. The name and its
/// baseline row date from the calendar queue, where this took the
/// far-future overflow path.
void bm_far_future_events(benchmark::State& state) {
    Scheduler sch;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        sch.schedule_in(5 * US, [&sink] { ++sink; });
        sch.advance();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_far_future_events);

/// Delta-cycle propagation through a combinational chain of length N.
void bm_delta_chain(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    Scheduler sch;
    std::vector<std::unique_ptr<Signal<int>>> sigs;
    for (std::size_t i = 0; i <= n; ++i) {
        sigs.push_back(std::make_unique<Signal<int>>(
            sch, 's' + std::to_string(i), 0));
    }
    std::vector<std::unique_ptr<Process>> procs;
    for (std::size_t i = 0; i < n; ++i) {
        Signal<int>& in = *sigs[i];
        Signal<int>& out = *sigs[i + 1];
        procs.push_back(std::make_unique<Process>(
            sch, "p", [&in, &out] { out.write(in.read() + 1); }));
        in.add_listener(*procs.back(), Edge::Any);
    }
    int v = 0;
    for (auto _ : state) {
        sch.schedule_at(sch.now() + NS, [&] { sigs[0]->write(++v); });
        sch.advance();  // settles the whole chain
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(bm_delta_chain)->Arg(4)->Arg(32)->Arg(128);

}  // namespace

BENCHMARK_MAIN();
