// Event-lane suite (DESIGN.md §13): the parallel evaluate phase must be
// indistinguishable from the sequential kernel — bit-exact stats, values,
// and deterministic diagnostic/stop merging — at every lane count. The
// whole file matches the `Lanes*` CI filter and is the primary TSan
// target: the stress tests below push wide deltas through the worker pool
// with cross-lane committed-signal reads, which is exactly the access
// pattern the lane partitioning rules promise is race-free.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "kernel/kernel.hpp"
#include "kernel/lane_pool.hpp"
#include "sys/testbench.hpp"

namespace {

using rtlsim::Clock;
using rtlsim::Edge;
using rtlsim::Logic;
using rtlsim::NS;
using rtlsim::Process;
using rtlsim::Scheduler;
using rtlsim::Signal;

// --- kernel-level fixture --------------------------------------------------

/// A deterministic multi-lane workload: `n` counter processes on one clock,
/// each bumping its own signal by a value derived from its neighbour's
/// *committed* counter — every evaluate reads across lane boundaries, and
/// every delta is wide enough (n >= kMinParallelDelta) to take the
/// parallel path when lanes > 1.
struct CounterFarm {
    explicit CounterFarm(unsigned lanes, unsigned n = 12)
        : clk(sch, "clk", 10 * NS) {
        sch.configure_lanes(lanes);
        for (unsigned i = 0; i < n; ++i) {
            counts.push_back(std::make_unique<Signal<std::uint32_t>>(
                sch, "count" + std::to_string(i), 0u));
        }
        for (unsigned i = 0; i < n; ++i) {
            procs.push_back(std::make_unique<Process>(
                sch, "bump" + std::to_string(i), [this, i, n] {
                    const std::uint32_t neighbour =
                        counts[(i + 1) % n]->read();
                    counts[i]->write(counts[i]->read() + 1 +
                                     (neighbour & 3u));
                }));
            clk.out.add_listener(*procs[i], Edge::Pos);
            sch.set_process_lane(*procs[i], static_cast<std::uint16_t>(i));
        }
    }

    [[nodiscard]] std::vector<std::uint32_t> values() const {
        std::vector<std::uint32_t> v;
        for (const auto& c : counts) v.push_back(c->read());
        return v;
    }

    Scheduler sch;
    Clock clk;
    std::vector<std::unique_ptr<Signal<std::uint32_t>>> counts;
    std::vector<std::unique_ptr<Process>> procs;
};

TEST(LanesKernel, WideDeltasAreBitExactAcrossLaneCounts) {
    CounterFarm ref(1);
    ref.sch.run_until(200 * 10 * NS);
    for (const unsigned lanes : {2u, 3u, 4u, 8u}) {
        CounterFarm farm(lanes);
        farm.sch.run_until(200 * 10 * NS);
        EXPECT_EQ(farm.values(), ref.values()) << "lanes=" << lanes;
        EXPECT_EQ(farm.sch.stats, ref.sch.stats) << "lanes=" << lanes;
    }
}

TEST(LanesKernel, StressManyProcessesLongRun) {
    // The TSan workhorse: 32 processes over 4 lanes, 2000 clock edges of
    // cross-lane reads through the worker pool.
    CounterFarm ref(1, 32);
    ref.sch.run_until(2000 * 10 * NS);
    CounterFarm farm(4, 32);
    farm.sch.run_until(2000 * 10 * NS);
    EXPECT_EQ(farm.values(), ref.values());
    EXPECT_EQ(farm.sch.stats, ref.sch.stats);
}

// Back-to-back runs of shrinking and growing width: a worker still leaving
// one run must never claim an index of the next (whose job it has not
// synchronized with), so every run executes each of its own indices
// exactly once and nothing past its width. Under TSan this is also the
// direct check that the pool publishes each run's job race-free.
TEST(LanesPool, EachRunClaimsItsOwnIndicesExactlyOnce) {
    rtlsim::LanePool pool(3);
    constexpr unsigned kRuns = 4000;
    constexpr unsigned kWidths[] = {6, 1, 4, 2, 5};
    std::vector<unsigned> hits(8);
    unsigned strays = 0;
    for (unsigned run = 0; run < kRuns; ++run) {
        const unsigned width = kWidths[run % std::size(kWidths)];
        std::fill(hits.begin(), hits.end(), 0u);
        // Each index is a distinct slot; a stray claim lands past `width`.
        const std::function<void(unsigned)> job = [&](unsigned i) {
            ++hits[i < hits.size() ? i : 0];
        };
        pool.run(width, job);
        for (unsigned i = 0; i < hits.size(); ++i) {
            strays += (hits[i] != (i < width ? 1u : 0u)) ? 1u : 0u;
        }
    }
    EXPECT_EQ(strays, 0u);
}

TEST(LanesKernel, NarrowDeltasStaySequentialAndCorrect) {
    // A single-process ripple is below kMinParallelDelta: with lanes
    // configured it must run inline and produce the sequential result.
    for (const unsigned lanes : {1u, 4u}) {
        Scheduler sch;
        sch.configure_lanes(lanes);
        Clock clk(sch, "clk", 10 * NS);
        Signal<std::uint32_t> count(sch, "count", 0u);
        Process p(sch, "solo", [&] { count.write(count.read() + 1); });
        clk.out.add_listener(p, Edge::Pos);
        sch.set_process_lane(p, 3);
        sch.run_until(50 * 10 * NS);
        EXPECT_EQ(count.read(), 50u) << "lanes=" << lanes;
    }
}

TEST(LanesKernel, LaneAssignmentClampsToConfiguredCount) {
    Scheduler sch;
    sch.configure_lanes(2);
    Process p(sch, "p", [] {});
    sch.set_process_lane(p, 7);  // modulo lane_count()
    EXPECT_EQ(p.lane(), 1u);
    // Reconfiguring narrower re-clamps existing assignments.
    sch.set_process_lane(p, 1);
    sch.configure_lanes(1);
    EXPECT_EQ(p.lane(), 0u);
    EXPECT_EQ(sch.lane_count(), 1u);
}

// --- diagnostic / stop merging --------------------------------------------

/// Four reporter processes, one per lane, all firing in the same delta.
struct ReporterFarm {
    explicit ReporterFarm(unsigned lanes) : clk(sch, "clk", 10 * NS) {
        sch.configure_lanes(lanes);
        for (unsigned i = 0; i < 4; ++i) {
            procs.push_back(std::make_unique<Process>(
                sch, "rep" + std::to_string(i), [this, i] {
                    sch.report("tb.lane" + std::to_string(i),
                               "tick " + std::to_string(ticks));
                }));
            clk.out.add_listener(*procs[i], Edge::Pos);
            sch.set_process_lane(*procs[i], static_cast<std::uint16_t>(i));
        }
        ticker = std::make_unique<Process>(sch, "ticker", [this] { ++ticks; });
        clk.out.add_listener(*ticker, Edge::Neg);
    }

    Scheduler sch;
    Clock clk;
    std::vector<std::unique_ptr<Process>> procs;
    std::unique_ptr<Process> ticker;
    int ticks = 0;
};

TEST(LanesDiag, ReportsMergeInAscendingLaneOrderDeterministically) {
    auto run_once = [] {
        ReporterFarm farm(4);
        farm.sch.run_until(10 * 10 * NS);
        std::vector<std::string> sources;
        for (const rtlsim::Diag& d : farm.sch.diagnostics()) {
            sources.push_back(d.source);
        }
        return sources;
    };
    const std::vector<std::string> a = run_once();
    const std::vector<std::string> b = run_once();
    ASSERT_EQ(a.size(), 40u);  // 4 reporters x 10 rising edges
    EXPECT_EQ(a, b) << "parallel diag merge must be run-to-run stable";
    // Within each delta the four reports appear in ascending lane order.
    for (std::size_t i = 0; i < a.size(); i += 4) {
        EXPECT_EQ(a[i], "tb.lane0");
        EXPECT_EQ(a[i + 1], "tb.lane1");
        EXPECT_EQ(a[i + 2], "tb.lane2");
        EXPECT_EQ(a[i + 3], "tb.lane3");
    }
}

TEST(LanesDiag, OverflowAcrossLanesIsCountedNotStored) {
    ReporterFarm farm(4);
    // 4 diags per rising edge: run far enough to blow through kMaxDiags.
    const std::size_t edges = rtlsim::Scheduler::kMaxDiags / 4 + 25;
    farm.sch.run_until(edges * 10 * NS);  // one rising edge per period
    EXPECT_EQ(farm.sch.diagnostics().size(), rtlsim::Scheduler::kMaxDiags);
    EXPECT_EQ(farm.sch.diagnostics().size() + farm.sch.dropped_diagnostics(),
              4u * edges);
}

TEST(LanesStop, LowestLaneWinsWhenStopsCollideInOneDelta) {
    auto run_once = [] {
        Scheduler sch;
        sch.configure_lanes(4);
        Clock clk(sch, "clk", 10 * NS);
        std::vector<std::unique_ptr<Process>> procs;
        // Registered high-lane first, so notification order favours lane 3:
        // the merge, not scheduling luck, must pick lane 1.
        for (const unsigned lane : {3u, 1u}) {
            procs.push_back(std::make_unique<Process>(
                sch, "stopper" + std::to_string(lane), [&sch, lane] {
                    sch.request_stop("lane" + std::to_string(lane));
                }));
            clk.out.add_listener(*procs.back(), Edge::Pos);
            sch.set_process_lane(*procs.back(),
                                 static_cast<std::uint16_t>(lane));
        }
        // Padding processes so the delta is wide enough to go parallel.
        for (unsigned i = 0; i < 4; ++i) {
            procs.push_back(
                std::make_unique<Process>(sch, "pad" + std::to_string(i),
                                          [] {}));
            clk.out.add_listener(*procs.back(), Edge::Pos);
            sch.set_process_lane(*procs.back(),
                                 static_cast<std::uint16_t>(i));
        }
        sch.run();
        return sch.stop_reason();
    };
    const std::string a = run_once();
    EXPECT_EQ(a, "lane1");
    EXPECT_EQ(run_once(), a);
}

// --- full system -----------------------------------------------------------

TEST(LanesSystem, SmallFrameLanes4BitExactVsLanes1) {
    autovision::sys::SystemConfig cfg;  // 64x48 invariance geometry
    cfg.lanes = 1;
    autovision::sys::Testbench tb1(cfg, /*scene_seed=*/1);
    const autovision::sys::RunResult r1 = tb1.run(1);

    cfg.lanes = 4;
    autovision::sys::Testbench tb4(cfg, /*scene_seed=*/1);
    const autovision::sys::RunResult r4 = tb4.run(1);

    EXPECT_EQ(r1.stats, r4.stats);
    EXPECT_EQ(r1.sim_time, r4.sim_time);
    EXPECT_EQ(r1.verdict(), r4.verdict());
    EXPECT_EQ(r4.verdict(), "clean");
    EXPECT_EQ(r1.census_mismatches, r4.census_mismatches);
    EXPECT_EQ(r1.field_mismatches, r4.field_mismatches);
    EXPECT_EQ(r1.output_mismatches, r4.output_mismatches);
}

TEST(LanesSystem, ResolveLanesHonoursExplicitValueAndEnv) {
    using autovision::sys::SystemConfig;
    const char* saved = ::getenv("AUTOVISION_LANES");
    const std::string saved_val = saved != nullptr ? saved : "";
    EXPECT_EQ(SystemConfig::resolve_lanes(4), 4u);  // explicit wins
    ::unsetenv("AUTOVISION_LANES");
    EXPECT_EQ(SystemConfig::resolve_lanes(0), 1u);
    ::setenv("AUTOVISION_LANES", "4", 1);
    EXPECT_EQ(SystemConfig::resolve_lanes(0), 4u);
    EXPECT_EQ(SystemConfig::resolve_lanes(2), 2u);  // env never overrides
    ::setenv("AUTOVISION_LANES", "0", 1);
    EXPECT_EQ(SystemConfig::resolve_lanes(0), 1u);
    ::setenv("AUTOVISION_LANES", "99", 1);
    EXPECT_EQ(SystemConfig::resolve_lanes(0), 1u);
    ::setenv("AUTOVISION_LANES", "junk", 1);
    EXPECT_EQ(SystemConfig::resolve_lanes(0), 1u);
    if (saved != nullptr) {
        ::setenv("AUTOVISION_LANES", saved_val.c_str(), 1);
    } else {
        ::unsetenv("AUTOVISION_LANES");
    }
}

}  // namespace
