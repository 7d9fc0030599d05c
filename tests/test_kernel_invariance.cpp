// Kernel-invariance suite: pins the *observable* behaviour of the
// simulation kernel so hot-path rewrites (the calendar-queue time wheel,
// event pooling, delta-queue flattening) are provably behaviour-preserving.
//
// The golden SimStats below were captured from the pre-rewrite kernel (the
// std::map<Time, vector<function>> time wheel) running the canned Testbench
// configurations at that commit, and must stay bit-identical: a kernel
// change that alters event ordering, delta settling, or signal-commit
// semantics shows up here as a counter drift long before it corrupts a
// frame. Update these constants only when a change *intentionally* alters
// kernel semantics, and say why in the commit message.
//
// proc_invocations is the one deliberate exception: activity gating
// (DESIGN.md "Activity gating") skips idle clocked processes without
// counting them, so those goldens were re-pinned; every other field — and
// the whole-signal waveform below — is unchanged from the pre-gating
// kernel.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "sys/testbench.hpp"

namespace {

using autovision::sys::RunResult;
using autovision::sys::SystemConfig;
using autovision::sys::Testbench;

struct Golden {
    std::uint64_t timed_events;
    std::uint64_t delta_cycles;
    std::uint64_t proc_invocations;
    std::uint64_t signal_updates;
    std::uint64_t time_steps;
    rtlsim::Time sim_time;
};

void expect_golden(const RunResult& r, const Golden& g) {
    EXPECT_EQ(r.stats.timed_events, g.timed_events);
    EXPECT_EQ(r.stats.delta_cycles, g.delta_cycles);
    EXPECT_EQ(r.stats.proc_invocations, g.proc_invocations);
    EXPECT_EQ(r.stats.signal_updates, g.signal_updates);
    EXPECT_EQ(r.stats.time_steps, g.time_steps);
    EXPECT_EQ(r.sim_time, g.sim_time);
    // A clean run is part of the contract: zero diagnostics and bit-exact
    // scoreboard results (census, motion field, drawn output).
    EXPECT_EQ(r.verdict(), "clean");
    EXPECT_TRUE(r.diagnostics.empty());
    EXPECT_EQ(r.census_mismatches, 0u);
    EXPECT_EQ(r.field_mismatches, 0u);
    EXPECT_EQ(r.output_mismatches, 0u);
}

// Canned frame #1: default 64x48 ReSim configuration, two frames, scene
// seed 1. Goldens captured from the pre-calendar-queue kernel.
TEST(KernelInvariance, DefaultConfigTwoFramesMatchesGolden) {
    SystemConfig cfg;
    Testbench tb(cfg, /*scene_seed=*/1);
    const RunResult r = tb.run(2);
    ASSERT_EQ(r.frames_completed, 2u);
    expect_golden(r, Golden{
                         .timed_events = 82513,
                         .delta_cycles = 138656,
                         // 470658 before gating: 339883 idle invocations
                         // (PLB, DCR ring, INTC, IcapCTRL, pulse gens,
                         // engines, VIPs) are now skipped uncounted.
                         .proc_invocations = 130775,
                         .signal_updates = 163149,
                         .time_steps = 82512,
                         .sim_time = 412560000,
                     });
}

// Canned frame #2: wider 96x64 frame, bigger SimB, scene seed 7 — a
// different DPR/compute balance than the default config.
TEST(KernelInvariance, WideConfigOneFrameMatchesGolden) {
    SystemConfig cfg;
    cfg.width = 96;
    cfg.height = 64;
    cfg.search = 2;
    cfg.simb_payload_words = 512;
    Testbench tb(cfg, /*scene_seed=*/7);
    const RunResult r = tb.run(1);
    ASSERT_EQ(r.frames_completed, 1u);
    expect_golden(r, Golden{
                         .timed_events = 95505,
                         .delta_cycles = 157831,
                         // 541930 before gating (403132 idle invocations
                         // now skipped uncounted).
                         .proc_invocations = 138798,
                         .signal_updates = 180062,
                         .time_steps = 95504,
                         .sim_time = 477520000,
                     });
}

// The checkpoint blob itself, not just warm==cold within one build: the
// default 2-frame run's saved state is pinned by length and FNV-1a, so a
// kernel or module change that moves a single snapshot byte between
// commits fails here.
TEST(KernelInvariance, CheckpointBlobMatchesGolden) {
    SystemConfig cfg;
    Testbench tb(cfg, /*scene_seed=*/1);
    const RunResult r = tb.run(2);
    ASSERT_EQ(r.frames_completed, 2u);
    std::ostringstream os;
    ASSERT_TRUE(tb.sys.save(os));
    const std::string blob = os.str();
    EXPECT_EQ(blob.size(), 58329u);
    EXPECT_EQ(rtlsim::snap_hash64(blob), 0x9582'3d38'34db'2c8cull);
}

// The whole waveform, not just its counts: every registered signal of the
// default 2-frame run is traced, and the VCD's FNV-1a digest and length are
// pinned. Any change in what is committed, or when, shows up here even if
// it leaves every SimStats counter intact (e.g. a skipped process whose
// outputs silently stop being driven).
TEST(KernelInvariance, EverySignalWaveformMatchesGolden) {
    SystemConfig cfg;
    Testbench tb(cfg, /*scene_seed=*/1);
    std::ostringstream vcd;
    rtlsim::Tracer tracer(vcd);
    for (rtlsim::SignalBase* s : tb.sys.sch.signals()) tracer.add(*s);
    tb.sys.sch.set_tracer(&tracer);
    const RunResult r = tb.run(2);
    tb.sys.sch.set_tracer(nullptr);
    ASSERT_EQ(r.frames_completed, 2u);
    EXPECT_EQ(r.verdict(), "clean");

    // Captured before activity gating landed; gating must not move a byte.
    const std::string bytes = vcd.str();
    EXPECT_EQ(bytes.size(), 2294827u);
    EXPECT_EQ(rtlsim::snap_hash64(bytes), 0xf968'206d'5d03'e26cull);
}

// The same configuration must be deterministic run-to-run — otherwise the
// goldens above could flake rather than catch real kernel drift.
TEST(KernelInvariance, RepeatRunsAreBitIdentical) {
    SystemConfig cfg;
    auto run_once = [&cfg] {
        Testbench tb(cfg, /*scene_seed=*/3);
        return tb.run(1);
    };
    const RunResult a = run_once();
    const RunResult b = run_once();
    EXPECT_EQ(a.stats, b.stats);
    EXPECT_EQ(a.sim_time, b.sim_time);
    EXPECT_EQ(a.diagnostics.size(), b.diagnostics.size());
}

// --- diagnostic overflow bound ------------------------------------------
// Scheduler::kMaxDiags caps stored diagnostics; everything beyond is
// counted in dropped_diagnostics(). No other test exercises this bound.

TEST(KernelInvariance, DiagnosticsOverflowIsCountedNotStored) {
    rtlsim::Scheduler sch;
    constexpr std::size_t kExtra = 37;
    for (std::size_t i = 0; i < rtlsim::Scheduler::kMaxDiags + kExtra; ++i) {
        sch.report("tb.flood", "diag " + std::to_string(i));
    }
    EXPECT_EQ(sch.diagnostics().size(), rtlsim::Scheduler::kMaxDiags);
    EXPECT_EQ(sch.dropped_diagnostics(), kExtra);
    // The stored window is the *first* kMaxDiags entries.
    EXPECT_EQ(sch.diagnostics().front().message, "diag 0");
    EXPECT_EQ(sch.diagnostics().back().message,
              "diag " + std::to_string(rtlsim::Scheduler::kMaxDiags - 1));
    EXPECT_TRUE(sch.has_diag_from("flood"));
    EXPECT_FALSE(sch.has_diag_from("nosuch"));
}

TEST(KernelInvariance, DiagnosticsBelowBoundAreAllStored) {
    rtlsim::Scheduler sch;
    sch.report("tb.a", "one");
    sch.report("tb.b", "two");
    EXPECT_EQ(sch.diagnostics().size(), 2u);
    EXPECT_EQ(sch.dropped_diagnostics(), 0u);
}

}  // namespace
