// Multi-region time-shared virtualization: engine library, scheduling
// policies, ICAP arbitration, the RegionManager protocol, and the
// multi-region harness's determinism + checkpoint contracts.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "kernel/clock.hpp"
#include "kernel/kernel.hpp"
#include "obs/recorder.hpp"
#include "recon/icap_port.hpp"
#include "rrm/engine_library.hpp"
#include "rrm/icap_arbiter.hpp"
#include "rrm/policy.hpp"
#include "rrm/rrm_harness.hpp"
#include "rrm/rrm_section.hpp"
#include "sys/testbench.hpp"

namespace {

using namespace autovision;
using namespace autovision::rrm;
using rtlsim::Time;

constexpr Time kClk = 10 * rtlsim::NS;

// ---------------------------------------------------------------------------
// Engine library

TEST(RrmLibrary, CatalogueShape) {
    const auto& lib = engine_library();
    ASSERT_EQ(lib.size(), kNumEngines);
    EXPECT_STREQ(lib[0].id, "census");
    EXPECT_STREQ(lib[1].id, "matching");
    EXPECT_STREQ(lib[2].id, "sobel");
    EXPECT_STREQ(lib[3].id, "flow");
    // EngineKind values double as SimB module ids; the demonstrator's
    // census/matching keep their historical ids 1/2.
    for (std::size_t i = 0; i < lib.size(); ++i) {
        EXPECT_EQ(static_cast<std::size_t>(lib[i].kind), i + 1);
        EXPECT_EQ(find_engine(lib[i].kind), &lib[i]);
    }
    EXPECT_EQ(find_engine(EngineKind::kNone), nullptr);
    EXPECT_TRUE(lib[1].needs_src2);  // matching consumes the previous frame
    EXPECT_TRUE(lib[3].needs_src2);  // flow diffs cur against prev
}

TEST(RrmLibrary, FactoryInstantiatesAllFour) {
    rtlsim::Scheduler sch;
    rtlsim::Clock clk{sch, "clk", kClk};
    rtlsim::ResetGen rst{sch, "rst", 3 * kClk};
    EngineRegs regs{sch, "regs", clk.out, 0x40};
    for (const EngineInfo& info : engine_library()) {
        auto e = make_engine(info.kind, sch, std::string("e.") + info.id,
                             clk.out, rst.out, regs);
        ASSERT_NE(e, nullptr) << info.id;
    }
    EXPECT_EQ(make_engine(EngineKind::kNone, sch, "none", clk.out, rst.out,
                          regs),
              nullptr);
}

// ---------------------------------------------------------------------------
// Policies

Workload mixed_workload() {
    Workload w;
    w.regions = 2;
    w.requests = {
        {0, EngineKind::kSobel, 3},
        {0, EngineKind::kSobel, 0},
        {1, EngineKind::kCensus, 2},
        {1, EngineKind::kFlow, 1},
    };
    return w;
}

TEST(RrmPolicy, ThreePoliciesProduceDocumentedDistinctSchedules) {
    const Workload w = mixed_workload();
    const std::string rr =
        schedule_signature(plan_schedule(Policy::kRoundRobin, w));
    const std::string edf =
        schedule_signature(plan_schedule(Policy::kDeadline, w));
    const std::string demand =
        schedule_signature(plan_schedule(Policy::kDemand, w));

    // Round-robin interleaves per-region queues one per turn.
    EXPECT_EQ(rr, "r0.sobel! r1.census! r0.sobel! r1.flow!");
    // Earliest deadline first, ties on (region, arrival).
    EXPECT_EQ(edf, "r0.sobel! r1.flow! r1.census! r0.sobel!");
    // Demand paging keeps arrival order and elides the resident re-swap.
    EXPECT_EQ(demand, "r0.sobel! r0.sobel r1.census! r1.flow!");

    EXPECT_NE(rr, edf);
    EXPECT_NE(rr, demand);
    EXPECT_NE(edf, demand);
}

TEST(RrmPolicy, PlannerIsPure) {
    const Workload w = mixed_workload();
    for (Policy p :
         {Policy::kRoundRobin, Policy::kDeadline, Policy::kDemand}) {
        EXPECT_EQ(schedule_signature(plan_schedule(p, w)),
                  schedule_signature(plan_schedule(p, w)));
    }
}

TEST(RrmPolicy, EmptyWorkload) {
    EXPECT_TRUE(plan_schedule(Policy::kRoundRobin, Workload{}).empty());
}

// ---------------------------------------------------------------------------
// ICAP arbiter

struct ArbFixture {
    rtlsim::Scheduler sch;
    rtlsim::Clock clk{sch, "clk", kClk};
    rtlsim::ResetGen rst{sch, "rst", 3 * kClk};
    NullIcap sink;
    IcapArbiter arb;
    obs::EventRecorder rec;

    explicit ArbFixture(IcapArbiter::Grant g)
        : arb(sch, "arb", clk.out, rst.out, sink, 3, g) {
        rec.set_enabled(true);
        arb.set_observer(&rec);
        sch.run_until(8 * kClk);
    }

    void drain(Time budget = 4000 * kClk) {
        const Time limit = sch.now() + budget;
        while (arb.busy() && sch.now() < limit) {
            sch.run_until(sch.now() + 16 * kClk);
        }
    }

    [[nodiscard]] std::vector<unsigned> grant_order() const {
        std::vector<unsigned> order;
        for (const obs::Event& e : rec.snapshot()) {
            if (e.kind == obs::EventKind::kArbGrant) {
                order.push_back(e.region);
            }
        }
        return order;
    }
};

std::vector<std::uint32_t> words(std::uint32_t n, std::uint32_t tag) {
    std::vector<std::uint32_t> w(n);
    for (std::uint32_t i = 0; i < n; ++i) w[i] = (tag << 16) | i;
    return w;
}

TEST(RrmArbiter, FairRotationThreeRegionContention) {
    ArbFixture f(IcapArbiter::Grant::kFair);
    // All three regions pile two sessions each onto the arbiter at once.
    for (unsigned round = 0; round < 2; ++round) {
        for (unsigned r = 0; r < 3; ++r) {
            f.arb.submit(r, words(8, r * 10 + round), 1, 0);
        }
    }
    f.drain();
    ASSERT_FALSE(f.arb.busy());
    EXPECT_EQ(f.sink.words(), 6u * 8u);
    // Fair rotation: nobody is granted twice before everyone with pending
    // work is granted once — no starvation.
    EXPECT_EQ(f.grant_order(), (std::vector<unsigned>{0, 1, 2, 0, 1, 2}));
    for (unsigned r = 0; r < 3; ++r) {
        EXPECT_EQ(f.arb.stats(r).sessions, 2u) << r;
        EXPECT_EQ(f.arb.stats(r).words, 16u) << r;
        EXPECT_EQ(f.arb.outstanding(r), 0u) << r;
        // Bounded wait: at worst the other regions' five sessions ahead.
        EXPECT_LE(f.arb.stats(r).max_wait, 5u * 8u + 16u) << r;
    }
}

TEST(RrmArbiter, PriorityGrantsMostUrgentFirst) {
    ArbFixture f(IcapArbiter::Grant::kPriority);
    f.arb.submit(0, words(4, 0), 1, 5);
    f.arb.submit(1, words(4, 1), 1, 1);
    f.arb.submit(2, words(4, 2), 1, 3);
    f.drain();
    ASSERT_FALSE(f.arb.busy());
    EXPECT_EQ(f.grant_order(), (std::vector<unsigned>{1, 2, 0}));
}

TEST(RrmArbiter, WordGapPacesForwarding) {
    ArbFixture f(IcapArbiter::Grant::kFair);
    f.arb.submit(0, words(16, 0), 4, 0);
    const Time before = f.sch.now();
    f.drain();
    ASSERT_FALSE(f.arb.busy());
    // 16 words at one word per 4 cycles needs at least 60 cycles.
    EXPECT_GE(f.sch.now() - before, 60 * kClk);
}

// ---------------------------------------------------------------------------
// Full harness runs

void expect_clean_completion(const RrmResult& res, const RrmConfig& cfg) {
    EXPECT_TRUE(res.completed);
    ASSERT_EQ(res.jobs_done.size(), cfg.regions);
    for (unsigned r = 0; r < cfg.regions; ++r) {
        EXPECT_EQ(res.jobs_done[r], cfg.jobs_per_region) << "region " << r;
        EXPECT_EQ(res.timeouts[r], 0u) << "region " << r;
    }
    EXPECT_EQ(res.diagnostics, 0u)
        << (res.diagnostic_text.empty() ? "" : res.diagnostic_text.front());
}

TEST(RrmHarnessRun, TwoRegionRoundRobinCompletesClean) {
    RrmConfig cfg;
    const RrmResult res = run_rrm_scenario(cfg);
    expect_clean_completion(res, cfg);
    // Time-sharing policies reconfigure per job (the initial full-bitstream
    // configurations are not counted as reconfigurations).
    EXPECT_EQ(res.schedule, "r0.census! r1.matching! r0.matching! r1.sobel!");
    EXPECT_EQ(res.swaps, 4u);
    for (unsigned r = 0; r < cfg.regions; ++r) {
        EXPECT_EQ(res.sessions[r], 2u);
        EXPECT_EQ(res.arb_sessions[r], 2u);
    }
    // Per-region obs rollups carry the same story.
    EXPECT_EQ(res.metrics.per_region[0].jobs, 2u);
    EXPECT_EQ(res.metrics.per_region[1].jobs, 2u);
    EXPECT_EQ(res.metrics.per_region[0].arb_grants, 2u);
    EXPECT_EQ(res.metrics.per_region[1].arb_grants, 2u);
    EXPECT_GT(res.metrics.per_region[1].isolations, 0u);
}

TEST(RrmHarnessRun, ThreeRegionFrameAllPolicies) {
    // The E14 shape: three regions time-sharing sobel/census/flow work.
    std::vector<std::string> schedules;
    for (Policy p :
         {Policy::kRoundRobin, Policy::kDeadline, Policy::kDemand}) {
        RrmConfig cfg;
        cfg.regions = 3;
        cfg.policy = p;
        cfg.seed = 7;
        const RrmResult res = run_rrm_scenario(cfg);
        expect_clean_completion(res, cfg);
        schedules.push_back(std::string(to_string(p)) + ": " + res.schedule);
        // Every region reports its own traffic in the rollup.
        for (unsigned r = 0; r < cfg.regions; ++r) {
            EXPECT_EQ(res.metrics.per_region[r].jobs, cfg.jobs_per_region);
            EXPECT_GT(res.metrics.per_region[r].x_window_cycles.count, 0u);
        }
    }
    // One seed, three documented distinct schedules.
    EXPECT_EQ(schedules[0],
              "rr: r0.census! r1.matching! r2.sobel! r0.matching! r1.sobel! "
              "r2.flow!");
    EXPECT_NE(schedules[0].substr(4), schedules[1].substr(10));
}

TEST(RrmHarnessRun, DeadlinePolicyMapsUrgencyToArbiterPriority) {
    RrmConfig cfg;
    cfg.regions = 3;
    cfg.policy = Policy::kDeadline;
    cfg.grant = IcapArbiter::Grant::kPriority;
    const RrmResult res = run_rrm_scenario(cfg);
    expect_clean_completion(res, cfg);
}

TEST(RrmHarnessRun, VirtualMultiplexingModeSwapsWithoutBitstreams) {
    RrmConfig cfg;
    cfg.vm_mode = true;
    const RrmResult res = run_rrm_scenario(cfg);
    expect_clean_completion(res, cfg);
    // VM swaps are signature writes: the ICAP datapath never runs.
    EXPECT_EQ(res.swaps, 0u);
    for (unsigned r = 0; r < cfg.regions; ++r) {
        EXPECT_EQ(res.sessions[r], 0u);
        EXPECT_EQ(res.arb_sessions[r], 0u);
    }
    // And no X-windows: VM cannot produce reconfiguration errors.
    EXPECT_EQ(res.metrics.x_window_cycles.count, 0u);
}

TEST(RrmHarnessRun, DeterministicAcrossRuns) {
    RrmConfig cfg;
    cfg.regions = 3;
    cfg.seed = 11;
    const RrmResult a = run_rrm_scenario(cfg);
    const RrmResult b = run_rrm_scenario(cfg);
    EXPECT_EQ(a.sim_time, b.sim_time);
    EXPECT_EQ(a.schedule, b.schedule);
    EXPECT_EQ(a.stats.timed_events, b.stats.timed_events);
    EXPECT_EQ(a.stats.delta_cycles, b.stats.delta_cycles);
    EXPECT_EQ(a.stats.signal_updates, b.stats.signal_updates);
    ASSERT_EQ(a.events.size(), b.events.size());
    for (std::size_t i = 0; i < a.events.size(); ++i) {
        EXPECT_EQ(a.events[i].time, b.events[i].time) << i;
        EXPECT_EQ(a.events[i].kind, b.events[i].kind) << i;
        EXPECT_EQ(a.events[i].region, b.events[i].region) << i;
        EXPECT_EQ(a.events[i].a, b.events[i].a) << i;
        EXPECT_EQ(a.events[i].b, b.events[i].b) << i;
    }
}

// ---------------------------------------------------------------------------
// Cross-region corruption / isolation contention (bug.dpr.1, multi-region)

TEST(RrmIsolationContention, SimultaneousWindowsStayClean) {
    // Two regions in an X-window at the same time: as long as both hold
    // isolation, no X reaches the shared PLB.
    RrmConfig cfg;
    cfg.corrupt = RegionCorrupt::kSimultaneousWindows;
    cfg.victim = 0;
    const RrmResult res = run_rrm_scenario(cfg);
    EXPECT_TRUE(res.completed);
    EXPECT_EQ(res.diagnostics, 0u)
        << (res.diagnostic_text.empty() ? "" : res.diagnostic_text.front());

    // Prove the windows actually overlapped: at some instant both regions
    // had an open X-window.
    bool open[2] = {false, false};
    bool overlapped = false;
    for (const obs::Event& e : res.events) {
        if (e.region > 1) continue;
        if (e.kind == obs::EventKind::kXWindowBegin) open[e.region] = true;
        if (e.kind == obs::EventKind::kXWindowEnd) open[e.region] = false;
        overlapped = overlapped || (open[0] && open[1]);
    }
    EXPECT_TRUE(overlapped);
}

TEST(RrmIsolationContention, AbortedBurstRegrantStaysInsideTheFrame) {
    // A generated closure scenario (perfbench workload seed 22, campaign 23,
    // b3.i6): the victim's session isolates the co-region while its engine
    // is mid-burst, so the PLB aborts the burst and later grants it again
    // in full. The extra read beats used to reach the engine's frame sink
    // and write past its 16x12 buffer (a heap overflow under ASan, an
    // abort in Release). The run must drain with only the abort reported.
    RrmConfig cfg;
    cfg.regions = 3;
    cfg.policy = Policy::kRoundRobin;
    cfg.grant = IcapArbiter::Grant::kPriority;
    cfg.vm_mode = false;
    cfg.payload_words = 12;
    cfg.word_gap = 1;
    cfg.jobs_per_region = 4;
    cfg.width = 16;
    cfg.height = 12;
    cfg.corrupt = RegionCorrupt::kSimultaneousWindows;
    cfg.victim = 2;
    cfg.seed = 16203762205225590218ull;
    const RrmResult res = run_rrm_scenario(cfg);
    EXPECT_TRUE(res.completed);
    EXPECT_EQ(res.swaps, 12u);
    ASSERT_EQ(res.diagnostics, 1u);
    EXPECT_NE(res.diagnostic_text.front().find("released req mid-burst"),
              std::string::npos)
        << res.diagnostic_text.front();
}

TEST(RrmIsolationContention, DroppedIsolationLeaksOnlyFromVictim) {
    // Region 0 forgets to isolate; region 1 runs the correct driver. The X
    // that escapes must be attributable to region 0's boundary alone —
    // region 1's traffic through the shared PLB stays clean.
    RrmConfig cfg;
    cfg.corrupt = RegionCorrupt::kDropIsolation;
    cfg.victim = 0;
    const RrmResult res = run_rrm_scenario(cfg);
    EXPECT_GT(res.diagnostics, 0u);
    for (const std::string& d : res.diagnostic_text) {
        // Diagnostics name the offending master port / boundary; the
        // well-behaved region's instances (r1.*, master 1) never appear.
        EXPECT_EQ(d.find("r1."), std::string::npos) << d;
        EXPECT_EQ(d.find("master 1"), std::string::npos) << d;
    }
    // The victim never toggled isolation.
    bool victim_isolated = false;
    for (const obs::Event& e : res.events) {
        if (e.kind == obs::EventKind::kIsolationOn && e.region == 0) {
            victim_isolated = true;
        }
    }
    EXPECT_FALSE(victim_isolated);
}

TEST(RrmHarnessRun, WrongRegionFarMisdirectsSwapsToCoRegion) {
    // The nastiest cross-region failure mode: a mis-addressed FAR lands the
    // victim's bitstreams on the co-region's boundary. The victim's jobs
    // still "complete" — whatever engine is resident takes the start pulse
    // — so nothing times out. Only the region-tagged event stream shows the
    // corruption: the victim's boundary never reconfigures while the
    // co-region absorbs the victim's swaps on top of its own.
    RrmConfig cfg;
    cfg.corrupt = RegionCorrupt::kWrongRegionFar;
    cfg.victim = 0;
    const RrmResult res = run_rrm_scenario(cfg);
    EXPECT_TRUE(res.completed);
    EXPECT_EQ(res.sessions[0], cfg.jobs_per_region);  // victim did submit
    EXPECT_EQ(res.timeouts[0], 0u);                   // ...and never hung

    unsigned swaps_by_region[2] = {0, 0};
    unsigned xwin_by_region[2] = {0, 0};
    for (const obs::Event& e : res.events) {
        if (e.region > 1) continue;
        if (e.kind == obs::EventKind::kSwap) ++swaps_by_region[e.region];
        if (e.kind == obs::EventKind::kXWindowBegin) {
            ++xwin_by_region[e.region];
        }
    }
    // All four sessions (two per region) landed on region 1's boundary.
    EXPECT_EQ(swaps_by_region[0], 0u);
    EXPECT_EQ(swaps_by_region[1], 4u);
    EXPECT_EQ(xwin_by_region[0], 0u);
    EXPECT_EQ(xwin_by_region[1], 4u);
    // The per-region metric rollup tells the same story.
    EXPECT_EQ(res.metrics.per_region[0].swaps, 0u);
    EXPECT_EQ(res.metrics.per_region[1].swaps, 4u);
}

// ---------------------------------------------------------------------------
// Checkpoint: versioned region-array section, warm == cold

TEST(RrmCkpt, WarmRestoreMatchesColdRun) {
    RrmConfig cfg;
    cfg.regions = 2;
    cfg.seed = 5;

    // Cold reference: run to completion in one piece.
    RrmHarness cold(cfg);
    cold.boot();
    cold.start();
    cold.run_to_completion();
    const RrmResult ref = cold.collect();
    ASSERT_TRUE(ref.completed);

    // Checkpoint mid-flight, at the first quiescent point past mid-run.
    RrmHarness a(cfg);
    a.boot();
    a.start();
    const Time half = ref.sim_time / 2;
    while (a.sch.now() < half) {
        a.sch.run_until(a.sch.now() + 64 * RrmHarness::kClk);
    }
    std::ostringstream os;
    ASSERT_TRUE(a.save(os));
    const std::string blob = os.str();

    // Restore into a freshly elaborated harness and finish the run there.
    RrmHarness b(cfg);
    std::istringstream is(blob);
    std::string err;
    ASSERT_TRUE(b.restore(is, &err)) << err;
    EXPECT_EQ(b.sch.now(), a.sch.now());
    b.run_to_completion();
    const RrmResult warm = b.collect();

    EXPECT_TRUE(warm.completed);
    EXPECT_EQ(warm.sim_time, ref.sim_time);
    EXPECT_EQ(warm.schedule, ref.schedule);
    EXPECT_EQ(warm.jobs_done, ref.jobs_done);
    EXPECT_EQ(warm.sessions, ref.sessions);
    ASSERT_EQ(warm.events.size(), ref.events.size());
    for (std::size_t i = 0; i < warm.events.size(); ++i) {
        EXPECT_EQ(warm.events[i].time, ref.events[i].time) << i;
        EXPECT_EQ(warm.events[i].kind, ref.events[i].kind) << i;
        EXPECT_EQ(warm.events[i].region, ref.events[i].region) << i;
    }

    // Final-state snapshots are byte-identical, and both runs decode the
    // same versioned region-array section.
    std::ostringstream oa;
    std::ostringstream ob;
    ASSERT_TRUE(cold.save(oa));
    ASSERT_TRUE(b.save(ob));
    EXPECT_EQ(oa.str(), ob.str());
    EXPECT_EQ(cold.region_snapshots(), b.region_snapshots());
}

TEST(RrmCkpt, RestoreRejectsWrongConfig) {
    RrmConfig cfg;
    RrmHarness a(cfg);
    a.boot();
    std::ostringstream os;
    ASSERT_TRUE(a.save(os));

    RrmConfig other = cfg;
    other.policy = Policy::kDeadline;  // different elaboration identity
    RrmHarness b(other);
    std::istringstream is(os.str());
    std::string err;
    EXPECT_FALSE(b.restore(is, &err));
    EXPECT_EQ(err,
              "config hash mismatch (snapshot was taken from a differently "
              "configured system)");
}

// Each malformed blob fails with the diagnostic of what is wrong with it:
// truncation inside the magic or inside the section table is reported by
// the loader, and a well-formed blob whose "rrm" summary disagrees with the
// restored state is caught by the final cross-check.
TEST(RrmCkpt, RestoreReportsEachFailure) {
    RrmConfig cfg;
    RrmHarness a(cfg);
    a.boot();
    std::ostringstream os;
    ASSERT_TRUE(a.save(os));
    const std::string blob = os.str();

    const auto restore_error = [&cfg](const std::string& bytes) {
        RrmHarness b(cfg);
        std::istringstream is(bytes);
        std::string err;
        EXPECT_FALSE(b.restore(is, &err));
        return err;
    };
    EXPECT_EQ(restore_error(blob.substr(0, 0)), "not a checkpoint (bad magic)");
    EXPECT_EQ(restore_error(blob.substr(0, 4)), "not a checkpoint (bad magic)");
    EXPECT_EQ(restore_error(blob.substr(0, blob.size() / 2)),
              "truncated section table");
    EXPECT_EQ(restore_error(blob.substr(0, blob.size() - 1)),
              "truncated section table");

    // Re-encode the blob with region 0's summarised jobs count bumped.
    std::istringstream is(blob);
    ckpt::Loader in;
    ASSERT_TRUE(in.load(is, cfg.config_hash()));
    ckpt::Saver out(in.manifest());
    for (const ckpt::Loader::SectionInfo& s : in.sections()) {
        rtlsim::SnapWriter& w = out.section(s.name);
        if (s.name == "rrm") {
            rtlsim::SnapReader r = in.reader(s.name);
            std::vector<RegionSnapshot> summary;
            ASSERT_TRUE(load_region_section(r, summary));
            ++summary.at(0).jobs;
            save_region_section(w, summary);
        } else {
            for (const std::uint8_t byte : *in.find(s.name)) w.u8(byte);
        }
    }
    std::ostringstream mutated;
    ASSERT_TRUE(out.write_to(mutated));
    ASSERT_EQ(mutated.str().size(), blob.size());
    EXPECT_EQ(restore_error(mutated.str()), "rrm summary/state mismatch");
}

TEST(RrmCkpt, RegionSectionRoundTrips) {
    std::vector<RegionSnapshot> in = {
        {0, EngineKind::kSobel, true, false, 3, 2},
        {1, EngineKind::kFlow, false, true, 1, 1},
        {2, EngineKind::kNone, false, false, 0, 0},
    };
    rtlsim::SnapWriter w;
    save_region_section(w, in);
    rtlsim::SnapReader r(w.buffer());
    std::vector<RegionSnapshot> out;
    ASSERT_TRUE(load_region_section(r, out));
    EXPECT_EQ(in, out);
}


// ---------------------------------------------------------------------------
// Full-system integration (sys::OpticalFlowSystem with regions >= 2)
// ---------------------------------------------------------------------------

// N = 1 must be byte-identical to the pre-pool model: the pool fields are
// inert in the elaboration identity, the checkpoint blob carries none of
// the pool sections, and the canned two-frame run still reproduces the
// kernel-invariance golden bit-for-bit.
TEST(RrmSystem, SingleRegionIdentityPreserved) {
    const sys::SystemConfig base;  // regions = 1
    sys::SystemConfig tweaked = base;
    tweaked.rrm_policy = Policy::kDeadline;
    tweaked.rrm_grant = IcapArbiter::Grant::kPriority;
    tweaked.rrm_jobs_per_region = 7;
    tweaked.rrm_payload_words = 99;
    EXPECT_EQ(sys::OpticalFlowSystem::config_hash(base),
              sys::OpticalFlowSystem::config_hash(tweaked));
    sys::SystemConfig pool = base;
    pool.regions = 2;
    EXPECT_NE(sys::OpticalFlowSystem::config_hash(base),
              sys::OpticalFlowSystem::config_hash(pool));

    sys::Testbench tb(base, /*scene_seed=*/1);
    const sys::RunResult res = tb.run(2);
    ASSERT_EQ(res.frames_completed, 2u);
    EXPECT_EQ(res.verdict(), "clean");
    EXPECT_EQ(res.stats.timed_events, 82513u);
    EXPECT_EQ(res.stats.delta_cycles, 138656u);
    // 470658 before activity gating: gated idle processes are skipped
    // uncounted (see KernelInvariance.DefaultConfigTwoFramesMatchesGolden).
    EXPECT_EQ(res.stats.proc_invocations, 130775u);
    EXPECT_EQ(res.stats.signal_updates, 163149u);
    EXPECT_EQ(res.sim_time, 412560000u);

    std::ostringstream blob;
    ASSERT_TRUE(tb.sys.save(blob));
    // Single-region blobs must not even name the pool sections.
    EXPECT_EQ(blob.str().find("rrm_mgr"), std::string::npos);
    EXPECT_EQ(blob.str().find("dcr_mgmt"), std::string::npos);
}

// The acceptance run: a full three-region system frame — the legacy
// firmware-driven region 0 pipeline plus two managed pool regions — with
// per-region obs metrics.
TEST(RrmSystem, ThreeRegionFrameDeterministicAcrossLanes) {
    sys::SystemConfig cfg;
    cfg.regions = 3;
    cfg.trace_events = true;
    sys::Testbench tb(cfg, /*scene_seed=*/1);
    const sys::RunResult res = tb.run(2);
    EXPECT_EQ(res.verdict(), "clean");
    ASSERT_TRUE(res.traced);

    // The pool drained alongside the pipeline: every managed region
    // completed its whole job mix with no timeouts.
    ASSERT_NE(tb.sys.region_manager, nullptr);
    EXPECT_TRUE(tb.sys.region_manager->done());
    for (unsigned i = 0; i + 1 < cfg.regions; ++i) {
        EXPECT_EQ(tb.sys.region_manager->jobs_done(i),
                  cfg.rrm_jobs_per_region);
        EXPECT_EQ(tb.sys.region_manager->timeouts(i), 0u);
    }
    // Per-region metrics: the managed regions swapped and ran jobs, tagged
    // with their global region ids (1 and 2, never 3).
    for (unsigned r = 1; r <= 2; ++r) {
        EXPECT_GT(res.metrics.per_region[r].swaps, 0u) << r;
        EXPECT_EQ(res.metrics.per_region[r].jobs, cfg.rrm_jobs_per_region)
            << r;
        EXPECT_GT(res.metrics.per_region[r].arb_grants, 0u) << r;
    }
    EXPECT_FALSE(res.metrics.per_region[3].any());
}

// Pool checkpoints round-trip mid-flight: save a three-region system while
// the RegionManager is working, restore into a fresh elaboration, continue
// both the uninterrupted reference and the restored run to the same end
// time, and require bit-identical final blobs (which also exercises the
// versioned "rrm" region-array summary validation on the restore path).
// A blob from one pool shape must refuse to restore into another.
TEST(RrmSystem, ThreeRegionCheckpointRoundTrip) {
    sys::SystemConfig cfg;
    cfg.regions = 3;
    cfg.width = 32;
    cfg.height = 24;
    cfg.search = 2;
    cfg.simb_payload_words = 64;
    constexpr rtlsim::Time kQuantum = 32 * 10 * rtlsim::NS;
    constexpr rtlsim::Time kMid = 40'000 * rtlsim::NS;
    constexpr rtlsim::Time kEnd = 400'000 * rtlsim::NS;
    const auto run_to = [&](sys::OpticalFlowSystem& s, rtlsim::Time t) {
        while (s.sch.now() < t && !s.sch.stop_requested()) {
            s.sch.run_until(s.sch.now() + kQuantum);
        }
    };

    // Cold reference: one uninterrupted run (the pool workload runs
    // autonomously; no video frames are needed).
    sys::OpticalFlowSystem cold(cfg);
    run_to(cold, kEnd);
    std::ostringstream cold_blob;
    ASSERT_TRUE(cold.save(cold_blob));

    // Warm side: save mid-pool, restore into a fresh system, continue.
    sys::OpticalFlowSystem warm(cfg);
    run_to(warm, kMid);
    std::ostringstream mid;
    ASSERT_TRUE(warm.save(mid));
    EXPECT_NE(mid.str().find("rrm_mgr"), std::string::npos);

    sys::OpticalFlowSystem restored(cfg);
    std::istringstream is(mid.str());
    std::string err;
    ASSERT_TRUE(restored.restore(is, &err)) << err;
    EXPECT_EQ(restored.sch.now(), warm.sch.now());
    run_to(restored, kEnd);
    std::ostringstream warm_blob;
    ASSERT_TRUE(restored.save(warm_blob));
    EXPECT_EQ(warm_blob.str(), cold_blob.str())
        << "restored pool run diverged from the uninterrupted reference";
    EXPECT_TRUE(cold.region_manager->done());
    EXPECT_EQ(cold.region_snapshots(), restored.region_snapshots());

    // Wrong pool shape: the manifest hash embeds the pool fields.
    sys::SystemConfig other = cfg;
    other.regions = 2;
    sys::OpticalFlowSystem wrong(other);
    std::istringstream is2(mid.str());
    EXPECT_FALSE(wrong.restore(is2, &err));
}

// Virtual Multiplexing pool: under the VM method the managed regions swap
// via their per-region engine_signature registers on the management chain
// — no bitstreams, no arbiter — and the job mix still completes.
TEST(RrmSystem, VirtualMultiplexingPoolCompletes) {
    sys::SystemConfig cfg;
    cfg.method = autovision::sys::FirmwareConfig::Method::kVm;
    cfg.regions = 3;
    sys::Testbench tb(cfg, /*scene_seed=*/1);
    const sys::RunResult res = tb.run(2);
    EXPECT_EQ(res.verdict(), "clean");
    ASSERT_NE(tb.sys.region_manager, nullptr);
    EXPECT_EQ(tb.sys.icap_arbiter, nullptr);
    EXPECT_TRUE(tb.sys.region_manager->done());
    for (unsigned i = 0; i + 1 < cfg.regions; ++i) {
        EXPECT_EQ(tb.sys.region_manager->jobs_done(i),
                  cfg.rrm_jobs_per_region);
        EXPECT_EQ(tb.sys.region_manager->timeouts(i), 0u);
    }
}

}  // namespace
