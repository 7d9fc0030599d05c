// Unit tests for the observability subsystem (src/obs): the event
// recorder's ring semantics, the metrics registry's single-pass
// derivations, both exporters, and the end-to-end wiring through the
// full-system testbench and the campaign job bodies.
//
// Every suite name starts with "Obs" so the CI TSan job's gtest filter
// picks the whole file up.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaigns.hpp"
#include "campaign/runner.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "sys/testbench.hpp"

namespace autovision {
namespace {

using obs::Event;
using obs::EventKind;
using obs::EventRecorder;
using obs::Hist;
using obs::Metrics;
using obs::Source;

Event ev(rtlsim::Time t, EventKind k, Source s = Source::kIcap,
         std::uint32_t a = 0, std::uint64_t b = 0) {
    Event e;
    e.time = t;
    e.kind = k;
    e.src = s;
    e.a = a;
    e.b = b;
    return e;
}

// ------------------------------------------------------------- recorder

TEST(ObsRecorder, DisabledRecordIsNoOp) {
    EventRecorder rec(8);
    EXPECT_FALSE(rec.enabled());
    rec.record(100, EventKind::kSync, Source::kIcap);
    EXPECT_EQ(rec.total(), 0u);
    EXPECT_EQ(rec.size(), 0u);
    EXPECT_TRUE(rec.snapshot().empty());
}

TEST(ObsRecorder, ZeroCapacityStaysDisabled) {
    EventRecorder rec(0);
    rec.set_enabled(true);
    EXPECT_FALSE(rec.enabled()) << "zero-capacity ring must refuse to enable";
    rec.record(1, EventKind::kSync, Source::kIcap);  // must not divide by 0
    EXPECT_EQ(rec.total(), 0u);
}

TEST(ObsRecorder, RecordsInOrderWithPayloads) {
    EventRecorder rec(8);
    rec.set_enabled(true);
    rec.record(10, EventKind::kSync, Source::kIcap);
    rec.record(20, EventKind::kSwap, Source::kPortal, 1, 2);
    const auto snap = rec.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap[0].time, 10u);
    EXPECT_EQ(snap[0].kind, EventKind::kSync);
    EXPECT_EQ(snap[1].src, Source::kPortal);
    EXPECT_EQ(snap[1].a, 1u);
    EXPECT_EQ(snap[1].b, 2u);
    EXPECT_EQ(rec.dropped(), 0u);
}

TEST(ObsRecorder, WrapAroundKeepsNewestAndCountsDropped) {
    EventRecorder rec(4);
    rec.set_enabled(true);
    for (rtlsim::Time t = 1; t <= 6; ++t) {
        rec.record(t, EventKind::kSync, Source::kIcap,
                   static_cast<std::uint32_t>(t));
    }
    EXPECT_EQ(rec.total(), 6u);
    EXPECT_EQ(rec.size(), 4u);
    EXPECT_EQ(rec.dropped(), 2u);
    const auto snap = rec.snapshot();
    ASSERT_EQ(snap.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(snap[i].time, i + 3) << "oldest survivor first";
    }
}

TEST(ObsRecorder, ClearResets) {
    EventRecorder rec(4);
    rec.set_enabled(true);
    rec.record(1, EventKind::kSync, Source::kIcap);
    rec.clear();
    EXPECT_EQ(rec.total(), 0u);
    EXPECT_TRUE(rec.snapshot().empty());
    rec.record(2, EventKind::kSync, Source::kIcap);
    EXPECT_EQ(rec.size(), 1u);
}

/// This process's resident set in bytes (Linux: /proc/self/statm).
std::size_t resident_bytes() {
    std::ifstream statm("/proc/self/statm");
    std::size_t size = 0;
    std::size_t resident = 0;
    statm >> size >> resident;
    return resident * static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}

// Reserving the ring writes none of it: eight default recorders (1.5 MiB
// of slots each) grow the resident set by a few pages, not by 12 MiB.
TEST(ObsRecorder, ConstructionLeavesTheRingUntouched) {
    const std::size_t before = resident_bytes();
    std::vector<std::unique_ptr<EventRecorder>> recs;
    for (int i = 0; i < 8; ++i) {
        recs.push_back(std::make_unique<EventRecorder>());
    }
    const std::size_t after = resident_bytes();
    EXPECT_LT(after, before + (1u << 20))
        << "8 rings of 1.5 MiB each grew the resident set by "
        << (after - before) << " bytes";
    for (const auto& r : recs) EXPECT_TRUE(r->snapshot().empty());
}

// Event i of a test run: every field varies, and kinds and sources cycle
// through every real value.
void record_nth(EventRecorder& rec, std::uint64_t i) {
    constexpr auto kKinds = static_cast<unsigned>(EventKind::kCount);
    constexpr auto kSources = static_cast<unsigned>(Source::kCount);
    rec.record(10 * i, static_cast<EventKind>(i % kKinds),
               static_cast<Source>(i % kSources),
               static_cast<std::uint32_t>(i), i * i,
               static_cast<std::uint8_t>(i % 3));
}

std::vector<std::uint8_t> save(const EventRecorder& rec) {
    rtlsim::SnapWriter w;
    rec.ckpt_save(w);
    return w.take();
}

bool restore(EventRecorder& rec, const std::vector<std::uint8_t>& blob) {
    rtlsim::SnapReader r(blob);
    return rec.ckpt_restore(r) && r.remaining() == 0;
}

void expect_same_events(const std::vector<Event>& got,
                        const std::vector<Event>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(got[i].time, want[i].time);
        EXPECT_EQ(got[i].kind, want[i].kind);
        EXPECT_EQ(got[i].src, want[i].src);
        EXPECT_EQ(got[i].region, want[i].region);
        EXPECT_EQ(got[i].a, want[i].a);
        EXPECT_EQ(got[i].b, want[i].b);
    }
}

// Empty, partial, exactly full and wrapped rings, each restored into a
// fresh recorder and into one that already holds other events (wrapped,
// and disabled). The restored recorder must be indistinguishable from the
// source, now and after more events.
TEST(ObsRecorder, RestoreRoundTripsEveryFillLevel) {
    constexpr std::size_t kCap = 8;
    constexpr std::uint64_t kMore = 5;
    for (const std::uint64_t fill : {0u, 3u, 8u, 13u}) {
        for (const bool busy : {false, true}) {
            SCOPED_TRACE(::testing::Message()
                         << "fill " << fill << (busy ? ", busy" : ", fresh"));
            EventRecorder src(kCap);
            src.set_enabled(true);
            for (std::uint64_t i = 0; i < fill; ++i) record_nth(src, i);
            const std::vector<std::uint8_t> blob = save(src);

            EventRecorder dst(kCap);
            if (busy) {
                dst.set_enabled(true);
                for (std::uint64_t i = 100; i < 111; ++i) record_nth(dst, i);
                dst.set_enabled(false);
            }
            ASSERT_TRUE(restore(dst, blob));
            EXPECT_TRUE(dst.enabled());
            EXPECT_EQ(dst.total(), src.total());
            EXPECT_EQ(dst.dropped(), src.dropped());
            expect_same_events(dst.snapshot(), src.snapshot());
            EXPECT_EQ(save(dst), blob);

            for (std::uint64_t i = fill; i < fill + kMore; ++i) {
                record_nth(src, i);
                record_nth(dst, i);
            }
            EXPECT_EQ(dst.total(), src.total());
            EXPECT_EQ(dst.dropped(), src.dropped());
            expect_same_events(dst.snapshot(), src.snapshot());
            EXPECT_EQ(save(dst), save(src));
        }
    }
}

// A hand-built ring section: capacity, total, enabled, window count, then
// `events` events of kind `kind` and source `src`.
std::vector<std::uint8_t> ring_blob(std::uint64_t cap, std::uint64_t total,
                                    std::uint64_t n, std::uint64_t events,
                                    std::uint8_t kind, std::uint8_t src) {
    rtlsim::SnapWriter w;
    w.u64(cap);
    w.u64(total);
    w.bool8(true);
    w.u64(n);
    for (std::uint64_t i = 0; i < events; ++i) {
        w.u64(i);
        w.u8(kind);
        w.u8(src);
        w.u8(0);
        w.u32(0);
        w.u64(0);
    }
    return w.take();
}

// No save writes the kCount sentinels or a window shorter than
// min(total, capacity); restoring either would make snapshot() and the
// exports report "?" events nobody recorded.
TEST(ObsRecorder, RestoreRefusesWhatNoSaveWrites) {
    constexpr auto kSync = static_cast<std::uint8_t>(EventKind::kSync);
    constexpr auto kIcap = static_cast<std::uint8_t>(Source::kIcap);
    constexpr auto kNoKind = static_cast<std::uint8_t>(EventKind::kCount);
    constexpr auto kNoSrc = static_cast<std::uint8_t>(Source::kCount);
    {
        EventRecorder rec(4);
        ASSERT_TRUE(restore(rec, ring_blob(4, 3, 3, 3, kSync, kIcap)))
            << "the well-formed control must restore";
        EXPECT_EQ(rec.size(), 3u);
    }
    const struct {
        const char* what;
        std::vector<std::uint8_t> blob;
    } bad[] = {
        {"sentinel kind", ring_blob(4, 3, 3, 3, kNoKind, kIcap)},
        {"sentinel source", ring_blob(4, 3, 3, 3, kSync, kNoSrc)},
        {"kind past the sentinel", ring_blob(4, 3, 3, 3, kNoKind + 1u, kIcap)},
        {"short window, not wrapped", ring_blob(4, 3, 2, 2, kSync, kIcap)},
        {"short window, wrapped", ring_blob(4, 9, 3, 3, kSync, kIcap)},
        {"empty window over events", ring_blob(4, 2, 0, 0, kSync, kIcap)},
        {"window past total", ring_blob(4, 2, 3, 3, kSync, kIcap)},
        {"window past capacity", ring_blob(4, 9, 5, 5, kSync, kIcap)},
        {"capacity mismatch", ring_blob(8, 3, 3, 3, kSync, kIcap)},
        {"truncated window", ring_blob(4, 3, 3, 2, kSync, kIcap)},
    };
    for (const auto& c : bad) {
        SCOPED_TRACE(c.what);
        EventRecorder rec(4);
        rec.set_enabled(true);
        record_nth(rec, 1);
        EXPECT_FALSE(restore(rec, c.blob));
        EXPECT_EQ(rec.total(), 0u) << "a refused restore leaves it empty";
        EXPECT_FALSE(rec.enabled());
        EXPECT_TRUE(rec.snapshot().empty());
    }
}

// -------------------------------------------------------------- metrics

TEST(ObsMetrics, HistMoments) {
    Hist h;
    EXPECT_EQ(h.mean(), 0.0);
    h.add(4.0);
    h.add(8.0);
    h.add(3.0);
    EXPECT_EQ(h.count, 3u);
    EXPECT_EQ(h.min, 3.0);
    EXPECT_EQ(h.max, 8.0);
    EXPECT_DOUBLE_EQ(h.mean(), 5.0);

    Hist o;
    o.add(100.0);
    h += o;
    EXPECT_EQ(h.count, 4u);
    EXPECT_EQ(h.max, 100.0);
}

TEST(ObsMetrics, FromEventsDerivesTheRegistry) {
    // One full reconfiguration, one IRQ service, one frame; 10 ns clock.
    const std::vector<Event> events = {
        ev(1000, EventKind::kSync),
        ev(1200, EventKind::kXWindowBegin, Source::kRrBoundary),
        ev(1700, EventKind::kPayloadEnd, Source::kIcap, 8),
        ev(1700, EventKind::kXWindowEnd, Source::kRrBoundary),
        ev(1700, EventKind::kSwap, Source::kPortal, 1, 2),
        ev(1900, EventKind::kDesync),
        ev(2000, EventKind::kIrqRaise, Source::kIntc, 1),
        ev(2500, EventKind::kIrqAck, Source::kIntc, 1),
        ev(3000, EventKind::kFrameDone, Source::kTestbench, 1),
    };
    const Metrics m = Metrics::from_events(events, /*clk_period=*/100);
    EXPECT_EQ(m.events, events.size());
    EXPECT_EQ(m.syncs, 1u);
    EXPECT_EQ(m.desyncs, 1u);
    EXPECT_EQ(m.swaps, 1u);
    EXPECT_EQ(m.irqs, 1u);
    EXPECT_EQ(m.frames, 1u);
    ASSERT_EQ(m.simb_words.count, 1u);
    EXPECT_DOUBLE_EQ(m.simb_words.mean(), 8.0);
    ASSERT_EQ(m.x_window_cycles.count, 1u);
    EXPECT_DOUBLE_EQ(m.x_window_cycles.mean(), 5.0);
    ASSERT_EQ(m.swap_latency_cycles.count, 1u);
    EXPECT_DOUBLE_EQ(m.swap_latency_cycles.mean(), 7.0);
    ASSERT_EQ(m.irq_to_service_cycles.count, 1u);
    EXPECT_DOUBLE_EQ(m.irq_to_service_cycles.mean(), 5.0);
    EXPECT_TRUE(m.any());
}

TEST(ObsMetrics, SwapOutsideSessionHasNoLatencySample) {
    const std::vector<Event> events = {
        ev(500, EventKind::kSwap, Source::kPortal),
    };
    const Metrics m = Metrics::from_events(events, 100);
    EXPECT_EQ(m.swaps, 1u);
    EXPECT_EQ(m.swap_latency_cycles.count, 0u);
}

TEST(ObsMetrics, ZeroClockPeriodFallsBackToPicoseconds) {
    const std::vector<Event> events = {
        ev(100, EventKind::kXWindowBegin, Source::kRrBoundary),
        ev(350, EventKind::kXWindowEnd, Source::kRrBoundary),
    };
    const Metrics m = Metrics::from_events(events, 0);
    ASSERT_EQ(m.x_window_cycles.count, 1u);
    EXPECT_DOUBLE_EQ(m.x_window_cycles.mean(), 250.0);
}

TEST(ObsMetrics, MergeAndMetricMap) {
    Metrics a;
    a.swaps = 2;
    a.events = 10;
    a.swap_latency_cycles.add(10.0);
    Metrics b;
    b.swaps = 1;
    b.events = 5;
    b.aborts = 1;
    b.swap_latency_cycles.add(30.0);
    a += b;
    EXPECT_EQ(a.swaps, 3u);
    EXPECT_EQ(a.events, 15u);
    EXPECT_EQ(a.aborts, 1u);
    EXPECT_DOUBLE_EQ(a.swap_latency_cycles.mean(), 20.0);

    std::map<std::string, double> map;
    a.to_metric_map(map);
    EXPECT_DOUBLE_EQ(map.at("obs.swaps"), 3.0);
    EXPECT_DOUBLE_EQ(map.at("obs.swap_latency_cycles_mean"), 20.0);
    EXPECT_DOUBLE_EQ(map.at("obs.swap_latency_cycles_max"), 30.0);
    EXPECT_DOUBLE_EQ(map.at("obs.aborts"), 1.0);
    // Empty histograms and zero optional counters stay out of the map.
    EXPECT_EQ(map.count("obs.x_window_cycles_mean"), 0u);
    EXPECT_EQ(map.count("obs.events_dropped"), 0u);
}

// ------------------------------------------------------------ exporters

TEST(ObsExport, ChromeTraceIsWellFormedJson) {
    const std::vector<Event> events = {
        ev(1000, EventKind::kSync),
        ev(1200, EventKind::kXWindowBegin, Source::kRrBoundary),
        ev(1700, EventKind::kXWindowEnd, Source::kRrBoundary),
        ev(1700, EventKind::kSwap, Source::kPortal, 1, 2),
        ev(1900, EventKind::kDesync),
    };
    std::ostringstream os;
    obs::write_chrome_trace(os, events);
    const std::string out = os.str();
    EXPECT_EQ(out.front(), '{');
    ASSERT_GE(out.size(), 3u);
    EXPECT_EQ(out.substr(out.size() - 3), "]}\n");
    // The trailing comma before ']' must be stripped (strict parsers).
    EXPECT_EQ(out.find(",\n]"), std::string::npos);
    // Track metadata + spans the viewer groups by.
    EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(out.find("dpr-session"), std::string::npos);
    EXPECT_NE(out.find("\"name\":\"reconfiguration\""), std::string::npos);
    EXPECT_NE(out.find("\"name\":\"x-window\",\"ph\":\"X\""),
              std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);
    // ts is microseconds with six ps-exact decimals: 1700 ps = 0.001700 us.
    EXPECT_NE(out.find("\"ts\":0.001700"), std::string::npos);
}

TEST(ObsExport, TruncatedSessionIsRenderedAsItsOwnSpan) {
    const std::vector<Event> events = {
        ev(100, EventKind::kSync),
        ev(200, EventKind::kSync),  // SYNC inside an open session
        ev(300, EventKind::kDesync),
    };
    std::ostringstream os;
    obs::write_chrome_trace(os, events);
    EXPECT_NE(os.str().find("reconfiguration (truncated)"),
              std::string::npos);
}

TEST(ObsExport, DanglingIntervalsAreClosedOpen) {
    const std::vector<Event> events = {
        ev(100, EventKind::kSync),
        ev(400, EventKind::kXWindowBegin, Source::kRrBoundary),
    };
    std::ostringstream os;
    obs::write_chrome_trace(os, events);
    const std::string out = os.str();
    EXPECT_NE(out.find("reconfiguration (open)"), std::string::npos);
    EXPECT_NE(out.find("x-window (open)"), std::string::npos);
}

TEST(ObsExport, JsonlEmitsOneLinePerEvent) {
    const std::vector<Event> events = {
        ev(10, EventKind::kSync),
        ev(20, EventKind::kSwap, Source::kPortal, 1, 2),
    };
    std::ostringstream os;
    obs::write_events_jsonl(os, events);
    const std::string out = os.str();
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);
    EXPECT_NE(out.find(R"({"t_ps":10,"kind":"sync","src":"icap")"),
              std::string::npos);
    EXPECT_NE(out.find(R"("kind":"swap","src":"portal","a":1,"b":2})"),
              std::string::npos);
}

// ---------------------------------------------------------- full system

sys::SystemConfig traced_config() {
    sys::SystemConfig cfg;
    cfg.width = 32;
    cfg.height = 24;
    cfg.step = 4;
    cfg.margin = 8;
    cfg.search = 2;
    cfg.trace_events = true;
    return cfg;
}

TEST(ObsSystem, UntracedRunStaysUntraced) {
    sys::SystemConfig cfg = traced_config();
    cfg.trace_events = false;
    sys::Testbench tb(cfg);
    EXPECT_EQ(tb.recorder(), nullptr);
    const sys::RunResult r = tb.run(1);
    EXPECT_TRUE(r.clean()) << r.verdict();
    EXPECT_FALSE(r.traced);
    EXPECT_EQ(r.metrics.events, 0u);
}

TEST(ObsSystem, TracedFrameShowsBothReconfigurations) {
    sys::Testbench tb(traced_config());
    ASSERT_NE(tb.recorder(), nullptr);
    const sys::RunResult r = tb.run(1);
    EXPECT_TRUE(r.clean()) << r.verdict();
    ASSERT_TRUE(r.traced);
    // One frame reconfigures the region twice (CIE in, then ME in), each
    // a full SYNC .. FDRI .. swap .. DESYNC session.
    EXPECT_GE(r.metrics.syncs, 2u);
    EXPECT_GE(r.metrics.desyncs, 2u);
    EXPECT_GE(r.metrics.swaps, 2u);
    EXPECT_EQ(r.metrics.swap_latency_cycles.count, r.metrics.swaps);
    EXPECT_GE(r.metrics.x_window_cycles.count, 2u);
    EXPECT_GT(r.metrics.x_window_cycles.mean(), 0.0);
    EXPECT_GT(r.metrics.irqs, 0u);
    EXPECT_GT(r.metrics.dcr_ops, 0u);
    EXPECT_EQ(r.metrics.frames, 1u);
    EXPECT_EQ(r.metrics.events_dropped, 0u);
    EXPECT_EQ(r.metrics.aborts, 0u);
    EXPECT_EQ(r.metrics.malformed, 0u);
    // Every payload is a full staged SimB.
    ASSERT_GE(r.metrics.simb_words.count, 2u);
    EXPECT_DOUBLE_EQ(r.metrics.simb_words.mean(),
                     static_cast<double>(traced_config().simb_payload_words));
}

TEST(ObsSystem, TraceFileIsPerfettoLoadableJson) {
    sys::SystemConfig cfg = traced_config();
    cfg.trace_path = testing::TempDir() + "obs_trace_test.json";
    {
        sys::Testbench tb(cfg);
        const sys::RunResult r = tb.run(1);
        ASSERT_TRUE(r.clean()) << r.verdict();
    }
    std::ifstream is(cfg.trace_path);
    ASSERT_TRUE(is.good()) << "trace file missing: " << cfg.trace_path;
    std::stringstream ss;
    ss << is.rdbuf();
    const std::string out = ss.str();
    std::remove(cfg.trace_path.c_str());

    EXPECT_EQ(out.front(), '{');
    EXPECT_EQ(out.substr(out.size() - 3), "]}\n");
    EXPECT_EQ(out.find(",\n]"), std::string::npos) << "trailing comma";
    // Both reconfiguration sessions of the frame appear as spans.
    std::size_t spans = 0;
    for (std::size_t p = out.find("\"name\":\"reconfiguration\"");
         p != std::string::npos;
         p = out.find("\"name\":\"reconfiguration\"", p + 1)) {
        ++spans;
    }
    EXPECT_GE(spans, 2u);
    EXPECT_NE(out.find("\"name\":\"x-window\",\"ph\":\"X\""),
              std::string::npos);
    EXPECT_NE(out.find("\"name\":\"stage-enter\""), std::string::npos);
}

// ------------------------------------------------------------- campaign

TEST(ObsCampaign, TracedWorkloadJobReportsObsMetrics) {
    sys::SystemConfig base = campaign::small_system_config();
    base.trace_events = true;
    auto jobs = campaign::workload_grid_jobs({{32, 24, 1}}, base);
    ASSERT_EQ(jobs.size(), 1u);
    campaign::JobContext ctx;
    const campaign::JobReport rep = jobs[0].body(ctx);
    EXPECT_TRUE(rep.pass) << rep.verdict;
    EXPECT_GE(rep.metrics.at("obs.swaps"), 2.0);
    EXPECT_GT(rep.metrics.at("obs.swap_latency_cycles_mean"), 0.0);
    EXPECT_GT(rep.metrics.at("obs.x_window_cycles_mean"), 0.0);
    EXPECT_GT(rep.metrics.at("obs.events"), 0.0);
}

TEST(ObsCampaign, TracedSimbSweepReportsWordsPerSimb) {
    auto jobs = campaign::simb_sweep_jobs({64u}, /*trace=*/true);
    ASSERT_EQ(jobs.size(), 1u);
    campaign::JobContext ctx;
    const campaign::JobReport rep = jobs[0].body(ctx);
    EXPECT_TRUE(rep.pass) << rep.verdict;
    EXPECT_DOUBLE_EQ(rep.metrics.at("obs.simb_words_mean"), 64.0);
    EXPECT_GE(rep.metrics.at("obs.swaps"), 1.0);
}

TEST(ObsCampaign, AggregateRollsUpObsMetrics) {
    campaign::JobRecord a;
    a.status = campaign::JobStatus::kPass;
    a.report.metrics = {{"obs.swaps", 2.0},
                        {"obs.swap_latency_cycles_mean", 10.0},
                        {"obs.x_window_cycles_max", 5.0}};
    campaign::JobRecord b;
    b.status = campaign::JobStatus::kPass;
    b.report.metrics = {{"obs.swaps", 3.0},
                        {"obs.swap_latency_cycles_mean", 20.0},
                        {"obs.x_window_cycles_max", 9.0}};
    const auto summary = campaign::CampaignSummary::from({a, b});
    EXPECT_DOUBLE_EQ(summary.metrics.at("obs.swaps"), 5.0);  // summed
    EXPECT_DOUBLE_EQ(summary.metrics.at("obs.swap_latency_cycles_mean"),
                     15.0);  // mean of means
    EXPECT_DOUBLE_EQ(summary.metrics.at("obs.x_window_cycles_max"),
                     9.0);  // max
}

}  // namespace
}  // namespace autovision
