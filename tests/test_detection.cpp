// The Table III reproduction as a test suite: every catalogued fault must
// be detected (or escape) exactly as the paper reports.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "sys/detection.hpp"

namespace autovision::sys {
namespace {

SystemConfig detection_config() {
    SystemConfig cfg;
    cfg.width = 32;
    cfg.height = 24;
    cfg.step = 4;
    cfg.margin = 8;
    cfg.search = 2;
    cfg.simb_payload_words = 100;
    return cfg;
}

class FaultMatrix : public ::testing::TestWithParam<Fault> {};

TEST_P(FaultMatrix, DetectionMatchesPaper) {
    const DetectionOutcome o =
        run_detection(detection_config(), GetParam(), /*frames=*/2);
    EXPECT_TRUE(o.matches_expectation())
        << o.row() << "\n  VM:    " << o.vm.verdict()
        << "\n  ReSim: " << o.resim.verdict();
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, FaultMatrix,
    ::testing::Values(Fault::kHw1SrcWordAddr, Fault::kHw2NoSigInit,
                      Fault::kHw3LevelIntc, Fault::kSw1PollWrongBit,
                      Fault::kSw2NoIntcAck, Fault::kSw3StaleCodePatch,
                      Fault::kSw4EeStuckOff, Fault::kSw5SyscallInIsr,
                      Fault::kDpr1NoIsolation, Fault::kDpr2RegsInsideRr,
                      Fault::kDpr3WrongSimbAddr, Fault::kDpr4P2pIcap,
                      Fault::kDpr5SizeInWords, Fault::kDpr6bShortWait),
    [](const ::testing::TestParamInfo<Fault>& info) {
        std::string id = fault_info(info.param).id;
        for (char& c : id) {
            if (c == '.') c = '_';
        }
        return id;
    });

// Stopping at the verdict changes no verdict. For every catalogued fault
// (and none) under both methods, run_detection's side, which stops at its
// first failure, agrees on clean() with the whole run and never runs
// longer; a fault-free side never stops early, so its SimStats are the
// whole run's. bug.sw.2's interrupt storm keeps the mailbox moving, so
// without the stop its sides would run to the hard cap.
TEST(FaultMatrix, StopAtVerdictChangesNoVerdict) {
    std::vector<Fault> faults{Fault::kNone};
    for (const FaultInfo& fi : kFaultCatalog) faults.push_back(fi.fault);
    for (const Fault f : faults) {
        const DetectionOutcome o = run_detection(detection_config(), f, 2);
        for (const auto method :
             {FirmwareConfig::Method::kVm, FirmwareConfig::Method::kResim}) {
            const bool vm = method == FirmwareConfig::Method::kVm;
            const RunResult& stopped = vm ? o.vm : o.resim;
            SystemConfig cfg = config_for_fault(detection_config(), f);
            cfg.method = method;
            Testbench tb(cfg);
            const RunResult whole = tb.run(2);
            const std::string side =
                std::string(fault_info(f).id) + (vm ? " VM" : " ReSim");
            EXPECT_EQ(stopped.clean(), whole.clean())
                << side << ": stopped " << stopped.verdict() << ", whole "
                << whole.verdict();
            EXPECT_LE(stopped.sim_time, whole.sim_time) << side;
            if (f == Fault::kNone) {
                EXPECT_TRUE(stopped.stats == whole.stats) << side;
            }
            if (f == Fault::kSw2NoIntcAck) {
                EXPECT_LE(stopped.sim_time, 10000 * cfg.clk_period) << side;
            }
        }
    }
}

// progress_budget keeps a 4x margin over every clean shape: with a quarter
// of the budget as the watchdog, each corner still runs clean.
struct BudgetShape {
    std::string name;
    SystemConfig cfg;
    unsigned frames = 2;
};

std::vector<BudgetShape> budget_shapes() {
    using Method = FirmwareConfig::Method;
    using Wait = FirmwareConfig::Wait;
    std::vector<BudgetShape> shapes;
    for (const Method m : {Method::kVm, Method::kResim}) {
        const std::string tag = m == Method::kVm ? "Vm" : "Resim";
        SystemConfig small = detection_config();
        small.method = m;
        shapes.push_back({"Small32x24" + tag, small});
        SystemConfig large = small;
        large.width = 64;
        large.height = 48;
        large.search = 3;
        shapes.push_back({"Large64x48Search3" + tag, large});
        for (const std::uint32_t words : {50u, 2048u}) {
            for (const unsigned div : {1u, 8u}) {
                SystemConfig c = small;
                c.simb_payload_words = words;
                c.icap_clk_div = div;
                shapes.push_back({"Simb" + std::to_string(words) + "Div" +
                                      std::to_string(div) + tag,
                                  c});
            }
        }
        SystemConfig poll = small;
        poll.wait = Wait::kPollDone;
        shapes.push_back({"PollDone" + tag, poll});
        // The delay driver with a loop count that covers the transfer at
        // its divider (DESIGN's bug.dpr.6b fix), up to the longest.
        const struct { unsigned div; std::uint32_t loops; } delays[] = {
            {1, 400}, {4, 6000}, {8, 48000}};
        for (const auto& d : delays) {
            SystemConfig c = small;
            c.wait = Wait::kDelay;
            c.icap_clk_div = d.div;
            c.delay_loops = d.loops;
            shapes.push_back({"Delay" + std::to_string(d.loops) + "Div" +
                                  std::to_string(d.div) + tag,
                              c});
        }
    }
    SystemConfig pool = detection_config();
    pool.regions = 3;
    shapes.push_back({"ThreeRegionPool", pool});
    SystemConfig host = detection_config();
    host.host_io = true;
    host.exit_after_frames = 2;
    shapes.push_back({"HostIoExitAfterFrames", host});
    SystemConfig table2;
    table2.width = 320;
    table2.height = 200;
    table2.search = 2;
    shapes.push_back({"TableIIFrame", table2, 1});
    return shapes;
}

void PrintTo(const BudgetShape& s, std::ostream* os) { *os << s.name; }

class ProgressBudget : public ::testing::TestWithParam<BudgetShape> {};

TEST_P(ProgressBudget, CleanShapeKeepsFourfoldMargin) {
    const BudgetShape& s = GetParam();
    Testbench tb(s.cfg);
    const RunResult r = tb.run(s.frames, progress_budget(s.cfg) / 4);
    EXPECT_TRUE(r.clean()) << s.name << ": " << r.verdict();
}

INSTANTIATE_TEST_SUITE_P(
    Corners, ProgressBudget, ::testing::ValuesIn(budget_shapes()),
    [](const ::testing::TestParamInfo<BudgetShape>& info) {
        return info.param.name;
    });

// Detection must be robust to the driver style: the static bugs are caught
// under every DPR-wait variant of the (otherwise correct) firmware.
using StaticSweep = std::tuple<Fault, FirmwareConfig::Wait>;
class StaticFaultRobustness : public ::testing::TestWithParam<StaticSweep> {};

TEST_P(StaticFaultRobustness, DetectedUnderAnyDriverStyle) {
    const auto [fault, wait] = GetParam();
    SystemConfig cfg = detection_config();
    cfg.fault = fault;
    cfg.wait = wait;
    cfg.delay_loops = 6000;  // a *correct* delay; the fault is elsewhere
    cfg.method = FirmwareConfig::Method::kResim;
    Testbench tb(cfg);
    EXPECT_FALSE(tb.run(2).clean())
        << fault_info(fault).id << " escaped under wait mode "
        << static_cast<int>(wait);
}

INSTANTIATE_TEST_SUITE_P(
    DriverStyles, StaticFaultRobustness,
    ::testing::Combine(::testing::Values(Fault::kHw1SrcWordAddr,
                                         Fault::kHw3LevelIntc,
                                         Fault::kSw2NoIntcAck),
                       ::testing::Values(FirmwareConfig::Wait::kIrq,
                                         FirmwareConfig::Wait::kPollDone,
                                         FirmwareConfig::Wait::kDelay)));

// And robust to geometry: the whole catalogue holds at a second frame size
// and SimB length.
TEST(FaultMatrix, CatalogueHoldsAtSecondGeometry) {
    SystemConfig cfg;
    cfg.width = 48;
    cfg.height = 32;
    cfg.step = 4;
    cfg.margin = 8;
    cfg.search = 3;
    cfg.simb_payload_words = 400;
    const auto outcomes = run_catalog(cfg, 2);
    for (const auto& o : outcomes) {
        EXPECT_TRUE(o.matches_expectation())
            << o.row() << "\n  VM:    " << o.vm.verdict()
            << "\n  ReSim: " << o.resim.verdict();
    }
}

TEST(FaultMatrix, FaultFreeSystemIsCleanUnderBothMethods) {
    const DetectionOutcome o =
        run_detection(detection_config(), Fault::kNone, 2);
    EXPECT_TRUE(o.vm.clean()) << o.vm.verdict();
    EXPECT_TRUE(o.resim.clean()) << o.resim.verdict();
}

TEST(FaultMatrix, ParallelCatalogMatchesSerial) {
    // The harness is embarrassingly parallel; outcomes must not depend on
    // the worker count.
    const auto serial = run_catalog(detection_config(), 1, 1);
    const auto parallel = run_catalog(detection_config(), 1, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].vm_detected(), parallel[i].vm_detected());
        EXPECT_EQ(serial[i].resim_detected(), parallel[i].resim_detected());
        EXPECT_EQ(serial[i].vm.frames_completed,
                  parallel[i].vm.frames_completed);
    }
}

// The paper's bug-fix narrative: the delay-based driver IS correct when the
// loop count accounts for the slow configuration clock (the shipped fix
// "added several dummy loops").
TEST(FaultMatrix, LongDelayFixesBugDpr6b) {
    SystemConfig cfg = detection_config();
    cfg.wait = FirmwareConfig::Wait::kDelay;
    cfg.delay_loops = 6000;  // generous for clk_div = 4
    Testbench tb(cfg);
    const RunResult r = tb.run(2);
    EXPECT_TRUE(r.clean()) << r.verdict();
}

TEST(FaultMatrix, PollingDriverWithCorrectBitIsClean) {
    SystemConfig cfg = detection_config();
    cfg.wait = FirmwareConfig::Wait::kPollDone;
    Testbench tb(cfg);
    const RunResult r = tb.run(2);
    EXPECT_TRUE(r.clean()) << r.verdict();
}

// DESIGN.md ablation: ReSim's bug.dpr.6b detection hinges on swapping only
// after the last SimB word. Moving the swap to the FAR write (zero-delay
// semantics) and silencing the error injector — i.e. running DCS/VM-style
// semantics inside the ReSim harness — makes the bug escape again.
TEST(FaultMatrix, SwapAtFarAblationMasksBugDpr6b) {
    SystemConfig cfg =
        config_for_fault(detection_config(), Fault::kDpr6bShortWait);
    cfg.method = FirmwareConfig::Method::kResim;

    struct NoError final : ErrorInjector {
        void inject(RrOutputs& o) override { o = RrOutputs::idle(); }
    };

    Testbench faithful(cfg);
    const RunResult f = faithful.run(2);
    EXPECT_FALSE(f.clean()) << "faithful timing detects the bug";

    Testbench ablated(cfg);
    ablated.sys.portal->set_swap_timing(
        resim::ExtendedPortal::SwapTiming::kAtFar);
    ablated.sys.rr.set_error_injector(std::make_unique<NoError>());
    const RunResult a = ablated.run(2);
    EXPECT_TRUE(a.clean())
        << "zero-delay swap masks the race: " << a.verdict();
}

// The faster original configuration clock also rescues the short delay —
// the reason bug.dpr.6b "was not exposed before" in the original design.
TEST(FaultMatrix, OriginalFastConfigClockMasksBugDpr6b) {
    SystemConfig cfg = detection_config();
    cfg = config_for_fault(cfg, Fault::kDpr6bShortWait);
    cfg.method = FirmwareConfig::Method::kResim;
    cfg.icap_clk_div = 1;  // the original clocking scheme
    cfg.delay_loops = 400;  // the original loop count: enough at div 1
    Testbench tb(cfg);
    const RunResult r = tb.run(2);
    EXPECT_TRUE(r.clean())
        << "with the fast clock the short wait is sufficient: "
        << r.verdict();
}

}  // namespace
}  // namespace autovision::sys
