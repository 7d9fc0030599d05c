// Unit tests for the RTL video engines, cross-checked bit-exactly against
// the independent golden models in src/video.
#include <gtest/gtest.h>

#include <random>

#include "bus/memory.hpp"
#include "bus/plb.hpp"
#include "engines/census_engine.hpp"
#include "engines/matching_engine.hpp"
#include "kernel/kernel.hpp"
#include "recon/rr_boundary.hpp"
#include "video/census.hpp"
#include "video/flow.hpp"
#include "video/synth.hpp"

namespace autovision {
namespace {

using rtlsim::Clock;
using rtlsim::Logic;
using rtlsim::NS;
using rtlsim::ResetGen;
using rtlsim::Scheduler;

constexpr rtlsim::Time kClk = 10 * NS;

constexpr std::uint32_t kFrameAddr = 0x0001'0000;
constexpr std::uint32_t kCensusAddr = 0x0002'0000;
constexpr std::uint32_t kCensusPrevAddr = 0x0003'0000;
constexpr std::uint32_t kMotionAddr = 0x0004'0000;

struct EngineTb {
    Scheduler sch;
    Clock clk{sch, "clk", kClk};
    ResetGen rst{sch, "rst", 3 * kClk};
    Memory mem;
    Plb plb{sch, "plb", clk.out, rst.out, Plb::Config{1, 16, 50000}};
    rtlsim::Signal<Logic> done_line{sch, "done_line", Logic::L0};
    EngineRegs cie_regs{sch, "cie_regs", clk.out, 0x60};
    EngineRegs me_regs{sch, "me_regs", clk.out, 0x68};
    CensusEngine cie{sch, "cie", clk.out, rst.out, cie_regs};
    MatchingEngine me{sch, "me", clk.out, rst.out, me_regs};
    RrBoundary rr{sch, "rr", plb.master(0), done_line};

    EngineTb() {
        plb.attach_slave(mem);
        rr.add_module(cie);  // slot 0
        rr.add_module(me);   // slot 1
    }

    void load_frame(std::uint32_t addr, const video::Frame& f) {
        mem.load_bytes(addr, f.pixels());
    }

    video::Frame read_frame(std::uint32_t addr, unsigned w, unsigned h) {
        video::Frame f(w, h);
        for (std::size_t i = 0; i < f.size(); ++i) {
            f.pixels()[i] = mem.peek_u8(addr + static_cast<std::uint32_t>(i));
        }
        return f;
    }

    void run_cycles(unsigned n) { sch.run_until(sch.now() + n * kClk); }

    /// Run until `regs` reports done or a cycle budget elapses.
    bool run_to_done(EngineRegs& regs, unsigned max_cycles) {
        for (unsigned i = 0; i < max_cycles / 128; ++i) {
            run_cycles(128);
            if (regs.done()) return true;
        }
        return regs.done();
    }
};

void program_cie(EngineTb& tb, unsigned w, unsigned h) {
    tb.cie_regs.dcr_write(0x62, rtlsim::Word{kFrameAddr});           // SRC
    tb.cie_regs.dcr_write(0x63, rtlsim::Word{kCensusAddr});          // DST
    tb.cie_regs.dcr_write(0x65, rtlsim::Word{(w << 16) | h});        // DIMS
}

void program_me(EngineTb& tb, unsigned w, unsigned h,
                const video::MatchConfig& mc) {
    tb.me_regs.dcr_write(0x6A, rtlsim::Word{kCensusAddr});           // SRC=cur
    tb.me_regs.dcr_write(0x6B, rtlsim::Word{kMotionAddr});           // DST
    tb.me_regs.dcr_write(0x6C, rtlsim::Word{kCensusPrevAddr});       // SRC2
    tb.me_regs.dcr_write(0x6D, rtlsim::Word{(w << 16) | h});         // DIMS
    tb.me_regs.dcr_write(
        0x6E, rtlsim::Word{static_cast<std::uint32_t>(mc.search) |
                           (mc.step << 8) | (mc.margin << 16)});     // PARAM
}

TEST(CensusEngine, BitExactAgainstReferenceModel) {
    EngineTb tb;
    const unsigned w = 32;
    const unsigned h = 24;
    video::SyntheticScene scene(video::SceneConfig::standard(w, h, 7));
    const video::Frame in = scene.frame(0);
    tb.load_frame(kFrameAddr, in);

    tb.rr.select(0);
    program_cie(tb, w, h);
    tb.run_cycles(5);
    tb.cie_regs.dcr_write(0x60, rtlsim::Word{1});  // CTRL.start

    ASSERT_TRUE(tb.run_to_done(tb.cie_regs, 60000));
    const video::Frame got = tb.read_frame(kCensusAddr, w, h);
    const video::Frame want = video::census_transform(in);
    EXPECT_EQ(got.count_mismatches(want), 0u);
    EXPECT_EQ(tb.cie.jobs_completed(), 1u);
}

TEST(CensusEngine, RejectsBadGeometry) {
    EngineTb tb;
    tb.rr.select(0);
    tb.cie_regs.dcr_write(0x65, rtlsim::Word{(30u << 16) | 24u});  // W%4 != 0
    tb.cie_regs.dcr_write(0x62, rtlsim::Word{kFrameAddr});
    tb.cie_regs.dcr_write(0x63, rtlsim::Word{kCensusAddr});
    tb.run_cycles(5);
    tb.cie_regs.dcr_write(0x60, rtlsim::Word{1});
    tb.run_cycles(50);
    EXPECT_FALSE(tb.cie_regs.busy());
    EXPECT_TRUE(tb.sch.has_diag_from("cie"));
}

TEST(CensusEngine, BusyAndDoneStatusProtocol) {
    EngineTb tb;
    const unsigned w = 16;
    const unsigned h = 8;
    video::SyntheticScene scene(video::SceneConfig::standard(w, h));
    tb.load_frame(kFrameAddr, scene.frame(0));
    tb.rr.select(0);
    program_cie(tb, w, h);
    tb.run_cycles(5);
    EXPECT_FALSE(tb.cie_regs.busy());
    tb.cie_regs.dcr_write(0x60, rtlsim::Word{1});
    tb.run_cycles(20);
    EXPECT_TRUE(tb.cie_regs.busy()) << "engine accepted the start";
    ASSERT_TRUE(tb.run_to_done(tb.cie_regs, 30000));
    EXPECT_FALSE(tb.cie_regs.busy());
    EXPECT_EQ(tb.cie_regs.dcr_read(0x61).to_u64() & 2u, 2u) << "done set";
    tb.cie_regs.dcr_write(0x61, rtlsim::Word{2});  // W1C
    EXPECT_EQ(tb.cie_regs.dcr_read(0x61).to_u64() & 2u, 0u);
}

TEST(CensusEngine, DoneIrqPulsesOnRegionBoundary) {
    EngineTb tb;
    const unsigned w = 16;
    const unsigned h = 8;
    video::SyntheticScene scene(video::SceneConfig::standard(w, h));
    tb.load_frame(kFrameAddr, scene.frame(0));
    tb.rr.select(0);
    program_cie(tb, w, h);
    tb.run_cycles(5);

    int pulses = 0;
    rtlsim::Process mon(tb.sch, "mon", [&] { ++pulses; });
    tb.done_line.add_listener(mon, rtlsim::Edge::Pos);

    tb.cie_regs.dcr_write(0x60, rtlsim::Word{1});
    ASSERT_TRUE(tb.run_to_done(tb.cie_regs, 30000));
    tb.run_cycles(10);
    EXPECT_EQ(pulses, 1) << "exactly one done pulse through the boundary";
}

TEST(CensusEngine, StartPulseLostWhileSwappedOut) {
    EngineTb tb;
    const unsigned w = 16;
    const unsigned h = 8;
    video::SyntheticScene scene(video::SceneConfig::standard(w, h));
    tb.load_frame(kFrameAddr, scene.frame(0));
    tb.rr.select(1);  // ME is resident; the CIE is swapped out
    program_cie(tb, w, h);
    tb.run_cycles(5);
    tb.cie_regs.dcr_write(0x60, rtlsim::Word{1});  // start lands nowhere
    tb.run_cycles(100);
    EXPECT_FALSE(tb.cie_regs.busy());
    // Swapping the CIE in afterwards must NOT revive the lost pulse — this
    // is the physical mechanism behind bug.dpr.6b.
    tb.rr.select(0);
    tb.run_cycles(200);
    EXPECT_FALSE(tb.cie_regs.busy());
    EXPECT_EQ(tb.cie.jobs_completed(), 0u);
}

TEST(CensusEngine, SwapOutMidJobDiscardsState) {
    EngineTb tb;
    const unsigned w = 32;
    const unsigned h = 24;
    video::SyntheticScene scene(video::SceneConfig::standard(w, h));
    tb.load_frame(kFrameAddr, scene.frame(0));
    tb.rr.select(0);
    program_cie(tb, w, h);
    tb.run_cycles(5);
    tb.cie_regs.dcr_write(0x60, rtlsim::Word{1});
    tb.run_cycles(60);
    ASSERT_TRUE(tb.cie.busy());
    tb.rr.select(1);  // swap out mid-frame
    tb.run_cycles(10);
    EXPECT_FALSE(tb.cie.busy());
    tb.rr.select(0);  // back in: post-configuration initial state
    tb.run_cycles(200);
    EXPECT_FALSE(tb.cie.busy()) << "job did not resume";
    EXPECT_EQ(tb.cie.jobs_completed(), 0u);
}

TEST(CensusEngine, SoftResetAbortsJob) {
    EngineTb tb;
    const unsigned w = 32;
    const unsigned h = 24;
    video::SyntheticScene scene(video::SceneConfig::standard(w, h));
    tb.load_frame(kFrameAddr, scene.frame(0));
    tb.rr.select(0);
    program_cie(tb, w, h);
    tb.run_cycles(5);
    tb.cie_regs.dcr_write(0x60, rtlsim::Word{1});
    tb.run_cycles(60);
    ASSERT_TRUE(tb.cie_regs.busy());
    tb.cie_regs.dcr_write(0x60, rtlsim::Word{2});  // CTRL.reset
    tb.run_cycles(10);
    EXPECT_FALSE(tb.cie_regs.busy());
    EXPECT_EQ(tb.cie.jobs_completed(), 0u);
}

TEST(MatchingEngine, BitExactAgainstReferenceModel) {
    EngineTb tb;
    const unsigned w = 48;
    const unsigned h = 32;
    video::SyntheticScene scene(video::SceneConfig::standard(w, h, 3));
    const video::Frame c0 = video::census_transform(scene.frame(0));
    const video::Frame c1 = video::census_transform(scene.frame(1));
    tb.load_frame(kCensusPrevAddr, c0);
    tb.load_frame(kCensusAddr, c1);

    video::MatchConfig mc;
    mc.step = 4;
    mc.margin = 8;
    mc.search = 3;
    tb.rr.select(1);
    program_me(tb, w, h, mc);
    tb.run_cycles(5);
    tb.me_regs.dcr_write(0x68, rtlsim::Word{1});  // CTRL.start

    ASSERT_TRUE(tb.run_to_done(tb.me_regs, 120000));

    const video::MotionField want = video::match_census(c0, c1, mc);
    const unsigned gw = want.grid_w();
    const unsigned gh = want.grid_h();
    ASSERT_GT(gw * gh, 0u);
    for (unsigned gy = 0; gy < gh; ++gy) {
        for (unsigned gx = 0; gx < gw; ++gx) {
            const std::uint32_t got =
                tb.mem.peek_u32(kMotionAddr + 4 * (gy * gw + gx));
            const std::uint32_t exp =
                video::encode_motion_word(want.at(gx, gy));
            EXPECT_EQ(got, exp) << "grid point (" << gx << "," << gy << ")";
        }
    }
}

TEST(MatchingEngine, RejectsZeroSearchOrStep) {
    EngineTb tb;
    tb.rr.select(1);
    tb.me_regs.dcr_write(0x6D, rtlsim::Word{(32u << 16) | 24u});
    tb.me_regs.dcr_write(0x6E, rtlsim::Word{0});  // search=0, step=0
    tb.run_cycles(5);
    tb.me_regs.dcr_write(0x68, rtlsim::Word{1});
    tb.run_cycles(50);
    EXPECT_FALSE(tb.me_regs.busy());
    EXPECT_TRUE(tb.sch.has_diag_from("me"));
}

TEST(Engines, BothEnginesRunSequentiallyThroughSwaps) {
    // The demonstrator's per-frame schedule, driven directly: CIE produces
    // the census image, swap, ME consumes it against the previous one.
    EngineTb tb;
    const unsigned w = 32;
    const unsigned h = 24;
    video::SyntheticScene scene(video::SceneConfig::standard(w, h, 5));
    const video::Frame f1 = scene.frame(1);
    const video::Frame c0 = video::census_transform(scene.frame(0));
    tb.load_frame(kFrameAddr, f1);
    tb.load_frame(kCensusPrevAddr, c0);

    video::MatchConfig mc;
    mc.step = 4;
    mc.margin = 8;
    mc.search = 2;

    tb.rr.select(0);
    program_cie(tb, w, h);
    tb.run_cycles(5);
    tb.cie_regs.dcr_write(0x60, rtlsim::Word{1});
    ASSERT_TRUE(tb.run_to_done(tb.cie_regs, 60000));

    tb.rr.select(1);
    program_me(tb, w, h, mc);
    tb.run_cycles(5);
    tb.me_regs.dcr_write(0x68, rtlsim::Word{1});
    ASSERT_TRUE(tb.run_to_done(tb.me_regs, 120000));

    const video::Frame c1 = video::census_transform(f1);
    const video::MotionField want = video::match_census(c0, c1, mc);
    const std::uint32_t got0 = tb.mem.peek_u32(kMotionAddr);
    EXPECT_EQ(got0, video::encode_motion_word(want.at(0, 0)));
    EXPECT_EQ(tb.cie.jobs_completed(), 1u);
    EXPECT_EQ(tb.me.jobs_completed(), 1u);
}

// Both engines on a small frame whose grid reaches the frame edge (margin
// 0 and 1): the CIE's edge columns, and every ME candidate that reaches
// past the frame, take the clamped path, checked against the golden models.
// Random bytes make nearly every candidate's cost distinct, so one wrong
// cost at the border shows in the field.
class EngineBorder : public ::testing::TestWithParam<unsigned> {};

TEST_P(EngineBorder, MatchesGoldenModels) {
    EngineTb tb;
    const unsigned w = 20;
    const unsigned h = 14;
    std::mt19937 rng(GetParam() + 5);
    const auto random_frame = [&] {
        video::Frame f(w, h);
        for (auto& p : f.pixels()) p = static_cast<std::uint8_t>(rng());
        return f;
    };
    const video::Frame in = random_frame();
    const video::Frame c0 = random_frame();
    const video::Frame c1 = random_frame();
    tb.load_frame(kFrameAddr, in);
    tb.load_frame(kCensusPrevAddr, c0);

    tb.rr.select(0);
    program_cie(tb, w, h);
    tb.run_cycles(5);
    tb.cie_regs.dcr_write(0x60, rtlsim::Word{1});
    ASSERT_TRUE(tb.run_to_done(tb.cie_regs, 40000));
    EXPECT_EQ(tb.read_frame(kCensusAddr, w, h)
                  .count_mismatches(video::census_transform(in)),
              0u);

    tb.load_frame(kCensusAddr, c1);
    video::MatchConfig mc;
    mc.step = 1;
    mc.margin = GetParam();
    mc.search = 2;
    tb.rr.select(1);
    program_me(tb, w, h, mc);
    tb.run_cycles(5);
    tb.me_regs.dcr_write(0x68, rtlsim::Word{1});
    ASSERT_TRUE(tb.run_to_done(tb.me_regs, 120000));

    const video::MotionField want = video::match_census(c0, c1, mc);
    const unsigned gw = want.grid_w();
    ASSERT_EQ(want.at(0, 0).x, mc.margin) << "a grid point on the border";
    for (unsigned gy = 0; gy < want.grid_h(); ++gy) {
        for (unsigned gx = 0; gx < gw; ++gx) {
            EXPECT_EQ(tb.mem.peek_u32(kMotionAddr + 4 * (gy * gw + gx)),
                      video::encode_motion_word(want.at(gx, gy)))
                << "grid point (" << gx << "," << gy << ")";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Margins, EngineBorder, ::testing::Values(0u, 1u));

// Geometry sweep: the engine must stay bit-exact for many frame shapes.
class CieGeometry
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>> {};

TEST_P(CieGeometry, BitExact) {
    const auto [w, h] = GetParam();
    EngineTb tb;
    video::SyntheticScene scene(video::SceneConfig::standard(w, h, w + h));
    const video::Frame in = scene.frame(0);
    tb.load_frame(kFrameAddr, in);
    tb.rr.select(0);
    program_cie(tb, w, h);
    tb.run_cycles(5);
    tb.cie_regs.dcr_write(0x60, rtlsim::Word{1});
    ASSERT_TRUE(tb.run_to_done(tb.cie_regs, 40u * w * h + 20000));
    const video::Frame got = tb.read_frame(kCensusAddr, w, h);
    EXPECT_EQ(got.count_mismatches(video::census_transform(in)), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CieGeometry,
    ::testing::Values(std::pair{4u, 4u}, std::pair{8u, 2u}, std::pair{16u, 16u},
                      std::pair{64u, 48u}, std::pair{20u, 30u}));

}  // namespace
}  // namespace autovision
