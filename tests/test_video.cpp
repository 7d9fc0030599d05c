// Unit tests for the video substrate: frames, synthetic scenes, the census
// transform and the block-matching optical flow reference model.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <filesystem>
#include <random>

#include "video/census.hpp"
#include "video/flow.hpp"
#include "video/frame.hpp"
#include "video/synth.hpp"

namespace autovision::video {
namespace {

TEST(Frame, BasicAccess) {
    Frame f(8, 4, 7);
    EXPECT_EQ(f.width(), 8u);
    EXPECT_EQ(f.height(), 4u);
    EXPECT_EQ(f.size(), 32u);
    EXPECT_EQ(f.at(3, 2), 7);
    f.at(3, 2) = 42;
    EXPECT_EQ(f.at(3, 2), 42);
    EXPECT_EQ(f.words(), 8u);
    Frame odd(5, 3);
    EXPECT_EQ(odd.words(), 4u) << "15 pixels round up to 4 words";
}

TEST(Frame, ClampedAccessAtBorders) {
    Frame f(4, 4);
    f.at(0, 0) = 11;
    f.at(3, 3) = 22;
    EXPECT_EQ(f.at_clamped(-1, -1), 11);
    EXPECT_EQ(f.at_clamped(-5, 2), f.at(0, 2));
    EXPECT_EQ(f.at_clamped(10, 10), 22);
}

TEST(Frame, MismatchCount) {
    Frame a(4, 4, 0);
    Frame b(4, 4, 0);
    EXPECT_EQ(a.count_mismatches(b), 0u);
    b.at(1, 1) = 1;
    b.at(2, 2) = 1;
    EXPECT_EQ(a.count_mismatches(b), 2u);
    Frame c(3, 3);
    EXPECT_GT(a.count_mismatches(c), 9u) << "geometry mismatch is total";
}

TEST(Frame, PgmRoundTrip) {
    const auto dir = std::filesystem::temp_directory_path();
    const std::string path = (dir / "resim_test_roundtrip.pgm").string();
    SyntheticScene scene(SceneConfig::standard(32, 24));
    const Frame f = scene.frame(0);
    write_pgm(f, path);
    const Frame g = read_pgm(path);
    EXPECT_EQ(f, g);
    std::remove(path.c_str());
}

TEST(Frame, PpmWriteProducesHeaderAndPayload) {
    const auto dir = std::filesystem::temp_directory_path();
    const std::string path = (dir / "resim_test_overlay.ppm").string();
    Frame f(8, 8, 128);
    write_ppm(f, f, f, path);
    EXPECT_GE(std::filesystem::file_size(path), 8u * 8u * 3u);
    std::remove(path.c_str());
}

TEST(Synth, DeterministicFrames) {
    SyntheticScene a(SceneConfig::standard(64, 48, 5));
    SyntheticScene b(SceneConfig::standard(64, 48, 5));
    EXPECT_EQ(a.frame(3), b.frame(3));
    SyntheticScene c(SceneConfig::standard(64, 48, 6));
    EXPECT_NE(a.frame(3), c.frame(3)) << "different seed, different texture";
}

TEST(Synth, ObjectsActuallyMove) {
    SyntheticScene s(SceneConfig::standard(64, 48));
    const Frame f0 = s.frame(0);
    const Frame f1 = s.frame(1);
    EXPECT_GT(f0.count_mismatches(f1), 20u);
}

TEST(Synth, GroundTruthMatchesObjectPlacement) {
    SceneConfig cfg;
    cfg.width = 32;
    cfg.height = 32;
    cfg.objects.push_back(MovingObject{4, 4, 8, 8, 3, -1, 200});
    SyntheticScene s(cfg);
    int dx = 0;
    int dy = 0;
    EXPECT_TRUE(s.ground_truth(0, 5, 5, dx, dy));
    EXPECT_EQ(dx, 3);
    EXPECT_EQ(dy, -1);
    EXPECT_FALSE(s.ground_truth(0, 20, 20, dx, dy)) << "background";
    // At t=2 the object has moved to (10, 2).
    EXPECT_TRUE(s.ground_truth(2, 11, 3, dx, dy));
    EXPECT_FALSE(s.ground_truth(2, 5, 5, dx, dy));
}

TEST(Census, SignatureBitsFollowNeighbourOrder) {
    Frame f(3, 3, 100);
    f.at(0, 0) = 200;  // top-left neighbour of centre -> bit 7
    f.at(2, 2) = 250;  // bottom-right -> bit 3 (clockwise order)
    const std::uint8_t sig = census_signature(f, 1, 1);
    EXPECT_EQ(sig & 0x80, 0x80);
    EXPECT_EQ(sig & 0x08, 0x08);
    EXPECT_EQ(sig, 0x88);
}

TEST(Census, FlatImageIsZero) {
    Frame f(8, 8, 77);
    const Frame c = census_transform(f);
    for (unsigned y = 0; y < 8; ++y) {
        for (unsigned x = 0; x < 8; ++x) EXPECT_EQ(c.at(x, y), 0);
    }
}

TEST(Census, IlluminationInvariance) {
    // Adding a constant offset (without clipping) must not change the
    // census image — the property the AutoVision pipeline relies on.
    SyntheticScene s(SceneConfig::standard(32, 24));
    Frame f = s.frame(0);
    Frame brighter = f;
    for (auto& p : brighter.pixels()) {
        p = static_cast<std::uint8_t>(std::min<int>(p + 10, 255));
    }
    bool clipped = false;
    for (auto p : f.pixels()) clipped |= (p > 245);
    if (!clipped) {
        EXPECT_EQ(census_transform(f), census_transform(brighter));
    }
}

TEST(Census, SignatureDistanceIsTheHammingDistance) {
    for (unsigned a = 0; a < 256; ++a) {
        for (unsigned b = 0; b < 256; ++b) {
            ASSERT_EQ(signature_distance(static_cast<std::uint8_t>(a),
                                         static_cast<std::uint8_t>(b)),
                      static_cast<unsigned>(std::popcount(a ^ b)))
                << a << " ^ " << b;
        }
    }
}

TEST(Census, TransformMatchesPerPixelDefinition) {
    // census_transform's interior row kernel and its clamped outer ring
    // must agree with census_signature at every pixel, for frames with no
    // interior (1xN, Nx1, 2x2), one interior pixel (3x3) and many.
    std::mt19937 rng(20130520);
    const std::pair<unsigned, unsigned> shapes[] = {
        {1, 1}, {1, 9}, {9, 1}, {2, 2}, {3, 3}, {17, 5}, {320, 200}};
    for (const auto& [w, h] : shapes) {
        Frame random(w, h);
        for (auto& p : random.pixels()) p = static_cast<std::uint8_t>(rng());
        Frame checker(w, h);
        for (unsigned y = 0; y < h; ++y) {
            for (unsigned x = 0; x < w; ++x) {
                checker.at(x, y) = ((x + y) % 2 != 0) ? 200 : 10;
            }
        }
        const Frame frames[] = {random, Frame(w, h, 128), checker};
        for (const Frame& f : frames) {
            const Frame c = census_transform(f);
            ASSERT_EQ(c.width(), w);
            ASSERT_EQ(c.height(), h);
            for (unsigned y = 0; y < h; ++y) {
                for (unsigned x = 0; x < w; ++x) {
                    ASSERT_EQ(c.at(x, y), census_signature(f, x, y))
                        << w << "x" << h << " at (" << x << "," << y << ")";
                }
            }
        }
    }
}

TEST(Flow, MotionWordRoundTrip) {
    MotionVector v{12, 34, -3, 4, 77};
    const std::uint32_t w = encode_motion_word(v);
    const MotionVector d = decode_motion_word(w, 12, 34);
    EXPECT_EQ(d, v);
}

TEST(Flow, GridGeometry) {
    MatchConfig cfg;
    cfg.step = 4;
    cfg.margin = 8;
    EXPECT_EQ(grid_points(64, cfg), 12u);
    EXPECT_EQ(grid_points(16, cfg), 0u) << "frame too small for margins";
    EXPECT_EQ(grid_points(17, cfg), 1u);
}

TEST(Flow, ZeroMotionOnStaticScene) {
    SyntheticScene s(SceneConfig::standard(64, 48));
    const Frame c0 = census_transform(s.frame(0));
    MatchConfig cfg;
    const MotionField f = match_census(c0, c0, cfg);
    for (const MotionVector& v : f.vectors) {
        EXPECT_EQ(v.dx, 0);
        EXPECT_EQ(v.dy, 0);
        EXPECT_EQ(v.cost, 0u);
    }
}

TEST(Flow, RecoversKnownTranslation) {
    // A scene with one textured object moving (+2, 0); grid points well
    // inside the object must report exactly that displacement.
    SceneConfig cfg;
    cfg.width = 64;
    cfg.height = 48;
    cfg.seed = 3;
    cfg.objects.push_back(MovingObject{16, 16, 24, 20, 2, 0, 220});
    SyntheticScene s(cfg);
    const Frame c0 = census_transform(s.frame(0));
    const Frame c1 = census_transform(s.frame(1));

    MatchConfig mc;
    mc.step = 2;
    mc.margin = 8;
    mc.search = 4;
    const MotionField f = match_census(c0, c1, mc);

    unsigned inside = 0;
    unsigned correct = 0;
    for (const MotionVector& v : f.vectors) {
        // Strict interior of the object at t=1 (object now at 18..42 x).
        if (v.x >= 24 && v.x < 36 && v.y >= 22 && v.y < 32) {
            ++inside;
            if (v.dx == 2 && v.dy == 0) ++correct;
        }
    }
    ASSERT_GT(inside, 10u);
    EXPECT_GE(correct * 10, inside * 9)
        << "at least 90% of interior points recover the ground truth";
}

TEST(Flow, MatchMatchesScalarDefinition) {
    // match_census against a scan-order argmin over match_cost. Margins
    // below search + patch put grid points on the clamped path; the rest
    // take the packed 3x3 kernel. Two-level census images make many
    // candidates tie, so the strict-improvement tie-break is exercised.
    std::mt19937 rng(7919);
    const unsigned w = 23;
    const unsigned h = 17;
    Frame rich_prev(w, h);
    Frame rich_cur(w, h);
    Frame tie_prev(w, h);
    Frame tie_cur(w, h);
    for (std::size_t i = 0; i < rich_prev.size(); ++i) {
        rich_prev.pixels()[i] = static_cast<std::uint8_t>(rng());
        rich_cur.pixels()[i] = static_cast<std::uint8_t>(rng());
        tie_prev.pixels()[i] = (rng() % 4 == 0) ? 0x81 : 0x00;
        tie_cur.pixels()[i] = (rng() % 4 == 0) ? 0x81 : 0x00;
    }
    const std::pair<const Frame*, const Frame*> pairs[] = {
        {&rich_prev, &rich_cur}, {&tie_prev, &tie_cur}};
    unsigned points = 0;
    for (const auto& [prev, cur] : pairs) {
        for (int search = 1; search <= 4; ++search) {
            for (int patch = 0; patch <= 2; ++patch) {
                for (unsigned margin = 0;
                     margin < static_cast<unsigned>(search + patch); ++margin) {
                    for (unsigned step = 1; step <= 5; ++step) {
                        MatchConfig mc;
                        mc.search = search;
                        mc.patch = patch;
                        mc.margin = margin;
                        mc.step = step;
                        const MotionField f = match_census(*prev, *cur, mc);
                        ASSERT_EQ(f.vectors.size(),
                                  std::size_t{f.grid_w()} * f.grid_h());
                        for (unsigned gy = 0; gy < f.grid_h(); ++gy) {
                            for (unsigned gx = 0; gx < f.grid_w(); ++gx) {
                                MotionVector want{margin + gx * step,
                                                  margin + gy * step, 0, 0,
                                                  ~0u};
                                for (int dy = -search; dy <= search; ++dy) {
                                    for (int dx = -search; dx <= search; ++dx) {
                                        const unsigned c = match_cost(
                                            *prev, *cur, want.x, want.y, dx,
                                            dy, mc);
                                        if (c < want.cost) {
                                            want.dx = dx;
                                            want.dy = dy;
                                            want.cost = c;
                                        }
                                    }
                                }
                                ASSERT_EQ(f.at(gx, gy), want)
                                    << "search " << search << " patch "
                                    << patch << " margin " << margin
                                    << " step " << step << " at (" << want.x
                                    << "," << want.y << ")";
                                ++points;
                            }
                        }
                    }
                }
            }
        }
    }
    EXPECT_GT(points, 1000u);
}

TEST(Flow, CostIsHammingDistance) {
    Frame a(16, 16, 0);
    Frame b(16, 16, 0);
    // Patch radius 1 at (8,8): 9 signatures, flip 3 bits in one of them.
    b.at(8, 8) = 0b0000'0111;
    MatchConfig mc;
    EXPECT_EQ(match_cost(a, b, 8, 8, 0, 0, mc), 3u);
    b.at(7, 7) = 0b1000'0000;
    EXPECT_EQ(match_cost(a, b, 8, 8, 0, 0, mc), 4u);
}

TEST(Flow, TieBreakIsFirstInScanOrder) {
    // All-zero census images: every displacement has cost 0; the scan
    // starts at (-search, -search), so that is the deterministic winner...
    // except (0,0) is scanned in order too. Verify the documented rule:
    // first candidate with strictly smaller cost wins; initial best is
    // (0,0) with infinite cost, so (-search,-search) wins the first strict
    // improvement.
    Frame z(32, 32, 0);
    MatchConfig mc;
    mc.search = 2;
    const MotionField f = match_census(z, z, mc);
    for (const MotionVector& v : f.vectors) {
        EXPECT_EQ(v.dx, -2);
        EXPECT_EQ(v.dy, -2);
    }
}

TEST(Flow, OverlayDrawsVectors) {
    Frame base(32, 32, 50);
    MotionField field;
    field.cfg = MatchConfig{};
    field.frame_w = 32;
    field.frame_h = 32;
    field.vectors.push_back(MotionVector{16, 16, 3, 0, 1});
    Frame r;
    Frame g;
    Frame b;
    make_overlay(base, field, 1, r, g, b);
    EXPECT_EQ(r.at(16, 16), 255) << "vector trace in red";
    EXPECT_EQ(g.at(16, 16), 32);
    EXPECT_EQ(r.at(2, 2), 50) << "background untouched";
}

// Property sweep: for any object velocity within the search window, the
// matcher recovers it at interior grid points.
class FlowVelocity : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(FlowVelocity, RecoversVelocity) {
    const auto [vx, vy] = GetParam();
    SceneConfig cfg;
    cfg.width = 72;
    cfg.height = 60;
    cfg.seed = 11;
    cfg.objects.push_back(MovingObject{24, 20, 24, 20, vx, vy, 230});
    SyntheticScene s(cfg);
    const Frame c0 = census_transform(s.frame(0));
    const Frame c1 = census_transform(s.frame(1));
    MatchConfig mc;
    mc.step = 2;
    mc.margin = 8;
    mc.search = 4;
    const MotionField f = match_census(c0, c1, mc);

    unsigned inside = 0;
    unsigned correct = 0;
    for (const MotionVector& v : f.vectors) {
        if (v.x >= 32 && v.x < 40 && v.y >= 26 && v.y < 34) {
            ++inside;
            if (v.dx == vx && v.dy == vy) ++correct;
        }
    }
    ASSERT_GT(inside, 4u);
    EXPECT_GE(correct * 10, inside * 8)
        << "velocity (" << vx << "," << vy << ") poorly recovered";
}

INSTANTIATE_TEST_SUITE_P(
    Velocities, FlowVelocity,
    ::testing::Values(std::pair{1, 0}, std::pair{-2, 0}, std::pair{0, 3},
                      std::pair{2, 2}, std::pair{-3, 1}, std::pair{4, -4},
                      std::pair{0, 0}));

}  // namespace
}  // namespace autovision::video
