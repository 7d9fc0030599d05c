// Block-matching optical flow over census images — golden reference model
// for the Matching Engine.
//
// For each point of a regular grid, the matcher searches a +/-R window in
// the *previous* frame's census image for the displacement that minimises
// the Hamming distance over a small patch of census signatures. The result
// is the motion vector of that grid point between the two frames.
//
// The RTL Matching Engine implements the identical algorithm (same scan
// order, same tie-break) so the scoreboard can require bit-exact motion
// words in memory.
#pragma once

#include <cstdint>
#include <vector>

#include "frame.hpp"

namespace autovision::video {

struct MatchConfig {
    unsigned step = 4;    ///< grid pitch in pixels
    unsigned margin = 8;  ///< border to skip (must cover search + patch)
    int search = 4;       ///< search window radius, pixels
    int patch = 1;        ///< patch radius (1 => 3x3 signatures)

    [[nodiscard]] bool operator==(const MatchConfig&) const = default;
};

struct MotionVector {
    unsigned x = 0;  ///< grid point, pixel coordinates
    unsigned y = 0;
    int dx = 0;      ///< displacement previous -> current
    int dy = 0;
    unsigned cost = 0;  ///< winning Hamming cost

    [[nodiscard]] bool operator==(const MotionVector&) const = default;
};

/// Memory encoding used by the Matching Engine: one 32-bit word per grid
/// point, row-major over the grid.
///   [31:24] dx + 128   [23:16] dy + 128   [15:0] cost
[[nodiscard]] std::uint32_t encode_motion_word(const MotionVector& v);
[[nodiscard]] MotionVector decode_motion_word(std::uint32_t w, unsigned x,
                                              unsigned y);

struct MotionField {
    MatchConfig cfg;
    unsigned frame_w = 0;
    unsigned frame_h = 0;
    std::vector<MotionVector> vectors;  ///< row-major over the grid

    [[nodiscard]] unsigned grid_w() const;
    [[nodiscard]] unsigned grid_h() const;
    [[nodiscard]] const MotionVector& at(unsigned gx, unsigned gy) const {
        return vectors[std::size_t{gy} * grid_w() + gx];
    }
};

/// Grid geometry helper shared by the reference model, the RTL engine and
/// the scoreboard: the number of grid points along an axis of length `dim`.
[[nodiscard]] unsigned grid_points(unsigned dim, const MatchConfig& cfg);

/// Hamming cost of displacement (dx, dy) at grid point (x, y).
[[nodiscard]] unsigned match_cost(const Frame& prev_census,
                                  const Frame& cur_census, unsigned x,
                                  unsigned y, int dx, int dy,
                                  const MatchConfig& cfg);

/// Full-field match: at each grid point, the displacement of least
/// match_cost, scanned dy-major from (-search, -search) with strict
/// improvement, so the first candidate in scan order wins a tie. With a
/// 3x3 patch, a grid point whose whole search window lies inside both
/// frames costs each candidate from packed rows; any other point takes
/// match_cost itself.
[[nodiscard]] MotionField match_census(const Frame& prev_census,
                                       const Frame& cur_census,
                                       const MatchConfig& cfg);

/// Render a colour overlay: the input frame in grayscale with motion
/// vectors above `min_mag` drawn as bright traces. Returns R/G/B planes
/// suitable for write_ppm.
void make_overlay(const Frame& base, const MotionField& field,
                  unsigned min_mag, Frame& r, Frame& g, Frame& b);

/// Temporal-difference motion energy: the per-pixel absolute difference
/// between the current and previous frame (saturates at 255 trivially —
/// |a - b| of two bytes never exceeds it). The cheapest of the library's
/// motion cues; the Flow Engine implements the identical transform.
[[nodiscard]] std::uint8_t flow_energy(std::uint8_t cur, std::uint8_t prev);

/// Whole-frame motion-energy image. Frames must share geometry.
[[nodiscard]] Frame flow_energy_transform(const Frame& cur, const Frame& prev);

}  // namespace autovision::video
