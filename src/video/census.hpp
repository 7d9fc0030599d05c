// Census transform — golden reference model for the Census Image Engine.
//
// Each pixel is replaced by an 8-bit signature: one bit per 3x3 neighbour
// (clockwise from top-left), set when the neighbour's luma is strictly
// greater than the centre. The transform is illumination-invariant, which is
// why the AutoVision optical flow pipeline matches census signatures rather
// than raw luma. The RTL Census Image Engine must be bit-exact against this
// model; the scoreboard compares the feature image it writes to memory with
// census_transform() of the same input.
#pragma once

#include "frame.hpp"

namespace autovision::video {

/// Neighbour offsets in signature bit order (bit 7 first = top-left,
/// clockwise).
inline constexpr int kCensusOffsets[8][2] = {
    {-1, -1}, {0, -1}, {1, -1}, {1, 0},
    {1, 1},   {0, 1},  {-1, 1}, {-1, 0},
};

/// Byte-lane popcount by SWAR: byte i of the result counts the set bits of
/// byte i of `v`. std::popcount compiles to a libgcc call on a target
/// without a popcount instruction (no -mpopcnt or -march here). The one
/// primitive the golden models share with the RTL engines: each side packs
/// its own rows and sums its own lanes.
[[nodiscard]] constexpr std::uint32_t byte_popcounts(std::uint32_t v) noexcept {
    v -= (v >> 1) & 0x55555555u;
    v = (v & 0x33333333u) + ((v >> 2) & 0x33333333u);
    return (v + (v >> 4)) & 0x0F0F0F0Fu;
}

/// Hamming distance of two census signatures, the per-pixel match cost.
[[nodiscard]] constexpr unsigned signature_distance(std::uint8_t a,
                                                    std::uint8_t b) noexcept {
    return byte_popcounts(static_cast<std::uint32_t>(a ^ b));
}

/// Signature of the 3x3 neighbourhood centred at (x, y), edge-clamped.
[[nodiscard]] std::uint8_t census_signature(const Frame& f, unsigned x,
                                            unsigned y);

/// Full-frame census transform; output geometry equals input geometry.
/// A pixel whose eight neighbours all lie inside the frame takes an
/// unclamped row kernel; the frame's outer ring takes census_signature.
[[nodiscard]] Frame census_transform(const Frame& f);

}  // namespace autovision::video
