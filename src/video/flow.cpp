#include "flow.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "census.hpp"

namespace autovision::video {

std::uint32_t encode_motion_word(const MotionVector& v) {
    const auto bx = static_cast<std::uint32_t>(v.dx + 128) & 0xFFu;
    const auto by = static_cast<std::uint32_t>(v.dy + 128) & 0xFFu;
    return (bx << 24) | (by << 16) | (v.cost & 0xFFFFu);
}

MotionVector decode_motion_word(std::uint32_t w, unsigned x, unsigned y) {
    MotionVector v;
    v.x = x;
    v.y = y;
    v.dx = static_cast<int>((w >> 24) & 0xFFu) - 128;
    v.dy = static_cast<int>((w >> 16) & 0xFFu) - 128;
    v.cost = w & 0xFFFFu;
    return v;
}

unsigned grid_points(unsigned dim, const MatchConfig& cfg) {
    if (dim < 2 * cfg.margin) return 0;
    return (dim - 2 * cfg.margin + cfg.step - 1) / cfg.step;
}

unsigned MotionField::grid_w() const { return grid_points(frame_w, cfg); }
unsigned MotionField::grid_h() const { return grid_points(frame_h, cfg); }

unsigned match_cost(const Frame& prev_census, const Frame& cur_census,
                    unsigned x, unsigned y, int dx, int dy,
                    const MatchConfig& cfg) {
    unsigned cost = 0;
    for (int oy = -cfg.patch; oy <= cfg.patch; ++oy) {
        for (int ox = -cfg.patch; ox <= cfg.patch; ++ox) {
            const std::uint8_t cur = cur_census.at_clamped(
                static_cast<int>(x) + ox, static_cast<int>(y) + oy);
            const std::uint8_t prv = prev_census.at_clamped(
                static_cast<int>(x) - dx + ox, static_cast<int>(y) - dy + oy);
            cost += signature_distance(cur, prv);
        }
    }
    return cost;
}

namespace {

/// The scan every grid point takes, whatever prices its candidates.
template <class Cost>
MotionVector argmin_scan(unsigned x, unsigned y, int search, Cost cost) {
    MotionVector best{x, y, 0, 0, ~0u};
    // Fixed scan order with strict improvement gives a deterministic
    // tie-break (first candidate in scan order wins) that the RTL engine
    // replicates exactly.
    for (int dy = -search; dy <= search; ++dy) {
        for (int dx = -search; dx <= search; ++dx) {
            const unsigned c = cost(dx, dy);
            if (c < best.cost) {
                best.dx = dx;
                best.dy = dy;
                best.cost = c;
            }
        }
    }
    return best;
}

/// True iff [v - reach, v + reach] lies inside [0, dim).
bool spans_inside(unsigned v, unsigned reach, unsigned dim) {
    return v >= reach && v + reach < dim;
}

/// Three consecutive signatures of a row, packed low byte first.
std::uint32_t row3(const std::uint8_t* p) {
    return p[0] | std::uint32_t{p[1]} << 8 | std::uint32_t{p[2]} << 16;
}

MotionVector match_point(const Frame& prev_census, const Frame& cur_census,
                         unsigned x, unsigned y, const MatchConfig& cfg) {
    const auto reach = static_cast<unsigned>(std::max(cfg.search, 0)) + 1;
    if (cfg.patch == 1 && spans_inside(x, 1, cur_census.width()) &&
        spans_inside(y, 1, cur_census.height()) &&
        spans_inside(x, reach, prev_census.width()) &&
        spans_inside(y, reach, prev_census.height())) {
        // Every candidate's 3x3 patch lies inside both frames: cost it as
        // three 3-byte row XORs, with the per-lane counts summed at once.
        const std::size_t cw = cur_census.width();
        const auto pw = static_cast<std::ptrdiff_t>(prev_census.width());
        const std::uint8_t* c =
            cur_census.pixels().data() + (y - 1) * cw + (x - 1);
        const std::uint32_t c0 = row3(c);
        const std::uint32_t c1 = row3(c + cw);
        const std::uint32_t c2 = row3(c + 2 * cw);
        const std::uint8_t* p =
            prev_census.pixels().data() + (y - 1) * pw + (x - 1);
        return argmin_scan(x, y, cfg.search, [&](int dx, int dy) {
            const std::uint8_t* q = p - (dy * pw + dx);
            const std::uint32_t lanes = byte_popcounts(c0 ^ row3(q)) +
                                        byte_popcounts(c1 ^ row3(q + pw)) +
                                        byte_popcounts(c2 ^ row3(q + 2 * pw));
            // Lanes 0..2 hold at most 24 each: byte 2 of the product is
            // their sum, with no carry in from below.
            return (lanes * 0x010101u) >> 16 & 0xFFu;
        });
    }
    return argmin_scan(x, y, cfg.search, [&](int dx, int dy) {
        return match_cost(prev_census, cur_census, x, y, dx, dy, cfg);
    });
}

}  // namespace

MotionField match_census(const Frame& prev_census, const Frame& cur_census,
                         const MatchConfig& cfg) {
    MotionField field;
    field.cfg = cfg;
    field.frame_w = cur_census.width();
    field.frame_h = cur_census.height();
    const unsigned gw = field.grid_w();
    const unsigned gh = field.grid_h();
    field.vectors.reserve(std::size_t{gw} * gh);
    for (unsigned gy = 0; gy < gh; ++gy) {
        const unsigned y = cfg.margin + gy * cfg.step;
        for (unsigned gx = 0; gx < gw; ++gx) {
            const unsigned x = cfg.margin + gx * cfg.step;
            field.vectors.push_back(
                match_point(prev_census, cur_census, x, y, cfg));
        }
    }
    return field;
}

namespace {

void draw_line(Frame& plane, int x0, int y0, int x1, int y1,
               std::uint8_t value) {
    // Bresenham; endpoints clamped inside the frame.
    const int w = static_cast<int>(plane.width());
    const int h = static_cast<int>(plane.height());
    int dx = std::abs(x1 - x0);
    int dy = -std::abs(y1 - y0);
    int sx = x0 < x1 ? 1 : -1;
    int sy = y0 < y1 ? 1 : -1;
    int err = dx + dy;
    while (true) {
        if (x0 >= 0 && y0 >= 0 && x0 < w && y0 < h) {
            plane.at(static_cast<unsigned>(x0), static_cast<unsigned>(y0)) =
                value;
        }
        if (x0 == x1 && y0 == y1) break;
        const int e2 = 2 * err;
        if (e2 >= dy) {
            err += dy;
            x0 += sx;
        }
        if (e2 <= dx) {
            err += dx;
            y0 += sy;
        }
    }
}

}  // namespace

std::uint8_t flow_energy(std::uint8_t cur, std::uint8_t prev) {
    const int d = static_cast<int>(cur) - static_cast<int>(prev);
    return static_cast<std::uint8_t>(d < 0 ? -d : d);
}

Frame flow_energy_transform(const Frame& cur, const Frame& prev) {
    Frame out(cur.width(), cur.height());
    for (unsigned y = 0; y < cur.height(); ++y) {
        for (unsigned x = 0; x < cur.width(); ++x) {
            out.at(x, y) = flow_energy(cur.at(x, y), prev.at(x, y));
        }
    }
    return out;
}

void make_overlay(const Frame& base, const MotionField& field,
                  unsigned min_mag, Frame& r, Frame& g, Frame& b) {
    r = base;
    g = base;
    b = base;
    for (const MotionVector& v : field.vectors) {
        const unsigned mag =
            static_cast<unsigned>(std::abs(v.dx) + std::abs(v.dy));
        if (mag < min_mag) continue;
        const int x0 = static_cast<int>(v.x);
        const int y0 = static_cast<int>(v.y);
        // Draw the vector scaled 3x so short motions stay visible.
        draw_line(r, x0, y0, x0 + 3 * v.dx, y0 + 3 * v.dy, 255);
        draw_line(g, x0, y0, x0 + 3 * v.dx, y0 + 3 * v.dy, 32);
        draw_line(b, x0, y0, x0 + 3 * v.dx, y0 + 3 * v.dy, 32);
    }
}

}  // namespace autovision::video
