#include "flow.hpp"

#include <algorithm>
#include <cmath>
#include <thread>

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

MotionVector match_point(const Frame& prev_census, const Frame& cur_census,
                         unsigned x, unsigned y, const MatchConfig& cfg) {
    MotionVector best{x, y, 0, 0, ~0u};
    // Fixed scan order with strict improvement gives a deterministic
    // tie-break (first candidate in scan order wins) that the RTL engine
    // replicates exactly.
    for (int dy = -cfg.search; dy <= cfg.search; ++dy) {
        for (int dx = -cfg.search; dx <= cfg.search; ++dx) {
            const unsigned c =
                match_cost(prev_census, cur_census, x, y, dx, dy, cfg);
            if (c < best.cost) {
                best.dx = dx;
                best.dy = dy;
                best.cost = c;
            }
        }
    }
    return best;
}

}  // namespace

MotionField match_census(const Frame& prev_census, const Frame& cur_census,
                         const MatchConfig& cfg, unsigned num_threads) {
    MotionField field;
    field.cfg = cfg;
    field.frame_w = cur_census.width();
    field.frame_h = cur_census.height();
    const unsigned gw = field.grid_w();
    const unsigned gh = field.grid_h();
    field.vectors.resize(std::size_t{gw} * gh);

    auto do_rows = [&](unsigned row0, unsigned row1) {
        for (unsigned gy = row0; gy < row1; ++gy) {
            const unsigned y = cfg.margin + gy * cfg.step;
            for (unsigned gx = 0; gx < gw; ++gx) {
                const unsigned x = cfg.margin + gx * cfg.step;
                field.vectors[std::size_t{gy} * gw + gx] =
                    match_point(prev_census, cur_census, x, y, cfg);
            }
        }
    };

    const unsigned workers =
        std::max(1u, std::min(num_threads, gh == 0 ? 1u : gh));
    if (workers == 1 || gh < 2) {
        do_rows(0, gh);
        return field;
    }

    // Static row partition: grid points are independent, so the result is
    // identical for any worker count.
    std::vector<std::thread> pool;
    pool.reserve(workers);
    const unsigned chunk = (gh + workers - 1) / workers;
    for (unsigned w = 0; w < workers; ++w) {
        const unsigned r0 = w * chunk;
        const unsigned r1 = std::min(gh, r0 + chunk);
        if (r0 >= r1) break;
        pool.emplace_back(do_rows, r0, r1);
    }
    for (auto& t : pool) t.join();
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
