#include "census.hpp"

namespace autovision::video {

std::uint8_t census_signature(const Frame& f, unsigned x, unsigned y) {
    const std::uint8_t c = f.at(x, y);
    std::uint8_t sig = 0;
    for (int i = 0; i < 8; ++i) {
        const std::uint8_t n = f.at_clamped(static_cast<int>(x) + kCensusOffsets[i][0],
                                            static_cast<int>(y) + kCensusOffsets[i][1]);
        sig = static_cast<std::uint8_t>(sig << 1);
        if (n > c) sig |= 1;
    }
    return sig;
}

Frame census_transform(const Frame& f) {
    const unsigned w = f.width();
    const unsigned h = f.height();
    Frame out(w, h);
    for (unsigned y = 0; y < h; ++y) {
        if (y == 0 || y + 1 == h) {
            for (unsigned x = 0; x < w; ++x) {
                out.at(x, y) = census_signature(f, x, y);
            }
            continue;
        }
        // Interior row: the pixels between the first and last column read
        // all eight neighbours from rows y-1..y+1, so no clamp is needed.
        const std::uint8_t* up = f.pixels().data() + std::size_t{y - 1} * w;
        const std::uint8_t* mid = up + w;
        const std::uint8_t* dn = mid + w;
        std::uint8_t* o = out.pixels().data() + std::size_t{y} * w;
        o[0] = census_signature(f, 0, y);
        for (unsigned x = 1; x + 1 < w; ++x) {
            const std::uint8_t c = mid[x];
            o[x] = static_cast<std::uint8_t>(
                (up[x - 1] > c) << 7 | (up[x] > c) << 6 | (up[x + 1] > c) << 5 |
                (mid[x + 1] > c) << 4 | (dn[x + 1] > c) << 3 |
                (dn[x] > c) << 2 | (dn[x - 1] > c) << 1 | (mid[x - 1] > c));
        }
        if (w > 1) o[w - 1] = census_signature(f, w - 1, y);
    }
    return out;
}

}  // namespace autovision::video
