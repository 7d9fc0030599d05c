// Video frames and portable image I/O.
//
// Frames are 8-bit grayscale, row-major. The demonstrator's memory layout
// packs 4 pixels per 32-bit word, big-endian (pixel (0,0) in the most
// significant byte), matching the PowerPC byte order used everywhere else.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace autovision::video {

class Frame {
public:
    Frame() = default;
    Frame(unsigned width, unsigned height, std::uint8_t fill = 0)
        : w_(width), h_(height), pix_(std::size_t{width} * height, fill) {}

    [[nodiscard]] unsigned width() const noexcept { return w_; }
    [[nodiscard]] unsigned height() const noexcept { return h_; }
    [[nodiscard]] std::size_t size() const noexcept { return pix_.size(); }
    [[nodiscard]] bool empty() const noexcept { return pix_.empty(); }

    [[nodiscard]] std::uint8_t at(unsigned x, unsigned y) const {
        return pix_[std::size_t{y} * w_ + x];
    }
    std::uint8_t& at(unsigned x, unsigned y) {
        return pix_[std::size_t{y} * w_ + x];
    }

    /// Clamped access: coordinates outside the frame read the nearest edge
    /// pixel (the border policy of the census engine). Inline: the census,
    /// Sobel and flow models call it once per neighbour pixel.
    [[nodiscard]] std::uint8_t at_clamped(int x, int y) const {
        const int cx = std::clamp(x, 0, static_cast<int>(w_) - 1);
        const int cy = std::clamp(y, 0, static_cast<int>(h_) - 1);
        return at(static_cast<unsigned>(cx), static_cast<unsigned>(cy));
    }

    [[nodiscard]] std::span<const std::uint8_t> pixels() const noexcept {
        return pix_;
    }
    [[nodiscard]] std::span<std::uint8_t> pixels() noexcept { return pix_; }

    [[nodiscard]] bool operator==(const Frame& o) const = default;

    /// Number of differing pixels vs another frame of the same geometry.
    [[nodiscard]] std::size_t count_mismatches(const Frame& o) const;

    /// Size of the frame in 32-bit memory words (4 pixels per word).
    [[nodiscard]] std::uint32_t words() const {
        return static_cast<std::uint32_t>((size() + 3) / 4);
    }

private:
    unsigned w_ = 0;
    unsigned h_ = 0;
    std::vector<std::uint8_t> pix_;
};

/// Write a binary PGM (P5). Throws std::runtime_error on I/O failure.
void write_pgm(const Frame& f, const std::string& path);

/// Read a binary PGM (P5). Throws std::runtime_error on parse failure.
[[nodiscard]] Frame read_pgm(const std::string& path);

/// Write a binary PPM (P6) from three equal-size planes (used by the
/// examples to render motion overlays in colour).
void write_ppm(const Frame& r, const Frame& g, const Frame& b,
               const std::string& path);

}  // namespace autovision::video
