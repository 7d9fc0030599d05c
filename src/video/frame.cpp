#include "frame.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

namespace autovision::video {

std::size_t Frame::count_mismatches(const Frame& o) const {
    if (w_ != o.w_ || h_ != o.h_) return size() + o.size();
    std::size_t n = 0;
    for (std::size_t i = 0; i < pix_.size(); ++i) {
        if (pix_[i] != o.pix_[i]) ++n;
    }
    return n;
}

void write_pgm(const Frame& f, const std::string& path) {
    std::ofstream os(path, std::ios::binary);
    if (!os) throw std::runtime_error("cannot open for write: " + path);
    os << "P5\n" << f.width() << ' ' << f.height() << "\n255\n";
    os.write(reinterpret_cast<const char*>(f.pixels().data()),
             static_cast<std::streamsize>(f.size()));
    if (!os) throw std::runtime_error("write failed: " + path);
}

namespace {
int next_token(std::istream& is) {
    // Skip whitespace and '#' comments, then parse an integer.
    char c;
    while (is.get(c)) {
        if (c == '#') {
            while (is.get(c) && c != '\n') {
            }
        } else if (!std::isspace(static_cast<unsigned char>(c))) {
            is.unget();
            int v;
            is >> v;
            return v;
        }
    }
    throw std::runtime_error("unexpected end of PGM header");
}
}  // namespace

Frame read_pgm(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    if (!is) throw std::runtime_error("cannot open for read: " + path);
    char m0;
    char m1;
    is.get(m0);
    is.get(m1);
    if (m0 != 'P' || m1 != '5') throw std::runtime_error("not a P5 PGM");
    const int w = next_token(is);
    const int h = next_token(is);
    const int maxv = next_token(is);
    if (w <= 0 || h <= 0 || maxv != 255) {
        throw std::runtime_error("unsupported PGM geometry");
    }
    is.get();  // single whitespace after maxval
    Frame f(static_cast<unsigned>(w), static_cast<unsigned>(h));
    is.read(reinterpret_cast<char*>(f.pixels().data()),
            static_cast<std::streamsize>(f.size()));
    if (!is) throw std::runtime_error("truncated PGM payload: " + path);
    return f;
}

void write_ppm(const Frame& r, const Frame& g, const Frame& b,
               const std::string& path) {
    if (r.width() != g.width() || g.width() != b.width() ||
        r.height() != g.height() || g.height() != b.height()) {
        throw std::runtime_error("PPM planes must have equal geometry");
    }
    std::ofstream os(path, std::ios::binary);
    if (!os) throw std::runtime_error("cannot open for write: " + path);
    os << "P6\n" << r.width() << ' ' << r.height() << "\n255\n";
    for (std::size_t i = 0; i < r.size(); ++i) {
        os.put(static_cast<char>(r.pixels()[i]));
        os.put(static_cast<char>(g.pixels()[i]));
        os.put(static_cast<char>(b.pixels()[i]));
    }
    if (!os) throw std::runtime_error("write failed: " + path);
}

}  // namespace autovision::video
