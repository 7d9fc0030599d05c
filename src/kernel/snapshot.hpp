// rtlsim: byte-deterministic snapshot primitives.
//
// SnapWriter/SnapReader serialize kernel and module state into a flat
// big-endian byte image — the same wire idiom as the ReSim state images
// (recon/state.hpp), but at kernel level so the scheduler, signals and
// clock generators can checkpoint themselves without depending on any
// design-side library. Checkpoint orchestration (manifest, sections,
// config hashing) lives above, in src/ckpt/.
//
// Determinism contract: every write is a fixed-width big-endian field or a
// length-prefixed run, no padding, no host-order leaks — two identical
// simulator states serialize to identical bytes on any host.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace rtlsim {

class SnapWriter {
public:
    void u8(std::uint8_t v) { buf_.push_back(v); }
    void u16(std::uint16_t v) {
        u8(static_cast<std::uint8_t>(v >> 8));
        u8(static_cast<std::uint8_t>(v));
    }
    void u32(std::uint32_t v) {
        u16(static_cast<std::uint16_t>(v >> 16));
        u16(static_cast<std::uint16_t>(v));
    }
    void u64(std::uint64_t v) {
        u32(static_cast<std::uint32_t>(v >> 32));
        u32(static_cast<std::uint32_t>(v));
    }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
    void bool8(bool b) { u8(b ? 1 : 0); }
    void str(std::string_view s) {
        u32(static_cast<std::uint32_t>(s.size()));
        buf_.insert(buf_.end(), s.begin(), s.end());
    }
    void bytes(std::span<const std::uint8_t> s) {
        u32(static_cast<std::uint32_t>(s.size()));
        buf_.insert(buf_.end(), s.begin(), s.end());
    }
    void words(std::span<const std::uint32_t> s) {
        u32(static_cast<std::uint32_t>(s.size()));
        for (std::uint32_t w : s) u32(w);
    }

    [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
    [[nodiscard]] const std::vector<std::uint8_t>& buffer() const noexcept {
        return buf_;
    }
    [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

private:
    std::vector<std::uint8_t> buf_;
};

class SnapReader {
public:
    explicit SnapReader(std::span<const std::uint8_t> s) : s_(s) {}

    std::uint8_t u8() {
        if (pos_ >= s_.size()) {
            ok_ = false;
            return 0;
        }
        return s_[pos_++];
    }
    std::uint16_t u16() {
        std::uint16_t v = static_cast<std::uint16_t>(u8()) << 8;
        return static_cast<std::uint16_t>(v | u8());
    }
    std::uint32_t u32() {
        std::uint32_t v = static_cast<std::uint32_t>(u16()) << 16;
        return v | u16();
    }
    std::uint64_t u64() {
        std::uint64_t v = static_cast<std::uint64_t>(u32()) << 32;
        return v | u32();
    }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
    bool bool8() { return u8() != 0; }
    std::string str() {
        const std::uint32_t n = u32();
        std::string out;
        if (pos_ + n > s_.size()) {
            ok_ = false;
            return out;
        }
        out.assign(reinterpret_cast<const char*>(s_.data()) +
                       static_cast<std::ptrdiff_t>(pos_),
                   n);
        pos_ += n;
        return out;
    }
    std::vector<std::uint8_t> bytes() {
        const std::uint32_t n = u32();
        std::vector<std::uint8_t> out;
        if (pos_ + n > s_.size()) {
            ok_ = false;
            return out;
        }
        out.assign(s_.begin() + static_cast<std::ptrdiff_t>(pos_),
                   s_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
        pos_ += n;
        return out;
    }
    std::vector<std::uint32_t> words() {
        const std::uint32_t n = u32();
        std::vector<std::uint32_t> out;
        if (pos_ + std::size_t{n} * 4 > s_.size()) {
            ok_ = false;
            return out;
        }
        out.reserve(n);
        for (std::uint32_t i = 0; i < n; ++i) out.push_back(u32());
        return out;
    }

    [[nodiscard]] std::size_t remaining() const noexcept {
        return ok_ ? s_.size() - pos_ : 0;
    }
    /// False when any read overran the image.
    [[nodiscard]] bool ok() const noexcept { return ok_ && pos_ == s_.size(); }
    [[nodiscard]] bool ok_so_far() const noexcept { return ok_; }

private:
    std::span<const std::uint8_t> s_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

/// One group of equal values handed to snap_rle_u64_runs.
struct SnapRun {
    std::size_t run;
    std::uint64_t value;
};

/// Run-aware encode, the mirror of snap_unrle_u64_runs: `next(i)` reports
/// a group of `run` >= 1 values equal to `value` starting at index i (and
/// ending at or before `count`). Adjacent groups with the same value are
/// merged, so the output is the canonical maximal-run encoding whatever
/// group boundaries the source picks — a memory can report a clean page
/// as one zero group without reading it. Format: u64 count, then (u64 run
/// length, u64 value) pairs.
template <typename Next>
void snap_rle_u64_runs(SnapWriter& w, std::size_t count, Next next) {
    w.u64(count);
    SnapRun cur{0, 0};
    for (std::size_t i = 0; i < count;) {
        const SnapRun g = next(i);
        if (cur.run != 0 && g.value != cur.value) {
            w.u64(cur.run);
            w.u64(cur.value);
            cur.run = 0;
        }
        cur = SnapRun{cur.run + g.run, g.value};
        i += g.run;
    }
    if (cur.run != 0) {
        w.u64(cur.run);
        w.u64(cur.value);
    }
}

/// Run-length encode `count` u64 values produced by `at(i)` (memories are
/// mostly uniform: an 8 MiB zero-filled 4-state image collapses to a few
/// bytes).
template <typename At>
void snap_rle_u64(SnapWriter& w, std::size_t count, At at) {
    snap_rle_u64_runs(w, count, [&at, count](std::size_t i) {
        const std::uint64_t v = at(i);
        std::size_t run = 1;
        while (i + run < count && at(i + run) == v) ++run;
        return SnapRun{run, v};
    });
}

/// Run-aware decode: delivers each (start, run, value) group once via
/// `set_run(i, run, v)`; false on malformed input. Bulk targets (memories)
/// use this to fill a whole run in one operation instead of paying a call
/// per word — restore cost then scales with the number of runs, not the
/// number of words.
template <typename SetRun>
[[nodiscard]] bool snap_unrle_u64_runs(SnapReader& r, std::size_t count,
                                       SetRun set_run) {
    if (r.u64() != count) return false;
    std::size_t i = 0;
    while (i < count && r.ok_so_far()) {
        const std::uint64_t run = r.u64();
        const std::uint64_t v = r.u64();
        if (run == 0 || i + run > count) return false;
        set_run(i, run, v);
        i += run;
    }
    return i == count && r.ok_so_far();
}

/// Decode exactly `count` values, delivering each via `set(i, v)`; false on
/// malformed input.
template <typename Set>
[[nodiscard]] bool snap_unrle_u64(SnapReader& r, std::size_t count, Set set) {
    return snap_unrle_u64_runs(
        r, count, [&set](std::size_t i, std::uint64_t run, std::uint64_t v) {
            for (std::uint64_t k = 0; k < run; ++k) set(i + k, v);
        });
}

/// FNV-1a 64 over a byte/string range — the identity hash used for
/// per-signal names and the checkpoint config hash.
[[nodiscard]] constexpr std::uint64_t snap_hash64(
    std::string_view s, std::uint64_t h = 0xCBF2'9CE4'8422'2325ull) noexcept {
    for (char c : s) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 0x0000'0100'0000'01B3ull;
    }
    return h;
}

/// Fold a 64-bit value into an FNV-1a hash (big-endian byte order, so the
/// result matches hashing the serialized field).
[[nodiscard]] constexpr std::uint64_t snap_hash64_u64(
    std::uint64_t v, std::uint64_t h) noexcept {
    for (int i = 7; i >= 0; --i) {
        h ^= static_cast<std::uint8_t>(v >> (8 * i));
        h *= 0x0000'0100'0000'01B3ull;
    }
    return h;
}

}  // namespace rtlsim
