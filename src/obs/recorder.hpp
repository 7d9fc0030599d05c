// obs: low-overhead structured event recorder.
//
// A fixed-capacity ring buffer of fixed-size Event records. The hot-path
// contract mirrors the paper's ~0.3 % artifact-overhead budget:
//   * record() is a single branch when disabled — no allocation, no
//     formatting, no time lookup beyond what the caller already has;
//   * when enabled, recording is a handful of stores into storage reserved
//     at construction (the ring never grows);
//   * when the ring wraps, the oldest events are overwritten and counted
//     as dropped, so a runaway run cannot exhaust memory.
// Reserving the ring writes nothing: record() constructs each slot the
// first time the ring reaches it, and checkpoint restore writes only the
// surviving window. A recorder that sees a few hundred events touches a
// few pages of its 1.5 MiB default ring, however many recorders a process
// builds.
//
// Emitting modules hold a nullable `EventRecorder*` (null when the system
// was built without observability); the recorder's own enabled flag is the
// second, belt-and-braces gate so a testbench can pause recording without
// re-wiring every module.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "event.hpp"
#include "kernel/snapshot.hpp"

namespace autovision::obs {

class EventRecorder {
public:
    static constexpr std::size_t kDefaultCapacity = 1u << 16;

    explicit EventRecorder(std::size_t capacity = kDefaultCapacity)
        : ring_(std::allocator<Event>{}.allocate(capacity)), cap_(capacity) {}
    ~EventRecorder() { std::allocator<Event>{}.deallocate(ring_, cap_); }

    EventRecorder(const EventRecorder&) = delete;
    EventRecorder& operator=(const EventRecorder&) = delete;

    /// Enabling a zero-capacity recorder is a no-op (stays disabled).
    void set_enabled(bool on) noexcept { enabled_ = on && cap_ != 0; }
    [[nodiscard]] bool enabled() const noexcept { return enabled_; }

    /// Hot path. Disabled: one predictable branch, nothing else.
    void record(rtlsim::Time t, EventKind k, Source s, std::uint32_t a = 0,
                std::uint64_t b = 0, std::uint8_t region = 0) noexcept {
        if (!enabled_) return;
        ::new (slot(total_)) Event{t, k, s, region, a, b};
        ++total_;
    }

    /// Events ever recorded, including those the ring has since overwritten.
    [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
    /// Events currently held (<= capacity).
    [[nodiscard]] std::size_t size() const noexcept {
        return static_cast<std::size_t>(std::min<std::uint64_t>(total_, cap_));
    }
    [[nodiscard]] std::uint64_t dropped() const noexcept {
        return total_ > cap_ ? total_ - cap_ : 0;
    }
    [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }

    void clear() noexcept { total_ = 0; }

    /// Surviving events in chronological order (oldest survivor first).
    [[nodiscard]] std::vector<Event> snapshot() const {
        std::vector<Event> out;
        out.reserve(size());
        for (std::uint64_t i = total_ - size(); i < total_; ++i) {
            out.push_back(*slot(i));
        }
        return out;
    }

    // --- checkpoint ------------------------------------------------------
    /// Surviving window + counters; capacity is construction configuration
    /// and must match. Overwritten (dropped) slots are not serialized —
    /// exports only ever read the surviving window, so a restored trace is
    /// byte-identical to the uninterrupted one.
    void ckpt_save(rtlsim::SnapWriter& w) const {
        w.u64(cap_);
        w.u64(total_);
        w.bool8(enabled_);
        w.u64(size());
        for (std::uint64_t i = total_ - size(); i < total_; ++i) {
            const Event& e = *slot(i);
            w.u64(e.time);
            w.u8(static_cast<std::uint8_t>(e.kind));
            w.u8(static_cast<std::uint8_t>(e.src));
            w.u8(e.region);
            w.u32(e.a);
            w.u64(e.b);
        }
    }
    /// Writes only the surviving window; the slots outside it keep what
    /// they held, which nothing reads. A saved blob always holds exactly
    /// min(total, capacity) events, each of a real kind and source, so
    /// anything else is refused. A refused restore leaves the recorder
    /// empty and disabled, never with a window over unwritten slots.
    [[nodiscard]] bool ckpt_restore(rtlsim::SnapReader& r) {
        total_ = 0;
        enabled_ = false;
        if (r.u64() != cap_) return false;
        const std::uint64_t total = r.u64();
        const bool enabled = r.bool8();
        const std::uint64_t n = std::min<std::uint64_t>(total, cap_);
        if (r.u64() != n) return false;
        for (std::uint64_t i = total - n; i < total; ++i) {
            const rtlsim::Time t = r.u64();
            const std::uint8_t k = r.u8();
            const std::uint8_t s = r.u8();
            const std::uint8_t region = r.u8();
            const std::uint32_t a = r.u32();
            const std::uint64_t b = r.u64();
            if (!r.ok_so_far() ||
                k >= static_cast<std::uint8_t>(EventKind::kCount) ||
                s >= static_cast<std::uint8_t>(Source::kCount)) {
                return false;
            }
            ::new (slot(i)) Event{t, static_cast<EventKind>(k),
                                  static_cast<Source>(s), region, a, b};
        }
        if (!r.ok_so_far()) return false;
        total_ = total;
        enabled_ = enabled && cap_ != 0;
        return true;
    }

private:
    /// The slot the i-th recorded event (0-based, over the whole run)
    /// lands in. Only call with a nonzero capacity.
    [[nodiscard]] Event* slot(std::uint64_t i) const noexcept {
        return ring_ + i % cap_;
    }

    /// Raw storage for cap_ events; a slot holds an Event once record()
    /// or ckpt_restore() has constructed one there.
    Event* ring_;
    std::size_t cap_;
    std::uint64_t total_ = 0;
    bool enabled_ = false;
};

}  // namespace autovision::obs
