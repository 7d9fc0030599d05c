// rtlsim: clock and reset generators built on intrusive timed events.
//
// These are the highest-frequency event sources in any simulation — a clock
// toggles once per half-period for the whole run. Each generator embeds a
// reusable TimedEvent node and reschedules it from fire(), so a billion
// clock edges allocate exactly nothing (the old implementation built a
// fresh std::function closure per edge). A clock's node names its signal
// and half period, so the scheduler can run a toggle in place, without
// fire(), when nothing else is due (DESIGN.md "Kernel event path").
#pragma once

#include <string>

#include "module.hpp"

namespace rtlsim {

/// Free-running clock generator producing a Logic square wave. Toggling is
/// allocation-free: one intrusive event node is reused for every edge, and
/// stays at the front of the queue when the scheduler runs it in place.
class Clock final : public Module {
public:
    Signal<Logic> out;

    Clock(Scheduler& sch, std::string name, Time period, Time start = 0)
        : Module(sch, std::move(name)),
          out(sch, full_name() + ".out", Logic::L0),
          toggle_(*this, period / 2),
          half_(period / 2),
          origin_(start) {
        sch.schedule_event(start + half_, toggle_);
    }

    [[nodiscard]] Time period() const noexcept { return 2 * half_; }

    // --- checkpoint ------------------------------------------------------
    /// The embedded toggle event is always pending; its next absolute
    /// firing time is the whole clock state (the wave's phase is in the
    /// `out` signal, saved with every other signal). The pending flag, the
    /// origin and the two gating bytes of the retired clock parking are
    /// the constants every save writes (DESIGN.md §11).
    void ckpt_save(SnapWriter& w) const {
        w.u64(toggle_.time());
        w.bool8(true);
        w.u64(origin_);
        w.bool8(false);
        w.bool8(false);
    }
    /// Re-enter the toggle into the (drained) queue. The kernel section has
    /// restored `now`, and a save always finds the toggle at the wave's
    /// first edge after it, so anything else is refused: a toggle in the
    /// past or off the origin + k·half grid, a clock that is not pending,
    /// another origin, or a set gating byte.
    bool ckpt_restore(SnapReader& r) {
        const Time t = r.u64();
        const bool pending = r.bool8();
        const Time origin = r.u64();
        const std::uint8_t suspend_pending = r.u8();
        const std::uint8_t suspended = r.u8();
        if (!r.ok_so_far() || !pending || origin != origin_ ||
            suspend_pending != 0 || suspended != 0 ||
            t != first_edge_after(sch_.now())) {
            return false;
        }
        sch_.schedule_event(t, toggle_);
        return true;
    }

private:
    /// First edge strictly after `t`; edges sit at origin + k·half, k >= 1.
    [[nodiscard]] Time first_edge_after(Time t) const noexcept {
        if (t < origin_) return origin_ + half_;
        return origin_ + ((t - origin_) / half_ + 1) * half_;
    }

    /// Scheduler::toggle_in_place() does what fire() does, without popping
    /// the node, whenever nothing else is due; the two must stay in step.
    struct ToggleEvent final : TimedEvent {
        ToggleEvent(Clock& c, Time half) : TimedEvent(c.out, half), clk(c) {}
        void fire() override {
            const bool rising = !is1(clk.out.read());
            clk.out.write(rising ? Logic::L1 : Logic::L0);
            clk.sch_.schedule_event(clk.sch_.now() + clk.half_, *this);
        }
        Clock& clk;
    };

    ToggleEvent toggle_;
    Time half_;
    Time origin_;
};

/// Active-high reset generator: asserted from time 0, released at `hold`.
class ResetGen final : public Module {
public:
    Signal<Logic> out;

    ResetGen(Scheduler& sch, std::string name, Time hold)
        : Module(sch, std::move(name)),
          out(sch, full_name() + ".out", Logic::L1),
          release_(*this) {
        sch.schedule_event(hold, release_);
    }

    // --- checkpoint ------------------------------------------------------
    /// Pending only before the release fires; afterwards the generator is
    /// inert and restore leaves it out of the queue.
    void ckpt_save(SnapWriter& w) const {
        w.u64(release_.time());
        w.bool8(release_.pending());
    }
    /// A save finds the release pending at or after the restored `now`, or
    /// fired at or before it. Anything else is refused: a pending release
    /// in the past would replay it, a fired one in the future never comes.
    bool ckpt_restore(SnapReader& r) {
        const Time t = r.u64();
        const bool pending = r.bool8();
        if (!r.ok_so_far() || (pending ? t < sch_.now() : t > sch_.now())) {
            return false;
        }
        if (pending) sch_.schedule_event(t, release_);
        return true;
    }

private:
    struct ReleaseEvent final : TimedEvent {
        explicit ReleaseEvent(ResetGen& r) : rst(r) {}
        void fire() override { rst.out.write(Logic::L0); }
        ResetGen& rst;
    };

    ReleaseEvent release_;
};

}  // namespace rtlsim
