#include "intc.hpp"

#include <cassert>

namespace autovision {

using rtlsim::is1;
using rtlsim::is_unknown;

Intc::Intc(Scheduler& sch, const std::string& name, Signal<Logic>& clk,
           Signal<Logic>& rst, std::uint32_t dcr_base)
    : Module(sch, name),
      irq(sch, full_name() + ".irq", Logic::L0),
      clk_(clk),
      rst_(rst),
      base_(dcr_base) {
    prev_.fill(Logic::L0);
    capture_ = &sync_proc("capture", [this] { on_clock(); },
                          {rtlsim::posedge(clk_), rtlsim::wake_on(rst_)});
}

unsigned Intc::attach(Signal<Logic>& line) {
    assert(lines_.size() < kMaxLines);
    lines_.push_back(&line);
    line.add_listener(*capture_, rtlsim::Edge::Wake);
    return static_cast<unsigned>(lines_.size() - 1);
}

void Intc::on_clock() {
    if (is1(rst_.read())) {
        isr_ = LVec<kMaxLines>{0};
        prev_.fill(Logic::L0);
        irq.write(Logic::L0);
        irq_prev_ = false;
        return;
    }

    bool any_x = false;
    for (unsigned i = 0; i < lines_.size(); ++i) {
        const Logic cur = lines_[i]->read();
        if (is_unknown(cur)) {
            any_x = true;
            // Corruption (typically an unisolated RR driving the done line)
            // poisons the status bit; report the first few occurrences.
            isr_.set_bit(i, Logic::X);
            if (x_reports_ < 5) {
                ++x_reports_;
                report("X on interrupt input " + std::to_string(i));
            }
        } else if (edge_capture_) {
            if (is1(cur) && !is1(prev_[i])) isr_.set_bit(i, Logic::L1);
        } else {
            // Level capture: status mirrors the (possibly one-cycle) input.
            // This is the misconfiguration of bug.hw.3 — pulses are lost
            // unless the CPU happens to sample during the pulse.
            isr_.set_bit(i, cur);
        }
        prev_[i] = cur;
    }

    const Logic level = (isr_ & ier_).reduce_or();
    irq.write(level);
    const bool asserted = is1(level);
    if (obs_ != nullptr && asserted && !irq_prev_) {
        obs_->record(sch_.now(), obs::EventKind::kIrqRaise,
                     obs::Source::kIntc,
                     static_cast<std::uint32_t>(isr_.val_plane()));
    }
    irq_prev_ = asserted;
    // Every input is now latched in prev_ and irq drives its level, so with
    // defined inputs the next edge repeats this one exactly; an input
    // change, a register write or reset reopens the gate.
    if (!any_x) capture_->gate();
}

bool Intc::dcr_claims(std::uint32_t regno) const {
    return regno >= base_ && regno < base_ + 4;
}

Word Intc::dcr_read(std::uint32_t regno) {
    switch (regno - base_) {
        case kIsr: return Word::from_planes(isr_.val_plane(), isr_.unk_plane());
        case kIer: return Word::from_planes(ier_.val_plane(), ier_.unk_plane());
        case kCtrl: return Word{edge_capture_ ? 1u : 0u};
        default: return Word{0};
    }
}

void Intc::dcr_write(std::uint32_t regno, Word w) {
    capture_->wake();
    switch (regno - base_) {
        case kIsr:
            // Testbench hook: software-settable status bits (as on XPS INTC).
            isr_ = isr_ | LVec<kMaxLines>::from_planes(w.val_plane(),
                                                       w.unk_plane());
            break;
        case kIer:
            ier_ = LVec<kMaxLines>::from_planes(w.val_plane(), w.unk_plane());
            break;
        case kIar:
            if (w.is_fully_defined()) {
                // Clear acknowledged bits, including poisoned ones.
                const auto ack = static_cast<std::uint8_t>(w.to_u64());
                isr_ = LVec<kMaxLines>::from_planes(
                    isr_.val_plane() & ~ack, isr_.unk_plane() & ~ack);
                if (obs_ != nullptr && ack != 0) {
                    obs_->record(sch_.now(), obs::EventKind::kIrqAck,
                                 obs::Source::kIntc, ack);
                }
            }
            break;
        case kCtrl:
            if (w.is_fully_defined()) edge_capture_ = (w.to_u64() & 1u) != 0;
            break;
        default: break;
    }
}

}  // namespace autovision
