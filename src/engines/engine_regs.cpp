#include "engine_regs.hpp"

namespace autovision {

using rtlsim::Logic;
using rtlsim::Word;

EngineRegs::EngineRegs(rtlsim::Scheduler& sch, const std::string& name,
                       rtlsim::Signal<Logic>& clk, std::uint32_t dcr_base)
    : Module(sch, name),
      start_pulse(sch, full_name() + ".start", Logic::L0),
      reset_pulse(sch, full_name() + ".reset", Logic::L0),
      base_(dcr_base) {
    pulse_gen_ = &sync_proc("pulse_gen", [this] { on_clock(); },
                            {rtlsim::posedge(clk)});
}

void EngineRegs::on_clock() {
    // Both pulses driven low with nothing pending: idle until a CTRL write.
    if (!pend_start_ && !pend_reset_) pulse_gen_->gate();
    start_pulse.write(pend_start_ ? Logic::L1 : Logic::L0);
    reset_pulse.write(pend_reset_ ? Logic::L1 : Logic::L0);
    pend_start_ = false;
    pend_reset_ = false;
}

Word EngineRegs::dcr_read(std::uint32_t regno) {
    const std::uint32_t r = regno - base_;
    if (r == kStatus) {
        return Word{(busy_ ? 1u : 0u) | (done_ ? 2u : 0u)};
    }
    if (r == kCtrl) return Word{0};  // write-only pulse bits
    return Word{regs_[r]};
}

void EngineRegs::dcr_write(std::uint32_t regno, Word w) {
    const std::uint32_t r = regno - base_;
    if (w.has_unknown()) {
        // A corrupted write (e.g. driver using an X status value) must not
        // silently land; report and drop it.
        report("X written to register " + std::to_string(r));
        return;
    }
    const auto v = static_cast<std::uint32_t>(w.to_u64());
    switch (r) {
        case kCtrl:
            if (v & 1u) pend_start_ = true;
            if (v & 2u) pend_reset_ = true;
            pulse_gen_->wake();
            break;
        case kStatus:
            if (v & 2u) done_ = false;  // W1C
            break;
        default:
            if (r < kCount) regs_[r] = v;
            break;
    }
}

}  // namespace autovision
