// Interrupt controller (DCR slave).
//
// Modelled on the Xilinx XPS INTC programming model, reduced to what the
// demonstrator's ISR-driven processing flow needs: a latching status
// register, an enable mask, write-one-to-acknowledge, and a per-controller
// edge/level capture mode. The capture mode is the handle for bug.hw.3:
// engines pulse their done lines for a single cycle, which *edge* capture
// latches but *level* capture loses whenever the CPU is stalled on the bus.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "dcr.hpp"
#include "kernel/kernel.hpp"

namespace autovision {

using rtlsim::LVec;

class Intc final : public Module, public DcrSlaveIf {
public:
    static constexpr unsigned kMaxLines = 8;

    /// DCR register offsets from `base`.
    enum Reg : std::uint32_t {
        kIsr = 0,   ///< interrupt status (read); write = set bits (test hook)
        kIer = 1,   ///< interrupt enable mask
        kIar = 2,   ///< write 1s to acknowledge/clear status bits
        kCtrl = 3,  ///< bit0: 1 = edge capture (correct), 0 = level capture
    };

    Intc(Scheduler& sch, const std::string& name, Signal<Logic>& clk,
         Signal<Logic>& rst, std::uint32_t dcr_base);

    /// Connect the next interrupt input; returns the line index.
    unsigned attach(Signal<Logic>& line);

    /// Level-sensitive interrupt request to the CPU: 1 while any enabled
    /// status bit is set; X if corruption reached the controller.
    Signal<Logic> irq;

    // --- DcrSlaveIf ------------------------------------------------------
    [[nodiscard]] bool dcr_claims(std::uint32_t regno) const override;
    [[nodiscard]] Word dcr_read(std::uint32_t regno) override;
    void dcr_write(std::uint32_t regno, Word w) override;
    [[nodiscard]] std::string dcr_name() const override { return full_name(); }

    /// Attach (or detach, with nullptr) the structured event recorder.
    void set_observer(obs::EventRecorder* rec) { obs_ = rec; }

    // --- checkpoint ------------------------------------------------------
    void ckpt_save(rtlsim::SnapWriter& w) const {
        w.bool8(irq_prev_);
        for (Logic l : prev_) w.u8(static_cast<std::uint8_t>(l));
        w.u64(isr_.val_plane());
        w.u64(isr_.unk_plane());
        w.u64(ier_.val_plane());
        w.u64(ier_.unk_plane());
        w.bool8(edge_capture_);
        w.u32(x_reports_);
    }
    [[nodiscard]] bool ckpt_restore(rtlsim::SnapReader& r) {
        irq_prev_ = r.bool8();
        for (Logic& l : prev_) l = static_cast<Logic>(r.u8());
        const std::uint64_t iv = r.u64();
        const std::uint64_t iu = r.u64();
        isr_ = LVec<kMaxLines>::from_planes(iv, iu);
        const std::uint64_t ev = r.u64();
        const std::uint64_t eu = r.u64();
        ier_ = LVec<kMaxLines>::from_planes(ev, eu);
        edge_capture_ = r.bool8();
        x_reports_ = r.u32();
        return r.ok_so_far();
    }

private:
    void on_clock();

    obs::EventRecorder* obs_ = nullptr;
    bool irq_prev_ = false;
    Signal<Logic>& clk_;
    Signal<Logic>& rst_;
    rtlsim::Process* capture_ = nullptr;
    std::uint32_t base_;
    std::vector<Signal<Logic>*> lines_;
    std::array<Logic, kMaxLines> prev_{};

    LVec<kMaxLines> isr_{0};
    LVec<kMaxLines> ier_{0};
    bool edge_capture_ = true;
    unsigned x_reports_ = 0;
};

}  // namespace autovision
