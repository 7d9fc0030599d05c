// Common machinery of the reconfigurable video engines.
//
// An engine is an RrModuleIf living in the reconfigurable region. Its pins
// (a private PlbMasterPort bundle plus the done-interrupt line) are muxed
// onto the region boundary by the Extended Portal (ReSim) or the
// Engine_Wrapper (Virtual Multiplexing). Control and status flow through an
// EngineRegs block in the static region: the engine samples one-cycle
// start/reset pulses, so commands issued while the engine is swapped out or
// mid-reconfiguration are physically lost (the bug.dpr.6b mechanism).
#pragma once

#include <cstdint>
#include <string>

#include "bus/plb.hpp"
#include "engine_regs.hpp"
#include "kernel/kernel.hpp"
#include "recon/rr_module.hpp"
#include "recon/state.hpp"

namespace autovision {

class EngineBase : public rtlsim::Module, public RrModuleIf {
public:
    /// Engine-side pins; the region mux connects them to the bus.
    PlbMasterPort pins;
    /// One-cycle completion pulse towards the interrupt controller.
    rtlsim::Signal<rtlsim::Logic> done_irq;
    /// Streaming datapath tap: per-pixel engines (CIE) toggle this every
    /// compute cycle, block engines (ME) only per result. It reproduces the
    /// signal-activity asymmetry behind Table II's elapsed-time inversion.
    rtlsim::Signal<rtlsim::LVec<8>> stream_out;

    EngineBase(rtlsim::Scheduler& sch, const std::string& name,
               rtlsim::Signal<rtlsim::Logic>& clk,
               rtlsim::Signal<rtlsim::Logic>& rst, EngineRegs& regs,
               unsigned burst_limit = 16);

    // --- RrModuleIf -----------------------------------------------------
    void rm_activate() override;
    void rm_deactivate() override;
    [[nodiscard]] bool rm_active() const override { return active_; }

    /// State capture (GCAPTURE): refuses while a DMA transaction is in
    /// flight — the module must be quiesced before readback, a design rule
    /// the portal checks.
    [[nodiscard]] std::vector<std::uint8_t> rm_save_state() override;
    [[nodiscard]] bool rm_restore_state(
        std::span<const std::uint8_t> state) override;

    [[nodiscard]] bool busy() const { return running_; }
    [[nodiscard]] std::uint64_t jobs_completed() const { return jobs_; }
    [[nodiscard]] std::uint64_t busy_cycles() const { return busy_cycles_; }

    // --- checkpoint ------------------------------------------------------
    /// Full-fidelity snapshot: residency/job bookkeeping + DMA FSM +
    /// derived datapath, legal mid-burst (unlike rm_save_state, which
    /// refuses while the DMA is in flight). The derived class re-arms the
    /// DMA data closures from its restored phase flags.
    void ckpt_save(rtlsim::SnapWriter& w) const;
    [[nodiscard]] bool ckpt_restore(rtlsim::SnapReader& r);

protected:
    /// Latch configuration from the registers; return false on a bad
    /// configuration (reported by the base).
    virtual bool begin_job() = 0;

    /// Advance the datapath by one clock; return true when the job is done.
    virtual bool work_cycle() = 0;

    /// Reset job-level state to the post-configuration initial state.
    virtual void reset_job() = 0;

    /// Serialize / reinstate the derived datapath state (DMA is known
    /// idle). restore_job_state returns false on a malformed image.
    virtual void save_job_state(StateWriter& w) const = 0;
    virtual bool restore_job_state(StateReader& r) = 0;

    /// Checkpoint the derived datapath including mid-DMA descriptors;
    /// ckpt_restore_job must re-install the DMA closures (via
    /// dma_.ckpt_rearm) when a burst was open at save time.
    virtual void ckpt_save_job(rtlsim::SnapWriter& w) const = 0;
    [[nodiscard]] virtual bool ckpt_restore_job(rtlsim::SnapReader& r) = 0;

    /// Capped diagnostic for X encountered in input data.
    void report_x_input();

    EngineRegs& regs_;
    DmaMaster dma_;

private:
    void on_clock();

    rtlsim::Process* datapath_ = nullptr;
    bool active_ = false;
    bool running_ = false;
    std::uint64_t jobs_ = 0;
    std::uint64_t busy_cycles_ = 0;
    unsigned x_reports_ = 0;
};

}  // namespace autovision
