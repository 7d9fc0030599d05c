#include "engine.hpp"

namespace autovision {

using rtlsim::Logic;
using rtlsim::is1;

EngineBase::EngineBase(rtlsim::Scheduler& sch, const std::string& name,
                       rtlsim::Signal<Logic>& clk, rtlsim::Signal<Logic>& rst,
                       EngineRegs& regs, unsigned burst_limit)
    : Module(sch, name),
      pins(sch, full_name() + ".pins"),
      done_irq(sch, full_name() + ".done_irq", Logic::L0),
      stream_out(sch, full_name() + ".stream", rtlsim::LVec<8>{0}),
      regs_(regs),
      dma_(pins, burst_limit) {
    datapath_ = &sync_proc("datapath", [this] { on_clock(); },
                           {rtlsim::posedge(clk),
                            rtlsim::wake_on(regs_.start_pulse),
                            rtlsim::wake_on(regs_.reset_pulse)});
    (void)rst;  // engines use the soft reset pulse; hard reset comes via
                // rm_activate (post-configuration state)
}

void EngineBase::rm_activate() {
    datapath_->wake();
    active_ = true;
    running_ = false;
    dma_.reset();
    reset_job();
    pins.idle();
    done_irq.write(Logic::L0);
}

void EngineBase::rm_deactivate() {
    active_ = false;
    running_ = false;
    dma_.reset();
    pins.idle();
    done_irq.write(Logic::L0);
}

std::vector<std::uint8_t> EngineBase::rm_save_state() {
    if (dma_.busy()) {
        report("state capture refused: DMA transaction in flight"
               " (module not quiescent)");
        return {};
    }
    StateWriter w;
    w.u32(0x5AFE'57A7);  // image magic
    w.bool8(running_);
    save_job_state(w);
    return w.take();
}

bool EngineBase::rm_restore_state(std::span<const std::uint8_t> state) {
    datapath_->wake();
    StateReader r(state);
    if (r.u32() != 0x5AFE'57A7) return false;
    const bool running = r.bool8();
    if (!restore_job_state(r) || !r.ok()) {
        // Reject atomically: come up in the initial state instead.
        reset_job();
        running_ = false;
        return false;
    }
    running_ = running;
    regs_.set_busy(running_);
    return true;
}

void EngineBase::ckpt_save(rtlsim::SnapWriter& w) const {
    dma_.ckpt_save(w);
    w.bool8(active_);
    w.bool8(running_);
    w.u64(jobs_);
    w.u64(busy_cycles_);
    w.u32(x_reports_);
    ckpt_save_job(w);
}

bool EngineBase::ckpt_restore(rtlsim::SnapReader& r) {
    if (!dma_.ckpt_restore(r)) return false;
    active_ = r.bool8();
    running_ = r.bool8();
    jobs_ = r.u64();
    busy_cycles_ = r.u64();
    x_reports_ = r.u32();
    return ckpt_restore_job(r) && r.ok_so_far();
}

void EngineBase::report_x_input() {
    if (x_reports_ < 5) {
        ++x_reports_;
        report("X in input data stream");
    }
}

void EngineBase::on_clock() {
    if (!active_) {
        // Swapped out: flip-flops are not even configured. Idle until
        // rm_activate.
        datapath_->gate();
        return;
    }

    dma_.step();
    done_irq.write(Logic::L0);

    if (is1(regs_.reset_pulse.read())) {
        running_ = false;
        dma_.reset();
        reset_job();
        regs_.set_busy(false);
        return;
    }

    if (!running_) {
        if (is1(regs_.start_pulse.read())) {
            if (begin_job()) {
                running_ = true;
                regs_.set_busy(true);
            } else {
                report("rejected start: bad configuration");
            }
        } else if (!dma_.busy()) {
            // done_irq driven low, no pulse: idle until a start/reset
            // pulse edge or rm_activate.
            datapath_->gate();
        }
        return;
    }

    ++busy_cycles_;
    if (work_cycle()) {
        running_ = false;
        ++jobs_;
        regs_.set_done();
        done_irq.write(Logic::L1);
    }
}

}  // namespace autovision
