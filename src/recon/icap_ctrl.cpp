#include "icap_ctrl.hpp"

#include <algorithm>

namespace autovision {

using rtlsim::Logic;
using rtlsim::Word;
using rtlsim::is1;

IcapCtrl::IcapCtrl(rtlsim::Scheduler& sch, const std::string& name,
                   rtlsim::Signal<Logic>& clk, rtlsim::Signal<Logic>& rst,
                   PlbMasterPort& port, IcapPortIf& icap, Config cfg)
    : Module(sch, name),
      done_irq(sch, full_name() + ".done_irq", Logic::L0),
      cfg_(cfg),
      rst_(rst),
      // In point-to-point mode the IP issues the whole transfer as a single
      // burst (limit 0); in shared mode bursts are issued manually with FIFO
      // backpressure, so the helper's own splitting is disabled too.
      dma_(port, 0),
      icap_(icap) {
    fsm_ = &sync_proc("fsm", [this] { on_clock(); },
                      {rtlsim::posedge(clk), rtlsim::wake_on(rst)});
}

Word IcapCtrl::dcr_read(std::uint32_t regno) {
    switch (regno - cfg_.dcr_base) {
        case kStatus:
            return Word{(busy_ ? 1u : 0u) | (done_ ? 2u : 0u) |
                        (error_ ? 4u : 0u)};
        case kAddr: return Word{addr_reg_};
        case kSize: return Word{size_reg_};
        default: return Word{0};
    }
}

void IcapCtrl::dcr_write(std::uint32_t regno, Word w) {
    fsm_->wake();
    if (w.has_unknown()) {
        report("X written to register " +
               std::to_string(regno - cfg_.dcr_base));
        return;
    }
    const auto v = static_cast<std::uint32_t>(w.to_u64());
    switch (regno - cfg_.dcr_base) {
        case kCtrl:
            if (v & 1u) pend_start_ = true;
            if (v & 2u) pend_abort_ = true;
            break;
        case kStatus:
            if (v & 2u) done_ = false;  // W1C
            break;
        case kAddr: addr_reg_ = v; break;
        case kSize: size_reg_ = v; break;
        default: break;
    }
}

void IcapCtrl::start_transfer() {
    total_words_ = cfg_.size_in_bytes ? size_reg_ / 4 : size_reg_;
    fetch_addr_ = addr_reg_;
    fetched_ = 0;
    drained_this_xfer_ = 0;
    div_cnt_ = 0;
    fifo_.clear();
    busy_ = total_words_ != 0;
    error_ = false;
    if (total_words_ == 0) {
        report("started with zero transfer size");
        done_ = true;
    }
}

void IcapCtrl::maybe_issue_burst() {
    if (dma_.busy() || fetched_ >= total_words_) return;

    const std::uint32_t remaining = total_words_ - fetched_;
    std::uint32_t burst;
    if (cfg_.p2p_mode) {
        // Original IP habit: one burst for everything, no FIFO check —
        // correct on a dedicated link, silently truncated on a shared bus.
        burst = remaining;
    } else {
        burst = std::min<std::uint32_t>(cfg_.burst_words, remaining);
        if (fifo_.size() + burst > cfg_.fifo_depth) return;  // backpressure
    }

    inflight_burst_ = burst;
    dma_.start_read(
        fetch_addr_, burst, [this](std::uint32_t, Word w) { fifo_push(w); },
        [this] { finish_burst(); });
}

void IcapCtrl::fifo_push(Word w) {
    if (fifo_.size() >= cfg_.fifo_depth) {
        ++overflows_;
        if (overflow_reports_ < 5) {
            ++overflow_reports_;
            report("FIFO overflow: bitstream word dropped");
        }
        return;  // word lost — the SimB will arrive truncated
    }
    fifo_.push_back(w);
}

void IcapCtrl::finish_burst() {
    fetched_ += inflight_burst_;
    fetch_addr_ += 4 * inflight_burst_;
}

void IcapCtrl::ckpt_save(rtlsim::SnapWriter& w) const {
    dma_.ckpt_save(w);
    w.u32(addr_reg_);
    w.u32(size_reg_);
    w.bool8(pend_start_);
    w.bool8(pend_abort_);
    w.bool8(busy_);
    w.bool8(done_);
    w.bool8(error_);
    w.u32(total_words_);
    w.u32(fetch_addr_);
    w.u32(fetched_);
    w.u32(inflight_burst_);
    w.u64(drained_);
    w.u32(drained_this_xfer_);
    w.u32(div_cnt_);
    w.u32(static_cast<std::uint32_t>(fifo_.size()));
    for (const Word& f : fifo_) {
        w.u64((static_cast<std::uint64_t>(f.val_plane()) << 32) |
              f.unk_plane());
    }
    w.u64(overflows_);
    w.u32(overflow_reports_);
}

bool IcapCtrl::ckpt_restore(rtlsim::SnapReader& r) {
    if (!dma_.ckpt_restore(r)) return false;
    addr_reg_ = r.u32();
    size_reg_ = r.u32();
    pend_start_ = r.bool8();
    pend_abort_ = r.bool8();
    busy_ = r.bool8();
    done_ = r.bool8();
    error_ = r.bool8();
    total_words_ = r.u32();
    fetch_addr_ = r.u32();
    fetched_ = r.u32();
    inflight_burst_ = r.u32();
    drained_ = r.u64();
    drained_this_xfer_ = r.u32();
    div_cnt_ = r.u32();
    const std::uint32_t n = r.u32();
    fifo_.clear();
    for (std::uint32_t i = 0; i < n && r.ok_so_far(); ++i) {
        const std::uint64_t planes = r.u64();
        fifo_.push_back(Word::from_planes(planes >> 32,
                                          planes & 0xFFFF'FFFFull));
    }
    overflows_ = r.u64();
    overflow_reports_ = r.u32();
    // Re-arm the DMA data closures (identical to the cold-start lambdas).
    dma_.ckpt_rearm([this](std::uint32_t, Word w) { fifo_push(w); }, {},
                    [this] { finish_burst(); });
    return r.ok_so_far();
}

void IcapCtrl::on_clock() {
    if (is1(rst_.read())) {
        busy_ = false;
        done_ = false;
        error_ = false;
        fifo_.clear();
        dma_.reset();
        pend_start_ = false;
        pend_abort_ = false;
        done_irq.write(Logic::L0);
        return;
    }

    done_irq.write(Logic::L0);
    dma_.step();

    if (pend_abort_) {
        pend_abort_ = false;
        busy_ = false;
        fifo_.clear();
        dma_.reset();
    }
    if (pend_start_) {
        pend_start_ = false;
        if (busy_) {
            report("start while busy ignored");
        } else {
            start_transfer();
        }
    }
    if (!busy_) {
        // done_irq was just driven low and nothing is pending: idle until
        // a register write (start/abort) or reset.
        if (!dma_.busy()) fsm_->gate();
        return;
    }

    maybe_issue_burst();

    // Drain one word to the ICAP every clk_div cycles (the configuration
    // clock is slower than the bus clock in the modified design).
    if (++div_cnt_ >= cfg_.clk_div) {
        div_cnt_ = 0;
        if (!fifo_.empty()) {
            icap_.icap_write(fifo_.front());
            fifo_.pop_front();
            ++drained_;
            ++drained_this_xfer_;
            if (drained_this_xfer_ == total_words_) {
                busy_ = false;
                done_ = true;
                done_irq.write(Logic::L1);
            }
        }
    }

    if (dma_.failed()) {
        error_ = true;
        busy_ = false;
        report("bus error during bitstream fetch");
    }
}

}  // namespace autovision
