// IcapCTRL — the reconfiguration controller.
//
// A DCR-programmed DMA master that fetches a bitstream from main memory
// over the PLB and streams it into the ICAP port through a small FIFO at
// the configuration-clock rate. This is the block whose re-integration the
// case study verifies; its parameters encode the Table III bugs:
//
//   * `p2p_mode` — the original IP drove a dedicated NPI link and issued
//     the whole transfer as one burst. On a shared PLB with a bounded burst
//     length the transfer silently truncates (bug.dpr.4). The fixed IP
//     splits into bus-sized bursts with FIFO backpressure.
//   * `size_in_bytes` — the fixed IP counts the SIZE register in bytes; the
//     original counted words. A driver not updated for the change transfers
//     a quarter of the bitstream (bug.dpr.5).
//   * `clk_div` — the modified clocking scheme writes ICAP once every
//     `clk_div` bus cycles. Software that waits a fixed delay tuned for the
//     original faster configuration clock resets the engines before the
//     transfer completes (bug.dpr.6b).
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "bus/dcr.hpp"
#include "bus/plb.hpp"
#include "icap_port.hpp"
#include "kernel/kernel.hpp"

namespace autovision {

class IcapCtrl final : public rtlsim::Module, public DcrSlaveIf {
public:
    /// DCR register offsets from `dcr_base`.
    enum Reg : std::uint32_t {
        kCtrl = 0,    ///< bit0: start (self-clearing), bit1: abort
        kStatus = 1,  ///< bit0: busy, bit1: done (W1C), bit2: error
        kAddr = 2,    ///< bitstream byte address in memory
        kSize = 3,    ///< transfer size (unit per `size_in_bytes`)
        kCount = 4,
    };

    struct Config {
        std::uint32_t dcr_base = 0x50;
        bool size_in_bytes = true;  ///< false = original word-count IP
        bool p2p_mode = false;      ///< true = original point-to-point IP
        unsigned burst_words = 16;  ///< per-burst beats in shared mode
        unsigned fifo_depth = 32;
        unsigned clk_div = 4;       ///< ICAP write every clk_div cycles
    };

    IcapCtrl(rtlsim::Scheduler& sch, const std::string& name,
             rtlsim::Signal<rtlsim::Logic>& clk,
             rtlsim::Signal<rtlsim::Logic>& rst, PlbMasterPort& port,
             IcapPortIf& icap, Config cfg);

    /// One-cycle pulse when the full transfer has reached the ICAP.
    rtlsim::Signal<rtlsim::Logic> done_irq;

    [[nodiscard]] bool busy() const { return busy_; }
    [[nodiscard]] std::uint64_t words_to_icap() const { return drained_; }
    [[nodiscard]] std::uint64_t fifo_overflows() const { return overflows_; }
    [[nodiscard]] const Config& config() const { return cfg_; }

    // --- DcrSlaveIf -------------------------------------------------------
    [[nodiscard]] bool dcr_claims(std::uint32_t regno) const override {
        return regno >= cfg_.dcr_base && regno < cfg_.dcr_base + kCount;
    }
    [[nodiscard]] rtlsim::Word dcr_read(std::uint32_t regno) override;
    void dcr_write(std::uint32_t regno, rtlsim::Word w) override;
    [[nodiscard]] std::string dcr_name() const override { return full_name(); }

    // --- checkpoint ------------------------------------------------------
    void ckpt_save(rtlsim::SnapWriter& w) const;
    [[nodiscard]] bool ckpt_restore(rtlsim::SnapReader& r);

private:
    void on_clock();
    void start_transfer();
    void maybe_issue_burst();
    void fifo_push(rtlsim::Word w);
    void finish_burst();

    Config cfg_;
    rtlsim::Signal<rtlsim::Logic>& rst_;
    rtlsim::Process* fsm_ = nullptr;
    DmaMaster dma_;
    IcapPortIf& icap_;

    std::uint32_t addr_reg_ = 0;
    std::uint32_t size_reg_ = 0;
    bool pend_start_ = false;
    bool pend_abort_ = false;

    bool busy_ = false;
    bool done_ = false;
    bool error_ = false;
    std::uint32_t total_words_ = 0;
    std::uint32_t fetch_addr_ = 0;
    std::uint32_t fetched_ = 0;
    std::uint32_t inflight_burst_ = 0;  ///< beats of the open DMA burst
    std::uint64_t drained_ = 0;
    std::uint32_t drained_this_xfer_ = 0;
    unsigned div_cnt_ = 0;
    std::deque<rtlsim::Word> fifo_;
    std::uint64_t overflows_ = 0;
    unsigned overflow_reports_ = 0;
};

}  // namespace autovision
