// Device Control Register (DCR) bus model.
//
// The DCR bus of the PowerPC/CoreConnect architecture is a daisy chain: the
// command/data token passes through every slave in ring order, one node per
// cycle. This topology is load-bearing for the case study: if a slave's DCR
// registers sit *inside* the reconfigurable region, the X values injected
// during reconfiguration corrupt the token at that node and everything
// downstream — the paper's motivation for moving the engines' DCR registers
// out of the RR, and our detection mechanism for bug.dpr.2.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "kernel/kernel.hpp"
#include "obs/recorder.hpp"

namespace autovision {

using rtlsim::Logic;
using rtlsim::Module;
using rtlsim::Scheduler;
using rtlsim::Signal;
using rtlsim::Word;

/// A slave node on the DCR ring.
class DcrSlaveIf {
public:
    virtual ~DcrSlaveIf() = default;

    /// True when this node decodes the 10-bit DCR register number.
    [[nodiscard]] virtual bool dcr_claims(std::uint32_t regno) const = 0;
    [[nodiscard]] virtual Word dcr_read(std::uint32_t regno) = 0;
    virtual void dcr_write(std::uint32_t regno, Word w) = 0;
    [[nodiscard]] virtual std::string dcr_name() const = 0;

    /// True while the node's flip-flops are being overwritten by a partial
    /// reconfiguration (i.e. the node was left inside the RR). A corrupted
    /// node turns the passing token to X.
    [[nodiscard]] virtual bool dcr_corrupted() const { return false; }
};

/// The ring master (the CPU's DCR interface) plus the chain itself.
///
/// mfdcr/mtdcr on a real PPC405 stall the pipeline until the token returns;
/// the ISS calls start_read/start_write and spins on busy().
class DcrChain final : public Module {
public:
    DcrChain(Scheduler& sch, const std::string& name, Signal<Logic>& clk,
             Signal<Logic>& rst);

    /// Nodes are traversed in attach order.
    void attach(DcrSlaveIf& node) { nodes_.push_back(&node); }

    /// Issue a read of DCR register `regno`. `done(data)` fires when the
    /// token returns; data is all-X when the chain was corrupted or nobody
    /// claimed the register.
    void start_read(std::uint32_t regno, std::function<void(Word)> done);

    /// Issue a write. `done` fires when the token returns.
    void start_write(std::uint32_t regno, Word data,
                     std::function<void()> done = {});

    [[nodiscard]] bool busy() const { return busy_; }

    /// Transaction latency in cycles (ring length + issue/retire).
    [[nodiscard]] unsigned latency() const {
        return static_cast<unsigned>(nodes_.size()) + 2;
    }

    /// Attach (or detach, with nullptr) the structured event recorder.
    void set_observer(obs::EventRecorder* rec) { obs_ = rec; }

    // --- checkpoint ------------------------------------------------------
    /// Ring token state. The issuer's completion closure is re-armed by the
    /// CPU (or harness) via ckpt_rearm_* after its own state is restored.
    void ckpt_save(rtlsim::SnapWriter& w) const;
    [[nodiscard]] bool ckpt_restore(rtlsim::SnapReader& r);
    /// Restore-time closure re-install; unlike start_read/start_write these
    /// do not touch the token state (the transaction is already in flight).
    void ckpt_rearm_read(std::function<void(Word)> done) {
        rd_done_ = std::move(done);
    }
    void ckpt_rearm_write(std::function<void()> done) {
        wr_done_ = std::move(done);
    }

private:
    void on_clock();

    obs::EventRecorder* obs_ = nullptr;

    Signal<Logic>& clk_;
    Signal<Logic>& rst_;
    rtlsim::Process* ring_ = nullptr;
    std::vector<DcrSlaveIf*> nodes_;

    bool busy_ = false;
    bool is_read_ = false;
    bool claimed_ = false;
    bool corrupted_ = false;
    bool corruption_reported_ = false;
    std::uint32_t regno_ = 0;
    Word data_{0};
    std::size_t pos_ = 0;
    std::function<void(Word)> rd_done_;
    std::function<void()> wr_done_;
};

}  // namespace autovision
