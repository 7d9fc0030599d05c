// Processor Local Bus (PLB) model.
//
// A cycle-accurate, multi-master, burst-capable system bus modelled on the
// IBM CoreConnect PLB used by the AutoVision demonstrator. The model keeps
// the properties the case study's bugs depend on:
//   * arbitration among several masters (CPU, IcapCTRL, video engines, VIPs);
//   * a maximum burst length in shared mode (exceeding it is the mechanism
//     behind bug.dpr.4 — an IP configured for a point-to-point link issues
//     one huge burst, which a shared bus cannot honour);
//   * 4-state data/address paths, so X injected by a region undergoing
//     reconfiguration is observable on the bus (isolation bugs);
//   * an embedded protocol checker that reports X on control/address lines,
//     over-length bursts, decode misses, mid-burst request drops and grant
//     starvation to the scheduler's diagnostics.
//
// Master protocol (see DmaMaster for a canonical implementation):
//   1. Drive addr/rnw/nbeats and assert req; hold them stable until grant.
//   2. Keep req asserted for the whole burst; deasserting early aborts the
//      remainder if another master is waiting.
//   3. Reads: one beat per cycle after the slave's read latency; rdata is
//      valid in each rd_ack cycle. Writes: the bus consumes wdata in each
//      wr_ack cycle; a one-cycle gap follows each beat so the master can
//      present the next word race-free (one word per two cycles).
//   4. done pulses with the final beat; deassert req for at least one cycle
//      before issuing a new transaction.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "kernel/kernel.hpp"

namespace autovision {

using rtlsim::Edge;
using rtlsim::Logic;
using rtlsim::LVec;
using rtlsim::Module;
using rtlsim::Scheduler;
using rtlsim::Signal;
using rtlsim::Word;

/// Signal bundle between one master and the bus.
struct PlbMasterPort {
    // Driven by the master.
    Signal<Logic> req;
    Signal<Logic> rnw;           ///< 1 = read, 0 = write
    Signal<Word> addr;           ///< byte address of the first beat
    Signal<LVec<16>> nbeats;     ///< burst length in 32-bit words (>=1)
    Signal<Word> wdata;

    // Driven by the bus.
    Signal<Logic> grant;   ///< one-cycle pulse: transaction accepted
    Signal<Logic> rd_ack;  ///< rdata valid this cycle
    Signal<Word> rdata;
    Signal<Logic> wr_ack;  ///< wdata consumed this cycle
    Signal<Logic> done;    ///< one-cycle pulse with the final beat
    Signal<Logic> err;     ///< one-cycle pulse: address decode error

    PlbMasterPort(Scheduler& sch, const std::string& prefix);

    /// Drive all master-owned outputs to benign idle levels.
    void idle();

    /// Drive all master-owned outputs to X (what a region undergoing
    /// reconfiguration looks like without isolation).
    void drive_x();
};

/// Functional slave interface. The bus FSM provides the cycle accuracy
/// (arbitration, latency, beat pacing); slaves only supply/accept data.
class PlbSlaveIf {
public:
    virtual ~PlbSlaveIf() = default;

    /// True when this slave decodes the given byte address.
    [[nodiscard]] virtual bool claims(std::uint32_t addr) const = 0;

    /// Wait states before the first read beat of a burst.
    [[nodiscard]] virtual unsigned read_latency() const { return 4; }

    [[nodiscard]] virtual Word plb_read(std::uint32_t addr) = 0;
    virtual void plb_write(std::uint32_t addr, Word w) = 0;

    [[nodiscard]] virtual std::string plb_name() const = 0;
};

/// The bus: arbiter + datapath + protocol checker.
class Plb final : public Module {
public:
    struct Config {
        unsigned num_masters = 1;
        /// Maximum beats per burst the bus honours. 0 = unlimited
        /// (point-to-point link). Over-length bursts on a bounded bus are
        /// truncated and reported — the bug.dpr.4 mechanism.
        unsigned max_burst = 16;
        /// Cycles a master may wait for grant before the checker reports
        /// starvation (a hung system symptom).
        unsigned grant_timeout = 50000;
    };

    struct Counters {
        std::uint64_t transactions = 0;
        std::uint64_t read_beats = 0;
        std::uint64_t write_beats = 0;
        std::uint64_t truncations = 0;
        std::uint64_t aborts = 0;
        std::uint64_t decode_errors = 0;
        std::uint64_t busy_cycles = 0;   ///< cycles with a transaction open
        std::uint64_t total_cycles = 0;  ///< cycles out of reset
    };

    /// Per-master accounting, for bandwidth/utilisation reporting.
    struct MasterCounters {
        std::uint64_t transactions = 0;
        std::uint64_t read_beats = 0;
        std::uint64_t write_beats = 0;
        std::uint64_t grant_wait_cycles = 0;  ///< req asserted, not owner
    };

    Plb(Scheduler& sch, const std::string& name, Signal<Logic>& clk,
        Signal<Logic>& rst, Config cfg);

    [[nodiscard]] PlbMasterPort& master(unsigned i) { return *ports_[i]; }
    [[nodiscard]] unsigned num_masters() const {
        return static_cast<unsigned>(ports_.size());
    }

    /// Slaves are probed in attach order; the first claimant wins.
    void attach_slave(PlbSlaveIf& s) { slaves_.push_back(&s); }

    /// Exact at any point: total_cycles includes the idle edges the gated
    /// FSM skipped (each would only have counted itself).
    [[nodiscard]] Counters counters() const {
        Counters c = counters_;
        c.total_cycles += fsm_->skipped();
        return c;
    }
    [[nodiscard]] const MasterCounters& master_counters(unsigned i) const {
        return mcounters_[i];
    }
    /// Fraction of out-of-reset cycles with a transaction in progress.
    [[nodiscard]] double utilisation() const {
        const Counters c = counters();
        return c.total_cycles == 0
                   ? 0.0
                   : static_cast<double>(c.busy_cycles) /
                         static_cast<double>(c.total_cycles);
    }
    [[nodiscard]] const Config& config() const { return cfg_; }

    // --- checkpoint ------------------------------------------------------
    /// Arbiter/datapath FSM + counters. The decoded slave pointer is not
    /// serialized; restore re-derives it from the burst cursor (a burst
    /// never crosses a slave's decode window). A state byte past the last
    /// FSM state is rejected.
    void ckpt_save(rtlsim::SnapWriter& w) const;
    [[nodiscard]] bool ckpt_restore(rtlsim::SnapReader& r);

private:
    enum class St { Idle, ReadWait, ReadBurst, WriteBeat, WriteGap, Cooldown };

    void on_clock();
    void arbitrate();
    void clear_pulses();
    PlbSlaveIf* decode(std::uint32_t addr) const;
    /// The X/Z-on-req protocol report, at most five per master.
    void report_x_req(unsigned m);

    Config cfg_;
    Signal<Logic>& clk_;
    Signal<Logic>& rst_;
    rtlsim::Process* fsm_ = nullptr;
    std::vector<std::unique_ptr<PlbMasterPort>> ports_;
    std::vector<PlbSlaveIf*> slaves_;
    Counters counters_;
    std::vector<MasterCounters> mcounters_;

    St state_ = St::Idle;
    unsigned owner_ = 0;
    unsigned last_granted_ = 0;  // round-robin pointer
    PlbSlaveIf* slave_ = nullptr;
    std::uint32_t cursor_ = 0;
    unsigned beats_left_ = 0;
    unsigned wait_left_ = 0;
    std::vector<unsigned> starve_;      // grant-wait cycles per master
    std::vector<unsigned> x_reports_;   // X diagnostics emitted per master
};

/// Reusable DMA master FSM implementing the port protocol correctly
/// (burst splitting, request holding, inter-burst gaps). Engines, the
/// IcapCTRL, the video VIPs and the CPU's load/store unit all build on it.
class DmaMaster {
public:
    /// `burst_limit` caps the beats the master asks for per burst; 0 means
    /// "issue everything as one burst" (only correct on a point-to-point
    /// link — see bug.dpr.4).
    DmaMaster(PlbMasterPort& port, unsigned burst_limit);

    /// Begin a read of `nwords` 32-bit words from byte address `addr`.
    /// `sink(i, w)` receives word i; `on_done` fires after the final word.
    void start_read(std::uint32_t addr, std::uint32_t nwords,
                    std::function<void(std::uint32_t, Word)> sink,
                    std::function<void()> on_done = {});

    /// Begin a write of `nwords` words; `src(i)` supplies word i.
    void start_write(std::uint32_t addr, std::uint32_t nwords,
                     std::function<Word(std::uint32_t)> src,
                     std::function<void()> on_done = {});

    /// Advance one cycle; call from the owning module's posedge process.
    void step();

    /// Abort any transfer and idle the port.
    void reset();

    [[nodiscard]] bool busy() const { return state_ != St::Idle; }
    [[nodiscard]] std::uint32_t words_done() const { return idx_; }
    [[nodiscard]] std::uint32_t words_total() const { return total_; }
    /// True when the last transfer ended with a bus error (decode miss).
    [[nodiscard]] bool failed() const { return failed_; }

    // --- checkpoint ------------------------------------------------------
    /// POD transfer state only; the data closures cannot be serialized and
    /// are re-installed by the owning module via ckpt_rearm() after its own
    /// descriptor state is restored. A state byte past the last FSM state
    /// is rejected.
    void ckpt_save(rtlsim::SnapWriter& w) const;
    [[nodiscard]] bool ckpt_restore(rtlsim::SnapReader& r);
    /// Re-install the completion closures without touching the transfer
    /// state or driving the port (the port signals are restored wholesale
    /// by the scheduler's signal registry).
    void ckpt_rearm(std::function<void(std::uint32_t, Word)> sink,
                    std::function<Word(std::uint32_t)> src,
                    std::function<void()> on_done) {
        sink_ = std::move(sink);
        src_ = std::move(src);
        on_done_ = std::move(on_done);
    }

private:
    enum class St { Idle, Req, Xfer, Gap };

    void begin_burst();

    PlbMasterPort& port_;
    unsigned burst_limit_;
    St state_ = St::Idle;
    bool reading_ = true;
    bool failed_ = false;
    std::uint32_t addr_ = 0;
    std::uint32_t remaining_ = 0;
    std::uint32_t total_ = 0;
    std::uint32_t idx_ = 0;
    unsigned burst_beats_ = 0;
    std::function<void(std::uint32_t, Word)> sink_;
    std::function<Word(std::uint32_t)> src_;
    std::function<void()> on_done_;
};

}  // namespace autovision
