// rrm: ICAP arbiter — serializes partial-bitstream traffic from N regions
// onto the single configuration port.
//
// The FPGA has exactly one ICAP; a virtualized region pool therefore needs
// an arbiter in front of it. Sessions (whole SimBs) are the grant unit —
// a SimB interleaved with another stream is malformed by construction, so
// the arbiter never splits one. Two grant disciplines:
//
//   * kFair     — round-robin rotation over regions with queued sessions
//                 (no region starves; the fairness test pins this);
//   * kPriority — lowest priority value wins, ties to the lowest region
//                 index (deadline-driven schedules map urgency here).
//
// Granted words are paced onto the downstream IcapPortIf one word per
// `word_gap` clock cycles, mirroring the IcapCTRL transfer cadence. An
// external passthrough port lets the legacy CPU-driven IcapCTRL coexist:
// its words forward immediately while the arbiter is idle (a SYNC/DESYNC
// sniffer marks the external session so no manager grant interleaves), and
// are buffered otherwise: while a manager session drains, and until the
// words buffered behind it have gone out in order.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "kernel/kernel.hpp"
#include "obs/recorder.hpp"
#include "recon/icap_port.hpp"
#include "resim/simb.hpp"

namespace autovision::rrm {

class IcapArbiter final : public rtlsim::Module {
public:
    enum class Grant : std::uint8_t { kFair, kPriority };

    struct RegionStats {
        std::uint64_t sessions = 0;     ///< sessions granted and drained
        std::uint64_t words = 0;        ///< words forwarded to the ICAP
        std::uint64_t wait_cycles = 0;  ///< total submit-to-grant wait
        std::uint64_t max_wait = 0;     ///< worst single-session wait
    };

    IcapArbiter(rtlsim::Scheduler& sch, const std::string& name,
                rtlsim::Signal<rtlsim::Logic>& clk,
                rtlsim::Signal<rtlsim::Logic>& rst, IcapPortIf& sink,
                unsigned num_regions, Grant grant = Grant::kFair);

    /// Queue a whole SimB session for `region`. `word_gap` >= 1 is the
    /// pacing in clock cycles per word; `priority` matters only under
    /// kPriority grants (smaller = more urgent).
    void submit(unsigned region, std::vector<std::uint32_t> words,
                unsigned word_gap = 1, unsigned priority = 0);

    /// Sessions queued or draining for `region` (0 = region's traffic done).
    [[nodiscard]] unsigned outstanding(unsigned region) const;
    /// Any session queued or draining, or external words buffered.
    [[nodiscard]] bool busy() const;

    [[nodiscard]] Grant grant_policy() const { return grant_; }
    [[nodiscard]] unsigned num_regions() const {
        return static_cast<unsigned>(stats_.size());
    }
    [[nodiscard]] const RegionStats& stats(unsigned region) const {
        return stats_[region];
    }

    /// The passthrough port for the legacy IcapCTRL datapath.
    [[nodiscard]] IcapPortIf& external_port() { return ext_port_; }

    /// Attach (or detach, with nullptr) the structured event recorder.
    void set_observer(obs::EventRecorder* rec) { obs_ = rec; }

    // --- checkpoint ------------------------------------------------------
    void ckpt_save(rtlsim::SnapWriter& w) const;
    [[nodiscard]] bool ckpt_restore(rtlsim::SnapReader& r);

private:
    struct Session {
        std::uint32_t region = 0;
        std::uint32_t gap = 1;
        std::uint32_t priority = 0;
        std::uint64_t submit_cycle = 0;
        std::uint32_t next_word = 0;  ///< forwarding cursor
        std::vector<std::uint32_t> words;
    };

    /// The external IcapCTRL face of the arbiter.
    struct ExtPort final : public IcapPortIf {
        explicit ExtPort(IcapArbiter& a) : arb(a) {}
        void icap_write(rtlsim::Word w) override { arb.external_write(w); }
        IcapArbiter& arb;
    };

    void on_clock();
    void external_write(rtlsim::Word w);
    [[nodiscard]] int pick_next() const;  ///< queue index to grant, or -1

    void note(obs::EventKind k, std::uint8_t region, std::uint32_t a = 0,
              std::uint64_t b = 0) {
        if (obs_ != nullptr) {
            obs_->record(sch_.now(), k, obs::Source::kArbiter, a, b, region);
        }
    }

    rtlsim::Signal<rtlsim::Logic>& rst_;
    IcapPortIf& sink_;
    ExtPort ext_port_{*this};
    obs::EventRecorder* obs_ = nullptr;
    Grant grant_;

    std::deque<Session> queue_;      ///< pending sessions, submit order
    bool active_ = false;
    Session active_session_;
    std::uint32_t gap_left_ = 0;
    std::uint32_t rotation_ = 0;     ///< kFair cursor: next region to favour
    std::uint64_t cycle_ = 0;        ///< clock count (wait accounting)

    bool ext_in_session_ = false;    ///< SYNC seen, DESYNC not yet
    bool ext_cmd_pending_ = false;   ///< CMD header seen, value word next
    std::deque<std::uint64_t> ext_buf_;  ///< words held while a grant drains
                                         ///< (val<<32 | unk planes)
    std::vector<RegionStats> stats_;
};

}  // namespace autovision::rrm
