// rrm: RegionManager — autonomous management processor for a pool of
// time-shared reconfigurable regions.
//
// The manager owns the run-time side of region virtualization: it executes
// a policy plan (policy.hpp) over N regions, driving for each planned swap
// the full reconfiguration protocol the paper's firmware drives for one —
// isolate (DCR), stream the SimB (through the ICAP arbiter), de-isolate,
// program the engine's job registers (DCR), and wait for completion. Under
// Virtual Multiplexing mode it writes the per-region engine_signature
// register instead, reproducing the zero-delay swap semantics for the same
// plan.
//
// All region FSMs advance in strict region-index order on each clock and
// share one DCR chain (a region stalls while the chain is busy), so a run
// is bit-reproducible at any worker count. Plan order is enforced at
// the ICAP: a region may only open its reconfiguration once every earlier
// plan entry has submitted its session, making the arbiter grant order
// equal the plan order.
//
// Labelled corruption knobs reproduce cross-region failure modes:
//   * kWrongRegionFar      — the victim's SimB FAR names the next region,
//                            so its swaps land in the co-region. The run
//                            still completes silently (jobs execute on
//                            whatever engine is resident); the misdirection
//                            is visible only in the region-tagged event
//                            stream, which is why observability must carry
//                            the region index;
//   * kDropIsolation       — the victim never isolates: its X-window leaks
//                            onto the shared PLB (multi-region bug.dpr.1);
//   * kSimultaneousWindows — the co-region is put into an (isolated)
//                            X-window for the whole of the victim's
//                            session, so two windows overlap cleanly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bus/dcr.hpp"
#include "engine_library.hpp"
#include "icap_arbiter.hpp"
#include "kernel/kernel.hpp"
#include "obs/recorder.hpp"
#include "policy.hpp"
#include "recon/isolation.hpp"
#include "recon/rr_boundary.hpp"

namespace autovision::rrm {

enum class RegionCorrupt : std::uint8_t {
    kNone,
    kWrongRegionFar,
    kDropIsolation,
    kSimultaneousWindows,
    kCount,
};

[[nodiscard]] const char* to_string(RegionCorrupt c);

/// One work item for a region: which engine, and the job-register values
/// the manager programs after the swap.
struct RegionJob {
    EngineKind engine = EngineKind::kNone;
    std::uint32_t src = 0;
    std::uint32_t src2 = 0;
    std::uint32_t dst = 0;
    std::uint16_t width = 0;
    std::uint16_t height = 0;
    std::uint32_t param = 0;
    unsigned deadline = 0;  ///< abstract urgency (kDeadline policy)
};

/// The static-side wiring of one region, handed in by the owner.
struct RegionPorts {
    std::uint8_t rr_id = 1;           ///< SimB FAR region id (index + 1)
    RrBoundary* boundary = nullptr;
    Isolation* iso = nullptr;
    std::uint32_t iso_dcr = 0;        ///< isolation control register
    std::uint32_t regs_dcr = 0;       ///< EngineRegs DCR base
    EngineRegs* regs = nullptr;       ///< engine-side status wire taps
    std::uint32_t sig_dcr = 0;        ///< engine_signature register (VM)
};

class RegionManager final : public rtlsim::Module {
public:
    struct Config {
        Policy policy = Policy::kRoundRobin;
        bool vm_mode = false;              ///< signature writes, no SimBs
        std::uint32_t payload_words = 16;  ///< SimB payload length
        unsigned word_gap = 1;             ///< ICAP pacing per word
        std::uint64_t simb_seed = 1;       ///< payload filler seed root
        RegionCorrupt corrupt = RegionCorrupt::kNone;
        unsigned victim = 0;               ///< region the corruption hits
        std::uint64_t watchdog_cycles = 100000;  ///< hang bailout
        /// Software-scheduled mode: no policy planner runs; the plan is
        /// grown at run time by push_software() (driven from firmware
        /// through the DCR pool bridge). The manager still executes the
        /// full per-swap protocol — only the scheduling decision moves
        /// into the embedded software.
        bool software = false;
    };

    /// `arb` may be nullptr only in VM mode (no bitstream datapath).
    RegionManager(rtlsim::Scheduler& sch, const std::string& name,
                  rtlsim::Signal<rtlsim::Logic>& clk,
                  rtlsim::Signal<rtlsim::Logic>& rst, DcrChain& dcr,
                  IcapArbiter* arb, Config cfg);

    /// Regions attach in index order (region i = i-th call).
    void add_region(const RegionPorts& ports);
    /// Queue a job (arrival order is the workload order).
    void enqueue(unsigned region, const RegionJob& job);
    /// Freeze the workload, run the policy planner, begin execution.
    /// In software mode (Config::software) the plan starts empty and no
    /// planner runs; jobs arrive later through push_software().
    void start();
    /// Software mode only: append one swap to the live plan. The entry is
    /// executed in push order (the plan gate serialises reconfigurations
    /// exactly as for a planned workload). `reconfigure` false is the
    /// demand-paging hit: the software asserts the engine is already
    /// resident and the swap is skipped. Returns the plan slot.
    unsigned push_software(unsigned region, const RegionJob& job,
                           bool reconfigure);

    [[nodiscard]] bool started() const { return started_; }
    /// All plan entries finished (completed or timed out) and the ICAP
    /// arbiter drained.
    [[nodiscard]] bool done() const;

    [[nodiscard]] const std::vector<PlannedSwap>& plan() const {
        return plan_;
    }
    /// The documented schedule rendering (policy distinctness pin).
    [[nodiscard]] std::string signature() const {
        return schedule_signature(plan_);
    }

    [[nodiscard]] unsigned num_regions() const {
        return static_cast<unsigned>(regions_.size());
    }
    [[nodiscard]] std::uint32_t jobs_done(unsigned region) const {
        return regions_[region].jobs_done;
    }
    [[nodiscard]] std::uint32_t sessions_submitted(unsigned region) const {
        return regions_[region].sessions;
    }
    [[nodiscard]] std::uint32_t timeouts(unsigned region) const {
        return regions_[region].timeouts;
    }
    /// Engine the plan last configured into the region (kNone before).
    [[nodiscard]] EngineKind resident(unsigned region) const {
        return regions_[region].resident;
    }
    [[nodiscard]] const Config& config() const { return cfg_; }

    /// Attach (or detach, with nullptr) the structured event recorder.
    void set_observer(obs::EventRecorder* rec) { obs_ = rec; }

    // --- checkpoint ------------------------------------------------------
    /// Plan + per-region FSM + workload. Re-arms the in-flight DCR write
    /// closure when one was open at save time.
    void ckpt_save(rtlsim::SnapWriter& w) const;
    [[nodiscard]] bool ckpt_restore(rtlsim::SnapReader& r);

private:
    enum class St : std::uint8_t {
        kIdle,        ///< waiting for the plan gate
        kIsolate,     ///< issue isolation-on DCR write
        kIsoWait,
        kConfigure,   ///< submit the SimB session to the arbiter
        kCfgWait,     ///< session draining through the ICAP
        kDeisolate,   ///< issue isolation-off DCR write
        kDeisoWait,
        kVmSwap,      ///< VM mode: write the engine signature
        kVmSwapWait,
        kProgram,     ///< job-register write sequence
        kProgWait,
        kRun,         ///< engine executing; poll the done wire
        kClearDone,   ///< write-1-to-clear the done status bit
        kClearWait,
        kDone,        ///< all entries of this region finished
    };

    struct Region {
        RegionPorts ports;
        std::vector<RegionJob> jobs;      ///< arrival order
        std::vector<unsigned> entries;    ///< my plan indices, in order
        St st = St::kIdle;
        std::uint32_t entry = 0;          ///< cursor into `entries`
        std::uint8_t prog_step = 0;
        bool dcr_wait = false;
        std::uint64_t watchdog = 0;
        std::uint32_t jobs_done = 0;
        std::uint32_t sessions = 0;
        std::uint32_t timeouts = 0;
        EngineKind resident = EngineKind::kNone;
    };

    void on_clock();
    void step_region(unsigned r);
    /// Current plan entry / job of region r (entry cursor valid).
    [[nodiscard]] const PlannedSwap& cur_swap(const Region& reg) const {
        return plan_[reg.entries[reg.entry]];
    }
    [[nodiscard]] const RegionJob& cur_job(const Region& reg) const {
        return jobs_of_plan_[reg.entries[reg.entry]];
    }
    void issue_dcr(unsigned r, std::uint32_t regno, std::uint32_t value,
                   St next);
    void finish_entry(unsigned r, bool completed);
    void force_overlap(unsigned victim, bool on);

    void note(obs::EventKind k, std::uint8_t region, std::uint32_t a = 0,
              std::uint64_t b = 0) {
        if (obs_ != nullptr) {
            obs_->record(sch_.now(), k, obs::Source::kManager, a, b, region);
        }
    }

    rtlsim::Signal<rtlsim::Logic>& rst_;
    DcrChain& dcr_;
    IcapArbiter* arb_;
    Config cfg_;
    obs::EventRecorder* obs_ = nullptr;

    std::vector<Region> regions_;
    std::vector<PlannedSwap> plan_;
    std::vector<RegionJob> jobs_of_plan_;  ///< job per plan entry
    bool started_ = false;
    std::uint32_t global_next_ = 0;  ///< plan gate: next entry to open
    int dcr_owner_ = -1;             ///< region whose DCR write is in flight
};

}  // namespace autovision::rrm
