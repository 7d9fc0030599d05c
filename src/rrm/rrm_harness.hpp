// rrm: self-contained multi-region testbench.
//
// The virtualization analogue of scen's DprStack: N regions, each with its
// own isolation module, boundary, shared EngineRegs block and the full
// four-entry engine library instantiated behind the boundary mux; one
// ExtendedPortal + ICAP artifact behind the ICAP arbiter; a RegionManager
// executing a policy plan over a per-region job mix. Tests, the scenario
// runner and the closure campaign all drive multi-region coverage through
// this harness, keeping sys::System's single-region golden path untouched.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "bus/dcr.hpp"
#include "bus/memory.hpp"
#include "bus/plb.hpp"
#include "ckpt/checkpoint.hpp"
#include "engine_library.hpp"
#include "icap_arbiter.hpp"
#include "kernel/clock.hpp"
#include "kernel/kernel.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "policy.hpp"
#include "recon/isolation.hpp"
#include "recon/rr_boundary.hpp"
#include "region_block.hpp"
#include "region_manager.hpp"
#include "resim/icap_artifact.hpp"
#include "resim/portal.hpp"
#include "rrm_section.hpp"
#include "vm/virtual_mux.hpp"

namespace autovision::rrm {

struct RrmConfig {
    unsigned regions = 2;             ///< 1..kMaxRegionsSupported
    Policy policy = Policy::kRoundRobin;
    IcapArbiter::Grant grant = IcapArbiter::Grant::kFair;
    bool vm_mode = false;             ///< Virtual Multiplexing swaps
    std::uint32_t payload_words = 16; ///< SimB payload length
    unsigned word_gap = 1;            ///< ICAP pacing
    unsigned width = 16;              ///< frame geometry (multiple of 4)
    unsigned height = 12;
    unsigned jobs_per_region = 2;
    std::uint64_t seed = 1;           ///< frames, fillers, deadlines
    RegionCorrupt corrupt = RegionCorrupt::kNone;
    unsigned victim = 0;
    std::uint64_t watchdog_cycles = 20000;
    std::uint64_t max_cycles = 2'000'000;  ///< absolute run bailout

    /// Elaboration identity for checkpoints (domain-tagged field fold).
    [[nodiscard]] std::uint64_t config_hash() const;
};

struct RrmResult {
    bool completed = false;          ///< manager drained before max_cycles
    std::string schedule;            ///< schedule_signature of the plan
    std::uint64_t swaps = 0;         ///< portal reconfigurations (total)
    std::vector<std::uint32_t> jobs_done;      ///< per region
    std::vector<std::uint32_t> sessions;       ///< per region (submitted)
    std::vector<std::uint32_t> timeouts;       ///< per region
    std::vector<std::uint64_t> arb_sessions;   ///< per region (granted)
    std::vector<std::uint64_t> arb_max_wait;   ///< per region, cycles
    std::size_t diagnostics = 0;
    std::vector<std::string> diagnostic_text;
    std::vector<obs::Event> events;
    obs::Metrics metrics;
    rtlsim::Time clk_period = 0;
    rtlsim::Time sim_time = 0;
    rtlsim::SimStats stats;
};

/// The elaborated testbench, exposed so tests can checkpoint mid-run and
/// drive contention edge cases directly.
class RrmHarness {
public:
    static constexpr rtlsim::Time kClk = 10 * rtlsim::NS;
    /// Per-region DCR block: isolation, engine regs, engine signature.
    static constexpr std::uint32_t kDcrBase = 0x100;
    static constexpr std::uint32_t kDcrStride = 0x20;
    static constexpr std::uint32_t kIsoOff = 0;
    static constexpr std::uint32_t kRegsOff = 8;
    static constexpr std::uint32_t kSigOff = 16;
    /// Memory map: cur/prev source frames, per-job destination blocks.
    static constexpr std::uint32_t kCurFrame = 0x1000;
    static constexpr std::uint32_t kPrevFrame = 0x5000;
    static constexpr std::uint32_t kDstBase = 0x1'0000;
    static constexpr std::uint32_t kDstStride = 0x4000;

    explicit RrmHarness(const RrmConfig& cfg);

    /// Reset settle + initial full-bitstream configuration.
    void boot();
    /// Queue the config's deterministic job mix and start the manager.
    void start();
    /// Advance until the manager drains or cfg.max_cycles elapse.
    void run_to_completion();
    [[nodiscard]] RrmResult collect();

    [[nodiscard]] RegionBlock& region(unsigned r) { return *regions_[r]; }
    [[nodiscard]] unsigned num_regions() const {
        return static_cast<unsigned>(regions_.size());
    }
    [[nodiscard]] std::vector<RegionSnapshot> region_snapshots() const;

    // --- checkpoint ------------------------------------------------------
    /// Full-state snapshot including the versioned "rrm" region-array
    /// section; save refuses at non-quiescent points.
    [[nodiscard]] bool save(std::ostream& os) const;
    /// On failure `*error` says why (see ckpt::Sections::restore).
    [[nodiscard]] bool restore(std::istream& is, std::string* error = nullptr);

    RrmConfig cfg;
    rtlsim::Scheduler sch;
    rtlsim::Clock clk;
    rtlsim::ResetGen rst;
    Memory mem;
    Plb plb;
    DcrChain dcr;
    resim::ExtendedPortal portal;
    resim::IcapArtifact icap;
    IcapArbiter arbiter;
    RegionManager manager;
    obs::EventRecorder rec;

private:
    std::vector<std::unique_ptr<RegionBlock>> regions_;
    ckpt::Sections ckpt_{sch};
};

/// One-shot runner: elaborate, boot, execute the job mix, collect.
[[nodiscard]] RrmResult run_rrm_scenario(const RrmConfig& cfg);

}  // namespace autovision::rrm
