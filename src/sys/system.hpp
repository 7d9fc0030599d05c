// The integrated Optical Flow Demonstrator.
//
// Instantiates the full Figure 1 architecture: PowerPC ISS + firmware, PLB
// (CPU, IcapCTRL, one boundary master per reconfigurable region, video
// in/out VIPs), main memory, DCR daisy chain (IcapCTRL, isolation, INTC,
// engine registers, engine_signature), interrupt controller, the engine
// library hosted across the reconfigurable regions, and — depending on the
// simulation method — either the ReSim artifacts (ICAP artifact + Extended
// Portal) or the Virtual Multiplexing signature registers.
//
// The default configuration models the paper's demonstrator exactly: one
// region, two engines (CIE / ME), firmware-driven swaps. With
// SystemConfig::regions >= 2 the system additionally elaborates the
// time-shared virtualization pool (src/rrm): regions 1..N-1 each host the
// full engine library behind their own boundary, an autonomous
// RegionManager executes a policy plan over them on a dedicated management
// DCR chain, and an ICAP arbiter serializes their partial bitstreams with
// the CPU's IcapCTRL traffic onto the one configuration port.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "address_map.hpp"
#include "bus/dcr.hpp"
#include "bus/intc.hpp"
#include "bus/memory.hpp"
#include "bus/plb.hpp"
#include "engines/census_engine.hpp"
#include "engines/matching_engine.hpp"
#include "firmware.hpp"
#include "isa/cpu.hpp"
#include "kernel/clock.hpp"  // allocation-free Clock/ResetGen event sources
#include "kernel/kernel.hpp"
#include "kernel/prng.hpp"
#include "recon/icap_ctrl.hpp"
#include "recon/isolation.hpp"
#include "recon/rr_boundary.hpp"
#include "resim/icap_artifact.hpp"
#include "resim/portal.hpp"
#include "resim/simb.hpp"
#include "rrm/icap_arbiter.hpp"
#include "rrm/policy.hpp"
#include "rrm/pool_bridge.hpp"
#include "rrm/region_block.hpp"
#include "rrm/region_manager.hpp"
#include "rrm/rrm_section.hpp"
#include "vip/video_vip.hpp"
#include "vm/virtual_mux.hpp"

namespace autovision::sys {

/// Domain-separation tags for rtlsim::derive_seed over SystemConfig::seed
/// (one per RNG-using component of a run).
inline constexpr std::uint64_t kSeedTagScene = 0x5343'454E'45ull;
inline constexpr std::uint64_t kSeedTagSimbCie = 0x5349'4D42'0001ull;
inline constexpr std::uint64_t kSeedTagSimbMe = 0x5349'4D42'0002ull;
inline constexpr std::uint64_t kSeedTagInjector = 0x494E'4A45'4354ull;
// Virtualization-pool consumers (regions >= 2 only).
inline constexpr std::uint64_t kSeedTagRegionCur = 0x5247'4E00'0001ull;
inline constexpr std::uint64_t kSeedTagRegionPrev = 0x5247'4E00'0002ull;
inline constexpr std::uint64_t kSeedTagRegionSimb = 0x5247'4E00'0003ull;
inline constexpr std::uint64_t kSeedTagRegionDeadline = 0x5247'4E00'0004ull;

struct SystemConfig {
    FirmwareConfig::Method method = FirmwareConfig::Method::kResim;
    FirmwareConfig::Wait wait = FirmwareConfig::Wait::kIrq;
    std::uint32_t delay_loops = 6000;
    Fault fault = Fault::kNone;

    /// Canonical run seed. Every RNG-using component of a run — the
    /// synthetic scene textures, the SimB filler payloads, seeded error
    /// injectors, the constrained-random scenario layer — derives its
    /// sub-seed from this one value (rtlsim::derive_seed with a per-consumer
    /// tag), so a run is reproducible from the single number. Seed 1 (the
    /// default) reproduces the historical constants the kernel-invariance
    /// goldens were captured with.
    std::uint64_t seed = 1;

    unsigned width = 64;
    unsigned height = 48;
    unsigned step = 4;
    unsigned margin = 8;
    unsigned search = 3;

    /// FDRI payload length of the staged SimBs. The paper used 4K-word
    /// SimBs for AutoVision and notes ~100 words as the fast-debug choice.
    std::uint32_t simb_payload_words = 100;

    /// Boundary error source during reconfiguration (Section IV-B lets the
    /// default X source be overridden). kGarbage draws its stream from
    /// derive_seed(seed, kSeedTagInjector), so a run stays reproducible
    /// from the one canonical seed.
    enum class Injection { kX, kHoldLast, kZeros, kGarbage };
    Injection injection = Injection::kX;

    unsigned icap_clk_div = 4;    ///< modified (slow) configuration clock
    unsigned icap_fifo_depth = 32;
    rtlsim::Time clk_period = 10 * rtlsim::NS;  ///< 100 MHz system clock
    bool profiling = false;       ///< per-process wall-clock accounting

    /// Inert: the kernel evaluates sequentially (DESIGN.md §13 records why
    /// event lanes were removed). The field and resolve_lanes() remain only
    /// because the benchmark harness still sets and reports them; both go
    /// once it stops.
    unsigned lanes = 0;
    [[nodiscard]] static unsigned resolve_lanes(unsigned /*cfg_lanes*/) {
        return 1;
    }

    /// When non-empty, the testbench dumps a VCD of the system's key
    /// signals (clock, region boundary, interrupt lines, stream tap) to
    /// this path for waveform inspection.
    std::string vcd_path;

    /// Structured event tracing (src/obs). When enabled the testbench owns
    /// an EventRecorder, attaches it to every emitting module, and derives
    /// the obs metrics at the end of the run.
    bool trace_events = false;
    std::size_t trace_capacity = 1u << 16;
    /// When non-empty (and trace_events set), the testbench writes a
    /// Chrome-trace / Perfetto JSON of the recorded events to this path.
    std::string trace_path;

    /// Total reconfigurable regions. 1 (the default) is the paper's
    /// demonstrator and is byte-identical to the pre-pool model; >= 2
    /// additionally elaborates the time-shared virtualization pool
    /// (regions 1..N-1, each hosting the full engine library under the
    /// RegionManager). Capped at obs::kMaxRegions.
    unsigned regions = 1;
    rrm::Policy rrm_policy = rrm::Policy::kRoundRobin;
    rrm::IcapArbiter::Grant rrm_grant = rrm::IcapArbiter::Grant::kFair;
    unsigned rrm_jobs_per_region = 2;
    std::uint32_t rrm_payload_words = 16;  ///< pool SimB payload length
    /// Software-scheduled pool (regions >= 2 only): instead of the
    /// autonomous policy plan, the *firmware* decides which engine each
    /// managed region runs next and pushes jobs at run time through the
    /// rrm::PoolBridge DCR window (kDcrPool on the legacy chain). The
    /// RegionManager still executes the full per-swap protocol — only the
    /// scheduling decision moves into the embedded software. Ignored when
    /// regions == 1. Default off keeps every existing configuration (ring
    /// length, firmware text, config hash) byte-identical.
    bool rrm_software = false;

    /// Host-IO syscall layer opt-in (FirmwareConfig::host_io): the firmware
    /// emits a putchar progress tick per drawn frame; when exit_after_frames
    /// is non-zero it exit(0)s through the syscall layer after that many
    /// frames instead of looping forever. Off by default so the classic
    /// firmware text (and config hash) stays byte-identical.
    bool host_io = false;
    std::uint32_t exit_after_frames = 0;
};

class OpticalFlowSystem {
public:
    explicit OpticalFlowSystem(SystemConfig cfg);

    [[nodiscard]] const SystemConfig& config() const { return cfg_; }

    // --- mailbox access ---------------------------------------------------
    [[nodiscard]] std::uint32_t mailbox(std::uint32_t offset) const {
        return mem.peek_u32(kMailbox + offset);
    }

    /// Census buffer used for frame `n` (double-buffered, A first).
    [[nodiscard]] static std::uint32_t census_addr_for_frame(unsigned n) {
        return (n % 2 == 0) ? kCensusA : kCensusB;
    }

    [[nodiscard]] bool is_resim() const {
        return cfg_.method == FirmwareConfig::Method::kResim;
    }

    /// Attach (or detach, with nullptr) a structured event recorder to
    /// every emitting module: DCR chain, INTC, isolation, region boundary,
    /// and — under ReSim — the portal and ICAP artifact.
    void attach_observer(obs::EventRecorder* rec);

    // --- checkpoint -------------------------------------------------------
    /// Identity hash over every semantically relevant SystemConfig field
    /// (output paths excluded); a snapshot only restores into a system
    /// built from an identical configuration.
    [[nodiscard]] static std::uint64_t config_hash(const SystemConfig& cfg);
    [[nodiscard]] std::uint64_t config_hash() const {
        return config_hash(cfg_);
    }

    /// Serialize the complete simulator state (kernel, signals, every
    /// module) into a versioned checkpoint blob. Only legal at a quiescent
    /// point (between run_until quanta); returns false otherwise.
    [[nodiscard]] bool save(std::ostream& os) const;

    /// Restore from a blob into this freshly constructed system. The
    /// manifest's config hash must match this system's configuration.
    /// On failure the system state is indeterminate — discard it.
    [[nodiscard]] bool restore(std::istream& is,
                               std::string* error = nullptr);

    // Construction order matters: members are wired top to bottom.
    SystemConfig cfg_;
    rtlsim::Scheduler sch;
    rtlsim::Clock clk;
    rtlsim::ResetGen rst;
    Memory mem;
    Plb plb;
    DcrChain dcr;
    Intc intc;
    Isolation iso;
    EngineRegs cie_regs;
    EngineRegs me_regs;
    CensusEngine cie;
    MatchingEngine me;
    rtlsim::Signal<rtlsim::Logic> rr_done;
    RrBoundary rr;

    // ReSim artifacts (null under Virtual Multiplexing).
    std::unique_ptr<resim::ExtendedPortal> portal;
    std::unique_ptr<resim::IcapArtifact> icap_artifact;
    // VM artefact (null under ReSim).
    std::unique_ptr<vm::VirtualMux> vmux;
    NullIcap null_icap;

    // Virtualization pool (all null/empty when cfg.regions == 1). The pool
    // lives on its own management DCR chain: the CPU's mtdcr/mfdcr issue
    // unguarded transactions on the legacy chain, so an autonomous second
    // initiator there would collide with them.
    std::unique_ptr<DcrChain> dcr_mgmt;
    std::vector<std::unique_ptr<rrm::RegionBlock>> region_blocks;
    std::unique_ptr<rrm::IcapArbiter> icap_arbiter;  ///< ReSim only
    std::unique_ptr<rrm::RegionManager> region_manager;
    /// CPU-facing DCR window for software-scheduled pools; non-null only
    /// when cfg.rrm_software is set (and regions >= 2).
    std::unique_ptr<rrm::PoolBridge> pool_bridge;

    /// Pool region r (1-based global id) — valid for 1 <= r < cfg.regions.
    [[nodiscard]] rrm::RegionBlock& pool_region(unsigned r) {
        return *region_blocks[r - 1];
    }
    /// Versioned region-array summary of the managed pool (checkpoint
    /// "rrm" section; empty when regions == 1).
    [[nodiscard]] std::vector<rrm::RegionSnapshot> region_snapshots() const;

    /// Stable ICAP sink handed to the IcapCTRL at construction; routed to
    /// the ICAP artifact (ReSim) or the null sink (VM) once those exist.
    class IcapRouter final : public IcapPortIf {
    public:
        void icap_write(rtlsim::Word w) override {
            if (target_ != nullptr) target_->icap_write(w);
        }
        void set_target(IcapPortIf* t) { target_ = t; }

    private:
        IcapPortIf* target_ = nullptr;
    };
    IcapRouter icap_router;

    IcapCtrl icapctrl;
    vip::VideoInVip video_in;
    vip::VideoOutVip video_out;
    isa::Program firmware;
    isa::PpcCpu cpu;

    std::uint32_t simb_cie_words = 0;
    std::uint32_t simb_me_words = 0;
};

}  // namespace autovision::sys
