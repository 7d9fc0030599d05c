// scen: the minimal DPR testbench.
//
// One stack serves the stream harness and both sides of the differential
// oracle: clock, reset, 1 MiB memory, PLB, DCR chain, CIE/ME registers and
// engines behind one RrBoundary, and an event recorder. Its callers differ
// in two parts only, chosen at construction: the isolation module (the
// diff sides) and the ReSim portal plus ICAP artifact (all but the diff VM
// side). There is no CPU and no IcapCTRL: the driver *is* the controller,
// which is what lets a scenario pace a bitstream with an arbitrary word
// gap. Each part's checkpoint section is registered once, in elaboration
// order; a caller that adds a part registers it after the stack's.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "bus/dcr.hpp"
#include "bus/memory.hpp"
#include "bus/plb.hpp"
#include "ckpt/checkpoint.hpp"
#include "engines/census_engine.hpp"
#include "engines/engine_regs.hpp"
#include "engines/matching_engine.hpp"
#include "kernel/clock.hpp"
#include "kernel/kernel.hpp"
#include "obs/recorder.hpp"
#include "recon/isolation.hpp"
#include "recon/rr_boundary.hpp"
#include "resim/icap_artifact.hpp"
#include "resim/portal.hpp"
#include "scenario.hpp"

namespace autovision::scen {

class DprStack {
public:
    static constexpr rtlsim::Time kClk = 10 * rtlsim::NS;

    /// The two construction choices.
    struct Parts {
        bool isolation = false;  ///< Isolation on the DCR ring, gating rr
        bool icap = false;       ///< ExtendedPortal + IcapArtifact
    };

    explicit DprStack(Parts parts);

    /// Map module ids 1 (CIE) and 2 (ME) onto boundary slots 0 and 1 —
    /// crossed when `swapped` — and load the CIE as the power-on
    /// configuration, at elaboration, before the first delta cycle (the
    /// unconfigured region is all-X under ReSim). Needs the portal.
    void configure(bool swapped = false);
    /// Attach the recorder to every emitting part. The boundary records
    /// the power-on kSelect only if this comes before configure().
    void listen();

    void boot() { sch.run_until(8 * kClk); }  // reset settles
    void run_cycles(unsigned n) { sch.run_until(sch.now() + n * kClk); }

    /// Launch the session's one DCR transaction (none for kNone).
    void issue_traffic(const StreamSession& ss);
    /// Play the session's SimB words into the ICAP artifact, paced by its
    /// word gap, launching its DCR transaction once the payload window is
    /// open, then let the token and the boundary settle. `cancel` stops
    /// the playback between words.
    void play(const StreamSession& ss, const std::atomic<bool>* cancel);

    /// Boot snapshot, taken at a quiescent, bus-idle point: the stack is
    /// never saved with a DCR token or DMA burst in flight, so no closure
    /// re-arming is needed on restore. Empty when not at such a point.
    [[nodiscard]] std::string save(std::uint64_t config_hash) const;
    /// Restore into this freshly elaborated stack. A restore that fails
    /// partway leaves the stack half-written: discard it.
    [[nodiscard]] bool restore(const std::string& blob,
                               std::uint64_t config_hash);

    rtlsim::Scheduler sch;
    rtlsim::Clock clk{sch, "clk", kClk};
    rtlsim::ResetGen rst{sch, "rst", 3 * kClk};
    Memory mem{Memory::Config{0, 1u << 20, 4}};
    Plb plb{sch, "plb", clk.out, rst.out, Plb::Config{2, 16, 1u << 30}};
    rtlsim::Signal<rtlsim::Logic> done_line{sch, "done_line",
                                            rtlsim::Logic::L0};
    DcrChain dcr{sch, "dcr", clk.out, rst.out};
    std::unique_ptr<Isolation> iso;
    EngineRegs cie_regs{sch, "cie_regs", clk.out, 0x60};
    EngineRegs me_regs{sch, "me_regs", clk.out, 0x68};
    CensusEngine cie{sch, "cie", clk.out, rst.out, cie_regs};
    MatchingEngine me{sch, "me", clk.out, rst.out, me_regs};
    RrBoundary rr{sch, "rr", plb.master(1), done_line};
    std::unique_ptr<resim::ExtendedPortal> portal;
    std::unique_ptr<resim::IcapArtifact> icap;
    obs::EventRecorder rec;
    ckpt::Sections sections{sch};
};

}  // namespace autovision::scen
