// diff: the differential VM-vs-ReSim oracle.
//
// Two instances of the minimal DPR system (scen::DprStack) are built from
// one scenario — one wired through the Virtual Multiplexing signature
// register, one through the ReSim ICAP/portal path — and driven from the
// same scen::Scenario. The VM side consumes only the scenario's swap
// *schedule* (engine_signature DCR writes; zero-delay, no bitstream), the
// ReSim side plays the full SimB word stream through the ICAP artifact.
// Between reconfiguration sessions both sides run identical engine
// "probes" (program registers, pulse start, hash the output window), which
// is the frame-output equivalence surface the classifier compares.
//
// The harness purposely preserves the paper's VM blind spots instead of
// papering over them: the VM side never opens an X window, never drives the
// isolation module, and never exercises capture/restore — the classifier
// (classify.hpp) masks those as expected-by-construction and reserves
// "genuine" for differences a correct design must not show.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "kernel/kernel.hpp"
#include "kernel/stats.hpp"
#include "obs/event.hpp"
#include "scen/scenario.hpp"

namespace autovision::diff {

/// Injectable design faults for oracle self-checks. Each maps to a
/// fault-catalogue class the paper discusses:
///   * kVmNoSigInit      — bug.hw.2: the engine_signature register is never
///                         initialised, so the VM side starts with an empty
///                         region (a VM-only false alarm);
///   * kIsolationMissing — bug.dpr.1: the ReSim-side driver never asserts
///                         isolation, so reconfiguration X escapes onto the
///                         PLB (invisible under VM by construction);
///   * kWrongModuleMap   — bug.dpr.3-class: the ReSim portal maps module ids
///                         to swapped boundary slots, so every SimB swap
///                         lands the wrong engine.
enum class DiffFault : std::uint8_t {
    kNone,
    kVmNoSigInit,
    kIsolationMissing,
    kWrongModuleMap,
    kCount,
};

[[nodiscard]] const char* to_string(DiffFault f);
/// Parse the CLI spelling ("none", "vm-no-sig-init", "isolation-missing",
/// "wrong-module-map"); `ok` reports whether the name was recognised.
[[nodiscard]] DiffFault fault_from_string(const std::string& s, bool* ok);

/// Warm-start cache for the differential fixtures: one boot snapshot per
/// (side, injected fault) — the two sides elaborate different netlists, and
/// an injected fault can change the boot state, so the blobs never mix.
/// Entries are filled by the first run that needs them and reused by every
/// later run (the shrinker's dozens of replays fork from here instead of
/// re-simulating elaborate+reset each time). An entry that does not
/// restore is dropped: the run boots a fresh side cold and refills it. Not
/// thread-safe: share a cache only within one worker.
struct BootCache {
    std::string vm[static_cast<std::size_t>(DiffFault::kCount)];
    std::string resim[static_cast<std::size_t>(DiffFault::kCount)];
};

struct DiffOptions {
    DiffFault inject = DiffFault::kNone;
    /// Cycle budget for one engine probe before giving up on done.
    unsigned probe_budget_cycles = 30000;
    /// Cooperative cancellation (campaign watchdog); polled between SimB
    /// words and probe chunks.
    const std::atomic<bool>* cancel = nullptr;
    /// Optional externally owned boot-snapshot cache (see BootCache).
    BootCache* boot = nullptr;
};

/// Result of one engine probe: did the engine report done, a hash of the
/// fixed output window, and how many of its bytes carried X.
struct ProbeOutcome {
    bool done = false;
    std::uint64_t hash = 0;
    unsigned x_bytes = 0;

    [[nodiscard]] bool operator==(const ProbeOutcome&) const = default;
};

/// Everything the classifier needs from one side of the pair.
struct SideRun {
    std::vector<int> selects;       ///< boundary kSelect values, in order
    std::uint64_t swaps = 0;        ///< vmux swaps / portal reconfigurations
    std::uint64_t aborts = 0;       ///< ReSim only
    std::uint64_t captures = 0;     ///< ReSim only
    std::uint64_t restores = 0;     ///< ReSim only
    std::vector<ProbeOutcome> probes;
    /// Scheduler diagnostics as "source: message" lines.
    std::vector<std::string> diagnostics;
    std::vector<obs::Event> events;
    rtlsim::SimStats stats;
    rtlsim::Time sim_time = 0;
    bool cancelled = false;
    bool warm_started = false;  ///< forked from the boot-cache entry
};

/// Drive one side. Probe 0 runs before any session (initial-residency
/// check, the bug.hw.2 surface), then one probe per session.
[[nodiscard]] SideRun run_vm_side(const scen::Scenario& s,
                                  const DiffOptions& opt);
[[nodiscard]] SideRun run_resim_side(const scen::Scenario& s,
                                     const DiffOptions& opt);

/// The boundary-slot sequence a correct design selects for this scenario:
/// the initial configuration (CIE, slot 0) followed by one entry per
/// session whose mutation still completes the swap.
[[nodiscard]] std::vector<int> expected_selects(const scen::Scenario& s);

/// Total SimB words the scenario plays (the shrinker's size metric).
[[nodiscard]] std::size_t simb_word_count(const scen::Scenario& s);

}  // namespace autovision::diff
