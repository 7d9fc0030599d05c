// Fault-detection harness — the experiment behind Table III and the
// bugs-detected series of Figure 5.
//
// For each catalogued fault the harness builds the faulty system twice —
// once simulated with Virtual Multiplexing, once with ReSim — runs the same
// frame workload, and classifies each run: a simulation "detects" the bug
// when the run is not clean (checker diagnostics, data corruption, watchdog
// timeout or incomplete frames). The expected outcome per fault comes from
// the catalogue (= the paper's "Comments" column).
//
// Runs are independent simulations, so the harness fans them out across
// the campaign worker pool (each Testbench owns its scheduler and memory;
// `threads` follows the campaign convention: 0 = hardware concurrency).
#pragma once

#include <atomic>
#include <string>
#include <vector>

#include "faults.hpp"
#include "testbench.hpp"

namespace autovision::sys {

struct DetectionOutcome {
    Fault fault = Fault::kNone;
    RunResult vm;
    RunResult resim;

    [[nodiscard]] bool vm_detected() const { return !vm.clean(); }
    [[nodiscard]] bool resim_detected() const { return !resim.clean(); }

    /// True when the observed detections match the catalogue expectation.
    [[nodiscard]] bool matches_expectation() const;

    /// One table row: id | VM verdict | ReSim verdict | expectation.
    [[nodiscard]] std::string row() const;
};

/// Apply the fault's method-independent knobs (wait mode, delay tuning) on
/// top of a base configuration.
[[nodiscard]] SystemConfig config_for_fault(SystemConfig base, Fault f);

/// Run one fault under both methods. Each side stops at its verdict
/// (Testbench::set_stop_at_verdict): a detection keeps only the two
/// booleans. `cancel`, when non-null, is polled by both runs (cooperative
/// abort for batch supervisors).
[[nodiscard]] DetectionOutcome run_detection(
    const SystemConfig& base, Fault f, unsigned frames = 2,
    const std::atomic<bool>* cancel = nullptr);

/// Run the whole catalogue, fanning faults across `threads` workers
/// (0 = hardware concurrency).
[[nodiscard]] std::vector<DetectionOutcome> run_catalog(
    const SystemConfig& base, unsigned frames = 2, unsigned threads = 0);

}  // namespace autovision::sys
