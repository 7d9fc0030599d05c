// scen: the stream-scenario harness.
//
// Plays a kStream scenario's SimB sessions word-by-word straight into the
// ICAP artifact of a DprStack (region boundary, both engines, portal, DCR
// chain — no CPU, no IcapCTRL: the harness *is* the controller, which is
// what lets a scenario pace the transfer with an arbitrary word gap and so
// sweep the error-injection window length). Every obs event of the run is
// captured, ready for the coverage model.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "kernel/kernel.hpp"
#include "obs/event.hpp"
#include "scenario.hpp"

namespace autovision::scen {

struct StreamResult {
    std::uint64_t swaps = 0;
    std::uint64_t aborts = 0;
    std::uint64_t truncations = 0;
    std::uint64_t captures = 0;
    std::uint64_t restores = 0;
    std::size_t diagnostics = 0;  ///< scheduler diagnostics (reports)
    std::vector<std::string> diagnostic_text;  ///< "source: message" lines
    std::vector<obs::Event> events;
    rtlsim::Time clk_period = 0;
    rtlsim::Time sim_time = 0;
    rtlsim::SimStats stats;
    bool warm_started = false;  ///< the run forked from the boot blob
};

/// Run a kStream scenario to completion. `cancel` (optional) aborts the
/// playback cooperatively between words. `boot` (optional) warm-starts the
/// run from a stream_boot_snapshot() blob instead of re-simulating the
/// elaborate-and-reset prefix. A blob that does not restore is dropped and
/// the run boots a freshly elaborated testbench cold (warm_started false),
/// giving exactly the result of a run without one.
[[nodiscard]] StreamResult run_stream_scenario(
    const Scenario& scenario, const std::atomic<bool>* cancel = nullptr,
    const std::string* boot = nullptr);

/// Serialize the stream testbench's boot state (elaborate + reset settle)
/// into a checkpoint blob shareable across every kStream job of a
/// campaign — the scenario only enters after the boot prefix. Empty on
/// failure.
[[nodiscard]] std::string stream_boot_snapshot();

}  // namespace autovision::scen
