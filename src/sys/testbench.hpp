// Full-system testbench for the Optical Flow Demonstrator.
//
// Owns the system, the synthetic video scene, the scoreboard and the
// watchdog; drives the video VIPs (frame pacing follows the firmware's
// consumption, modelling the camera's double-buffered feed) and checks
// every pipeline product (census image, motion field, drawn output) as the
// firmware reports progress through the mailbox.
//
// The run loop advances simulation in small quanta and attributes both
// simulated time and host wall-clock time to the active execution stage
// (CIE / ME / DPR / CPU+ISR) — the measurement behind the Table II
// reproduction.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "system.hpp"
#include "vip/scoreboard.hpp"
#include "video/synth.hpp"

namespace autovision::sys {

/// Per-stage time attribution (Table II rows).
struct StageTimes {
    rtlsim::Time cie_sim = 0;
    rtlsim::Time me_sim = 0;
    rtlsim::Time dpr_sim = 0;
    rtlsim::Time cpu_sim = 0;  ///< "PowerPC interrupt handler + drawing"
    std::chrono::nanoseconds cie_wall{0};
    std::chrono::nanoseconds me_wall{0};
    std::chrono::nanoseconds dpr_wall{0};
    std::chrono::nanoseconds cpu_wall{0};

    [[nodiscard]] rtlsim::Time total_sim() const {
        return cie_sim + me_sim + dpr_sim + cpu_sim;
    }
    [[nodiscard]] std::chrono::nanoseconds total_wall() const {
        return cie_wall + me_wall + dpr_wall + cpu_wall;
    }

    StageTimes& operator+=(const StageTimes& o) {
        cie_sim += o.cie_sim;
        me_sim += o.me_sim;
        dpr_sim += o.dpr_sim;
        cpu_sim += o.cpu_sim;
        cie_wall += o.cie_wall;
        me_wall += o.me_wall;
        dpr_wall += o.dpr_wall;
        cpu_wall += o.cpu_wall;
        return *this;
    }
};

struct RunResult {
    unsigned frames_completed = 0;
    unsigned frames_requested = 0;
    std::size_t census_mismatches = 0;
    std::size_t field_mismatches = 0;
    std::size_t output_mismatches = 0;
    bool watchdog_timeout = false;
    std::vector<rtlsim::Diag> diagnostics;
    rtlsim::SimStats stats;
    rtlsim::Time sim_time = 0;
    std::chrono::nanoseconds wall_time{0};
    StageTimes stages;
    /// Structured-event metrics (valid when `traced`; see SystemConfig
    /// trace_events).
    bool traced = false;
    obs::Metrics metrics;

    [[nodiscard]] bool data_corruption() const {
        return census_mismatches + field_mismatches + output_mismatches > 0;
    }
    /// A clean run: all frames completed, bit-exact data, no checker
    /// diagnostics, no watchdog. Any deviation is a "bug detected".
    [[nodiscard]] bool clean() const {
        return frames_completed == frames_requested && !watchdog_timeout &&
               !data_corruption() && diagnostics.empty();
    }
    /// Short human-readable failure summary ("clean" when none).
    [[nodiscard]] std::string verdict() const;
};

/// Cycles without mailbox progress after which a run is reported hung: a
/// margin of 4 over the longest stretch a clean run of `cfg`'s shape can go
/// without progress. That stretch is bounded by the sum of four terms: the
/// engines (pixels and search candidates), the SimB transfer, the delay
/// driver's loop and a fixed allowance for reset, boot and the ISR.
[[nodiscard]] std::uint64_t progress_budget(const SystemConfig& cfg);

class Testbench {
public:
    /// `scene_seed` = 0 (the default) derives the scene texture seed from
    /// the canonical SystemConfig::seed; a non-zero value overrides it
    /// (legacy call sites and scene-sweep campaigns).
    explicit Testbench(SystemConfig cfg, std::uint32_t scene_seed = 0);

    /// Process `frames` video frames end to end. `watchdog_cycles` = 0
    /// uses progress_budget(config).
    RunResult run(unsigned frames, std::uint64_t watchdog_cycles = 0);

    /// Cooperative cancellation for batch drivers: when the flag is set
    /// (e.g. by a campaign watchdog on another thread), the run loop aborts
    /// at the next quantum and the result reports a watchdog timeout.
    void set_cancel_flag(const std::atomic<bool>* cancel) { cancel_ = cancel; }

    /// Stop at the verdict: run() returns at the end of the first quantum
    /// whose evidence already makes the run unclean (a scheduler diagnostic
    /// or a census, field or output mismatch). Evidence is never withdrawn,
    /// so clean() reads the same as for the whole run, and a clean run never
    /// stops early. Off by default, for callers that read the whole run.
    void set_stop_at_verdict(bool on) { stop_at_verdict_ = on; }

    OpticalFlowSystem sys;
    video::SyntheticScene scene;
    vip::Scoreboard scoreboard;

    /// Output frames fetched by the VideoOut VIP (for the examples).
    std::vector<video::Frame> displayed;

    /// The structured event recorder (null unless trace_events was set).
    [[nodiscard]] obs::EventRecorder* recorder() { return recorder_.get(); }

private:
    void send_frame(unsigned index);

    unsigned frames_sent_ = 0;
    const std::atomic<bool>* cancel_ = nullptr;
    bool stop_at_verdict_ = false;
    // VCD dumping (active when SystemConfig::vcd_path is set).
    std::unique_ptr<std::ofstream> vcd_file_;
    std::unique_ptr<rtlsim::Tracer> tracer_;
    // Structured event tracing (active when SystemConfig::trace_events).
    std::unique_ptr<obs::EventRecorder> recorder_;
};

}  // namespace autovision::sys
