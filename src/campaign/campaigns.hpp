// campaign: the built-in campaigns — the paper's evaluation expressed as
// job batches.
//
//   * faults    — the Table III fault catalogue: one job per catalogued
//                 bug, each running the system under VM and under ReSim
//                 and checking the detections against the expectation.
//   * nox       — the DESIGN.md 2-state ablation: ReSim with X injection
//                 disabled; bug.dpr.1 (isolation) must escape.
//   * simb      — the Section IV-B SimB length sweep plus the FIFO /
//                 configuration-clock / bus corner matrix.
//   * workload  — a frame-count x geometry grid of clean full-system runs.
//   * seeds     — one clean full-system run per synthetic-scene seed.
//
// Every job body builds its own Testbench/Scheduler on the worker thread
// (job isolation) and honours the JobContext cancel flag.
#pragma once

#include <cstdint>
#include <vector>

#include <string>

#include "diff/diff.hpp"
#include "job.hpp"
#include "sys/detection.hpp"

namespace autovision::campaign {

/// The small paper-scale geometry the quick campaigns default to (identical
/// to the detection harness configuration used by tests and benches).
[[nodiscard]] sys::SystemConfig small_system_config();

/// One job per catalogued fault: VM + ReSim detection vs expectation.
/// Metrics: vm_detected, resim_detected.
[[nodiscard]] std::vector<SimJob> fault_catalog_jobs(
    const sys::SystemConfig& base, unsigned frames = 2);

/// One job per catalogued fault, ReSim only, with the error injector
/// replaced by a 2-state no-op. Expected: detections track plain ReSim
/// except bug.dpr.1, which escapes without X propagation.
/// Metrics: nox_detected.
[[nodiscard]] std::vector<SimJob> resim_no_x_jobs(
    const sys::SystemConfig& base, unsigned frames = 2);

/// Print Table III (one row per catalogued fault, catalogue order) and the
/// Section V-A tally from the records of fault_catalog_jobs() and
/// resim_no_x_jobs(); a fault without both records is left out. The tally
/// counts the paper's faults, so each "(paper: N)" compares like with like,
/// and the ISS-layer classes on a line of their own. Returns the number of
/// expectation mismatches.
unsigned print_fault_table(const std::vector<JobRecord>& records);

/// SimB payload-length sweep on the minimal DPR testbench (no CPU): the
/// reconfiguration delay must scale with bitstream length and the swap must
/// complete. Metrics: payload_words, total_words, dpr_ms, swap; with
/// `trace`, the obs.* registry (words per SimB, swap latency, ...) as well.
[[nodiscard]] std::vector<SimJob> simb_sweep_jobs(
    const std::vector<std::uint32_t>& payloads, bool trace = false);

/// FIFO depth x configuration clock x bus-attachment corner matrix on the
/// minimal DPR testbench. Pass = the swap outcome matches the corner's
/// expectation (the overflow and bug.dpr.4 corners must NOT swap).
/// Metrics: swap, expect_swap, overflows, dpr_ms (+ obs.* with `trace`).
[[nodiscard]] std::vector<SimJob> simb_corner_jobs(bool trace = false);

/// Full-system clean-run grid: every (geometry, frame count) cell must
/// complete with a clean verdict. `base` supplies everything but the
/// geometry (method, tracing, clock, ...).
struct WorkloadCell {
    unsigned width;
    unsigned height;
    unsigned frames;
};
[[nodiscard]] std::vector<SimJob> workload_grid_jobs(
    const std::vector<WorkloadCell>& grid,
    const sys::SystemConfig& base = small_system_config());

/// Full-system clean run per synthetic-scene seed.
[[nodiscard]] std::vector<SimJob> seed_sweep_jobs(
    const sys::SystemConfig& base, std::uint32_t first_seed,
    std::uint32_t num_seeds, unsigned frames = 1);

/// Differential VM-vs-ReSim oracle batch: one job per seed, each generating
/// a constrained-random stream scenario, running it through both simulation
/// methods (src/diff) and classifying the divergences. Jobs with a genuine
/// divergence shrink it to a minimal reproducer; with `repro_dir` set the
/// reproducer is dumped as <job>.repro.json + <job>.simb.
///
/// Pass semantics: with no injected fault a job passes iff zero genuine
/// divergences survive masking (a genuine one on the clean design is the
/// finding, hence a fail). With an injected fault, a flagged divergence
/// must also shrink (and the reproducer write succeed, when requested) to
/// pass; a scenario that cannot express the fault passes vacuously — the
/// batch-level >=1-genuine expectation is the runner's --expect-genuine.
/// Metrics: sessions, orig_words, genuine, expected, genuine_vm,
/// genuine_resim; plus shrink_runs, shrunk_words, shrink_ratio on
/// divergence.
struct DiffCampaignConfig {
    std::uint64_t seed = 1;
    unsigned count = 20;
    diff::DiffFault inject = diff::DiffFault::kNone;
    std::string repro_dir;  ///< empty: don't write reproducer files
    unsigned min_sessions = 1;
    unsigned max_sessions = 3;
};
[[nodiscard]] std::vector<SimJob> diff_batch_jobs(
    const DiffCampaignConfig& cfg);

}  // namespace autovision::campaign
