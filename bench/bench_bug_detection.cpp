// E4 — Table III and the Section V-A bug counts.
//
// Runs the whole fault catalogue under both simulation methods and prints
// the detection matrix plus the per-method totals that the paper reports:
// Virtual Multiplexing finds the static bugs (and raises one false alarm);
// ReSim additionally finds every DPR bug and the DPR-driver software bugs.
// The totals count the paper's 11 faults; the ISS-layer classes
// bug.sw.3-sw.5 are tallied apart (campaign::print_fault_table).
//
// A third column reproduces the DESIGN.md ablation: ReSim with X injection
// disabled (a 2-state simulator's view) silently passes the isolation bug —
// the 4-state kernel is load-bearing.
//
// The batch itself runs on the campaign subsystem: one job per fault for
// the VM+ReSim pair, one per fault for the no-X ablation, fanned out over
// the worker pool (each job builds its own isolated Testbench).
#include <cstdio>
#include <iterator>

#include "campaign/campaigns.hpp"
#include "campaign/runner.hpp"
#include "sys/detection.hpp"

using namespace autovision;
using namespace autovision::campaign;

int main() {
    const sys::SystemConfig cfg = small_system_config();

    std::printf("==== Table III: detected bugs per simulation method ====\n");
    std::printf("(2 frames per run; a run 'detects' when any checker fires,"
                " data mismatches, or the watchdog trips)\n\n");

    std::vector<SimJob> jobs = fault_catalog_jobs(cfg, /*frames=*/2);
    auto nox = resim_no_x_jobs(cfg, /*frames=*/2);
    jobs.insert(jobs.end(), std::make_move_iterator(nox.begin()),
                std::make_move_iterator(nox.end()));

    CampaignRunner runner({});  // defaults: hardware concurrency, no watchdog
    const CampaignResult result = runner.run(jobs);

    const unsigned mismatches = print_fault_table(result.records);
    std::printf("\nablation: without X injection, bug.dpr.1 (isolation) "
                "escapes — see the third column.\n");
    std::printf("\ncampaign rollup:\n%s", result.summary.table().c_str());
    return mismatches == 0 ? 0 : 1;
}
