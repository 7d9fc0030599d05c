#include "stream_harness.hpp"

#include <optional>

#include "dpr_stack.hpp"

namespace autovision::scen {

namespace {

/// Config hash pinning the stream testbench's (fixed) elaboration. The
/// harness has no configuration knobs, so the hash is a version string:
/// bump the suffix whenever the testbench topology changes, and stale boot
/// snapshots are rejected instead of restored into the wrong netlist.
const std::uint64_t kStreamTbHash =
    rtlsim::snap_hash64("autovision.streamtb.v1");

/// The stream testbench: the stack with the portal and ICAP artifact, the
/// harness itself as the controller. The CIE is configured before the
/// recorder listens, so no power-on kSelect is recorded.
void elaborate(std::optional<DprStack>& tb) {
    tb.emplace(DprStack::Parts{.isolation = false, .icap = true});
    tb->configure();
    tb->listen();
}

}  // namespace

std::string stream_boot_snapshot() {
    std::optional<DprStack> tb;
    elaborate(tb);
    tb->boot();
    return tb->save(kStreamTbHash);
}

StreamResult run_stream_scenario(const Scenario& scenario,
                                 const std::atomic<bool>* cancel,
                                 const std::string* boot) {
    StreamResult res;
    std::optional<DprStack> tb;
    elaborate(tb);
    // Warm start: skip the shared elaborate-and-reset prefix by restoring
    // the boot snapshot. A stale or corrupt blob can fail the restore
    // partway, so the cold path boots a freshly elaborated testbench.
    const bool has_boot = boot != nullptr && !boot->empty();
    res.warm_started = has_boot && tb->restore(*boot, kStreamTbHash);
    if (!res.warm_started) {
        if (has_boot) elaborate(tb);
        tb->boot();
    }

    for (const StreamSession& ss : scenario.sessions) {
        tb->play(ss, cancel);
        if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
            break;
        }
    }

    res.swaps = tb->portal->reconfigurations();
    res.aborts = tb->portal->aborts();
    res.truncations = tb->icap->truncations();
    res.captures = tb->portal->captures();
    res.restores = tb->portal->restores();
    res.diagnostics = tb->sch.diagnostics().size();
    res.diagnostic_text.reserve(res.diagnostics);
    for (const rtlsim::Diag& d : tb->sch.diagnostics()) {
        res.diagnostic_text.push_back(d.source + ": " + d.message);
    }
    res.events = tb->rec.snapshot();
    res.clk_period = DprStack::kClk;
    res.sim_time = tb->sch.now();
    res.stats = tb->sch.stats;
    return res;
}

}  // namespace autovision::scen
