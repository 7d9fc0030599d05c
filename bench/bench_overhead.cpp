// E3 — Section V: the simulation overhead of ReSim.
//
// The paper measured (with ModelSim's profiler) 1.4% of simulation time in
// the Engine_Wrapper multiplexer and 0.3% in the other simulation-only
// artifacts (Extended Portal, error injectors), 1.7% total. We reproduce
// the measurement with the kernel's per-process profiler: the region
// boundary's "mux" process is the wrapper multiplexer; the ICAP artifact's
// parse time (which includes the portal calls) is the artifact cost. The
// artifact parses inside the icapctrl.fsm body, so its time is a share of
// that body's, already in the process total.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "sys/address_map.hpp"
#include "sys/testbench.hpp"

using namespace autovision;
using namespace autovision::sys;

int main() {
    SystemConfig cfg;
    cfg.width = 160;
    cfg.height = 120;
    cfg.step = 4;
    cfg.margin = 8;
    cfg.search = 2;
    cfg.simb_payload_words = 2048;
    cfg.icap_clk_div = 2;

    Testbench tb(cfg);
    tb.sys.sch.enable_profiling();
    const RunResult r = tb.run(3);

    // Total profiled process time is the denominator: it approximates the
    // simulator's productive time the way a ModelSim profile does.
    std::chrono::nanoseconds total{0};
    std::chrono::nanoseconds mux{0};
    std::chrono::nanoseconds rsp{0};
    for (const rtlsim::Process* p : tb.sys.sch.processes()) {
        total += p->self_time();
        if (p->name().find("rr.mux") != std::string::npos) mux = p->self_time();
        if (p->name().find("rr.rsp") != std::string::npos) rsp = p->self_time();
    }
    const auto artifacts = tb.sys.icap_artifact->self_time();

    const auto pct = [&](std::chrono::nanoseconds t) {
        return 100.0 * static_cast<double>(t.count()) /
               static_cast<double>(total.count());
    };

    std::printf("==== ReSim simulation overhead (paper: 1.4%% mux + 0.3%% "
                "artifacts = 1.7%%) ====\n");
    std::printf("(run verdict: %s; %llu mux invocations over %.2f sim-ms)\n\n",
                r.verdict().c_str(),
                static_cast<unsigned long long>(
                    tb.sys.rr.mux_process().invocations()),
                rtlsim::to_ms(r.sim_time));
    std::printf("  %-44s %8.3f %%\n",
                "Engine_Wrapper multiplexer (rr.mux process)", pct(mux));
    std::printf("  %-44s %8.3f %%\n",
                "boundary response broadcast (rr.rsp)", pct(rsp));
    std::printf("  %-44s %8.3f %%\n",
                "ICAP artifact + Extended Portal + injectors", pct(artifacts));
    std::printf("  %-44s %8.3f %%\n", "total simulation-only overhead",
                pct(mux) + pct(rsp) + pct(artifacts));
    std::printf("\npaper-shape checks:\n"
                "  total overhead is a few percent (< 10%%): %s\n"
                "  mux cost dominates artifact cost:        %s\n",
                pct(mux) + pct(rsp) + pct(artifacts) < 10.0 ? "yes" : "NO",
                mux > artifacts ? "yes" : "NO");

    // Top profiled processes, for context.
    std::printf("\ntop processes by self time:\n");
    std::vector<const rtlsim::Process*> procs(tb.sys.sch.processes().begin(),
                                              tb.sys.sch.processes().end());
    std::sort(procs.begin(), procs.end(), [](auto* a, auto* b) {
        return a->self_time() > b->self_time();
    });
    for (std::size_t i = 0; i < procs.size() && i < 8; ++i) {
        std::printf("  %-40s %8.3f %%  (%llu invocations)\n",
                    procs[i]->name().c_str(), pct(procs[i]->self_time()),
                    static_cast<unsigned long long>(procs[i]->invocations()));
    }
    return r.clean() ? 0 : 1;
}
