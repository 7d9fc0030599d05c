// frame_table2: the paper's demonstrator at Table II parameters as a
// single-threaded closed loop. Each sample elaborates a fresh
// sys::Testbench and runs one frame; the scene seed advances per sample.
#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "bench.hpp"
#include "kernel/prng.hpp"
#include "sys/testbench.hpp"

namespace perfbench {

namespace {

using autovision::sys::RunResult;
using autovision::sys::SystemConfig;
using autovision::sys::Testbench;

/// Table II: ReSim, 320x200, step 4, margin 8, search 2, 2048-word SimBs,
/// undivided configuration clock.
SystemConfig table2_config() {
    SystemConfig cfg;
    cfg.width = 320;
    cfg.height = 200;
    cfg.step = 4;
    cfg.margin = 8;
    cfg.search = 2;
    cfg.simb_payload_words = 2048;
    cfg.icap_clk_div = 1;
    cfg.lanes = 1;  // single-threaded, whatever AUTOVISION_LANES says
    return cfg;
}

constexpr std::uint64_t kTagScene = 0x4652'414D'4500ull;  // "FRAME"

std::uint32_t scene_seed(std::uint64_t seed, std::uint64_t sample) {
    // Testbench treats scene seed 0 as "derive from the config seed".
    return rtlsim::derive_seed32(seed, kTagScene + sample) | 1u;
}

/// Processes reported one by one (Testbench elaboration names).
constexpr std::array<const char*, 13> kProcs = {
    "plb.fsm",         "cpu.exec",          "me.datapath",
    "cie.datapath",    "intc.capture",      "icapctrl.fsm",
    "dcr.ring",        "video_in.stream",   "video_out.stream",
    "rr.mux",          "rr.rsp",            "cie_regs.pulse_gen",
    "me_regs.pulse_gen"};

/// The simulated-side fingerprint of one frame: identical for identical
/// scene seeds, whatever the host does.
struct FrameCounts {
    rtlsim::SimStats stats;
    rtlsim::Time sim_time = 0;
    std::uint64_t insns = 0;
    std::uint64_t decodes = 0;
    std::uint64_t plb_beats = 0;
    std::uint64_t plb_transactions = 0;
    std::array<std::uint64_t, kProcs.size()> procs{};

    bool operator==(const FrameCounts&) const = default;
};

FrameCounts counts_of(const Testbench& tb, const RunResult& r) {
    FrameCounts c;
    c.stats = r.stats;
    c.sim_time = r.sim_time;
    c.insns = tb.sys.cpu.instructions();
    c.decodes = tb.sys.cpu.decode_cache().decodes();
    const auto& pc = tb.sys.plb.counters();
    c.plb_beats = pc.read_beats + pc.write_beats;
    c.plb_transactions = pc.transactions;
    for (const rtlsim::Process* p : tb.sys.sch.processes()) {
        for (std::size_t i = 0; i < kProcs.size(); ++i) {
            if (p->name() == kProcs[i]) c.procs[i] = p->invocations();
        }
    }
    return c;
}

struct Samples {
    std::vector<double> setup_ms;  ///< Testbench construction
    std::vector<double> run_ms;    ///< run(1)
    std::vector<double> ns_per_invocation;
    std::vector<double> cie_ms, me_ms, cpu_ms, dpr_ms;
    std::uint64_t failed = 0;
    FrameCounts first;  ///< sample 0
};

/// One sample: elaborate a fresh testbench on scene `i`, run one frame.
void one_frame(const Options& opt, std::uint64_t i, Tracer& tr, Samples& s,
               WorkloadResult& res) {
    Tracer::Scope frame(tr, "frame");
    Tracer::Scope elab(tr, "sys.elaborate", frame.id());
    const Clock::time_point t0 = Clock::now();
    Testbench tb(table2_config(), scene_seed(opt.seed, i));
    const Clock::time_point t1 = Clock::now();
    elab.end();
    Tracer::Scope run(tr, "sys.run", frame.id());
    const RunResult r = tb.run(1);
    const Clock::time_point t2 = Clock::now();
    run.end();

    s.setup_ms.push_back(ms_since(t0, t1));
    s.run_ms.push_back(ms_since(t1, t2));
    if (!r.clean()) {
        ++s.failed;
        res.fail("frame sample " + std::to_string(i) + ": " + r.verdict());
    }
    if (tr.on()) {
        s.ns_per_invocation.push_back(
            ms_since(t1, t2) * 1e6 /
            static_cast<double>(
                std::max<std::uint64_t>(1, r.stats.proc_invocations)));
        s.cie_ms.push_back(to_ms(r.stages.cie_wall));
        s.me_ms.push_back(to_ms(r.stages.me_wall));
        s.cpu_ms.push_back(to_ms(r.stages.cpu_wall));
        s.dpr_ms.push_back(to_ms(r.stages.dpr_wall));
    }
    if (i == 0) s.first = counts_of(tb, r);
}

}  // namespace

WorkloadResult run_frame_table2(const Options& opt, Tracer& tr) {
    WorkloadResult res;
    Tracer off(false);
    // A traced run simulates every scene twice, untraced then traced, so
    // trace_overhead_pct compares the same work under the same host load.
    // An untraced run keeps going past the window (up to twice its length)
    // until 10 frames lie beyond its p90.
    Samples plain, traced;
    const Clock::time_point start = Clock::now();
    const auto window = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(opt.seconds));
    const auto more = [&](std::uint64_t i) {
        const Clock::time_point now = Clock::now();
        return i == 0 || now < start + window ||
               (!tr.on() && !percentile_supported(i, 90) &&
                now < start + 2 * window);
    };
    for (std::uint64_t i = 0; more(i); ++i) {
        one_frame(opt, i, off, plain, res);
        if (tr.on()) one_frame(opt, i, tr, traced, res);
    }
    res.attempted = plain.run_ms.size() + traced.run_ms.size();
    res.failed = plain.failed + traced.failed;
    if (tr.on() && !(traced.first == plain.first)) {
        res.fail("frame sample 0: traced and untraced counts differ");
    }

    // Determinism: sample 0's scene simulated again must give the same
    // simulated-side counts.
    {
        Testbench tb(table2_config(), scene_seed(opt.seed, 0));
        const RunResult r = tb.run(1);
        if (!(counts_of(tb, r) == plain.first)) {
            res.fail("frame sample 0 re-run: simulated-side counts differ");
        }
    }

    if (!tr.on()) {
        // op_ms is frame_ms_p90. The host's speed comes in bursts: most
        // frames run at one speed, and runs of frames up to 1.7x faster
        // come and go over seconds. The p90 stays on the common speed,
        // whatever share of the window the bursts take; the mean and the
        // median move with that share.
        res.end_to_end.push_back({"op_ms", percentile(plain.run_ms, 90), "ms"});
        res.end_to_end.push_back(
            {"setup_s", median(plain.setup_ms) / 1e3, "s"});
        res.named.push_back(
            {"frame_ms_p50", percentile(plain.run_ms, 50), "ms"});
        res.named.push_back({"frame_samples",
                             static_cast<double>(plain.run_ms.size()),
                             "count"});
        return res;
    }
    res.untraced_op_ms = median(plain.run_ms);
    res.traced_op_ms = median(traced.run_ms);

    const Samples& s = traced;
    const FrameCounts& c = s.first;
    auto& L = res.layer;
    L.push_back({"kernel.delta_cycles",
                 static_cast<double>(c.stats.delta_cycles), "count"});
    L.push_back({"kernel.proc_invocations",
                 static_cast<double>(c.stats.proc_invocations), "count"});
    L.push_back({"kernel.signal_updates",
                 static_cast<double>(c.stats.signal_updates), "count"});
    L.push_back({"kernel.timed_events",
                 static_cast<double>(c.stats.timed_events), "count"});
    L.push_back({"kernel.ns_per_invocation", median(s.ns_per_invocation),
                 "ns"});
    for (std::size_t i = 0; i < kProcs.size(); ++i) {
        L.push_back({std::string("proc.") + kProcs[i] + ".invocations",
                     static_cast<double>(c.procs[i]), "count"});
    }
    L.push_back({"stage.cie_ms", median(s.cie_ms), "ms"});
    L.push_back({"stage.me_ms", median(s.me_ms), "ms"});
    L.push_back({"stage.cpu_ms", median(s.cpu_ms), "ms"});
    L.push_back({"stage.dpr_ms", median(s.dpr_ms), "ms"});
    L.push_back({"sys.elaborate_ms", tr.median_ms("sys.elaborate"), "ms"});
    L.push_back({"sys.run_ms", tr.median_ms("sys.run"), "ms"});
    L.push_back({"isa.insns", static_cast<double>(c.insns), "count"});
    L.push_back({"isa.decodes", static_cast<double>(c.decodes), "count"});
    L.push_back({"bus.plb_beats", static_cast<double>(c.plb_beats), "count"});
    L.push_back({"bus.plb_transactions",
                 static_cast<double>(c.plb_transactions), "count"});
    L.push_back({"sim.frame_us",
                 rtlsim::to_ms(c.sim_time) * 1e3, "us"});
    return res;
}

}  // namespace perfbench
