// perfbench: the benchmark of record's harness. Runs one workload in this
// process, checks its outputs and prints, as the last line of stdout, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics, traced runs (--trace 1) the per-layer
// metrics. Every metric either list names is always present; a layer that
// a workload does not exercise reads 0 there.
//
//   perfbench --workload frame_table2|closure_w2|diff_svc --seed N
//             --seconds S --trace 0|1 [--tmp DIR] [--trace-dir DIR]
//             [--source ID]
//
// Exit codes: 0 all checks pass, 1 an output check failed, 2 bad usage,
// 3 the harness was built without optimisation.
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <string>
#include <vector>

#include "bench.hpp"
#include "sys/system.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

struct Name {
    const char* name;
    const char* unit;
};

/// The end-to-end metrics, in BENCHMARK.json order.
constexpr Name kEndToEnd[] = {
    {"op_ms", "ms"}, {"setup_s", "s"}, {"peak_rss_mb", "MiB"}};

/// The per-layer metrics, in BENCHMARK.json order.
constexpr Name kPerLayer[] = {
    // frame_table2
    {"kernel.delta_cycles", "count"},
    {"kernel.proc_invocations", "count"},
    {"kernel.signal_updates", "count"},
    {"kernel.timed_events", "count"},
    {"kernel.ns_per_invocation", "ns"},
    {"proc.plb.fsm.invocations", "count"},
    {"proc.cpu.exec.invocations", "count"},
    {"proc.me.datapath.invocations", "count"},
    {"proc.cie.datapath.invocations", "count"},
    {"proc.intc.capture.invocations", "count"},
    {"proc.icapctrl.fsm.invocations", "count"},
    {"proc.dcr.ring.invocations", "count"},
    {"proc.video_in.stream.invocations", "count"},
    {"proc.video_out.stream.invocations", "count"},
    {"proc.rr.mux.invocations", "count"},
    {"proc.rr.rsp.invocations", "count"},
    {"proc.cie_regs.pulse_gen.invocations", "count"},
    {"proc.me_regs.pulse_gen.invocations", "count"},
    {"stage.cie_ms", "ms"},
    {"stage.me_ms", "ms"},
    {"stage.cpu_ms", "ms"},
    {"stage.dpr_ms", "ms"},
    {"sys.elaborate_ms", "ms"},
    {"sys.run_ms", "ms"},
    {"isa.insns", "count"},
    {"isa.decodes", "count"},
    {"bus.plb_beats", "count"},
    {"bus.plb_transactions", "count"},
    {"sim.frame_us", "us"},
    // closure_w2
    {"campaign.job_ms_p50", "ms"},
    {"campaign.job_ms_p90", "ms"},
    {"campaign.batch_ms_p50", "ms"},
    {"campaign.worker_util", "ratio"},
    {"campaign.jobs.stream", "count"},
    {"campaign.jobs.system", "count"},
    {"campaign.jobs.fault", "count"},
    {"campaign.job_ms_sum.stream", "ms"},
    {"campaign.job_ms_sum.system", "ms"},
    {"campaign.job_ms_sum.fault", "ms"},
    {"cover.goal_hits", "count"},
    {"ckpt.boot_snapshot_ms", "ms"},
    {"ckpt.blob_bytes", "bytes"},
    {"sys.detection_ms", "ms"},
    {"sys.system_ms", "ms"},
    {"ckpt.stream_warm_ms", "ms"},
    {"ckpt.stream_cold_ms", "ms"},
    {"scen.generate_ms", "ms"},
    {"cover.observe_ms", "ms"},
    {"cover.merge_ms", "ms"},
    {"rrm.run_ms", "ms"},
    {"rrm.swaps", "count"},
    // diff_svc
    {"svc.submit_ms", "ms"},
    {"svc.wait_ms", "ms"},
    {"svc.overhead_ms", "ms"},
    {"svc.start_ms", "ms"},
    {"diff.vm_side_ms", "ms"},
    {"diff.resim_side_ms", "ms"},
    {"diff.classify_ms", "ms"},
    {"diff.shrink_ms", "ms"},
    {"diff.shrink_runs", "count"},
    {"diff.genuine", "count"},
    {"ckpt.boot_cache_fill_ms", "ms"},
    // every workload
    {"trace_overhead_pct", "%"},
};

std::string number(double v) {
    if (!std::isfinite(v)) v = 0.0;
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
}

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out + "\"";
}

/// Emit `names` in order, each taking its value from `have` (0 if absent).
std::string metrics_json(const Name* names, std::size_t n,
                         const std::vector<Metric>& have) {
    std::string out = "{";
    for (std::size_t i = 0; i < n; ++i) {
        double v = 0.0;
        for (const Metric& m : have) {
            if (m.name == names[i].name) v = m.value;
        }
        if (i != 0) out += ", ";
        out += json_string(names[i].name) + ": {\"value\": " + number(v) +
               ", \"unit\": " + json_string(names[i].unit) + "}";
    }
    return out + "}";
}

[[noreturn]] void usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s --workload frame_table2|closure_w2|diff_svc "
                 "--seed N --seconds S --trace 0|1 [--tmp DIR] "
                 "[--trace-dir DIR] [--source ID]\n",
                 argv0);
    std::exit(2);
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
    std::fprintf(stderr,
                 "perfbench: refusing to report from an unoptimised build "
                 "(build type '%s'); configure with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
#endif
    Options opt;
    std::string source = "unknown";
    bool have_seed = false, have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc) usage(argv[0]);
        const char* v = argv[++i];
        char* end = nullptr;
        if (a == "--workload") {
            opt.workload = v;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(v, &end, 0);
            have_seed = end != v && *end == '\0';
        } else if (a == "--seconds") {
            opt.seconds = std::strtod(v, &end);
            have_seconds = end != v && *end == '\0' && opt.seconds > 0;
        } else if (a == "--trace") {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
                usage(argv[0]);
            }
            opt.trace = v[0] == '1';
        } else if (a == "--tmp") {
            opt.tmp_dir = v;
        } else if (a == "--trace-dir") {
            opt.trace_dir = v;
        } else if (a == "--source") {
            source = v;
        } else {
            usage(argv[0]);
        }
    }
    if (!have_seed || !have_seconds) usage(argv[0]);

    WorkloadResult (*run)(const Options&, Tracer&) = nullptr;
    if (opt.workload == "frame_table2") run = run_frame_table2;
    if (opt.workload == "closure_w2") run = run_closure_w2;
    if (opt.workload == "diff_svc") run = run_diff_svc;
    if (run == nullptr) usage(argv[0]);

    std::printf("context {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
                "\"trace\": %d, \"nproc\": %ld, \"lanes\": %u, "
                "\"compiler\": %s, \"build_type\": %s, \"source\": %s}\n",
                json_string(opt.workload).c_str(),
                static_cast<unsigned long long>(opt.seed),
                number(opt.seconds).c_str(), opt.trace ? 1 : 0,
                ::sysconf(_SC_NPROCESSORS_ONLN),
                autovision::sys::SystemConfig::resolve_lanes(0),
                json_string("gcc " __VERSION__).c_str(),
                json_string(PERFBENCH_BUILD_TYPE).c_str(),
                json_string(source).c_str());
    std::fflush(stdout);

    Tracer tracer(opt.trace);
    WorkloadResult r = run(opt, tracer);
    // A check that fails outside any single operation still counts as one
    // failed attempt.
    const std::uint64_t attempted = std::max<std::uint64_t>(1, r.attempted);
    const std::uint64_t failed =
        r.check_failures.empty() ? r.failed : std::max<std::uint64_t>(1, r.failed);
    r.named.push_back({"failed_frac", failed_frac(failed, attempted), "ratio"});
    r.end_to_end.push_back({"peak_rss_mb", peak_rss_mib(), "MiB"});
    if (opt.trace) {
        r.layer.push_back(
            {"trace_overhead_pct",
             r.untraced_op_ms > 0
                 ? 100.0 * (r.traced_op_ms - r.untraced_op_ms) / r.untraced_op_ms
                 : 0.0,
             "%"});
        std::error_code ec;
        std::filesystem::create_directories(opt.trace_dir, ec);
        const std::string path = opt.trace_dir + "/" + opt.workload + "-seed" +
                                 std::to_string(opt.seed) + ".json";
        if (!tracer.write_chrome(path)) {
            std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
        }
    }

    std::vector<Metric> printed = opt.trace ? r.layer : r.end_to_end;
    printed.insert(printed.end(), r.named.begin(), r.named.end());
    for (const Metric& m : printed) {
        std::printf("metric %-28s %16s %s\n", m.name.c_str(),
                    number(m.value).c_str(), m.unit.c_str());
    }
    for (const std::string& why : r.check_failures) {
        std::printf("check FAILED: %s\n", why.c_str());
    }
    const bool correct = failed == 0 && r.attempted > 0;
    if (correct) std::printf("checks: all passed\n");
    const std::string metrics =
        opt.trace ? metrics_json(kPerLayer, std::size(kPerLayer), r.layer)
                  : metrics_json(kEndToEnd, std::size(kEndToEnd), r.end_to_end);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), metrics.c_str());
    return correct ? 0 : 1;
}
