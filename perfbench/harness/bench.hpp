// perfbench: what the three workloads share — options, the result record,
// the in-memory span tracer and small timing helpers.
//
// The harness measures from outside: it calls only the public APIs of the
// simulator's modules and wraps those calls in its own spans. Spans live in
// memory and are written out (Chrome trace JSON) when a traced run ends.
// Only the harness's main thread records spans.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Directory for per-run state (service state dirs, sockets),
    /// relative to the working directory so socket paths stay short.
    std::string tmp_dir = ".bench_build/tmp";
    /// Where a traced run writes its span file.
    std::string trace_dir = ".bench_build/traces";
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct WorkloadResult {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /// Output checks that did not hold, one line each.
    std::vector<std::string> check_failures;
    /// End-to-end metrics under their BENCHMARK.json names.
    std::vector<Metric> end_to_end;
    /// Further figures (frame_ms_p50, failed_frac, ...), printed as text
    /// for readers but not part of the result JSON.
    std::vector<Metric> named;
    /// Per-layer metrics (traced runs only).
    std::vector<Metric> layer;
    /// Untraced and traced phases' median operation time, for
    /// trace_overhead_pct (traced runs only).
    double untraced_op_ms = 0.0;
    double traced_op_ms = 0.0;

    void fail(std::string why) { check_failures.push_back(std::move(why)); }
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_since(Clock::time_point t0,
                                     Clock::time_point t1 = Clock::now()) {
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

[[nodiscard]] inline double to_ms(std::chrono::nanoseconds d) {
    return std::chrono::duration<double, std::milli>(d).count();
}

/// In-memory span recorder. Disabled tracers record nothing, so untraced
/// runs pay one branch per span.
class Tracer {
public:
    explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

    [[nodiscard]] bool on() const noexcept { return on_; }

    /// RAII span: begins at construction, ends at destruction or end().
    class Scope {
    public:
        Scope(Tracer& t, const char* name, std::uint32_t parent = 0)
            : t_(t), id_(t.begin(name, parent)) {}
        ~Scope() { end(); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

        [[nodiscard]] std::uint32_t id() const noexcept { return id_; }
        void end() {
            if (id_ != 0) t_.finish(id_);
            id_ = 0;
        }

    private:
        Tracer& t_;
        std::uint32_t id_;
    };

    /// Median duration (ms) of the spans named `name`; 0 when none.
    [[nodiscard]] double median_ms(const std::string& name) const {
        return median(durations_ms(name));
    }

    /// Write the spans as Chrome trace-event JSON (one "X" event per span,
    /// with its parent and self time in args). False on I/O error.
    [[nodiscard]] bool write_chrome(const std::string& path) const;

private:
    [[nodiscard]] std::vector<double> durations_ms(const std::string& name) const;
    std::uint32_t begin(const char* name, std::uint32_t parent);
    void finish(std::uint32_t id);

    bool on_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/// Peak resident set of this process in MiB (getrusage).
[[nodiscard]] double peak_rss_mib();

// The three workloads (frame.cpp, closure.cpp, diffsvc.cpp).
[[nodiscard]] WorkloadResult run_frame_table2(const Options& opt, Tracer& tr);
[[nodiscard]] WorkloadResult run_closure_w2(const Options& opt, Tracer& tr);
[[nodiscard]] WorkloadResult run_diff_svc(const Options& opt, Tracer& tr);

}  // namespace perfbench
