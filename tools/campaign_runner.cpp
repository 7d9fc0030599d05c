// campaign_runner — batch simulation campaigns from the command line.
//
//   campaign_runner --campaign faults   [--jobs N] [--timeout-ms T]
//                   [--retries R] [--out results.jsonl] [--frames F]
//   campaign_runner --campaign simb
//   campaign_runner --campaign workload
//   campaign_runner --campaign seeds    [--seeds N] [--frames F]
//   campaign_runner --campaign closure  [--cover-out cover.json] [--seed S]
//                   [--batches N] [--batch-size N] [--target P] [--no-bias]
//   campaign_runner --campaign diff     [--seed S] [--seeds N]
//                   [--inject NAME] [--repro-out DIR] [--expect-genuine]
//   campaign_runner --replay FILE.repro.json
//
// Every job is an isolated simulation (own Scheduler/Testbench) fanned out
// over the campaign worker pool; results stream into a JSONL file (one
// atomic line per job) and are rolled up into the printed aggregate. The
// `faults` campaign reprints the Table III detection matrix from the job
// records — byte-for-byte the same verdicts as `bench_bug_detection`.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include <fstream>

#include "campaign/campaigns.hpp"
#include "campaign/closure.hpp"
#include "campaign/parse.hpp"
#include "campaign/pool.hpp"
#include "campaign/runner.hpp"
#include "campaign/sink.hpp"
#include "diff/repro.hpp"
#include "diff/shrink.hpp"
#include "scen/stream_harness.hpp"
#include "sys/address_map.hpp"
#include "sys/system.hpp"
#include "video/synth.hpp"

using namespace autovision;
using namespace autovision::campaign;

namespace {

struct Options {
    std::string campaign;
    unsigned jobs = 0;  // 0 = hardware concurrency
    unsigned timeout_ms = 0;
    unsigned retries = 1;
    std::string out;
    std::string verdicts_out;
    unsigned frames = 2;
    unsigned seeds = 8;
    bool quiet = false;
    bool trace = false;
    std::string trace_out;  // directory for per-job Perfetto traces
    // closure campaign
    std::string cover_out;
    unsigned long long seed = 1;
    unsigned batches = 6;
    unsigned batch_size = 12;
    double target = 95.0;
    bool bias = true;
    // diff campaign
    std::string inject = "none";
    std::string repro_out;
    bool expect_genuine = false;
    std::string replay;
    // checkpointing
    std::string ckpt_out;       ///< write a snapshot here
    std::string ckpt_in;        ///< warm-start from this snapshot
    unsigned long long ckpt_at = 0;  ///< standalone mode: run to this cycle
    bool no_warm_start = false;      ///< closure: force cold boots
};

void usage(const char* argv0) {
    std::printf(
        "usage: %s --campaign <name> [options]\n"
        "\n"
        "campaigns:\n"
        "  faults     fault catalogue under VM + ReSim + 2-state ablation"
        " (Table III)\n"
        "  simb       SimB length sweep + FIFO/clock/bus corner matrix"
        " (Section IV-B)\n"
        "  workload   frame-count x geometry grid of clean full-system runs\n"
        "  seeds      one clean full-system run per synthetic-scene seed\n"
        "  closure    coverage-closure loop: constrained-random scenario\n"
        "             batches, merged functional coverage, bins-unhit bias\n"
        "  diff       differential VM-vs-ReSim oracle: one constrained-\n"
        "             random scenario per seed run through both methods,\n"
        "             divergences classified, genuine ones shrunk\n"
        "\n"
        "options (numbers are decimal, with no sign or base prefix):\n"
        "  --jobs N        worker threads, 0..256 (default 0 = hardware"
        " concurrency)\n"
        "  --timeout-ms T  per-attempt wall-clock budget (default 0 ="
        " no watchdog)\n"
        "  --retries R     extra attempts for timed-out/errored jobs"
        " (default 1)\n"
        "  --out FILE      JSONL results sink (one atomic line per job)\n"
        "  --verdicts-out F  deterministic per-job verdict lines, submission\n"
        "                  order (byte-comparable across runs and against a\n"
        "                  resumed campaign-service run of the same batch)\n"
        "  --frames F      frames per run where applicable (default 2)\n"
        "  --seeds N       seed count for the seeds campaign, 1..4096"
        " (default 8)\n"
        "  --trace         record structured simulation events; obs.*\n"
        "                  metrics (swap latency, X-window, ...) land in\n"
        "                  the JSONL records and the printed aggregate\n"
        "  --trace-out DIR write a Chrome-trace/Perfetto JSON per job to\n"
        "                  DIR (implies --trace; DIR must exist)\n"
        "  --quiet         suppress per-job progress lines\n"
        "\n"
        "closure options:\n"
        "  --cover-out F   write the merged coverage JSON to F\n"
        "  --seed S        campaign seed (default 1)\n"
        "  --batches N     batch budget, 1..4096 (default 6)\n"
        "  --batch-size N  scenarios per batch, 1..4096 (default 12)\n"
        "  --target P      stop at P%% goal-bin coverage, 0..1000"
        " (default 95)\n"
        "  --no-bias       pure-random control arm (no coverage feedback)\n"
        "\n"
        "diff options (--seed seeds the batch, --seeds counts jobs):\n"
        "  --inject NAME   injected design fault: none, vm-no-sig-init,\n"
        "                  isolation-missing, wrong-module-map\n"
        "  --repro-out DIR write shrunk minimal reproducers\n"
        "                  (<job>.repro.json + <job>.simb) to DIR\n"
        "  --expect-genuine exit nonzero unless the batch flags at least\n"
        "                  one genuine divergence (fault-injection runs)\n"
        "  --replay FILE   re-run a .repro.json reproducer standalone and\n"
        "                  report whether the divergence reproduces\n"
        "\n"
        "checkpoint options:\n"
        "  --ckpt-at N     standalone mode: drive one full system to cycle\n"
        "                  N (absolute), print the snapshot digest, exit.\n"
        "                  Deterministic: two invocations reaching the same\n"
        "                  cycle print the same digest, whether they got\n"
        "                  there cold or via --ckpt-in\n"
        "  --ckpt-out FILE write a snapshot to FILE: the cycle-N state in\n"
        "                  standalone mode, the stream-testbench boot\n"
        "                  snapshot in the closure campaign\n"
        "  --ckpt-in FILE  warm-start from FILE: restore before continuing\n"
        "                  in standalone mode, fork every closure stream\n"
        "                  job from it in the closure campaign\n"
        "  --no-warm-start closure: always boot stream jobs cold\n",
        argv0);
}

constexpr std::uint64_t kUnsignedMax = std::numeric_limits<unsigned>::max();

constexpr const char* kKnownCampaigns[] = {"faults",  "simb",    "workload",
                                           "seeds",   "closure", "diff"};

/// Deterministic verdict lines, submission order. Returns false (with a
/// message) when the file cannot be written.
bool write_verdicts(const std::string& path,
                    const std::vector<JobRecord>& records) {
    std::ofstream os(path, std::ios::out | std::ios::trunc);
    if (!os) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return false;
    }
    for (const JobRecord& rec : records) os << to_verdict_line(rec) << '\n';
    std::printf("verdicts: %s (%zu lines)\n", path.c_str(), records.size());
    return os.good();
}

/// Standalone reproducer replay: re-run the differential pair a
/// .repro.json bundle records and report whether the genuine divergence
/// reproduces. Exit 0 = the replay matches the bundle's expectation.
int run_replay(const std::string& path) {
    diff::ReproBundle bundle;
    std::string err;
    if (!diff::load_repro_file(path, &bundle, &err)) {
        std::fprintf(stderr, "cannot load %s: %s\n", path.c_str(),
                     err.c_str());
        return 2;
    }
    std::printf("replay %s: '%s', %zu sessions, inject=%s, %zu recorded"
                " genuine divergence(s)\n",
                path.c_str(), bundle.scenario.name.c_str(),
                bundle.scenario.sessions.size(),
                diff::to_string(bundle.inject), bundle.genuine.size());

    diff::DiffOptions dopt;
    dopt.inject = bundle.inject;
    // normalize() is a no-op on writer-produced bundles but keeps
    // hand-edited reproducers inside the generator's invariants.
    const diff::DiffOutcome out =
        diff::run_diff(diff::normalize(bundle.scenario), dopt);

    for (const diff::Divergence& d : out.report.divergences) {
        std::printf("  %-8s %-15s %-6s session %2d  %s\n",
                    d.genuine ? "GENUINE" : "expected",
                    diff::to_string(d.kind), diff::to_string(d.side),
                    d.session, d.detail.c_str());
    }
    const bool want = !bundle.genuine.empty();
    const bool got = out.report.genuine() != 0;
    std::printf("replay: %u genuine, %u expected — %s\n",
                out.report.genuine(), out.report.expected(),
                want == got ? (want ? "divergence REPRODUCED"
                                    : "clean, as recorded")
                            : (want ? "divergence did NOT reproduce"
                                    : "unexpected divergence"));
    return want == got ? 0 : 1;
}

[[nodiscard]] std::uint64_t blob_digest(const std::string& blob) {
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a
    for (const char c : blob) {
        h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
    return h;
}

/// Standalone checkpoint mode (--ckpt-at): drive one full system — cold
/// from reset, or restored from --ckpt-in — to an absolute cycle, print
/// the state digest, and optionally save the reached state to --ckpt-out.
/// The digest depends only on (config, cycle), not on how the run got
/// there, which is exactly the property the CI diverge-check exercises.
int run_ckpt_mode(const Options& opt) {
    sys::SystemConfig cfg = small_system_config();
    cfg.seed = opt.seed;
    sys::OpticalFlowSystem system(cfg);

    if (!opt.ckpt_in.empty()) {
        std::ifstream is(opt.ckpt_in, std::ios::binary);
        if (!is) {
            std::fprintf(stderr, "cannot open %s\n", opt.ckpt_in.c_str());
            return 2;
        }
        std::string err;
        if (!system.restore(is, &err)) {
            std::fprintf(stderr, "restore failed: %s\n", err.c_str());
            return 2;
        }
        std::printf("restored %s at t=%llu\n", opt.ckpt_in.c_str(),
                    static_cast<unsigned long long>(system.sch.now()));
    } else {
        // Cold boot: reset settles, then the camera delivers frame 0 (the
        // same prefix the Testbench runs).
        system.sch.run_until(8 * cfg.clk_period);
        video::SyntheticScene scene(
            video::SceneConfig::standard(cfg.width, cfg.height, 1));
        system.video_in.send_frame(scene.frame(0), sys::kFrameBuf);
    }

    const rtlsim::Time target = opt.ckpt_at * cfg.clk_period;
    if (system.sch.now() > target) {
        std::fprintf(stderr,
                     "snapshot is already past cycle %llu (t=%llu)\n",
                     opt.ckpt_at,
                     static_cast<unsigned long long>(system.sch.now()));
        return 2;
    }
    constexpr rtlsim::Time kQuantum = 32;
    while (system.sch.now() < target && !system.sch.stop_requested()) {
        system.sch.run_until(system.sch.now() +
                             kQuantum * cfg.clk_period);
    }

    std::ostringstream blob;
    if (!system.save(blob)) {
        std::fprintf(stderr, "save failed (not at a quiescent point)\n");
        return 2;
    }
    std::printf("cycle %llu: t=%llu, %zu-byte snapshot, digest"
                " %016llx\n",
                opt.ckpt_at,
                static_cast<unsigned long long>(system.sch.now()),
                blob.str().size(),
                static_cast<unsigned long long>(blob_digest(blob.str())));
    if (!opt.ckpt_out.empty()) {
        std::ofstream os(opt.ckpt_out, std::ios::binary | std::ios::trunc);
        if (!os || !(os << blob.str())) {
            std::fprintf(stderr, "cannot write %s\n", opt.ckpt_out.c_str());
            return 2;
        }
        std::printf("snapshot: %s\n", opt.ckpt_out.c_str());
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto next = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", a.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        // Numbers go through the service's strict parsers and bounds
        // (DESIGN §12). `want` names a good value once one was refused.
        const char* value = nullptr;
        std::string want;
        const auto decimal = [&](auto& out, std::uint64_t lo,
                                 std::uint64_t hi) {
            value = next();
            if (const auto v = parse_decimal(value, lo, hi)) {
                out = static_cast<std::remove_reference_t<decltype(out)>>(*v);
            } else {
                want = "a decimal integer in [" + std::to_string(lo) + ", " +
                       std::to_string(hi) + "]";
            }
        };
        if (a == "--campaign") {
            opt.campaign = next();
        } else if (a == "--jobs") {
            decimal(opt.jobs, 0, 256);
        } else if (a == "--timeout-ms") {
            decimal(opt.timeout_ms, 0, kUnsignedMax);
        } else if (a == "--retries") {
            decimal(opt.retries, 0, kUnsignedMax);
        } else if (a == "--out") {
            opt.out = next();
        } else if (a == "--verdicts-out") {
            opt.verdicts_out = next();
        } else if (a == "--frames") {
            decimal(opt.frames, 0, kUnsignedMax);
        } else if (a == "--seeds") {
            decimal(opt.seeds, 1, kMaxCount);
        } else if (a == "--cover-out") {
            opt.cover_out = next();
        } else if (a == "--seed") {
            decimal(opt.seed, 0, UINT64_MAX);
        } else if (a == "--batches") {
            decimal(opt.batches, 1, kMaxCount);
        } else if (a == "--batch-size") {
            decimal(opt.batch_size, 1, kMaxCount);
        } else if (a == "--target") {
            value = next();
            if (const auto v = parse_finite(value, 0.0, 1000.0)) {
                opt.target = *v;
            } else {
                want = "a number in [0, 1000]";
            }
        } else if (a == "--no-bias") {
            opt.bias = false;
        } else if (a == "--inject") {
            opt.inject = next();
        } else if (a == "--repro-out") {
            opt.repro_out = next();
        } else if (a == "--expect-genuine") {
            opt.expect_genuine = true;
        } else if (a == "--replay") {
            opt.replay = next();
        } else if (a == "--ckpt-out") {
            opt.ckpt_out = next();
        } else if (a == "--ckpt-in") {
            opt.ckpt_in = next();
        } else if (a == "--ckpt-at") {
            decimal(opt.ckpt_at, 1, UINT64_MAX);
        } else if (a == "--no-warm-start") {
            opt.no_warm_start = true;
        } else if (a == "--trace") {
            opt.trace = true;
        } else if (a == "--trace-out") {
            opt.trace_out = next();
            opt.trace = true;
        } else if (a == "--quiet") {
            opt.quiet = true;
        } else if (a == "--help" || a == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown option: %s\n", a.c_str());
            usage(argv[0]);
            return 2;
        }
        if (!want.empty()) {
            std::fprintf(stderr, "bad value %s='%s': expected %s\n",
                         a.c_str(), value, want.c_str());
            return 2;
        }
    }

    if (!opt.replay.empty()) return run_replay(opt.replay);
    if (opt.ckpt_at != 0) return run_ckpt_mode(opt);

    if (opt.campaign == "closure") {
        ClosureConfig cc;
        cc.seed = opt.seed;
        cc.batch_size = opt.batch_size;
        cc.max_batches = opt.batches;
        cc.target_percent = opt.target;
        cc.bias = opt.bias;
        cc.warm_start = !opt.no_warm_start;
        if (!opt.ckpt_in.empty()) {
            std::ifstream is(opt.ckpt_in, std::ios::binary);
            std::ostringstream buf;
            if (!is || !(buf << is.rdbuf())) {
                std::fprintf(stderr, "cannot read %s\n", opt.ckpt_in.c_str());
                return 2;
            }
            cc.boot_blob = buf.str();
        }
        if (!opt.ckpt_out.empty()) {
            const std::string boot = scen::stream_boot_snapshot();
            std::ofstream os(opt.ckpt_out,
                             std::ios::binary | std::ios::trunc);
            if (!os || !(os << boot)) {
                std::fprintf(stderr, "cannot write %s\n",
                             opt.ckpt_out.c_str());
                return 2;
            }
            std::printf("boot snapshot: %s (%zu bytes)\n",
                        opt.ckpt_out.c_str(), boot.size());
        }

        CampaignConfig rc;
        rc.jobs = opt.jobs;
        rc.timeout = std::chrono::milliseconds{opt.timeout_ms};
        rc.retries = opt.retries;
        // Note: not rc.jsonl_path — run_closure spins up one runner (and
        // thus one truncating sink) per batch; records are written once,
        // below, after the loop completes.
        if (!opt.quiet) {
            rc.on_record = [](const JobRecord& rec) {
                std::printf("  %-7s %-22s %8.1f ms  %s\n",
                            to_string(rec.status), rec.name.c_str(),
                            static_cast<double>(rec.wall.count()) / 1e6,
                            rec.report.verdict.c_str());
                std::fflush(stdout);
            };
        }

        std::printf("campaign 'closure': seed 0x%llx, %u batches x %u"
                    " scenarios, target %.1f%%%s\n",
                    opt.seed, opt.batches, opt.batch_size, opt.target,
                    opt.bias ? "" : " (bias off: pure random)");
        const ClosureResult res = run_closure(cc, rc);

        std::printf("\n==== closure ====\n");
        for (const BatchSummary& b : res.batches) {
            std::printf("  batch %u: +%zu new bins, %zu goal bins hit"
                        " (%.1f%%)\n",
                        b.index, b.new_bins, b.goal_hit, b.percent);
        }
        std::printf("  %s after %u scenarios: %.1f%% of %zu goal bins\n",
                    res.reached_target ? "target reached"
                    : res.saturated    ? "saturated"
                                       : "batch budget exhausted",
                    res.scenarios_run, res.merged.percent(),
                    res.merged.goal_bins());
        std::ostringstream text;
        res.merged.write_text(text);
        std::printf("%s", text.str().c_str());

        if (!opt.cover_out.empty()) {
            std::ofstream os(opt.cover_out);
            if (!os) {
                std::fprintf(stderr, "cannot open %s\n",
                             opt.cover_out.c_str());
                return 2;
            }
            res.merged.write_json(os);
            std::printf("coverage: %s\n", opt.cover_out.c_str());
        }
        if (!opt.out.empty()) {
            std::ofstream os(opt.out, std::ios::out | std::ios::trunc);
            if (!os) {
                std::fprintf(stderr, "cannot open %s\n", opt.out.c_str());
                return 2;
            }
            for (const JobRecord& rec : res.records) {
                os << to_jsonl(rec) << '\n';
            }
            std::printf("results: %s (%zu JSONL records)\n", opt.out.c_str(),
                        res.records.size());
        }
        if (!opt.verdicts_out.empty() &&
            !write_verdicts(opt.verdicts_out, res.records)) {
            return 2;
        }
        unsigned failed = 0;
        for (const JobRecord& r : res.records) {
            if (!r.passed()) ++failed;
        }
        if (failed != 0) {
            std::printf("!! %u scenario jobs failed\n", failed);
        }
        return failed == 0 ? 0 : 1;
    }

    std::vector<SimJob> jobs;
    sys::SystemConfig base = small_system_config();
    base.trace_events = opt.trace;
    base.trace_path = opt.trace_out;  // factories append "/<job>.json"
    if (opt.campaign == "faults") {
        jobs = fault_catalog_jobs(base, opt.frames);
        auto nox = resim_no_x_jobs(base, opt.frames);
        jobs.insert(jobs.end(), std::make_move_iterator(nox.begin()),
                    std::make_move_iterator(nox.end()));
    } else if (opt.campaign == "simb") {
        jobs = simb_sweep_jobs({4u, 100u, 1024u, 4096u, 32768u, 129u * 1024u},
                               opt.trace);
        auto corners = simb_corner_jobs(opt.trace);
        jobs.insert(jobs.end(), std::make_move_iterator(corners.begin()),
                    std::make_move_iterator(corners.end()));
    } else if (opt.campaign == "workload") {
        jobs = workload_grid_jobs({{32, 24, 1},
                                   {32, 24, 2},
                                   {48, 32, 1},
                                   {48, 32, 2},
                                   {64, 48, 1}},
                                  base);
    } else if (opt.campaign == "seeds") {
        jobs = seed_sweep_jobs(base, /*first_seed=*/1, opt.seeds,
                               opt.frames);
    } else if (opt.campaign == "diff") {
        DiffCampaignConfig dc;
        dc.seed = opt.seed;
        dc.count = opt.seeds;
        bool known = false;
        dc.inject = diff::fault_from_string(opt.inject, &known);
        if (!known) {
            std::fprintf(stderr, "unknown --inject fault: %s\n",
                         opt.inject.c_str());
            return 2;
        }
        dc.repro_dir = opt.repro_out;
        jobs = diff_batch_jobs(dc);
    } else {
        // An unknown (or missing) campaign name must fail loudly with the
        // valid names, never fall through to an empty batch that "passes".
        if (opt.campaign.empty()) {
            std::fprintf(stderr, "missing --campaign\n");
        } else {
            std::fprintf(stderr, "unknown campaign: '%s'\n",
                         opt.campaign.c_str());
        }
        std::fprintf(stderr, "valid campaigns:");
        for (const char* name : kKnownCampaigns) {
            std::fprintf(stderr, " %s", name);
        }
        std::fprintf(stderr, "\n");
        return 2;
    }
    if (jobs.empty()) {
        std::fprintf(stderr,
                     "campaign '%s' produced no jobs (check --seeds/--frames"
                     " values)\n",
                     opt.campaign.c_str());
        return 2;
    }

    CampaignConfig cfg;
    cfg.jobs = opt.jobs;
    cfg.timeout = std::chrono::milliseconds{opt.timeout_ms};
    cfg.retries = opt.retries;
    cfg.jsonl_path = opt.out;
    const std::size_t total = jobs.size();
    std::size_t done = 0;
    if (!opt.quiet) {
        cfg.on_record = [&](const JobRecord& rec) {
            ++done;
            std::printf("[%2zu/%zu] %-7s %-22s %8.1f ms  (attempt %u)  %s\n",
                        done, total, to_string(rec.status), rec.name.c_str(),
                        static_cast<double>(rec.wall.count()) / 1e6,
                        rec.attempts, rec.report.verdict.c_str());
            std::fflush(stdout);
        };
    }

    CampaignRunner runner(cfg);
    std::printf("campaign '%s': %zu jobs on %u workers%s\n",
                opt.campaign.c_str(), total,
                resolve_workers(opt.jobs),
                opt.timeout_ms != 0 ? (" (watchdog " +
                                       std::to_string(opt.timeout_ms) +
                                       " ms, retries " +
                                       std::to_string(opt.retries) + ")")
                                          .c_str()
                                    : "");
    const CampaignResult result = runner.run(jobs);

    if (opt.campaign == "faults") {
        std::printf("\n==== Table III: detected bugs per simulation method"
                    " ====\n");
        print_fault_table(result.records);
    }

    bool expect_genuine_failed = false;
    if (opt.campaign == "diff") {
        double genuine = 0.0, expected = 0.0;
        unsigned diverged = 0, shrunk = 0;
        for (const JobRecord& r : result.records) {
            const auto& m = r.report.metrics;
            if (const auto it = m.find("genuine"); it != m.end()) {
                genuine += it->second;
                if (it->second > 0.0) ++diverged;
            }
            if (const auto it = m.find("expected"); it != m.end()) {
                expected += it->second;
            }
            if (m.count("shrunk_words") != 0) ++shrunk;
        }
        std::printf("\n==== diff oracle ====\n");
        std::printf("  seed 0x%llx, %zu scenarios, inject=%s\n", opt.seed,
                    result.records.size(), opt.inject.c_str());
        std::printf("  genuine divergences: %.0f across %u scenario(s)"
                    " (%u shrunk)\n", genuine, diverged, shrunk);
        std::printf("  expected-by-construction divergences: %.0f\n",
                    expected);
        if (!opt.repro_out.empty() && shrunk != 0) {
            std::printf("  reproducers: %s/\n", opt.repro_out.c_str());
        }
        if (opt.expect_genuine && genuine == 0.0) {
            std::printf("!! --expect-genuine: the batch flagged no genuine"
                        " divergence\n");
            expect_genuine_failed = true;
        }
    }

    std::printf("\n%s", result.summary.table().c_str());
    if (!opt.out.empty()) {
        std::printf("results: %s (%zu JSONL records)\n", opt.out.c_str(),
                    result.records.size());
    }
    if (!opt.verdicts_out.empty() &&
        !write_verdicts(opt.verdicts_out, result.records)) {
        return 2;
    }
    return result.summary.all_passed() && !expect_genuine_failed ? 0 : 1;
}
