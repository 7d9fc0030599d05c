// diff_svc: an in-process svc::Daemon (1 executor, 2 job workers) and one
// svc::Client in a closed loop: submit a small kind=diff job with
// inject=isolation-missing and an advancing seed, wait for its verdict,
// repeat.
//
// A traced run also replays the first jobs' scenarios in-process through
// the diff API (VM side, ReSim side, classify, shrink), one span per call,
// and checks each replay's genuine count against the service's verdict.
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "campaign/campaigns.hpp"
#include "campaign/runner.hpp"
#include "campaign/sink.hpp"
#include "diff/shrink.hpp"
#include "kernel/prng.hpp"
#include "scen/scenario.hpp"
#include "svc/client.hpp"
#include "svc/daemon.hpp"

namespace perfbench {

namespace {

namespace campaign = autovision::campaign;
namespace diff = autovision::diff;
namespace fs = std::filesystem;
namespace svc = autovision::svc;

constexpr unsigned kJobWorkers = 2;
constexpr unsigned kScenariosPerJob = 2;
/// Cold starts timed for setup_s, and the fixed job each one runs.
constexpr unsigned kColdStarts = 20;
constexpr std::uint64_t kColdStartSeed = 0x434F'4C44ull;  // "COLD"
/// Jobs whose verdicts are re-derived in-process (every run) and whose
/// scenarios are replayed through the diff API (traced runs).
constexpr unsigned kCheckedJobs = 2;
constexpr unsigned kReplayedJobs = 4;
constexpr std::uint64_t kTagJob = 0x4453'5643'0000ull;  // "DSVC"

std::uint64_t job_seed(std::uint64_t seed, std::uint64_t i) {
    return rtlsim::derive_seed(seed, kTagJob + i);
}

svc::JobSpec job_spec(std::uint64_t seed) {
    svc::JobSpec spec;
    spec.kind = "diff";
    spec.client = "perfbench";
    spec.params = {{"seed", std::to_string(seed)},
                   {"seeds", std::to_string(kScenariosPerJob)},
                   {"inject", "isolation-missing"}};
    return spec;
}

campaign::DiffCampaignConfig diff_config(std::uint64_t seed) {
    campaign::DiffCampaignConfig dc;
    dc.seed = seed;
    dc.count = kScenariosPerJob;
    dc.inject = diff::DiffFault::kIsolationMissing;
    return dc;
}

/// The number after `"key":` in a JSON line; `def` when absent.
double json_number(const std::string& line, const std::string& key,
                   double def = 0.0) {
    const std::string pat = "\"" + key + "\":";
    const std::size_t at = line.find(pat);
    if (at == std::string::npos) return def;
    return std::strtod(line.c_str() + at + pat.size(), nullptr);
}

std::vector<std::string> lines_of(const std::string& text) {
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t nl = text.find('\n', pos);
        if (nl == std::string::npos) nl = text.size();
        out.push_back(text.substr(pos, nl - pos));
        pos = nl + 1;
    }
    return out;
}

/// One running daemon plus its connected client. Stops and joins the
/// daemon thread and removes its state directory on destruction.
class Service {
public:
    Service(const Options& opt, unsigned k) {
        dir_ = opt.tmp_dir + "/svc-" + std::to_string(::getpid()) + "-" +
               std::to_string(k);
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        svc::DaemonConfig cfg;
        cfg.socket_path = dir_ + "/d.sock";
        cfg.state_dir = dir_ + "/state";
        cfg.shards = 2;
        cfg.executors = 1;
        cfg.exec.job_workers = kJobWorkers;
        cfg.quiet = true;
        state_dir_ = cfg.state_dir;

        daemon_ = std::make_unique<svc::Daemon>(cfg);
        const Clock::time_point ts = Clock::now();
        if (!daemon_->start(&error_)) return;
        start_ms_ = ms_since(ts);
        server_ = std::thread([this] { daemon_->run(); });
        if (!client.connect(cfg.socket_path, "perfbench", &error_)) return;
        ok_ = true;
    }

    ~Service() {
        std::string err;
        if (server_.joinable()) {
            if (!client.connected() || !client.shutdown_daemon(&err)) {
                daemon_->signal_stop();
            }
            server_.join();
        }
        client.close();
        daemon_.reset();
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }

    Service(const Service&) = delete;
    Service& operator=(const Service&) = delete;

    [[nodiscard]] bool ok() const { return ok_; }
    [[nodiscard]] const std::string& error() const { return error_; }
    [[nodiscard]] double start_ms() const { return start_ms_; }
    /// The daemon's per-job record mirror.
    [[nodiscard]] std::string records_path(std::uint64_t id) const {
        return state_dir_ + "/job-" + std::to_string(id) + ".jsonl";
    }

    svc::Client client;

private:
    std::string dir_;
    std::string state_dir_;
    std::unique_ptr<svc::Daemon> daemon_;
    std::thread server_;
    std::string error_;
    double start_ms_ = 0.0;
    bool ok_ = false;
};

struct JobDone {
    std::uint64_t seed = 0;
    std::string verdicts;
};

/// Every job of one kind of run (untraced or traced), pooled.
struct Phase {
    std::vector<JobDone> jobs;
    std::vector<double> latency_ms;
    std::vector<double> overhead_ms;
    std::uint64_t failed = 0;
    unsigned shrunk = 0;  ///< scenarios with a genuine divergence shrunk
};

/// Submit job `i` and wait for its verdict. False when the exchange
/// failed or the job did not pass.
bool run_job(const Options& opt, std::uint64_t i, Service& s, Tracer& tr,
             Phase& p, WorkloadResult& res) {
    const std::uint64_t seed = job_seed(opt.seed, i);
    std::string err;
    svc::SubmitResult sub;
    svc::JobOutcome out;
    Tracer::Scope job(tr, "svc.job");
    const Clock::time_point t0 = Clock::now();
    Tracer::Scope submit(tr, "svc.submit", job.id());
    bool ok = s.client.submit(job_spec(seed), &sub, &err) && sub.accepted;
    submit.end();
    if (ok) {
        Tracer::Scope wait(tr, "svc.wait", job.id());
        ok = s.client.wait(sub.id, nullptr, &out, &err);
    }
    const double latency = ms_since(t0);
    job.end();
    if (!ok || out.state != svc::JobState::kDone || !out.pass) {
        ++p.failed;
        res.fail("diff job " + std::to_string(i) + ": " +
                 (ok ? out.summary : err + sub.reason));
        return false;
    }
    p.latency_ms.push_back(latency);
    for (const std::string& line : lines_of(out.verdicts)) {
        if (json_number(line, "genuine") > 0 &&
            json_number(line, "shrink_runs") > 0) {
            ++p.shrunk;
        }
    }
    if (tr.on()) {
        // Service overhead: latency minus the job's critical path. With no
        // more scenarios than workers that path is the longest scenario
        // wall in the daemon's record mirror.
        std::ifstream rec(s.records_path(sub.id));
        double longest = 0.0;
        unsigned n = 0;
        for (std::string line; std::getline(rec, line); ++n) {
            longest = std::max(longest, json_number(line, "wall_ms"));
        }
        if (n == kScenariosPerJob) p.overhead_ms.push_back(latency - longest);
    }
    p.jobs.push_back({seed, out.verdicts});
    return true;
}

struct ReplayTotals {
    unsigned genuine = 0;
    unsigned shrunk = 0;
    unsigned shrink_runs = 0;
    std::vector<double> fill_ms;
};

/// Replay one job's scenarios through the diff API. Returns false when a
/// replayed genuine count disagrees with the service's verdict line.
bool replay_job(const JobDone& job, Tracer& tr, ReplayTotals& t) {
    // The scenario stream diff_batch_jobs draws (stream scenarios only).
    autovision::scen::ScenarioConstraints cons;
    cons.w_stream = 1;
    cons.w_system = 0;
    cons.w_fault = 0;
    const campaign::DiffCampaignConfig dc = diff_config(job.seed);
    const std::vector<campaign::SimJob> sims = campaign::diff_batch_jobs(dc);
    const std::vector<std::string> verdicts = lines_of(job.verdicts);
    bool agree = verdicts.size() == sims.size();
    for (std::size_t i = 0; i < sims.size() && agree; ++i) {
        const std::uint64_t sc_seed =
            std::strtoull(sims[i].params.at("scenario_seed").c_str(), nullptr, 0);
        const autovision::scen::Scenario sc =
            autovision::scen::generate(cons, sc_seed);
        diff::BootCache cache;
        diff::DiffOptions dopt;
        dopt.inject = dc.inject;
        dopt.boot = &cache;

        Tracer::Scope scenario(tr, "diff.scenario");
        Clock::time_point t0 = Clock::now();
        {
            // First pair fills the boot cache, as the service job's does.
            Tracer::Scope s(tr, "diff.cold_pair", scenario.id());
            (void)diff::run_vm_side(sc, dopt);
            (void)diff::run_resim_side(sc, dopt);
        }
        const double cold_ms = ms_since(t0);
        t0 = Clock::now();
        diff::SideRun vm, resim;
        {
            Tracer::Scope s(tr, "diff.vm_side", scenario.id());
            vm = diff::run_vm_side(sc, dopt);
        }
        {
            Tracer::Scope s(tr, "diff.resim_side", scenario.id());
            resim = diff::run_resim_side(sc, dopt);
        }
        t.fill_ms.push_back(cold_ms - ms_since(t0));
        diff::DiffReport report;
        {
            Tracer::Scope s(tr, "diff.classify", scenario.id());
            report = diff::classify(sc, vm, resim);
        }
        if (report.genuine() > 0) {
            diff::ShrinkOptions so;
            so.diff = dopt;
            Tracer::Scope s(tr, "diff.shrink", scenario.id());
            const diff::ShrinkResult shr = diff::shrink(sc, so);
            t.shrink_runs += shr.runs;
            ++t.shrunk;
        }
        t.genuine += report.genuine();
        agree = json_number(verdicts[i], "genuine", -1.0) ==
                static_cast<double>(report.genuine());
    }
    return agree;
}

/// The service's verdict block for a job must equal diff_batch_jobs run
/// in-process through the campaign runner with the same parameters.
std::string in_process_verdicts(std::uint64_t seed) {
    campaign::CampaignConfig rc;
    rc.jobs = kJobWorkers;
    campaign::CampaignRunner runner(rc);
    const campaign::CampaignResult r =
        runner.run(campaign::diff_batch_jobs(diff_config(seed)));
    std::string out;
    for (const campaign::JobRecord& rec : r.records) {
        out += campaign::to_verdict_line(rec) + '\n';
    }
    return out;
}

}  // namespace

WorkloadResult run_diff_svc(const Options& opt, Tracer& tr) {
    WorkloadResult res;
    // setup_s is the service's cold start: Daemon construction, start()
    // and connect, then the first verdict of one fixed job on the fresh
    // daemon. Start and connect alone take a few hundred microseconds of
    // file and socket system calls, and their cost changed 3.5x with the
    // host's load from one minute to the next. The last daemon started
    // serves the measured loop.
    std::vector<double> setup_ms, start_ms;
    std::unique_ptr<Service> s;
    std::string cold_verdicts;
    for (unsigned k = 0; k < kColdStarts; ++k) {
        s.reset();  // the previous daemon is stopped before the next starts
        const Clock::time_point t0 = Clock::now();
        s = std::make_unique<Service>(opt, k);
        std::string err = s->error();
        svc::SubmitResult sub;
        svc::JobOutcome out;
        const bool ok = s->ok() &&
                        s->client.submit(job_spec(kColdStartSeed), &sub, &err) &&
                        sub.accepted &&
                        s->client.wait(sub.id, nullptr, &out, &err) &&
                        out.state == svc::JobState::kDone && out.pass;
        setup_ms.push_back(ms_since(t0));
        start_ms.push_back(s->start_ms());
        if (!ok) {
            res.fail("diff_svc: cold start failed: " + err + sub.reason +
                     out.summary);
            return res;
        }
        if (k == 0) cold_verdicts = out.verdicts;
        if (out.verdicts != cold_verdicts) {
            res.fail("diff_svc: cold-start verdicts differ between daemons");
        }
    }

    Tracer off(false);
    // A traced run submits every job twice, untraced then traced, so
    // trace_overhead_pct compares the same work under the same host load.
    Phase plain, traced;
    const Clock::time_point start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(opt.seconds));
    for (std::uint64_t i = 0; i == 0 || Clock::now() < deadline; ++i) {
        const bool ok = run_job(opt, i, *s, off, plain, res);
        if (!s->client.connected()) break;
        if (tr.on() && ok && run_job(opt, i, *s, tr, traced, res) &&
            traced.jobs.back().verdicts != plain.jobs.back().verdicts) {
            res.fail("diff_svc job " + std::to_string(i) +
                     ": verdicts differ between two runs");
        }
    }
    s.reset();
    res.attempted = plain.latency_ms.size() + plain.failed +
                    traced.latency_ms.size() + traced.failed;
    res.failed = plain.failed + traced.failed;
    if (plain.jobs.empty()) {
        res.fail("diff_svc: no job completed");
        return res;
    }
    if (plain.shrunk == 0) {
        res.fail("diff_svc: no genuine divergence was shrunk");
    }
    for (std::size_t i = 0; i < plain.jobs.size() && i < kCheckedJobs; ++i) {
        if (in_process_verdicts(plain.jobs[i].seed) != plain.jobs[i].verdicts) {
            res.fail("diff_svc job " + std::to_string(i) +
                     ": verdicts differ from in-process diff_batch_jobs");
        }
    }

    if (!tr.on()) {
        // op_ms is diff_verdict_ms_p90.
        res.end_to_end.push_back(
            {"op_ms", percentile(plain.latency_ms, 90), "ms"});
        res.end_to_end.push_back({"setup_s", median(setup_ms) / 1e3, "s"});
        res.named.push_back(
            {"diff_verdict_ms_p50", percentile(plain.latency_ms, 50), "ms"});
        res.named.push_back({"diff_jobs",
                             static_cast<double>(plain.latency_ms.size()),
                             "count"});
        return res;
    }
    res.untraced_op_ms = median(plain.latency_ms);
    res.traced_op_ms = median(traced.latency_ms);

    const Phase& p = traced;
    auto& L = res.layer;
    L.push_back({"svc.submit_ms", tr.median_ms("svc.submit"), "ms"});
    L.push_back({"svc.wait_ms", tr.median_ms("svc.wait"), "ms"});
    L.push_back({"svc.overhead_ms", median(p.overhead_ms), "ms"});
    L.push_back({"svc.start_ms", median(start_ms), "ms"});

    ReplayTotals t;
    for (std::size_t i = 0; i < p.jobs.size() && i < kReplayedJobs; ++i) {
        if (!replay_job(p.jobs[i], tr, t)) {
            res.fail("diff_svc job " + std::to_string(i) +
                     ": in-process replay disagrees with the service");
        }
    }
    L.push_back({"diff.vm_side_ms", tr.median_ms("diff.vm_side"), "ms"});
    L.push_back({"diff.resim_side_ms", tr.median_ms("diff.resim_side"), "ms"});
    L.push_back({"diff.classify_ms", tr.median_ms("diff.classify"), "ms"});
    L.push_back({"diff.shrink_ms", tr.median_ms("diff.shrink"), "ms"});
    L.push_back({"diff.shrink_runs",
                 t.shrunk == 0 ? 0.0
                               : static_cast<double>(t.shrink_runs) / t.shrunk,
                 "count"});
    L.push_back({"diff.genuine", static_cast<double>(t.genuine), "count"});
    L.push_back({"ckpt.boot_cache_fill_ms", median(t.fill_ms), "ms"});
    return res;
}

}  // namespace perfbench
