#include "exec.hpp"

#include <sys/stat.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "campaign/campaigns.hpp"
#include "campaign/closure.hpp"
#include "campaign/parse.hpp"
#include "campaign/runner.hpp"
#include "campaign/sink.hpp"
#include "ckpt/checkpoint.hpp"
#include "diff/diff.hpp"

namespace autovision::svc {

namespace {

using campaign::CampaignConfig;
using campaign::CampaignResult;
using campaign::CampaignRunner;
using campaign::ClosureConfig;
using campaign::ClosureLoop;
using campaign::JobRecord;

/// A present param that does not parse, or parses out of range. It fails
/// the job with a summary that names the param and its value.
struct BadParam : std::runtime_error {
    BadParam(const char* key, const std::string& value, const std::string& want)
        : std::runtime_error(std::string("bad param ") + key + "='" + value +
                             "': expected " + want) {}
};

/// A decimal integer in [lo, hi] (campaign::parse_decimal).
std::uint64_t param_uint(const JobSpec& spec, const char* key,
                         std::uint64_t def, std::uint64_t lo,
                         std::uint64_t hi) {
    const auto it = spec.params.find(key);
    if (it == spec.params.end()) return def;
    const auto v = campaign::parse_decimal(it->second, lo, hi);
    if (!v) {
        throw BadParam(key, it->second,
                       "a decimal integer in [" + std::to_string(lo) + ", " +
                           std::to_string(hi) + "]");
    }
    return *v;
}

unsigned param_count(const JobSpec& spec, const char* key, unsigned def) {
    return static_cast<unsigned>(
        param_uint(spec, key, def, 1, campaign::kMaxCount));
}

/// A finite number in [0, 1000].
double param_percent(const JobSpec& spec, const char* key, double def) {
    const auto it = spec.params.find(key);
    if (it == spec.params.end()) return def;
    const auto v = campaign::parse_finite(it->second, 0.0, 1000.0);
    if (!v) throw BadParam(key, it->second, "a number in [0, 1000]");
    return *v;
}

bool param_flag(const JobSpec& spec, const char* key, bool def) {
    const auto it = spec.params.find(key);
    if (it == spec.params.end()) return def;
    const std::string& s = it->second;
    if (s == "1" || s == "true") return true;
    if (s == "0" || s == "false") return false;
    throw BadParam(key, s, "0, 1, false or true");
}

std::string param_str(const JobSpec& spec, const char* key) {
    const auto it = spec.params.find(key);
    return it != spec.params.end() ? it->second : std::string();
}

bool is_cancelled(const ExecHooks& hooks) {
    return hooks.cancelled && hooks.cancelled();
}

/// Pass verdict from a deterministic verdict line (to_verdict_line always
/// embeds the status field).
bool line_passed(const std::string& line) {
    return line.find("\"status\":\"pass\"") != std::string::npos;
}

void append_pct(std::string& out, double pct) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1f", pct);
    out += buf;
}

JobOutcome make_outcome(const JobSpec& spec, JobState state) {
    JobOutcome out;
    out.id = spec.id;
    out.state = state;
    return out;
}

// --- closure jobs ----------------------------------------------------------

JobOutcome run_closure_job(const JobSpec& spec, const ExecConfig& cfg,
                           const ExecHooks& hooks,
                           const std::string& resume_blob) {
    ClosureConfig cc;
    cc.seed = param_uint(spec, "seed", 1, 0, UINT64_MAX);
    cc.batch_size = param_count(spec, "batch-size", 12);
    cc.max_batches = param_count(spec, "batches", 6);
    cc.target_percent = param_percent(spec, "target", 95.0);
    cc.bias = param_flag(spec, "bias", true);
    cc.warm_start = param_flag(spec, "warm-start", true);

    ClosureLoop loop(cc);
    if (!resume_blob.empty()) {
        // A stale or foreign blob (config hash mismatch, malformed) is
        // discarded: correctness over continuity, the job restarts fresh.
        std::istringstream is(resume_blob);
        std::string err;
        ClosureLoop restored(cc);
        if (restored.restore(is, &err)) loop = std::move(restored);
    }

    CampaignConfig rc;
    rc.jobs = cfg.job_workers;
    rc.timeout = cfg.timeout;
    rc.retries = cfg.retries;
    // Streamed records carry the campaign-wide index (the loop itself only
    // re-bases after the batch returns).
    unsigned index_base = 0;
    if (hooks.on_record) {
        rc.on_record = [&hooks, &index_base](const JobRecord& rec) {
            JobRecord fixed = rec;
            fixed.index += index_base;
            hooks.on_record(fixed);
        };
    }

    const std::uint32_t total = cc.max_batches;
    if (hooks.on_progress) hooks.on_progress(loop.next_batch(), total);

    bool cancelled = false;
    unsigned since_ckpt = 0;
    while (!loop.done()) {
        if (is_cancelled(hooks)) {
            cancelled = true;
            break;
        }
        index_base = loop.scenarios_run();
        loop.run_batch(rc);
        if (hooks.on_progress) hooks.on_progress(loop.next_batch(), total);
        if (cfg.ckpt_interval != 0 && ++since_ckpt >= cfg.ckpt_interval &&
            !loop.done() && hooks.on_checkpoint) {
            since_ckpt = 0;
            std::ostringstream blob;
            if (loop.save(blob)) hooks.on_checkpoint(blob.str());
        }
    }

    JobOutcome out =
        make_outcome(spec, cancelled ? JobState::kCancelled : JobState::kDone);
    out.pass = !cancelled;
    for (const std::string& v : loop.verdicts()) {
        if (!line_passed(v)) out.pass = false;
        out.verdicts += v;
        out.verdicts += '\n';
    }

    std::ostringstream cover;
    loop.merged().write_json(cover);
    out.cover_json = cover.str();

    std::string sum;
    for (const campaign::BatchSummary& b : loop.batches()) {
        sum += "batch " + std::to_string(b.index) + ": +" +
               std::to_string(b.new_bins) + " new bins, " +
               std::to_string(b.goal_hit) + " goal bins hit (";
        append_pct(sum, b.percent);
        sum += "%)\n";
    }
    if (cancelled) {
        sum += "cancelled after " + std::to_string(loop.scenarios_run()) +
               " scenarios\n";
    } else {
        const ClosureConfig& c = cc;
        sum += std::string(loop.merged().percent() >= c.target_percent
                               ? "target reached"
                               : loop.next_batch() >= c.max_batches
                                     ? "batch budget exhausted"
                                     : "saturated") +
               " after " + std::to_string(loop.scenarios_run()) +
               " scenarios: ";
        append_pct(sum, loop.merged().percent());
        sum += "% of " + std::to_string(loop.merged().goal_bins()) +
               " goal bins\n";
    }
    std::ostringstream text;
    loop.merged().write_text(text);
    out.summary = sum + text.str();
    return out;
}

// --- diff jobs -------------------------------------------------------------

struct DiffDone {
    bool pass = false;
    double genuine = 0.0;
    std::string line;
};

constexpr char kDiffSection[] = "svc.diff.done";

std::string save_diff_progress(const JobSpec& spec,
                               const std::map<std::uint32_t, DiffDone>& done) {
    ckpt::Manifest m;
    m.config_hash = spec.config_hash();
    m.sim_time = done.size();
    ckpt::Saver saver(m);
    rtlsim::SnapWriter& w = saver.section(kDiffSection);
    w.u32(static_cast<std::uint32_t>(done.size()));
    for (const auto& [idx, d] : done) {
        w.u32(idx);
        w.bool8(d.pass);
        std::uint64_t bits = 0;
        static_assert(sizeof bits == sizeof d.genuine);
        std::memcpy(&bits, &d.genuine, sizeof bits);
        w.u64(bits);
        w.str(d.line);
    }
    std::ostringstream os;
    return saver.write_to(os) ? os.str() : std::string();
}

std::map<std::uint32_t, DiffDone> load_diff_progress(
    const JobSpec& spec, const std::string& blob) {
    std::map<std::uint32_t, DiffDone> done;
    if (blob.empty()) return done;
    std::istringstream is(blob);
    ckpt::Loader loader;
    if (!loader.load(is, spec.config_hash())) return done;
    rtlsim::SnapReader r = loader.reader(kDiffSection);
    const std::uint32_t n = r.u32();
    for (std::uint32_t i = 0; i < n && r.ok_so_far(); ++i) {
        const std::uint32_t idx = r.u32();
        DiffDone d;
        d.pass = r.bool8();
        const std::uint64_t bits = r.u64();
        std::memcpy(&d.genuine, &bits, sizeof d.genuine);
        d.line = r.str();
        done[idx] = std::move(d);
    }
    if (!r.ok()) done.clear();  // malformed: restart from scratch
    return done;
}

JobOutcome run_diff_job(const JobSpec& spec, const ExecConfig& cfg,
                        const ExecHooks& hooks,
                        const std::string& resume_blob) {
    campaign::DiffCampaignConfig dc;
    dc.seed = param_uint(spec, "seed", 1, 0, UINT64_MAX);
    dc.count = param_count(spec, "seeds", 20);
    const bool expect_genuine = param_flag(spec, "expect-genuine", false);
    bool known = false;
    const std::string inject = param_str(spec, "inject");
    dc.inject = inject.empty()
                    ? diff::DiffFault::kNone
                    : diff::fault_from_string(inject, &known);
    if (!inject.empty() && !known) {
        JobOutcome out = make_outcome(spec, JobState::kFailed);
        out.summary = "unknown inject fault: " + inject;
        return out;
    }
    dc.repro_dir = param_str(spec, "repro-out");
    if (!dc.repro_dir.empty()) {
        ::mkdir(dc.repro_dir.c_str(), 0755);  // EEXIST is fine
    }

    const std::vector<campaign::SimJob> jobs = campaign::diff_batch_jobs(dc);
    const std::uint32_t total = static_cast<std::uint32_t>(jobs.size());

    std::map<std::uint32_t, DiffDone> done =
        load_diff_progress(spec, resume_blob);
    if (hooks.on_progress) {
        hooks.on_progress(static_cast<std::uint32_t>(done.size()), total);
    }

    if (is_cancelled(hooks)) return make_outcome(spec, JobState::kCancelled);

    // Re-run only the scenarios with no recorded verdict; each job is
    // seed-deterministic, so the merged verdict set is identical to an
    // uninterrupted batch.
    std::vector<campaign::SimJob> remaining;
    std::vector<std::uint32_t> orig_index;
    for (std::uint32_t i = 0; i < total; ++i) {
        if (done.count(i) == 0) {
            remaining.push_back(jobs[i]);
            orig_index.push_back(i);
        }
    }

    if (!remaining.empty()) {
        std::mutex mu;
        unsigned since_ckpt = 0;
        CampaignConfig rc;
        rc.jobs = cfg.job_workers;
        rc.timeout = cfg.timeout;
        rc.retries = cfg.retries;
        rc.on_record = [&](const JobRecord& rec) {
            JobRecord fixed = rec;
            fixed.index = orig_index[rec.index];
            DiffDone d;
            d.pass = fixed.passed();
            const auto it = fixed.report.metrics.find("genuine");
            d.genuine = it != fixed.report.metrics.end() ? it->second : 0.0;
            d.line = campaign::to_verdict_line(fixed);
            std::string blob;
            std::uint32_t n = 0;
            {
                const std::lock_guard lk(mu);
                done[static_cast<std::uint32_t>(fixed.index)] = std::move(d);
                n = static_cast<std::uint32_t>(done.size());
                if (cfg.ckpt_interval != 0 &&
                    ++since_ckpt >= cfg.ckpt_interval && n < total) {
                    since_ckpt = 0;
                    blob = save_diff_progress(spec, done);
                }
            }
            if (hooks.on_record) hooks.on_record(fixed);
            if (hooks.on_progress) hooks.on_progress(n, total);
            if (!blob.empty() && hooks.on_checkpoint) hooks.on_checkpoint(blob);
        };
        CampaignRunner runner(rc);
        (void)runner.run(remaining);
    }

    JobOutcome out = make_outcome(spec, JobState::kDone);
    out.pass = true;
    double genuine = 0.0;
    unsigned failed = 0;
    for (const auto& [idx, d] : done) {  // map: submission order
        if (!d.pass) {
            out.pass = false;
            ++failed;
        }
        genuine += d.genuine;
        out.verdicts += d.line;
        out.verdicts += '\n';
    }
    if (expect_genuine && genuine == 0.0) {
        out.pass = false;
        out.summary += "!! expect-genuine: no genuine divergence flagged\n";
    }
    out.summary += "diff: " + std::to_string(done.size()) + " scenarios, " +
                   std::to_string(failed) + " failed, " +
                   std::to_string(static_cast<long long>(genuine)) +
                   " genuine divergences\n";
    return out;
}

}  // namespace

JobOutcome run_service_job(const JobSpec& spec, const ExecConfig& cfg,
                           const ExecHooks& hooks,
                           const std::string& resume_blob) {
    try {
        if (spec.kind == "closure") {
            return run_closure_job(spec, cfg, hooks, resume_blob);
        }
        if (spec.kind == "diff") {
            return run_diff_job(spec, cfg, hooks, resume_blob);
        }
        JobOutcome out = make_outcome(spec, JobState::kFailed);
        out.summary =
            "unknown job kind '" + spec.kind + "' (valid: closure, diff)";
        return out;
    } catch (const BadParam& e) {
        JobOutcome out = make_outcome(spec, JobState::kFailed);
        out.summary = e.what();
        return out;
    } catch (const std::exception& e) {
        JobOutcome out = make_outcome(spec, JobState::kFailed);
        out.summary = std::string("execution error: ") + e.what();
        return out;
    }
}

}  // namespace autovision::svc
