// closure_w2: campaign::ClosureLoop with warm start and 2 workers over a
// fixed batch grid, campaign after campaign until the window closes.
//
// After the window, a traced run also replays campaign 0 serially through
// the layer APIs the loop drives internally (scen generation, the per-kind
// runs, coverage observation and merge), timing each call with its own
// span. The replay's merged coverage must equal the loop's.
#include <array>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "campaign/closure.hpp"
#include "campaign/runner.hpp"
#include "campaign/sink.hpp"
#include "cover/model.hpp"
#include "kernel/prng.hpp"
#include "rrm/rrm_harness.hpp"
#include "scen/scenario.hpp"
#include "scen/stream_harness.hpp"
#include "sys/detection.hpp"

namespace perfbench {

namespace {

namespace campaign = autovision::campaign;
namespace cover = autovision::cover;
namespace scen = autovision::scen;

constexpr unsigned kWorkers = 2;
constexpr unsigned kBatchSize = 8;
constexpr unsigned kBatches = 4;
constexpr std::uint64_t kTagCampaign = 0x434C'4F53'0000ull;  // "CLOS"
constexpr std::array<const char*, 3> kKinds = {"stream", "system", "fault"};

campaign::ClosureConfig closure_config(std::uint64_t seed, unsigned c) {
    campaign::ClosureConfig cc;
    cc.seed = rtlsim::derive_seed(seed, kTagCampaign + c);
    // A stationary job mix, so jobs/s compares across seeds. The biased
    // loop steers each campaign toward the bins its seed left open, which
    // swung jobs/s by about 25% between seeds. Without bias the regions
    // kind stays at its default weight of 0. Enabling it is not safe:
    // some generated regions scenarios crash the rrm harness. bug.sw.2 (an
    // interrupt storm held until the watchdog) takes about 3.4 s per
    // detection, 20x any other fault; its few draws per window decided
    // the throughput, so the mix leaves it out. Faults are 3 in 13 draws,
    // so the p90 job lands mid-way through the fault detections' costs,
    // where they cluster (165-180 ms), not in the gap below them.
    cc.bias = false;
    cc.base.w_fault = 3;
    for (std::size_t i = 0; i < autovision::sys::kFaultCatalog.size(); ++i) {
        if (autovision::sys::kFaultCatalog[i].fault ==
            autovision::sys::Fault::kSw2NoIntcAck) {
            cc.base.w_fault_pick[i] = 0;
        }
    }
    cc.batch_size = kBatchSize;
    cc.max_batches = kBatches;
    // Neither the target nor saturation can stop the loop: every campaign
    // runs the whole grid.
    cc.target_percent = 101.0;
    cc.saturation_batches = kBatches + 1;
    cc.warm_start = true;
    return cc;
}

struct JobSample {
    std::string kind;
    double wall_ms = 0.0;
    bool passed = false;
    std::string verdict;  ///< verdict line, kept for failed jobs only
};

struct Campaign {
    double setup_ms = 0.0;
    std::vector<double> batch_ms;
    std::vector<JobSample> jobs;
    std::string verdicts;
    std::string cover_json;
    std::size_t goal_hit = 0;
};

/// Run one campaign over the whole grid.
Campaign run_campaign(const campaign::ClosureConfig& cc, unsigned workers,
                      Tracer& tr) {
    Campaign out;
    Tracer::Scope span(tr, "campaign");
    Tracer::Scope setup(tr, "campaign.setup", span.id());
    const Clock::time_point t0 = Clock::now();
    campaign::ClosureLoop loop(cc);
    out.setup_ms = ms_since(t0);
    setup.end();

    campaign::CampaignConfig rc;
    rc.jobs = workers;
    while (!loop.done()) {
        Tracer::Scope batch(tr, "campaign.run_batch", span.id());
        const Clock::time_point tb = Clock::now();
        (void)loop.run_batch(rc);
        out.batch_ms.push_back(ms_since(tb));
    }
    for (const campaign::JobRecord& rec : loop.result().records) {
        const auto k = rec.params.find("kind");
        out.jobs.push_back({k != rec.params.end() ? k->second : "?",
                            to_ms(rec.wall), rec.passed(),
                            rec.passed() ? "" : campaign::to_verdict_line(rec)});
    }
    for (const std::string& v : loop.verdicts()) out.verdicts += v + '\n';
    std::ostringstream cov;
    loop.merged().write_json(cov);
    out.cover_json = cov.str();
    out.goal_hit = loop.merged().goal_hit();
    return out;
}

/// Every campaign of one kind of run (untraced or traced), pooled.
struct Phase {
    Campaign first;  ///< campaign 0, kept for the output checks
    std::vector<double> job_ms;
    std::vector<double> batch_ms;
    std::vector<double> setup_ms;
    std::uint64_t jobs = 0;
    std::uint64_t failed = 0;
    unsigned campaigns = 0;
    double job_ms_sum = 0.0;
    double batch_ms_sum = 0.0;

    void add(Campaign cam, WorkloadResult& res) {
        setup_ms.push_back(cam.setup_ms);
        for (const double b : cam.batch_ms) {
            batch_ms.push_back(b);
            batch_ms_sum += b;
        }
        for (const JobSample& j : cam.jobs) {
            job_ms.push_back(j.wall_ms);
            job_ms_sum += j.wall_ms;
            ++jobs;
            if (!j.passed) {
                ++failed;
                res.fail("closure job failed: " + j.verdict);
            }
        }
        if (campaigns++ == 0) first = std::move(cam);
    }
};

/// Serial replay of campaign 0 through the layer APIs, one span per call.
/// Returns the replay's merged coverage JSON.
std::string replay_campaign(const campaign::ClosureConfig& cc, Tracer& tr,
                            WorkloadResult& res) {
    std::string boot;
    for (int i = 0; i < 3; ++i) {
        Tracer::Scope s(tr, "ckpt.boot_snapshot");
        boot = scen::stream_boot_snapshot();
    }
    res.layer.push_back({"ckpt.boot_snapshot_ms",
                         tr.median_ms("ckpt.boot_snapshot"), "ms"});
    res.layer.push_back(
        {"ckpt.blob_bytes", static_cast<double>(boot.size()), "bytes"});

    cover::Coverage merged = cover::make_model();
    for (unsigned b = 0; b < cc.max_batches; ++b) {
        std::vector<scen::Scenario> batch;
        {
            Tracer::Scope s(tr, "scen.generate");
            batch = scen::generate_batch(cc.base, cc.seed, b, cc.batch_size);
        }
        for (const scen::Scenario& sc : batch) {
            Tracer::Scope job(tr, "replay.job");
            cover::Coverage shard = cover::make_model();
            switch (sc.kind) {
                case scen::Kind::kStream: {
                    scen::StreamResult cold, warm;
                    {
                        Tracer::Scope s(tr, "ckpt.stream_cold", job.id());
                        cold = scen::run_stream_scenario(sc);
                    }
                    {
                        Tracer::Scope s(tr, "ckpt.stream_warm", job.id());
                        warm = scen::run_stream_scenario(sc, nullptr, &boot);
                    }
                    if (cold.swaps != warm.swaps || !(cold.stats == warm.stats) ||
                        cold.sim_time != warm.sim_time) {
                        res.fail("replay " + sc.name + ": warm != cold");
                    }
                    Tracer::Scope s(tr, "cover.observe", job.id());
                    cover::observe_events(shard, warm.events, warm.clk_period);
                    break;
                }
                case scen::Kind::kSystem: {
                    Tracer::Scope s(tr, "sys.system", job.id());
                    autovision::sys::Testbench tb(sc.config);
                    (void)tb.run(sc.frames);
                    s.end();
                    if (tb.recorder() != nullptr) {
                        Tracer::Scope o(tr, "cover.observe", job.id());
                        cover::observe_events(shard, tb.recorder()->snapshot(),
                                              sc.config.clk_period);
                    }
                    break;
                }
                case scen::Kind::kFault: {
                    autovision::sys::DetectionOutcome o;
                    {
                        Tracer::Scope s(tr, "sys.detection", job.id());
                        o = autovision::sys::run_detection(sc.config, sc.fault,
                                                           sc.frames);
                    }
                    Tracer::Scope s(tr, "cover.observe", job.id());
                    cover::observe_detection(shard, sc.fault,
                                             cover::DetectMethod::kVm,
                                             o.vm_detected());
                    cover::observe_detection(shard, sc.fault,
                                             cover::DetectMethod::kResim,
                                             o.resim_detected());
                    break;
                }
                case scen::Kind::kRegions:
                    res.fail("replay " + sc.name + ": the mix has no regions jobs");
                    break;
            }
            if (shard.same_shape(merged)) {
                Tracer::Scope s(tr, "cover.merge", job.id());
                merged += shard;
            }
        }
    }
    std::ostringstream os;
    merged.write_json(os);
    return os.str();
}

/// The rrm layer. The closure mix draws no regions jobs (see
/// closure_config), so a traced run times three fixed pool runs instead:
/// three regions, seed 7, one run per policy, the shape the rrm unit tests
/// pin as clean. Each must drain cleanly and close coverage bins.
void time_rrm(Tracer& tr, WorkloadResult& res) {
    namespace rrm = autovision::rrm;
    std::uint64_t swaps = 0;
    for (const rrm::Policy p :
         {rrm::Policy::kRoundRobin, rrm::Policy::kDeadline,
          rrm::Policy::kDemand}) {
        rrm::RrmConfig rc;
        rc.regions = 3;
        rc.policy = p;
        rc.seed = 7;
        rrm::RrmResult r;
        {
            Tracer::Scope s(tr, "rrm.run");
            r = rrm::run_rrm_scenario(rc);
        }
        cover::Coverage shard = cover::make_model();
        cover::observe_rrm(shard, rc, r);
        bool clean = r.completed && r.diagnostics == 0 &&
                     r.jobs_done.size() == rc.regions &&
                     shard.goal_hit() > 0;
        for (unsigned i = 0; clean && i < rc.regions; ++i) {
            clean = r.jobs_done[i] == rc.jobs_per_region && r.timeouts[i] == 0;
        }
        if (!clean) {
            res.fail(std::string("rrm pool run (") + rrm::to_string(p) +
                     ") did not drain cleanly");
        }
        swaps += r.swaps;
    }
    res.layer.push_back({"rrm.run_ms", tr.median_ms("rrm.run"), "ms"});
    res.layer.push_back({"rrm.swaps", static_cast<double>(swaps), "count"});
}

}  // namespace

WorkloadResult run_closure_w2(const Options& opt, Tracer& tr) {
    WorkloadResult res;
    Tracer off(false);
    // A traced run runs every campaign twice, untraced then traced, so
    // trace_overhead_pct compares the same work under the same host load.
    Phase plain, traced;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(opt.seconds));
    for (unsigned c = 0; c == 0 || Clock::now() < deadline; ++c) {
        const campaign::ClosureConfig cc = closure_config(opt.seed, c);
        Campaign cam = run_campaign(cc, kWorkers, off);
        if (tr.on()) {
            Campaign again = run_campaign(cc, kWorkers, tr);
            if (again.verdicts != cam.verdicts ||
                again.cover_json != cam.cover_json) {
                res.fail("closure campaign " + std::to_string(c) +
                         " differs between two runs");
            }
            traced.add(std::move(again), res);
        }
        plain.add(std::move(cam), res);
    }
    res.attempted = plain.jobs + traced.jobs;
    res.failed = plain.failed + traced.failed;

    // Campaign 0 rerun on one worker must give the same bytes.
    const campaign::ClosureConfig cc0 = closure_config(opt.seed, 0);
    {
        const Campaign serial = run_campaign(cc0, 1, off);
        if (serial.verdicts != plain.first.verdicts) {
            res.fail("closure campaign 0: verdicts differ at 1 worker");
        }
        if (serial.cover_json != plain.first.cover_json) {
            res.fail("closure campaign 0: coverage differs at 1 worker");
        }
    }

    if (!tr.on()) {
        // op_ms is 1000 / closure_jobs_per_s: run_batch wall per
        // completed scenario.
        res.end_to_end.push_back(
            {"op_ms",
             plain.batch_ms_sum / static_cast<double>(plain.jobs - plain.failed),
             "ms"});
        res.end_to_end.push_back(
            {"setup_s", median(plain.setup_ms) / 1e3, "s"});
        res.named.push_back({"closure_campaigns",
                             static_cast<double>(plain.campaigns), "count"});
        return res;
    }
    res.untraced_op_ms = median(plain.job_ms);
    res.traced_op_ms = median(traced.job_ms);

    const Phase& p = traced;
    const Campaign& c0 = traced.first;
    auto& L = res.layer;
    L.push_back({"campaign.job_ms_p50", percentile(p.job_ms, 50), "ms"});
    L.push_back({"campaign.job_ms_p90", percentile(p.job_ms, 90), "ms"});
    L.push_back({"campaign.batch_ms_p50", percentile(p.batch_ms, 50), "ms"});
    L.push_back({"campaign.worker_util",
                 worker_util(p.job_ms_sum, kWorkers, p.batch_ms_sum), "ratio"});
    std::map<std::string, std::pair<double, double>> by_kind;  // count, ms
    for (const JobSample& j : c0.jobs) {
        by_kind[j.kind].first += 1.0;
        by_kind[j.kind].second += j.wall_ms;
    }
    for (const char* k : kKinds) {
        L.push_back({std::string("campaign.jobs.") + k, by_kind[k].first,
                     "count"});
    }
    for (const char* k : kKinds) {
        L.push_back({std::string("campaign.job_ms_sum.") + k,
                     by_kind[k].second, "ms"});
    }
    L.push_back({"cover.goal_hits", static_cast<double>(c0.goal_hit), "count"});

    const std::string replayed = replay_campaign(cc0, tr, res);
    if (replayed != c0.cover_json) {
        res.fail("closure replay: merged coverage differs from the loop's");
    }
    L.push_back({"sys.detection_ms", tr.median_ms("sys.detection"), "ms"});
    L.push_back({"sys.system_ms", tr.median_ms("sys.system"), "ms"});
    L.push_back({"ckpt.stream_warm_ms", tr.median_ms("ckpt.stream_warm"), "ms"});
    L.push_back({"ckpt.stream_cold_ms", tr.median_ms("ckpt.stream_cold"), "ms"});
    L.push_back({"scen.generate_ms", tr.median_ms("scen.generate"), "ms"});
    L.push_back({"cover.observe_ms", tr.median_ms("cover.observe"), "ms"});
    L.push_back({"cover.merge_ms", tr.median_ms("cover.merge"), "ms"});
    time_rrm(tr, res);
    return res;
}

}  // namespace perfbench
