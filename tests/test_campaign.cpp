// The campaign subsystem: queue ordering, worker-count convention,
// timeout -> retry -> permanent-failure classification, aggregate math,
// JSONL atomicity, and cross-worker determinism.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/aggregate.hpp"
#include "campaign/campaigns.hpp"
#include "campaign/pool.hpp"
#include "campaign/runner.hpp"
#include "campaign/sink.hpp"

namespace autovision::campaign {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// Queue and pool
// ---------------------------------------------------------------------------

TEST(CampaignQueue, FifoOrdering) {
    BoundedQueue<int> q(16);
    for (int i = 0; i < 10; ++i) EXPECT_TRUE(q.push(i));
    for (int i = 0; i < 10; ++i) {
        const auto v = q.pop();
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(*v, i);
    }
}

TEST(CampaignQueue, PushBlocksWhenFullUntilPop) {
    BoundedQueue<int> q(2);
    EXPECT_TRUE(q.push(1));
    EXPECT_TRUE(q.push(2));
    std::atomic<bool> third_pushed{false};
    std::thread producer([&] {
        q.push(3);  // must block until a slot frees up
        third_pushed.store(true);
    });
    std::this_thread::sleep_for(20ms);
    EXPECT_FALSE(third_pushed.load()) << "push must block on a full queue";
    EXPECT_EQ(q.pop().value(), 1);
    producer.join();
    EXPECT_TRUE(third_pushed.load());
    EXPECT_EQ(q.pop().value(), 2);
    EXPECT_EQ(q.pop().value(), 3);
}

TEST(CampaignQueue, CloseDrainsPendingThenStops) {
    BoundedQueue<int> q(8);
    EXPECT_TRUE(q.push(7));
    q.close();
    EXPECT_FALSE(q.push(8)) << "push after close must fail";
    EXPECT_EQ(q.pop().value(), 7) << "pending items drain after close";
    EXPECT_FALSE(q.pop().has_value()) << "then pop reports closed";
}

TEST(CampaignPool, ResolveWorkersConvention) {
    EXPECT_GE(resolve_workers(0), 1u);
    EXPECT_EQ(resolve_workers(3), 3u);
    EXPECT_EQ(resolve_workers(1), 1u);
}

TEST(CampaignPool, RunsEverySubmittedTask) {
    std::atomic<int> ran{0};
    {
        WorkerPool pool(4, 2);  // queue smaller than the batch
        for (int i = 0; i < 32; ++i) {
            pool.submit([&] { ran.fetch_add(1); });
        }
        pool.drain();
    }
    EXPECT_EQ(ran.load(), 32);
}

// ---------------------------------------------------------------------------
// Timeout / retry / permanent-failure classification
// ---------------------------------------------------------------------------

SimJob trivial_job(std::string name, bool pass) {
    SimJob job;
    job.name = std::move(name);
    job.body = [pass](const JobContext&) {
        JobReport rep;
        rep.pass = pass;
        if (!pass) rep.verdict = "[synthetic failure]";
        return rep;
    };
    return job;
}

TEST(CampaignRunner, TimeoutThenRetriesThenPermanentFailure) {
    SimJob job;
    job.name = "hung";
    job.body = [](const JobContext&) {
        std::this_thread::sleep_for(30ms);  // always over budget
        JobReport rep;
        rep.pass = true;
        return rep;
    };
    CampaignConfig cfg;
    cfg.jobs = 1;
    cfg.timeout = 5ms;
    cfg.retries = 2;
    const CampaignResult r = CampaignRunner(cfg).run({job});
    ASSERT_EQ(r.records.size(), 1u);
    EXPECT_EQ(r.records[0].status, JobStatus::kTimeout);
    EXPECT_EQ(r.records[0].attempts, 3u) << "1 attempt + 2 retries";
    EXPECT_FALSE(r.records[0].error.empty());
    EXPECT_EQ(r.summary.timed_out, 1u);
    EXPECT_EQ(r.summary.retried, 1u);
    EXPECT_FALSE(r.summary.all_passed());
}

TEST(CampaignRunner, FlakyTimeoutRecoversOnRetry) {
    auto attempts_seen = std::make_shared<std::atomic<int>>(0);
    SimJob job;
    job.name = "flaky";
    job.body = [attempts_seen](const JobContext&) {
        if (attempts_seen->fetch_add(1) == 0) {
            std::this_thread::sleep_for(30ms);  // first attempt hangs
        }
        JobReport rep;
        rep.pass = true;
        return rep;
    };
    CampaignConfig cfg;
    cfg.jobs = 1;
    cfg.timeout = 5ms;
    cfg.retries = 1;
    const CampaignResult r = CampaignRunner(cfg).run({job});
    ASSERT_EQ(r.records.size(), 1u);
    EXPECT_EQ(r.records[0].status, JobStatus::kPass);
    EXPECT_EQ(r.records[0].attempts, 2u);
    EXPECT_EQ(r.summary.retried, 1u);
    EXPECT_TRUE(r.summary.all_passed());
}

TEST(CampaignRunner, WatchdogCancelsCooperativeHungJob) {
    SimJob job;
    job.name = "cooperative-hang";
    job.body = [](const JobContext& ctx) {
        // Simulates a hung run that (like Testbench) polls its cancel flag;
        // the hard cap only guards the test against a broken watchdog.
        const auto cap = std::chrono::steady_clock::now() + 2s;
        while (!ctx.cancelled() && std::chrono::steady_clock::now() < cap) {
            std::this_thread::sleep_for(1ms);
        }
        JobReport rep;
        rep.pass = true;
        return rep;
    };
    CampaignConfig cfg;
    cfg.jobs = 1;
    cfg.timeout = 20ms;
    cfg.retries = 0;
    const CampaignResult r = CampaignRunner(cfg).run({job});
    ASSERT_EQ(r.records.size(), 1u);
    EXPECT_EQ(r.records[0].status, JobStatus::kTimeout);
    EXPECT_EQ(r.records[0].attempts, 1u);
    EXPECT_LT(r.records[0].wall, 1s)
        << "the watchdog, not the body's own cap, must end the attempt";
}

TEST(CampaignRunner, ErrorsAreRetriedThenRecorded) {
    SimJob job;
    job.name = "thrower";
    job.body = [](const JobContext&) -> JobReport {
        throw std::runtime_error("synthetic body failure");
    };
    CampaignConfig cfg;
    cfg.jobs = 2;
    cfg.retries = 1;
    const CampaignResult r = CampaignRunner(cfg).run({job});
    ASSERT_EQ(r.records.size(), 1u);
    EXPECT_EQ(r.records[0].status, JobStatus::kError);
    EXPECT_EQ(r.records[0].attempts, 2u);
    EXPECT_EQ(r.records[0].error, "synthetic body failure");
    EXPECT_EQ(r.summary.errored, 1u);
}

TEST(CampaignRunner, DeterministicFailIsNotRetried) {
    CampaignConfig cfg;
    cfg.jobs = 1;
    cfg.timeout = 5000ms;
    cfg.retries = 3;
    const CampaignResult r =
        CampaignRunner(cfg).run({trivial_job("fails", false)});
    ASSERT_EQ(r.records.size(), 1u);
    EXPECT_EQ(r.records[0].status, JobStatus::kFail);
    EXPECT_EQ(r.records[0].attempts, 1u)
        << "a completed fail verdict is a finding, not flakiness";
    EXPECT_EQ(r.summary.failed, 1u);
}

TEST(CampaignRunner, RecordsKeepSubmissionOrder) {
    std::vector<SimJob> jobs;
    for (int i = 0; i < 12; ++i) {
        jobs.push_back(trivial_job("job." + std::to_string(i), true));
    }
    CampaignConfig cfg;
    cfg.jobs = 4;
    const CampaignResult r = CampaignRunner(cfg).run(jobs);
    ASSERT_EQ(r.records.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(r.records[i].name, "job." + std::to_string(i));
        EXPECT_EQ(r.records[i].index, i);
    }
}

// ---------------------------------------------------------------------------
// Aggregate math
// ---------------------------------------------------------------------------

TEST(CampaignAggregate, SimStatsSumOperators) {
    rtlsim::SimStats a;
    a.timed_events = 1;
    a.delta_cycles = 2;
    a.proc_invocations = 3;
    a.signal_updates = 4;
    a.time_steps = 5;
    rtlsim::SimStats b;
    b.timed_events = 10;
    b.delta_cycles = 20;
    b.proc_invocations = 30;
    b.signal_updates = 40;
    b.time_steps = 50;

    const rtlsim::SimStats s = a + b;
    EXPECT_EQ(s.timed_events, 11u);
    EXPECT_EQ(s.delta_cycles, 22u);
    EXPECT_EQ(s.proc_invocations, 33u);
    EXPECT_EQ(s.signal_updates, 44u);
    EXPECT_EQ(s.time_steps, 55u);

    rtlsim::SimStats c = a;
    c += b;
    EXPECT_EQ(c, s);
    EXPECT_EQ((s - b), a) << "operator- stays the inverse of operator+";
}

TEST(CampaignAggregate, SummaryCountsAndPercentiles) {
    std::vector<JobRecord> records(10);
    for (std::size_t i = 0; i < records.size(); ++i) {
        records[i].name = "r" + std::to_string(i);
        records[i].attempts = 1;
        // Walls 10, 20, ..., 100 ms.
        records[i].wall = std::chrono::milliseconds{10 * (i + 1)};
        records[i].status = JobStatus::kPass;
        records[i].report.stats.signal_updates = 100;
        records[i].report.sim_time = 1000;
    }
    records[7].status = JobStatus::kFail;
    records[8].status = JobStatus::kTimeout;
    records[8].attempts = 3;
    records[9].status = JobStatus::kError;
    records[9].attempts = 2;

    const CampaignSummary s = CampaignSummary::from(records);
    EXPECT_EQ(s.total, 10u);
    EXPECT_EQ(s.passed, 7u);
    EXPECT_EQ(s.failed, 1u);
    EXPECT_EQ(s.timed_out, 1u);
    EXPECT_EQ(s.errored, 1u);
    EXPECT_EQ(s.retried, 2u);
    EXPECT_FALSE(s.all_passed());

    // Nearest-rank over {10..100} ms: p50 = 50 ms, p95 = 100 ms.
    EXPECT_EQ(s.wall_p50, std::chrono::milliseconds{50});
    EXPECT_EQ(s.wall_p95, std::chrono::milliseconds{100});
    EXPECT_EQ(s.wall_max, std::chrono::milliseconds{100});
    EXPECT_EQ(s.wall_total, std::chrono::milliseconds{550});
    EXPECT_EQ(s.stats.signal_updates, 1000u);
    EXPECT_EQ(s.sim_time, rtlsim::Time{10000});
}

TEST(CampaignAggregate, PercentileNearestRankEdgeCases) {
    using Ns = std::chrono::nanoseconds;
    EXPECT_EQ(CampaignSummary::percentile({}, 50.0), Ns{0});
    EXPECT_EQ(CampaignSummary::percentile({Ns{5}}, 50.0), Ns{5});
    EXPECT_EQ(CampaignSummary::percentile({Ns{5}}, 95.0), Ns{5});
    EXPECT_EQ(CampaignSummary::percentile({Ns{3}, Ns{1}}, 50.0), Ns{1})
        << "percentile sorts its input";
}

// ---------------------------------------------------------------------------
// JSONL sink
// ---------------------------------------------------------------------------

TEST(CampaignSink, JsonEscaping) {
    EXPECT_EQ(json_escape("plain"), "plain");
    EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
    EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
    EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(CampaignSink, RecordSerialisesToOneJsonLine) {
    JobRecord rec;
    rec.name = "job \"quoted\"";
    rec.params = {{"k", "v\n"}};
    rec.status = JobStatus::kTimeout;
    rec.attempts = 2;
    rec.error = "budget";
    rec.report.verdict = "[watchdog timeout]";
    rec.report.metrics = {{"m", 1.5}};
    const std::string line = to_jsonl(rec);
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_EQ(line.find('\n'), std::string::npos)
        << "a record must serialise to a single line";
    EXPECT_NE(line.find("\"status\":\"timeout\""), std::string::npos);
    EXPECT_NE(line.find("\"attempts\":2"), std::string::npos);
    EXPECT_NE(line.find("job \\\"quoted\\\""), std::string::npos);
    EXPECT_NE(line.find("\"m\":1.5"), std::string::npos);
}

TEST(CampaignSink, ConcurrentCampaignLeavesParseableFile) {
    const std::string path =
        ::testing::TempDir() + "/campaign_sink_test.jsonl";
    std::vector<SimJob> jobs;
    for (int i = 0; i < 16; ++i) {
        jobs.push_back(trivial_job("sink." + std::to_string(i), true));
    }
    CampaignConfig cfg;
    cfg.jobs = 8;
    cfg.jsonl_path = path;
    const CampaignResult r = CampaignRunner(cfg).run(jobs);
    EXPECT_TRUE(r.summary.all_passed());

    std::ifstream is(path);
    ASSERT_TRUE(is.good());
    std::string line;
    std::size_t lines = 0;
    while (std::getline(is, line)) {
        ASSERT_FALSE(line.empty());
        EXPECT_EQ(line.front(), '{') << line;
        EXPECT_EQ(line.back(), '}') << line;
        EXPECT_NE(line.find("\"name\":\"sink."), std::string::npos) << line;
        ++lines;
    }
    EXPECT_EQ(lines, jobs.size());
    std::remove(path.c_str());
}

// Hammer one sink directly from many writer threads — the shape the
// campaign service produces, where every connected client's jobs feed one
// mirror file. A record is written whole or not at all: no line may ever
// contain fragments of two records.
TEST(CampaignSink, ManyConcurrentWritersNeverInterleave) {
    const std::string path =
        ::testing::TempDir() + "/campaign_sink_hammer.jsonl";
    constexpr int kWriters = 16;
    constexpr int kPerWriter = 64;
    {
        JsonlSink sink(path);
        ASSERT_TRUE(sink.ok());
        std::vector<std::thread> writers;
        for (int w = 0; w < kWriters; ++w) {
            writers.emplace_back([&sink, w] {
                for (int i = 0; i < kPerWriter; ++i) {
                    JobRecord rec;
                    rec.name = 'w' + std::to_string(w) + ".r" +
                               std::to_string(i);
                    // A writer-distinct filler long enough that a torn or
                    // interleaved write would split it across lines.
                    rec.params = {{"fill",
                                   std::string(256, char('a' + w % 26))}};
                    rec.report.verdict = "[ok]";
                    rec.report.metrics = {{"writer", double(w)},
                                          {"i", double(i)}};
                    sink.write(rec);
                }
            });
        }
        for (std::thread& t : writers) t.join();
    }

    std::ifstream is(path);
    ASSERT_TRUE(is.good());
    std::string line;
    std::size_t total = 0;
    std::vector<int> per_writer(kWriters, 0);
    while (std::getline(is, line)) {
        ASSERT_FALSE(line.empty());
        EXPECT_EQ(line.front(), '{') << line;
        EXPECT_EQ(line.back(), '}') << line;
        const std::size_t name_at = line.find("\"name\":\"w");
        ASSERT_NE(name_at, std::string::npos) << line;
        const int w = std::atoi(line.c_str() + name_at + 9);
        ASSERT_GE(w, 0);
        ASSERT_LT(w, kWriters);
        // The filler must be present, uninterrupted, and belong to the
        // same writer as the record's name.
        EXPECT_NE(line.find(std::string(256, char('a' + w % 26))),
                  std::string::npos)
            << "torn record: " << line.substr(0, 80);
        ++per_writer[w];
        ++total;
    }
    EXPECT_EQ(total, std::size_t(kWriters) * kPerWriter);
    for (int w = 0; w < kWriters; ++w) {
        EXPECT_EQ(per_writer[w], kPerWriter) << "writer " << w;
    }
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Determinism: same seeds, different worker counts -> identical verdicts
// and identical per-job kernel statistics.
// ---------------------------------------------------------------------------

TEST(CampaignDeterminism, SeedSweepIdenticalAcrossWorkerCounts) {
    sys::SystemConfig base = small_system_config();
    const auto run_with = [&](unsigned workers) {
        CampaignConfig cfg;
        cfg.jobs = workers;
        return CampaignRunner(cfg).run(
            seed_sweep_jobs(base, /*first_seed=*/1, /*num_seeds=*/3,
                            /*frames=*/1));
    };
    const CampaignResult serial = run_with(1);
    const CampaignResult parallel = run_with(8);
    ASSERT_EQ(serial.records.size(), parallel.records.size());
    for (std::size_t i = 0; i < serial.records.size(); ++i) {
        const JobRecord& a = serial.records[i];
        const JobRecord& b = parallel.records[i];
        EXPECT_EQ(a.name, b.name);
        EXPECT_EQ(a.status, b.status) << a.name;
        EXPECT_EQ(a.report.verdict, b.report.verdict) << a.name;
        EXPECT_EQ(a.report.stats, b.report.stats)
            << a.name << ": kernel statistics must not depend on the"
            << " worker count";
        EXPECT_EQ(a.report.sim_time, b.report.sim_time) << a.name;
    }
    EXPECT_EQ(serial.summary.passed, parallel.summary.passed);
}

}  // namespace
}  // namespace autovision::campaign
