// Campaign service suite (src/svc).
//
// Layer by layer, bottom up: wire framing (round-trips, nested decodes,
// malformed-frame rejection), the crash-safe journal (a journal cut at
// EVERY byte offset of its last record must recover exactly the intact
// prefix), the persistent sharded queue (state transitions survive
// reopen; a torn queue record is truncated, not fatal), admission control
// and the strict-priority ready queue, the ClosureLoop save/restore
// determinism contract (resumed verdicts + coverage byte-identical to an
// uninterrupted run — the property the CI service smoke re-checks through
// kill -9), the executor's diff resume, and finally a live daemon served
// over a real AF_UNIX socket driven through the client library.
#include <gtest/gtest.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "campaign/closure.hpp"
#include "campaign/runner.hpp"
#include "svc/admission.hpp"
#include "svc/client.hpp"
#include "svc/daemon.hpp"
#include "svc/exec.hpp"
#include "svc/journal.hpp"
#include "svc/queue.hpp"
#include "svc/wire.hpp"

namespace {

using namespace autovision::svc;
using autovision::campaign::CampaignConfig;
using autovision::campaign::ClosureConfig;
using autovision::campaign::ClosureLoop;

std::string fresh_dir(const std::string& leaf) {
    const std::string d = ::testing::TempDir() + "svc_" + leaf;
    std::error_code ec;
    std::filesystem::remove_all(d, ec);
    return d;
}

std::string read_file(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

// --- wire ------------------------------------------------------------------

JobSpec sample_spec() {
    JobSpec spec;
    spec.id = 42;
    spec.kind = "closure";
    spec.client = "ci";
    spec.priority = Priority::kHigh;
    spec.params = {{"seed", "11"}, {"batches", "5"}, {"batch-size", "10"}};
    return spec;
}

TEST(SvcWire, JobSpecRoundtrip) {
    const JobSpec spec = sample_spec();
    const std::vector<std::uint8_t> img =
        encode_frame(MsgType::kSubmit, spec);
    Frame f;
    std::size_t consumed = 0;
    ASSERT_TRUE(decode_frame(img, &f, &consumed));
    EXPECT_EQ(consumed, img.size());
    EXPECT_EQ(f.type, MsgType::kSubmit);
    JobSpec back;
    rtlsim::SnapReader r = f.reader();
    ASSERT_TRUE(back.decode(r));
    EXPECT_EQ(back.id, spec.id);
    EXPECT_EQ(back.kind, spec.kind);
    EXPECT_EQ(back.client, spec.client);
    EXPECT_EQ(back.priority, spec.priority);
    EXPECT_EQ(back.params, spec.params);
}

TEST(SvcWire, NestedJobListDecodes) {
    JobList list;
    for (unsigned i = 0; i < 3; ++i) {
        JobStatusInfo info;
        info.id = i + 1;
        info.state = i == 0 ? JobState::kRunning : JobState::kQueued;
        info.kind = i == 0 ? "closure" : "diff";
        info.units_done = i;
        info.units_total = 5;
        info.checkpoints = 2 * i;
        info.resumed = i == 2 ? 1 : 0;
        list.jobs.push_back(info);
    }
    const std::vector<std::uint8_t> img =
        encode_frame(MsgType::kListOk, list);
    Frame f;
    std::size_t consumed = 0;
    ASSERT_TRUE(decode_frame(img, &f, &consumed));
    JobList back;
    rtlsim::SnapReader r = f.reader();
    ASSERT_TRUE(back.decode(r));
    ASSERT_EQ(back.jobs.size(), 3u);
    EXPECT_EQ(back.jobs[0].state, JobState::kRunning);
    EXPECT_EQ(back.jobs[2].resumed, 1u);
    EXPECT_EQ(back.jobs[1].kind, "diff");
}

TEST(SvcWire, OutcomeRoundtripCarriesArtifacts) {
    JobOutcome out;
    out.id = 7;
    out.state = JobState::kDone;
    out.pass = true;
    out.summary = "diff: 4 scenarios, 0 failed\n";
    out.verdicts = "{\"index\":0}\n{\"index\":1}\n";
    out.cover_json = "{\"goal_bins\":56}";
    const std::vector<std::uint8_t> img = encode_frame(MsgType::kDone, out);
    Frame f;
    std::size_t consumed = 0;
    ASSERT_TRUE(decode_frame(img, &f, &consumed));
    JobOutcome back;
    rtlsim::SnapReader r = f.reader();
    ASSERT_TRUE(back.decode(r));
    EXPECT_TRUE(back.pass);
    EXPECT_EQ(back.verdicts, out.verdicts);
    EXPECT_EQ(back.cover_json, out.cover_json);
}

TEST(SvcWire, DecodeFrameRejectsShortAndOversized) {
    const std::vector<std::uint8_t> img =
        encode_frame(MsgType::kHello, Hello{});
    Frame f;
    std::size_t consumed = 0;
    // Every strict prefix is "not yet a frame".
    for (std::size_t n = 0; n < img.size(); ++n) {
        EXPECT_FALSE(decode_frame(std::span(img.data(), n), &f, &consumed))
            << "prefix " << n;
    }
    // A length prefix above kMaxFrame must be rejected outright.
    std::vector<std::uint8_t> huge(5, 0);
    huge[0] = 0xFF;
    huge[1] = 0xFF;
    huge[2] = 0xFF;
    huge[3] = 0xFF;
    EXPECT_FALSE(decode_frame(huge, &f, &consumed));
}

TEST(SvcWire, PriorityParsing) {
    Priority p = Priority::kNormal;
    EXPECT_TRUE(priority_from_string("high", &p));
    EXPECT_EQ(p, Priority::kHigh);
    EXPECT_TRUE(priority_from_string("batch", &p));
    EXPECT_EQ(p, Priority::kBatch);
    EXPECT_FALSE(priority_from_string("urgent", &p));
    EXPECT_EQ(p, Priority::kBatch);  // untouched on failure
}

TEST(SvcWire, ConfigHashPinsKindAndParams) {
    const JobSpec a = sample_spec();
    JobSpec b = a;
    b.id = 999;          // identity fields ignored
    b.client = "other";  // ignored
    b.priority = Priority::kBatch;  // ignored
    EXPECT_EQ(a.config_hash(), b.config_hash());
    JobSpec c = a;
    c.params["seed"] = "12";
    EXPECT_NE(a.config_hash(), c.config_hash());
    JobSpec d = a;
    d.kind = "diff";
    EXPECT_NE(a.config_hash(), d.config_hash());
}

// --- wire over real fds ----------------------------------------------------
// read_frame_fd/write_frame_fd must tolerate everything a stream socket is
// allowed to do to a frame: arbitrary fragmentation (a dribbling peer that
// delivers one byte per read), EINTR restarts mid-read and mid-write, and a
// peer that vanishes mid-frame — which must surface as a clean `false`
// (EPIPE), never as a process-killing SIGPIPE.

/// A connected AF_UNIX stream pair, closed on destruction.
struct FdPair {
    FdPair() {
        int sv[2] = {-1, -1};
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
        a = sv[0];
        b = sv[1];
    }
    ~FdPair() {
        close_a();
        close_b();
    }
    void close_a() {
        if (a >= 0) ::close(a);
        a = -1;
    }
    void close_b() {
        if (b >= 0) ::close(b);
        b = -1;
    }
    int a = -1;
    int b = -1;
};

TEST(SvcWireFd, DribblingPeerOneByteAtATimeReassemblesFrames) {
    FdPair fds;
    // Three back-to-back frames, delivered one byte per write() so every
    // read on the receiving side is as short as a stream allows.
    std::vector<std::uint8_t> stream;
    const JobSpec spec = sample_spec();
    for (const auto& img : {encode_frame(MsgType::kHello, Hello{1, "cli"}),
                            encode_frame(MsgType::kSubmit, spec),
                            encode_frame(MsgType::kList, JobRef{7})}) {
        stream.insert(stream.end(), img.begin(), img.end());
    }
    std::thread writer([&] {
        for (const std::uint8_t byte : stream) {
            ASSERT_EQ(::write(fds.a, &byte, 1), 1);
        }
        fds.close_a();
    });

    Frame f;
    ASSERT_TRUE(read_frame_fd(fds.b, &f));
    EXPECT_EQ(f.type, MsgType::kHello);
    ASSERT_TRUE(read_frame_fd(fds.b, &f));
    EXPECT_EQ(f.type, MsgType::kSubmit);
    JobSpec got;
    {
        auto r = f.reader();
        ASSERT_TRUE(got.decode(r));
    }
    EXPECT_EQ(got.id, spec.id);
    EXPECT_EQ(got.params, spec.params);
    ASSERT_TRUE(read_frame_fd(fds.b, &f));
    EXPECT_EQ(f.type, MsgType::kList);
    // Clean EOF at the frame boundary after the writer hangs up.
    EXPECT_FALSE(read_frame_fd(fds.b, &f));
    writer.join();
}

TEST(SvcWireFd, EintrStormDuringLargeFrameIsRestartedOnBothSides) {
    // SIGUSR1 with an empty handler and no SA_RESTART: every signal that
    // lands while a thread sits in read()/send() makes the call fail with
    // EINTR (or return short), which the wire loops must absorb.
    struct sigaction sa = {};
    sa.sa_handler = [](int) {};
    sa.sa_flags = 0;  // deliberately not SA_RESTART
    struct sigaction old = {};
    ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old), 0);

    FdPair fds;
    // Much larger than the AF_UNIX buffer, so the writer blocks mid-frame
    // and signals force partial sends as well as partial reads.
    std::vector<std::uint8_t> body(2u << 20);
    for (std::size_t i = 0; i < body.size(); ++i) {
        body[i] = static_cast<std::uint8_t>(i * 131u + 17u);
    }
    std::atomic<bool> done{false};
    bool wrote = false;
    std::thread writer([&] {
        wrote = write_frame_fd(fds.a, MsgType::kRecord, body);
    });
    Frame f;
    bool read_ok = false;
    std::thread reader([&] {
        read_ok = read_frame_fd(fds.b, &f);
        done = true;
    });
    while (!done) {
        ::pthread_kill(writer.native_handle(), SIGUSR1);
        ::pthread_kill(reader.native_handle(), SIGUSR1);
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    writer.join();
    reader.join();
    ::sigaction(SIGUSR1, &old, nullptr);

    EXPECT_TRUE(wrote);
    ASSERT_TRUE(read_ok);
    EXPECT_EQ(f.type, MsgType::kRecord);
    EXPECT_EQ(f.body, body);
}

TEST(SvcWireFd, PeerGoneMidFrameIsAnErrorNotSigpipe) {
    FdPair fds;
    fds.close_b();  // reader hangs up before the frame
    // Without MSG_NOSIGNAL this raises SIGPIPE (default disposition: kill
    // the process — nothing in the daemon ignores it) instead of failing.
    const std::vector<std::uint8_t> body(64u << 10, 0xAB);
    EXPECT_FALSE(write_frame_fd(fds.a, MsgType::kRecord, body));
}

// --- journal ---------------------------------------------------------------

std::vector<std::uint8_t> payload_of(char c, std::size_t n) {
    return std::vector<std::uint8_t>(n, static_cast<std::uint8_t>(c));
}

TEST(SvcJournal, AppendReplayRoundtrip) {
    const std::string dir = fresh_dir("journal_rt");
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/j.jnl";
    {
        JournalWriter w;
        std::string err;
        ASSERT_TRUE(w.open(path, nullptr, &err)) << err;
        ASSERT_TRUE(w.append(payload_of('a', 5)));
        ASSERT_TRUE(w.append(payload_of('b', 200)));
        ASSERT_TRUE(w.append(payload_of('c', 1)));
    }
    std::vector<std::vector<std::uint8_t>> seen;
    const ReplayStats st = replay_journal(
        path, [&](std::span<const std::uint8_t> p) {
            seen.emplace_back(p.begin(), p.end());
        });
    EXPECT_TRUE(st.ok);
    EXPECT_FALSE(st.torn);
    ASSERT_EQ(st.records, 3u);
    EXPECT_EQ(seen[0], payload_of('a', 5));
    EXPECT_EQ(seen[1], payload_of('b', 200));
    EXPECT_EQ(seen[2], payload_of('c', 1));
}

TEST(SvcJournal, MissingFileIsEmptyCleanJournal) {
    const ReplayStats st =
        replay_journal(fresh_dir("journal_none") + "/absent.jnl", nullptr);
    EXPECT_TRUE(st.ok);
    EXPECT_FALSE(st.torn);
    EXPECT_EQ(st.records, 0u);
}

// The crash-safety contract, exhaustively: cut the journal at every byte
// offset inside its final record; every cut must recover exactly the two
// intact records, truncate the tail, and leave the journal appendable.
TEST(SvcJournal, TornTailAtEveryByteOffset) {
    const std::string dir = fresh_dir("journal_torn");
    std::filesystem::create_directories(dir);
    const std::string ref = dir + "/ref.jnl";
    std::size_t two_records = 0;
    {
        JournalWriter w;
        std::string err;
        ASSERT_TRUE(w.open(ref, nullptr, &err)) << err;
        ASSERT_TRUE(w.append(payload_of('x', 24)));
        ASSERT_TRUE(w.append(payload_of('y', 7)));
        two_records = std::filesystem::file_size(ref);
        ASSERT_TRUE(w.append(payload_of('z', 40)));
    }
    const std::string full = read_file(ref);
    ASSERT_GT(full.size(), two_records);

    for (std::size_t cut = two_records + 1; cut < full.size(); ++cut) {
        const std::string path = dir + "/cut.jnl";
        {
            std::ofstream os(path, std::ios::binary | std::ios::trunc);
            os.write(full.data(), static_cast<std::streamsize>(cut));
        }
        std::size_t records = 0;
        JournalWriter w;
        std::string err;
        ASSERT_TRUE(w.open(path,
                           [&](std::span<const std::uint8_t>) { ++records; },
                           &err))
            << "cut at " << cut << ": " << err;
        EXPECT_EQ(records, 2u) << "cut at " << cut;
        EXPECT_TRUE(w.recovery().torn) << "cut at " << cut;
        EXPECT_EQ(w.recovery().valid_bytes, two_records) << "cut at " << cut;
        EXPECT_EQ(std::filesystem::file_size(path), two_records)
            << "truncation failed at cut " << cut;
        // The journal must accept appends at the recovered boundary...
        ASSERT_TRUE(w.append(payload_of('n', 3)));
        w.close();
        // ...and the repaired file replays clean.
        const ReplayStats st = replay_journal(path, nullptr);
        EXPECT_TRUE(st.ok);
        EXPECT_FALSE(st.torn) << "cut at " << cut;
        EXPECT_EQ(st.records, 3u) << "cut at " << cut;
    }
}

TEST(SvcJournal, CorruptPayloadByteStopsReplayAtThatRecord) {
    const std::string dir = fresh_dir("journal_corrupt");
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/j.jnl";
    std::size_t first_end = 0;
    {
        JournalWriter w;
        std::string err;
        ASSERT_TRUE(w.open(path, nullptr, &err)) << err;
        ASSERT_TRUE(w.append(payload_of('a', 16)));
        first_end = std::filesystem::file_size(path);
        ASSERT_TRUE(w.append(payload_of('b', 16)));
    }
    std::string bytes = read_file(path);
    bytes[first_end + 4 + 4 + 8 + 3] ^= 0x5A;  // flip a payload byte of #2
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    const ReplayStats st = replay_journal(path, nullptr);
    EXPECT_TRUE(st.ok);
    EXPECT_TRUE(st.torn);
    EXPECT_EQ(st.records, 1u);
    EXPECT_EQ(st.valid_bytes, first_end);
}

// --- persistent queue ------------------------------------------------------

TEST(SvcQueue, StateTransitionsSurviveReopen) {
    const std::string dir = fresh_dir("queue_reopen");
    JobOutcome done_out;
    {
        PersistentQueue q;
        std::string err;
        ASSERT_TRUE(q.open(dir, 2, &err)) << err;
        EXPECT_EQ(q.shards(), 2u);
        JobSpec s = sample_spec();
        s.id = 0;
        EXPECT_EQ(q.record_submit(s), 1u);
        EXPECT_EQ(q.record_submit(s), 2u);
        EXPECT_EQ(q.record_submit(s), 3u);
        ASSERT_TRUE(q.record_progress(2, "blob-a"));
        ASSERT_TRUE(q.record_progress(2, "blob-b"));
        done_out.id = 1;
        done_out.state = JobState::kDone;
        done_out.pass = true;
        done_out.verdicts = "v\n";
        ASSERT_TRUE(q.record_done(1, done_out));
        ASSERT_TRUE(q.record_cancel(3));
    }
    PersistentQueue q;
    std::string err;
    ASSERT_TRUE(q.open(dir, 2, &err)) << err;
    EXPECT_FALSE(q.recovery_torn());
    EXPECT_EQ(q.size(), 3u);
    EXPECT_EQ(q.unfinished(), std::vector<std::uint64_t>{2});

    QueueEntry e;
    ASSERT_TRUE(q.find(2, &e));
    EXPECT_EQ(e.resume_blob, "blob-b");  // latest progress wins
    EXPECT_EQ(e.checkpoints, 2u);
    EXPECT_EQ(e.resumed, 1u);  // unfinished with prior progress: one resume
    ASSERT_TRUE(q.find(1, &e));
    EXPECT_TRUE(e.finished);
    EXPECT_TRUE(e.outcome.pass);
    EXPECT_EQ(e.outcome.verdicts, "v\n");
    EXPECT_TRUE(e.resume_blob.empty());  // done clears the blob
    ASSERT_TRUE(q.find(3, &e));
    EXPECT_TRUE(e.cancelled);
    EXPECT_EQ(e.outcome.state, JobState::kCancelled);

    // Ids stay dense and increasing across restarts.
    JobSpec s = sample_spec();
    s.id = 0;
    EXPECT_EQ(q.record_submit(s), 4u);
}

TEST(SvcQueue, TornQueueRecordIsTruncatedNotFatal) {
    const std::string dir = fresh_dir("queue_torn");
    {
        PersistentQueue q;
        std::string err;
        ASSERT_TRUE(q.open(dir, 1, &err)) << err;
        JobSpec s = sample_spec();
        s.id = 0;
        EXPECT_EQ(q.record_submit(s), 1u);
        ASSERT_TRUE(q.record_progress(1, "progress"));
    }
    // Tear the last record: drop the final 5 bytes of the shard file.
    const std::string shard = dir + "/shard-0.jnl";
    const std::string bytes = read_file(shard);
    ASSERT_GT(bytes.size(), 5u);
    {
        std::ofstream os(shard, std::ios::binary | std::ios::trunc);
        os.write(bytes.data(),
                 static_cast<std::streamsize>(bytes.size() - 5));
    }
    PersistentQueue q;
    std::string err;
    ASSERT_TRUE(q.open(dir, 1, &err)) << err;
    EXPECT_TRUE(q.recovery_torn());
    QueueEntry e;
    ASSERT_TRUE(q.find(1, &e));           // the submit record survived
    EXPECT_TRUE(e.resume_blob.empty());   // the torn progress did not
    EXPECT_FALSE(e.finished);
    EXPECT_EQ(q.unfinished(), std::vector<std::uint64_t>{1});
    // And the queue keeps working on the repaired journal.
    ASSERT_TRUE(q.record_progress(1, "after-repair"));
    JobSpec s = sample_spec();
    s.id = 0;
    EXPECT_EQ(q.record_submit(s), 2u);
}

// --- admission / ready queue ----------------------------------------------

TEST(SvcAdmission, BudgetsChargeAndRelease) {
    AdmissionConfig cfg;
    cfg.max_jobs = 3;
    cfg.max_per_client = 2;
    cfg.max_queued_per_class = 2;
    AdmissionController ac(cfg);
    JobSpec a = sample_spec();
    a.client = "alice";
    a.priority = Priority::kNormal;

    EXPECT_TRUE(ac.admit(a).admit);
    EXPECT_TRUE(ac.admit(a).admit);
    // Per-client quota (2) before total (3).
    const AdmissionController::Decision d3 = ac.admit(a);
    EXPECT_FALSE(d3.admit);
    EXPECT_NE(d3.reason.find("alice"), std::string::npos);

    JobSpec b = a;
    b.client = "bob";
    // Same class already holds 2 queued jobs: class budget rejects.
    const AdmissionController::Decision d4 = ac.admit(b);
    EXPECT_FALSE(d4.admit);
    EXPECT_NE(d4.reason.find("normal"), std::string::npos);
    // One of alice's jobs starts running: a class slot frees, bob fits.
    ac.started(a);
    EXPECT_TRUE(ac.admit(b).admit);
    // Total budget now exhausted (3 unfinished).
    JobSpec c = a;
    c.client = "carol";
    c.priority = Priority::kHigh;
    const AdmissionController::Decision d6 = ac.admit(c);
    EXPECT_FALSE(d6.admit);
    EXPECT_NE(d6.reason.find("capacity"), std::string::npos);
    // A job finishing releases total + per-client.
    ac.finished(a);
    EXPECT_TRUE(ac.admit(c).admit);
    EXPECT_EQ(ac.in_flight(), 3u);
}

TEST(SvcAdmission, ReadyQueueStrictPriorityFifo) {
    PriorityReadyQueue q;
    q.push(10, Priority::kBatch);
    q.push(11, Priority::kNormal);
    q.push(12, Priority::kHigh);
    q.push(13, Priority::kNormal);
    q.push(14, Priority::kHigh);
    // Strict priority first, FIFO within a class.
    EXPECT_EQ(q.pop(), std::optional<std::uint64_t>(12));
    EXPECT_EQ(q.pop(), std::optional<std::uint64_t>(14));
    EXPECT_EQ(q.pop(), std::optional<std::uint64_t>(11));
    EXPECT_TRUE(q.remove(13));   // cancel a queued job
    EXPECT_FALSE(q.remove(13));  // already gone
    EXPECT_EQ(q.pop(), std::optional<std::uint64_t>(10));
    q.close();
    EXPECT_EQ(q.pop(), std::nullopt);  // closed and drained
}

TEST(SvcAdmission, ReadyQueuePopBlocksUntilPush) {
    PriorityReadyQueue q;
    std::atomic<bool> got{false};
    std::thread t([&] {
        const std::optional<std::uint64_t> id = q.pop();
        EXPECT_EQ(id, std::optional<std::uint64_t>(99));
        got.store(true);
    });
    q.push(99, Priority::kNormal);
    t.join();
    EXPECT_TRUE(got.load());
}

// --- closure loop save/restore --------------------------------------------

ClosureConfig tiny_closure() {
    ClosureConfig cc;
    cc.seed = 5;
    cc.batch_size = 3;
    cc.max_batches = 3;
    cc.target_percent = 101.0;  // never stops on target
    return cc;
}

std::string cover_json(const ClosureLoop& loop) {
    std::ostringstream os;
    loop.merged().write_json(os);
    return os.str();
}

// A loop saved after batch 1 and restored into a fresh instance must
// finish with byte-identical verdicts, coverage, and batch summaries —
// the in-process version of the kill -9 smoke.
TEST(SvcClosureLoop, SaveRestoreByteIdenticalToUninterrupted) {
    CampaignConfig rc;
    rc.jobs = 2;

    ClosureLoop straight(tiny_closure());
    while (!straight.done()) straight.run_batch(rc);

    ClosureLoop first(tiny_closure());
    ASSERT_FALSE(first.done());
    first.run_batch(rc);
    std::ostringstream blob;
    ASSERT_TRUE(first.save(blob));

    ClosureLoop resumed(tiny_closure());
    std::istringstream is(blob.str());
    std::string err;
    ASSERT_TRUE(resumed.restore(is, &err)) << err;
    EXPECT_EQ(resumed.next_batch(), 1u);
    while (!resumed.done()) resumed.run_batch(rc);

    EXPECT_EQ(resumed.verdicts(), straight.verdicts());
    EXPECT_EQ(cover_json(resumed), cover_json(straight));
    ASSERT_EQ(resumed.batches().size(), straight.batches().size());
    for (std::size_t i = 0; i < straight.batches().size(); ++i) {
        EXPECT_EQ(resumed.batches()[i].goal_hit,
                  straight.batches()[i].goal_hit)
            << "batch " << i;
        EXPECT_EQ(resumed.batches()[i].percent,
                  straight.batches()[i].percent)
            << "batch " << i;
    }
    EXPECT_EQ(resumed.scenarios_run(), straight.scenarios_run());
}

TEST(SvcClosureLoop, RestoreRejectsMismatchedConfig) {
    CampaignConfig rc;
    rc.jobs = 2;
    ClosureLoop loop(tiny_closure());
    loop.run_batch(rc);
    std::ostringstream blob;
    ASSERT_TRUE(loop.save(blob));

    ClosureConfig other = tiny_closure();
    other.seed = 6;  // a different campaign
    ClosureLoop wrong(other);
    std::istringstream is(blob.str());
    std::string err;
    EXPECT_FALSE(wrong.restore(is, &err));
    EXPECT_FALSE(err.empty());

    ClosureLoop garbage(tiny_closure());
    std::istringstream bad("not a checkpoint");
    EXPECT_FALSE(garbage.restore(bad, &err));
}

// --- executor --------------------------------------------------------------

JobSpec diff_spec() {
    JobSpec spec;
    spec.id = 1;
    spec.kind = "diff";
    spec.params = {{"seed", "9"}, {"seeds", "4"}};
    return spec;
}

TEST(SvcExec, DiffResumeFromCheckpointByteIdentical) {
    ExecConfig cfg;
    cfg.job_workers = 2;
    cfg.ckpt_interval = 1;

    std::vector<std::string> blobs;
    std::mutex mu;
    ExecHooks hooks;
    hooks.on_checkpoint = [&](const std::string& b) {
        const std::lock_guard lk(mu);
        blobs.push_back(b);
    };
    const JobOutcome fresh =
        run_service_job(diff_spec(), cfg, hooks, std::string());
    EXPECT_EQ(fresh.state, JobState::kDone);
    ASSERT_FALSE(blobs.empty());  // 4 scenarios, ckpt per completion

    // Resume from the first checkpoint: only the missing scenarios rerun,
    // and the merged verdict set is identical.
    std::atomic<unsigned> reran{0};
    ExecHooks resume_hooks;
    resume_hooks.on_record = [&](const autovision::campaign::JobRecord&) {
        ++reran;
    };
    const JobOutcome resumed =
        run_service_job(diff_spec(), cfg, resume_hooks, blobs.front());
    EXPECT_EQ(resumed.state, JobState::kDone);
    EXPECT_EQ(resumed.verdicts, fresh.verdicts);
    EXPECT_EQ(resumed.pass, fresh.pass);
    EXPECT_LT(reran.load(), 4u);

    // A blob from a different campaign config is ignored: fresh start.
    JobSpec other = diff_spec();
    other.params["seed"] = "10";
    std::atomic<unsigned> full{0};
    ExecHooks full_hooks;
    full_hooks.on_record = [&](const autovision::campaign::JobRecord&) {
        ++full;
    };
    const JobOutcome cross =
        run_service_job(other, cfg, full_hooks, blobs.front());
    EXPECT_EQ(cross.state, JobState::kDone);
    EXPECT_EQ(full.load(), 4u);
}

TEST(SvcExec, UnknownKindFails) {
    JobSpec spec;
    spec.kind = "fuzz";
    const JobOutcome out =
        run_service_job(spec, ExecConfig{}, ExecHooks{}, std::string());
    EXPECT_EQ(out.state, JobState::kFailed);
    EXPECT_NE(out.summary.find("unknown job kind"), std::string::npos);
}

// A present param that does not parse, or parses out of range, fails the
// job before it runs anything, and the summary names the param and its
// value (DESIGN.md §12). Counts are decimal in [1, 4096], `seed` is an
// unsigned u64, `target` a finite number in [0, 1000], and a flag is 0, 1,
// false or true.
TEST(SvcExec, MalformedParamsFailTheJob) {
    struct Case {
        const char* kind;
        const char* key;
        const char* value;
    };
    const Case cases[] = {
        {"diff", "seeds", "abc"},
        {"diff", "seeds", "4294967298"},
        {"diff", "seeds", "-1"},
        {"diff", "seeds", "0"},
        {"diff", "seeds", "4097"},
        {"diff", "seeds", "0x10"},
        {"diff", "seeds", "+2"},
        {"diff", "seeds", " 2"},
        {"diff", "seeds", ""},
        {"diff", "seed", "-1"},
        {"diff", "seed", "18446744073709551616"},
        {"diff", "expect-genuine", "yes"},
        {"closure", "batches", "0"},
        {"closure", "batch-size", "1000000000"},
        {"closure", "target", "nan"},
        {"closure", "target", "inf"},
        {"closure", "target", "-1"},
        {"closure", "target", "1000.5"},
        {"closure", "target", "95%"},
        {"closure", "bias", "no"},
        {"closure", "warm-start", "2"},
    };
    for (const Case& c : cases) {
        JobSpec spec;
        spec.kind = c.kind;
        spec.params = {{"seed", "3"}, {"seeds", "2"}, {"batches", "1"},
                       {"batch-size", "2"}};
        spec.params[c.key] = c.value;
        const JobOutcome out =
            run_service_job(spec, ExecConfig{}, ExecHooks{}, std::string());
        const std::string named = std::string(c.key) + "='" + c.value + "'";
        EXPECT_EQ(out.state, JobState::kFailed) << c.kind << ' ' << named;
        EXPECT_NE(out.summary.find(named), std::string::npos) << out.summary;
    }
}

TEST(SvcExec, CancelledBetweenUnits) {
    JobSpec spec;
    spec.kind = "closure";
    spec.params = {{"seed", "3"}, {"batches", "4"}, {"batch-size", "2"},
                   {"target", "101"}};
    ExecConfig cfg;
    cfg.job_workers = 2;
    std::atomic<unsigned> batches{0};
    ExecHooks hooks;
    hooks.on_progress = [&](std::uint32_t done, std::uint32_t) {
        batches.store(done);
    };
    hooks.cancelled = [&] { return batches.load() >= 1; };
    const JobOutcome out =
        run_service_job(spec, cfg, hooks, std::string());
    EXPECT_EQ(out.state, JobState::kCancelled);
    EXPECT_FALSE(out.pass);
    EXPECT_NE(out.summary.find("cancelled"), std::string::npos);
}

// --- daemon end-to-end -----------------------------------------------------

TEST(SvcDaemon, SubmitWaitStatusListShutdown) {
    const std::string dir = fresh_dir("daemon_e2e");
    std::filesystem::create_directories(dir);
    DaemonConfig cfg;
    cfg.socket_path = dir + "/d.sock";
    cfg.state_dir = dir + "/state";
    cfg.shards = 2;
    cfg.executors = 1;
    cfg.exec.job_workers = 2;
    cfg.quiet = true;

    Daemon daemon(cfg);
    std::string err;
    ASSERT_TRUE(daemon.start(&err)) << err;
    std::thread server([&] { daemon.run(); });

    Client client;
    ASSERT_TRUE(client.connect(cfg.socket_path, "test", &err)) << err;

    JobSpec spec;
    spec.kind = "diff";
    spec.params = {{"seed", "9"}, {"seeds", "3"}};
    SubmitResult res;
    ASSERT_TRUE(client.submit(spec, &res, &err)) << err;
    ASSERT_TRUE(res.accepted) << res.reason;
    EXPECT_EQ(res.id, 1u);

    std::vector<std::string> lines;
    JobOutcome outcome;
    ASSERT_TRUE(client.wait(
        res.id, [&](const RecordLine& rl) { lines.push_back(rl.line); },
        &outcome, &err))
        << err;
    EXPECT_EQ(outcome.state, JobState::kDone);
    EXPECT_TRUE(outcome.pass) << outcome.summary;
    // Records completed before the subscription are not replayed, so the
    // streamed count is at most one per scenario; the canonical artifact is
    // the outcome's verdict block, which always carries all three.
    EXPECT_LE(lines.size(), 3u);
    EXPECT_EQ(std::count(outcome.verdicts.begin(), outcome.verdicts.end(),
                         '\n'),
              3);

    const std::string job1_verdicts = outcome.verdicts;

    // A second wait on the finished job answers from the journal.
    JobOutcome again;
    ASSERT_TRUE(client.wait(res.id, nullptr, &again, &err)) << err;
    EXPECT_EQ(again.verdicts, job1_verdicts);

    JobStatusInfo info;
    ASSERT_TRUE(client.status(res.id, &info, &err)) << err;
    EXPECT_EQ(info.state, JobState::kDone);
    EXPECT_EQ(info.kind, "diff");
    ASSERT_TRUE(client.status(999, &info, &err)) << err;
    EXPECT_EQ(info.state, JobState::kUnknown);

    JobList list;
    ASSERT_TRUE(client.list(&list, &err)) << err;
    ASSERT_EQ(list.jobs.size(), 1u);
    EXPECT_EQ(list.jobs[0].id, 1u);

    // Unknown kinds fail cleanly through the whole stack.
    JobSpec bad;
    bad.kind = "fuzz";
    ASSERT_TRUE(client.submit(bad, &res, &err)) << err;
    ASSERT_TRUE(res.accepted);
    ASSERT_TRUE(client.wait(res.id, nullptr, &outcome, &err)) << err;
    EXPECT_EQ(outcome.state, JobState::kFailed);

    ASSERT_TRUE(client.shutdown_daemon(&err)) << err;
    server.join();

    // The journal outlives the daemon: a fresh instance still knows both
    // jobs and reports them finished.
    Daemon revived(cfg);
    ASSERT_TRUE(revived.start(&err)) << err;
    std::thread server2([&] { revived.run(); });
    Client c2;
    ASSERT_TRUE(c2.connect(cfg.socket_path, "test2", &err)) << err;
    JobList list2;
    ASSERT_TRUE(c2.list(&list2, &err)) << err;
    EXPECT_EQ(list2.jobs.size(), 2u);
    JobOutcome persisted;
    ASSERT_TRUE(c2.wait(1, nullptr, &persisted, &err)) << err;
    EXPECT_EQ(persisted.verdicts, job1_verdicts);
    ASSERT_TRUE(c2.shutdown_daemon(&err)) << err;
    server2.join();
}

TEST(SvcDaemon, AdmissionRejectsOverBudget) {
    const std::string dir = fresh_dir("daemon_admit");
    std::filesystem::create_directories(dir);
    DaemonConfig cfg;
    cfg.socket_path = dir + "/d.sock";
    cfg.state_dir = dir + "/state";
    cfg.executors = 1;
    cfg.exec.job_workers = 1;
    cfg.admission.max_jobs = 1;  // one unfinished job, total
    cfg.quiet = true;

    Daemon daemon(cfg);
    std::string err;
    ASSERT_TRUE(daemon.start(&err)) << err;
    std::thread server([&] { daemon.run(); });

    Client client;
    ASSERT_TRUE(client.connect(cfg.socket_path, "test", &err)) << err;
    JobSpec spec;
    spec.kind = "diff";
    spec.params = {{"seed", "2"}, {"seeds", "2"}};
    SubmitResult first;
    ASSERT_TRUE(client.submit(spec, &first, &err)) << err;
    ASSERT_TRUE(first.accepted);
    SubmitResult second;
    ASSERT_TRUE(client.submit(spec, &second, &err)) << err;
    EXPECT_FALSE(second.accepted);
    EXPECT_NE(second.reason.find("capacity"), std::string::npos);

    JobOutcome outcome;
    ASSERT_TRUE(client.wait(first.id, nullptr, &outcome, &err)) << err;
    // Budget released at completion: the next submit is admitted.
    SubmitResult third;
    ASSERT_TRUE(client.submit(spec, &third, &err)) << err;
    EXPECT_TRUE(third.accepted);
    ASSERT_TRUE(client.wait(third.id, nullptr, &outcome, &err)) << err;
    ASSERT_TRUE(client.shutdown_daemon(&err)) << err;
    server.join();
}

}  // namespace
