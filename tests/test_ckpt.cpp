// Checkpoint invariance suite (src/ckpt).
//
// The contract under test: a run that is saved at cycle N, restored into a
// freshly elaborated system, and continued must be indistinguishable —
// bit-exact signals, kernel counters, memories and module state — from the
// same run left uninterrupted. The comparison oracle is the checkpoint
// blob itself: System::save serializes *all* simulator state
// byte-deterministically, so "warm final blob == cold final blob" pins
// every signal value, every counter and every in-flight transaction at
// once, in the spirit of the SimStats goldens in
// test_kernel_invariance.cpp.
//
// The save points are chosen adversarially: we step in small quanta until
// the system is mid-ICAP-packet, inside the isolation X-window, or holding
// a pending interrupt, and snapshot *there* — the moments with the most
// in-flight state (open DMA bursts, half-streamed SimBs, latched IRQs).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "diff/diff.hpp"
#include "scen/scenario.hpp"
#include "scen/stream_harness.hpp"
#include "sys/address_map.hpp"
#include "sys/system.hpp"
#include "sys/testbench.hpp"
#include "video/synth.hpp"

namespace {

using autovision::sys::kFrameBuf;
using autovision::sys::OpticalFlowSystem;
using autovision::sys::SystemConfig;
namespace video = autovision::video;

SystemConfig small_config() {
    SystemConfig cfg;
    cfg.width = 32;
    cfg.height = 24;
    cfg.search = 2;
    cfg.simb_payload_words = 64;
    return cfg;
}

video::Frame scene_frame(const SystemConfig& cfg, unsigned index) {
    video::SyntheticScene scene(
        video::SceneConfig::standard(cfg.width, cfg.height, 1));
    return scene.frame(index);
}

/// Elaborate a fresh system, boot it and inject frame 0 — the shared
/// prefix of every directly-driven run in this suite.
struct DirectRun {
    explicit DirectRun(const SystemConfig& cfg) : sys(cfg) {
        sys.sch.run_until(8 * cfg.clk_period);
        sys.video_in.send_frame(scene_frame(cfg, 0), kFrameBuf);
    }

    void run_to(rtlsim::Time t) {
        while (sys.sch.now() < t && !sys.sch.stop_requested()) {
            sys.sch.run_until(sys.sch.now() + kQuantum);
        }
    }

    /// Step quanta until `cond()` holds (fails the test if it never does).
    template <typename Cond>
    rtlsim::Time run_until_condition(Cond cond, rtlsim::Time budget) {
        while (sys.sch.now() < budget) {
            sys.sch.run_until(sys.sch.now() + kQuantum);
            if (cond()) return sys.sch.now();
        }
        return 0;
    }

    [[nodiscard]] std::string blob() const {
        std::ostringstream os;
        EXPECT_TRUE(sys.save(os));
        return os.str();
    }

    static constexpr rtlsim::Time kQuantum = 32 * 10 * rtlsim::NS;
    OpticalFlowSystem sys;
};

/// The core round-trip check: save `warm` at its current time, restore
/// into a fresh system, continue both the original cold reference and the
/// restored system to `t_end`, and require bit-identical final blobs.
void expect_warm_equals_cold(const SystemConfig& cfg, DirectRun& warm,
                             rtlsim::Time t_end) {
    const std::string mid = warm.blob();
    ASSERT_FALSE(mid.empty());

    // Cold reference: one uninterrupted run to t_end.
    DirectRun cold(cfg);
    cold.run_to(t_end);

    // Warm side: fresh elaboration, restore, continue.
    OpticalFlowSystem restored(cfg);
    std::istringstream is(mid);
    std::string err;
    ASSERT_TRUE(restored.restore(is, &err)) << err;
    EXPECT_EQ(restored.sch.now(), warm.sys.sch.now());
    while (restored.sch.now() < t_end && !restored.sch.stop_requested()) {
        restored.sch.run_until(restored.sch.now() + DirectRun::kQuantum);
    }

    std::ostringstream warm_os;
    ASSERT_TRUE(restored.save(warm_os));
    EXPECT_EQ(warm_os.str(), cold.blob())
        << "restored run diverged from the uninterrupted reference";
}

// ---------------------------------------------------------------------------
// Determinism and manifest plumbing
// ---------------------------------------------------------------------------

TEST(Ckpt, BlobIsByteDeterministic) {
    const SystemConfig cfg = small_config();
    DirectRun a(cfg);
    a.run_to(2000 * cfg.clk_period);
    // Saving twice at the same instant is bit-identical (no wall-clock,
    // pointer or iteration-order leakage into the serialization).
    EXPECT_EQ(a.blob(), a.blob());

    // A second system elaborated in the same process and driven the same
    // way lands on the same bytes — the regression net for hidden static
    // mutable state surviving from the first run.
    DirectRun b(cfg);
    b.run_to(2000 * cfg.clk_period);
    EXPECT_EQ(a.blob(), b.blob());
}

TEST(Ckpt, ManifestRejectsMismatchedConfig) {
    const SystemConfig cfg = small_config();
    DirectRun a(cfg);
    a.run_to(1000 * cfg.clk_period);
    const std::string blob = a.blob();

    SystemConfig other = cfg;
    other.width = 64;  // different geometry => different config hash
    OpticalFlowSystem wrong(other);
    std::istringstream is(blob);
    std::string err;
    EXPECT_FALSE(wrong.restore(is, &err));
    EXPECT_NE(err.find("config"), std::string::npos) << err;
}

TEST(Ckpt, ManifestRoundTrips) {
    const SystemConfig cfg = small_config();
    DirectRun a(cfg);
    a.run_to(1000 * cfg.clk_period);
    const std::string blob = a.blob();

    std::istringstream is(blob);
    autovision::ckpt::Loader loader;
    ASSERT_TRUE(loader.load(is, 0)) << loader.error();  // 0 = skip hash check
    EXPECT_EQ(loader.manifest().format_version, autovision::ckpt::kFormatVersion);
    EXPECT_EQ(loader.manifest().config_hash, OpticalFlowSystem::config_hash(cfg));
    EXPECT_EQ(loader.manifest().sim_time, a.sys.sch.now());
    EXPECT_NE(loader.find("kernel"), nullptr);
    EXPECT_NE(loader.find("signals"), nullptr);
}

TEST(Ckpt, TruncatedBlobFailsCleanly) {
    const SystemConfig cfg = small_config();
    DirectRun a(cfg);
    a.run_to(1000 * cfg.clk_period);
    const std::string blob = a.blob();

    for (std::size_t cut : {std::size_t{0}, std::size_t{4}, blob.size() / 2,
                            blob.size() - 1}) {
        OpticalFlowSystem fresh(cfg);
        std::istringstream is(blob.substr(0, cut));
        std::string err;
        EXPECT_FALSE(fresh.restore(is, &err)) << "cut at " << cut;
    }
}

/// A blob's section table: (name, payload) in blob order.
using Table = std::vector<std::pair<std::string, std::vector<std::uint8_t>>>;

/// Re-seal `blob` with its section table passed through `edit`; the
/// manifest is kept as it is.
template <typename Edit>
std::string reseal(const std::string& blob, Edit edit) {
    autovision::ckpt::Loader loader;
    std::istringstream is(blob);
    EXPECT_TRUE(loader.load(is, 0)) << loader.error();
    Table table;
    for (const auto& info : loader.sections()) {
        table.emplace_back(info.name, *loader.find(info.name));
    }
    edit(table);
    autovision::ckpt::Saver saver(loader.manifest());
    for (const auto& [name, payload] : table) {
        rtlsim::SnapWriter& w = saver.section(name);
        for (const std::uint8_t b : payload) w.u8(b);
    }
    std::ostringstream os;
    EXPECT_TRUE(saver.write_to(os));
    return os.str();
}

/// Re-seal `blob` with the payload of section `name` passed through
/// `mutate`; every other section and the manifest are kept as they are.
template <typename Mutate>
std::string mutate_section(const std::string& blob, const std::string& name,
                           Mutate mutate) {
    return reseal(blob, [&](Table& table) {
        for (auto& [n, payload] : table) {
            if (n == name) mutate(payload);
        }
    });
}

/// `blob` with section `name`'s payload replaced by one 0xFF byte.
std::string damage_section(const std::string& blob, const std::string& name) {
    return mutate_section(blob, name, [](std::vector<std::uint8_t>& p) {
        p.assign(1, 0xFF);
    });
}

std::vector<std::string> section_names(const std::string& blob) {
    autovision::ckpt::Loader loader;
    std::istringstream is(blob);
    EXPECT_TRUE(loader.load(is, 0)) << loader.error();
    std::vector<std::string> names;
    for (const auto& info : loader.sections()) names.push_back(info.name);
    return names;
}

/// Restore `blob` into a fresh system; returns the diagnostic ("" = ok).
std::string restore_error(const SystemConfig& cfg, const std::string& blob) {
    OpticalFlowSystem fresh(cfg);
    std::istringstream is(blob);
    std::string err;
    if (fresh.restore(is, &err)) return "";
    return err.empty() ? "(no diagnostic)" : err;
}

TEST(Ckpt, MutatedGateTableAndFsmBytesAreRejected) {
    const SystemConfig cfg = small_config();
    DirectRun a(cfg);
    a.run_to(1000 * cfg.clk_period);
    const std::string blob = a.blob();
    // Re-sealing without a mutation reproduces the blob exactly, so every
    // rejection below is down to the one mutated byte.
    ASSERT_EQ(mutate_section(blob, "kernel", [](auto&) {}), blob);
    ASSERT_EQ(restore_error(cfg, blob), "");

    // The kernel section ends with the gate table: u32 process count, then
    // per process a gate flag byte and a u64 skipped count.
    const std::size_t nproc = a.sys.sch.processes().size();
    const auto table_at = [nproc](const std::vector<std::uint8_t>& p) {
        return p.size() - 4 - 9 * nproc;
    };
    const auto kernel_with = [&](auto mutate) {
        return restore_error(cfg, mutate_section(blob, "kernel", mutate));
    };
    EXPECT_NE(kernel_with([&](std::vector<std::uint8_t>& p) {
                  const std::size_t t = table_at(p);
                  ASSERT_EQ(p[t + 2] * 256u + p[t + 3], nproc);
                  p[t + 3] = static_cast<std::uint8_t>(p[t + 3] + 1);
              }).find("kernel"),
              std::string::npos)
        << "gate table longer than the elaborated process list";
    EXPECT_NE(kernel_with([&](std::vector<std::uint8_t>& p) {
                  const std::size_t t = table_at(p);
                  ASSERT_LE(p[t + 4], 1u);
                  p[t + 4] = 2;
              }).find("kernel"),
              std::string::npos)
        << "gate flag byte other than 0/1";

    // FSM state bytes past the last enumerator. The PLB section opens with
    // the bus FSM state (Idle..Cooldown = 0..5); the icapctrl section with
    // its DmaMaster's state (Idle..Gap = 0..3).
    for (const std::uint8_t st : {std::uint8_t{6}, std::uint8_t{0xFF}}) {
        const std::string err = restore_error(
            cfg, mutate_section(blob, "plb", [st](std::vector<std::uint8_t>& p) {
                p[0] = st;
            }));
        EXPECT_NE(err.find("plb"), std::string::npos)
            << "PLB state byte " << int{st} << ": '" << err << "'";
    }
    for (const std::uint8_t st : {std::uint8_t{4}, std::uint8_t{0xFF}}) {
        const std::string err = restore_error(
            cfg, mutate_section(blob, "icapctrl",
                                [st](std::vector<std::uint8_t>& p) {
                                    p[0] = st;
                                }));
        EXPECT_NE(err.find("icapctrl"), std::string::npos)
            << "DMA state byte " << int{st} << ": '" << err << "'";
    }
}

/// The event time a clock or reset section opens with (a u64).
rtlsim::Time event_time(const std::vector<std::uint8_t>& p) {
    return rtlsim::SnapReader(p).u64();
}
void set_event_time(std::vector<std::uint8_t>& p, rtlsim::Time t) {
    rtlsim::SnapWriter w;
    w.u64(t);
    std::copy(w.buffer().begin(), w.buffer().end(), p.begin());
}

// Clock, reset and CPU bytes that no save can produce. The clock section
// is u64 toggle time, u8 pending, u64 origin and two retired gating
// bytes; the reset section u64 release time and u8 pending; the CPU
// section ends with 26 retired sleep-window bytes (a flag, three u64s and
// a flag) that every save writes as zero.
TEST(Ckpt, MutatedClockResetAndCpuBytesAreRejected) {
    const SystemConfig cfg = small_config();
    DirectRun a(cfg);
    a.run_to(1000 * cfg.clk_period);
    const std::string blob = a.blob();
    ASSERT_EQ(restore_error(cfg, blob), "");

    const auto error_with = [&](const std::string& section, auto mutate) {
        return restore_error(cfg, mutate_section(blob, section, mutate));
    };
    using Bytes = std::vector<std::uint8_t>;
    const auto clock_with = [&](auto mutate) {
        return error_with("clock", [&](Bytes& p) {
            ASSERT_EQ(p.size(), 19u);
            ASSERT_EQ(p[8], 1u);  // pending
            mutate(p);
        });
    };
    const auto toggle_later = [&](rtlsim::Time delta) {
        return clock_with(
            [&](Bytes& p) { set_event_time(p, event_time(p) + delta); });
    };
    const std::string kClock = "clock section corrupt";
    EXPECT_EQ(clock_with([](Bytes& p) { set_event_time(p, 0); }), kClock)
        << "toggle before now";
    EXPECT_EQ(toggle_later(1), kClock) << "toggle off the edge grid";
    EXPECT_EQ(toggle_later(cfg.clk_period), kClock)
        << "toggle past the next edge";
    EXPECT_EQ(clock_with([](Bytes& p) { p[8] = 0; }), kClock)
        << "clock not pending";
    EXPECT_EQ(clock_with([](Bytes& p) { p[16] ^= 1; }), kClock)
        << "another origin";
    EXPECT_EQ(clock_with([](Bytes& p) { p[17] = 1; }), kClock)
        << "suspend-pending byte set";
    EXPECT_EQ(clock_with([](Bytes& p) { p[18] = 1; }), kClock)
        << "suspended byte set";

    // The reset released long before cycle 1000.
    const auto reset_with = [&](auto mutate) {
        return error_with("reset", [&](Bytes& p) {
            ASSERT_EQ(p.size(), 9u);
            ASSERT_EQ(p[8], 0u);
            mutate(p);
        });
    };
    EXPECT_EQ(reset_with([](Bytes& p) { p[8] = 1; }), "reset section corrupt")
        << "pending release before now";
    EXPECT_EQ(reset_with([&](Bytes& p) {
                  set_event_time(p, a.sys.sch.now() + cfg.clk_period);
              }),
              "reset section corrupt")
        << "fired release after now";

    // One non-zero byte in each retired sleep-window field.
    const auto cpu_byte_set = [&](std::size_t from_end) {
        return error_with("cpu", [from_end](Bytes& p) {
            const auto zero = [](std::uint8_t b) { return b == 0; };
            ASSERT_TRUE(std::all_of(p.end() - 26, p.end(), zero));
            p[p.size() - from_end] = 1;
        });
    };
    for (const std::size_t from_end : {26u, 18u, 10u, 2u, 1u}) {
        EXPECT_EQ(cpu_byte_set(from_end), "cpu section corrupt")
            << "sleep byte " << from_end << " from the end";
    }
}

// More bytes that no save writes: one byte past the end of a section, and
// kernel diagnostics that report() cannot leave behind. The kernel section
// is u64 now, a stop byte, the stop reason, five u64 stats, u64 dropped
// count, u32 stored count and the stored diagnostics (u64 time and two
// strings each), then the gate table.
TEST(Ckpt, AppendedBytesAndUnsavableKernelStatesAreRejected) {
    const SystemConfig cfg = small_config();
    DirectRun a(cfg);
    a.run_to(1000 * cfg.clk_period);
    const std::string blob = a.blob();
    ASSERT_EQ(restore_error(cfg, blob), "");
    using Bytes = std::vector<std::uint8_t>;

    const auto appended = [](Bytes& p) { p.push_back(0); };
    for (const std::string name : {"clock", "cpu", "signals"}) {
        EXPECT_EQ(restore_error(cfg, mutate_section(blob, name, appended)),
                  name + " section corrupt")
            << "one byte appended to " << name;
    }

    // A clean run: nothing stored or dropped, so the stored count is the
    // four bytes before the gate table and the dropped count the eight
    // before that.
    const std::size_t nproc = a.sys.sch.processes().size();
    const auto kernel_with = [&](auto mutate) {
        return restore_error(cfg, mutate_section(blob, "kernel", [&](Bytes& p) {
            const std::size_t stored_at = p.size() - 9 * nproc - 8;
            const auto zero = [](std::uint8_t b) { return b == 0; };
            ASSERT_TRUE(std::all_of(p.begin() + stored_at - 8,
                                    p.begin() + stored_at + 4, zero));
            ASSERT_EQ(p[8], 0u);  // not stopped
            mutate(p, stored_at);
        }));
    };
    const std::string kKernel = "kernel section corrupt";
    EXPECT_EQ(kernel_with([](Bytes& p, std::size_t) { p[8] = 2; }), kKernel)
        << "stop byte 2";
    EXPECT_EQ(kernel_with([](Bytes& p, std::size_t stored_at) {
                  const std::uint32_t n = rtlsim::Scheduler::kMaxDiags + 1;
                  rtlsim::SnapWriter w;
                  w.u32(n);
                  std::copy(w.buffer().begin(), w.buffer().end(),
                            p.begin() + stored_at);
                  // Each a u64 time of 0 and two empty strings.
                  p.insert(p.begin() + stored_at + 4, std::size_t{n} * 16, 0);
              }),
              kKernel)
        << "4,097 stored diagnostics";
    EXPECT_EQ(kernel_with([](Bytes& p, std::size_t stored_at) {
                  p[stored_at - 1] = 1;
              }),
              kKernel)
        << "dropped 1 with none stored";
}

// The section table must be exactly what the system registers: an extra,
// reordered or duplicated section is refused before any state is touched.
TEST(Ckpt, EditedSectionTableIsRejected) {
    const SystemConfig cfg = small_config();
    DirectRun a(cfg);
    a.run_to(1000 * cfg.clk_period);
    const std::string blob = a.blob();
    const auto at = [](Table& table, const std::string& name) {
        const auto it = std::find_if(table.begin(), table.end(),
                                     [&](const auto& s) { return s.first == name; });
        EXPECT_NE(it, table.end()) << name;
        return it;
    };
    const std::string extra = reseal(blob, [](Table& table) {
        ASSERT_EQ(table.back().first, "signals");
        table.insert(table.end() - 1, {"extra", {0}});
    });
    const std::string swapped = reseal(blob, [&](Table& table) {
        std::iter_swap(at(table, "intc"), at(table, "iso"));
    });
    const std::string duplicated = reseal(blob, [&](Table& table) {
        const auto clock = at(table, "clock");
        table.insert(clock + 1, *clock);
    });
    for (const std::string& edited : {extra, swapped, duplicated}) {
        EXPECT_EQ(restore_error(cfg, edited), "section table mismatch");
    }

    // Refused before any state moved: the kernel still stands at t = 0.
    OpticalFlowSystem fresh(cfg);
    std::istringstream is(swapped);
    EXPECT_FALSE(fresh.restore(is));
    EXPECT_EQ(fresh.sch.now(), 0u);
}

// ---------------------------------------------------------------------------
// Warm == cold at adversarial save points
// ---------------------------------------------------------------------------

TEST(Ckpt, WarmEqualsColdAtEarlyPoint) {
    const SystemConfig cfg = small_config();
    DirectRun warm(cfg);
    warm.run_to(500 * cfg.clk_period);
    expect_warm_equals_cold(cfg, warm, 30000 * cfg.clk_period);
}

TEST(Ckpt, WarmEqualsColdMidIcapPacket) {
    const SystemConfig cfg = small_config();
    DirectRun warm(cfg);
    ASSERT_TRUE(warm.sys.is_resim());
    // Step until the artifact is mid-payload: a SimB half-streamed through
    // the ICAP, DMA in flight, the portal's swap still pending.
    const rtlsim::Time t = warm.run_until_condition(
        [&] { return warm.sys.icap_artifact->payload_pending(); },
        60000 * cfg.clk_period);
    ASSERT_NE(t, 0u) << "run never reached a mid-ICAP-packet state";
    expect_warm_equals_cold(cfg, warm, t + 20000 * cfg.clk_period);
}

TEST(Ckpt, WarmEqualsColdInsideIsolationWindow) {
    const SystemConfig cfg = small_config();
    DirectRun warm(cfg);
    // Inside the isolation window the boundary drives safe levels while
    // the error injector feeds X into the gated side — the densest
    // 4-state moment of a reconfiguration.
    const rtlsim::Time t = warm.run_until_condition(
        [&] { return rtlsim::is1(warm.sys.iso.isolate.read()); },
        60000 * cfg.clk_period);
    ASSERT_NE(t, 0u) << "run never entered the isolation window";
    expect_warm_equals_cold(cfg, warm, t + 20000 * cfg.clk_period);
}

TEST(Ckpt, WarmEqualsColdWithPendingIrq) {
    const SystemConfig cfg = small_config();
    DirectRun warm(cfg);
    // A latched, enabled interrupt the CPU has not yet vectored to.
    const rtlsim::Time t = warm.run_until_condition(
        [&] { return rtlsim::is1(warm.sys.intc.irq.read()); },
        60000 * cfg.clk_period);
    ASSERT_NE(t, 0u) << "run never latched a pending interrupt";
    expect_warm_equals_cold(cfg, warm, t + 20000 * cfg.clk_period);
}

TEST(Ckpt, WarmEqualsColdBetweenEngineJobs) {
    // After a job completes the firmware reset-pulses the engine:
    // reset_job() clears the line buffers but w_/h_ keep the last job's
    // geometry. That cleared-but-configured state used to be rejected by
    // the engines' ckpt_restore_job geometry check ("cie section corrupt"
    // on any snapshot taken between jobs) — regression for that fix.
    const SystemConfig cfg = small_config();
    DirectRun warm(cfg);
    warm.run_to(20000 * cfg.clk_period);
    expect_warm_equals_cold(cfg, warm, 24000 * cfg.clk_period);
}

TEST(Ckpt, WarmEqualsColdUnderVirtualMux) {
    SystemConfig cfg = small_config();
    cfg.method = autovision::sys::FirmwareConfig::Method::kVm;
    DirectRun warm(cfg);
    warm.run_to(3000 * cfg.clk_period);
    ASSERT_NE(warm.sys.vmux, nullptr);
    expect_warm_equals_cold(cfg, warm, 30000 * cfg.clk_period);
}

TEST(Ckpt, WarmEqualsColdMidBasicBlock) {
    // The decode cache is deliberately never serialized: restore flushes it
    // and redecodes from restored memory. Save while the cached engine is
    // deep in decoded blocks — at a 32-cycle quantum against the firmware's
    // multi-hundred-instruction loop bodies the save lands mid-basic-block
    // with overwhelming likelihood — and require the redecoded warm run to
    // stay byte-exact with the uninterrupted reference.
    const SystemConfig cfg = small_config();
    DirectRun warm(cfg);
    const rtlsim::Time t = warm.run_until_condition(
        [&] {
            return warm.sys.cpu.decode_cache().blocks() > 4 &&
                   !warm.sys.cpu.halted();
        },
        60000 * cfg.clk_period);
    ASSERT_NE(t, 0u) << "run never populated the decode cache";
    EXPECT_GT(warm.sys.cpu.decode_cache().decodes(), 0u);
    expect_warm_equals_cold(cfg, warm, t + 20000 * cfg.clk_period);
}

TEST(Ckpt, WarmEqualsColdMidSyscallStream) {
    // Host-IO firmware: save after console output began but before the
    // firmware's exit(0). HostIo (console bytes, per-service counters, the
    // exit latch) rides inside the cpu checkpoint section, so the restored
    // run must reproduce the remaining output byte-for-byte — pinned
    // wholesale by the final-blob comparison.
    SystemConfig cfg = small_config();
    cfg.host_io = true;
    cfg.exit_after_frames = 3;
    DirectRun warm(cfg);
    const rtlsim::Time t = warm.run_until_condition(
        [&] {
            return !warm.sys.cpu.host_io().out().empty() &&
                   !warm.sys.cpu.host_io().exited();
        },
        120000 * cfg.clk_period);
    ASSERT_NE(t, 0u) << "firmware never produced console output";
    EXPECT_GT(warm.sys.cpu.host_io().total_calls(), 0u);
    expect_warm_equals_cold(cfg, warm, t + 20000 * cfg.clk_period);
}

TEST(Ckpt, WarmEqualsColdWithSoftwareScheduledPool) {
    // Software-scheduled virtualization pool: the run-time grown plan
    // (RegionManager::push_software) and the PoolBridge staging registers
    // must both survive a restore taken while pushes are still in flight.
    SystemConfig cfg = small_config();
    cfg.regions = 3;
    cfg.rrm_software = true;
    DirectRun warm(cfg);
    const rtlsim::Time t = warm.run_until_condition(
        [&] {
            return warm.sys.pool_bridge != nullptr &&
                   warm.sys.pool_bridge->pushes() > 0 &&
                   !warm.sys.region_manager->done();
        },
        200000 * cfg.clk_period);
    ASSERT_NE(t, 0u) << "firmware never pushed a pool job";
    expect_warm_equals_cold(cfg, warm, t + 30000 * cfg.clk_period);
}

// ---------------------------------------------------------------------------
// Stream-harness warm start (the closure campaign's fast path)
// ---------------------------------------------------------------------------

/// A deterministic kStream scenario with a corrupted middle session, so the
/// warm run replays SimB corruption from the restored state.
autovision::scen::Scenario corrupted_stream_scenario() {
    autovision::scen::ScenarioConstraints cons;
    cons.w_stream = 1;
    cons.w_system = 0;
    cons.w_fault = 0;
    cons.min_sessions = 3;
    cons.max_sessions = 5;
    autovision::scen::Scenario sc =
        autovision::scen::generate(cons, /*seed=*/0xC0FFEEu);
    EXPECT_EQ(sc.kind, autovision::scen::Kind::kStream);
    return sc;
}

bool same_events(const std::vector<autovision::obs::Event>& a,
                 const std::vector<autovision::obs::Event>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].time != b[i].time || a[i].kind != b[i].kind ||
            a[i].src != b[i].src || a[i].a != b[i].a || a[i].b != b[i].b) {
            return false;
        }
    }
    return true;
}

/// The full observable surface of a stream run must match bit-exactly: the
/// recorded event stream (what coverage is computed from), kernel
/// counters, portal/ICAP tallies and diagnostics.
void expect_same_stream(const autovision::scen::StreamResult& cold,
                        const autovision::scen::StreamResult& warm) {
    EXPECT_TRUE(same_events(cold.events, warm.events));
    EXPECT_EQ(cold.stats.timed_events, warm.stats.timed_events);
    EXPECT_EQ(cold.stats.delta_cycles, warm.stats.delta_cycles);
    EXPECT_EQ(cold.stats.proc_invocations, warm.stats.proc_invocations);
    EXPECT_EQ(cold.stats.signal_updates, warm.stats.signal_updates);
    EXPECT_EQ(cold.stats.time_steps, warm.stats.time_steps);
    EXPECT_EQ(cold.sim_time, warm.sim_time);
    EXPECT_EQ(cold.swaps, warm.swaps);
    EXPECT_EQ(cold.aborts, warm.aborts);
    EXPECT_EQ(cold.truncations, warm.truncations);
    EXPECT_EQ(cold.captures, warm.captures);
    EXPECT_EQ(cold.restores, warm.restores);
    EXPECT_EQ(cold.diagnostic_text, warm.diagnostic_text);
}

TEST(Ckpt, StreamHarnessWarmStartMatchesCold) {
    const autovision::scen::Scenario sc = corrupted_stream_scenario();

    const autovision::scen::StreamResult cold =
        autovision::scen::run_stream_scenario(sc);
    EXPECT_FALSE(cold.warm_started);

    const std::string boot = autovision::scen::stream_boot_snapshot();
    ASSERT_FALSE(boot.empty());
    const autovision::scen::StreamResult warm =
        autovision::scen::run_stream_scenario(sc, nullptr, &boot);
    EXPECT_TRUE(warm.warm_started);
    expect_same_stream(cold, warm);
}

// A boot blob that fails to restore, at any section, must not leave a
// half-restored testbench behind: the run is exactly the cold run.
TEST(Ckpt, StreamHarnessDamagedBootBlobBootsCold) {
    const autovision::scen::Scenario sc = corrupted_stream_scenario();
    const autovision::scen::StreamResult cold =
        autovision::scen::run_stream_scenario(sc);
    const std::string boot = autovision::scen::stream_boot_snapshot();
    for (const std::string& name : section_names(boot)) {
        SCOPED_TRACE("damaged section " + name);
        const std::string damaged = damage_section(boot, name);
        const autovision::scen::StreamResult r =
            autovision::scen::run_stream_scenario(sc, nullptr, &damaged);
        EXPECT_FALSE(r.warm_started);
        expect_same_stream(cold, r);
    }
}

TEST(Ckpt, StreamBootSnapshotIsDeterministic) {
    EXPECT_EQ(autovision::scen::stream_boot_snapshot(),
              autovision::scen::stream_boot_snapshot());
}

// The stream boot blob crosses processes (campaign_runner --ckpt-out /
// --ckpt-in), so its bytes are pinned across commits, not just within one
// build.
TEST(Ckpt, StreamBootBlobMatchesGolden) {
    const std::string boot = autovision::scen::stream_boot_snapshot();
    EXPECT_EQ(boot.size(), 1845u);
    EXPECT_EQ(rtlsim::snap_hash64(boot), 0x5e46'6312'ebf4'b532ull);
}

// ---------------------------------------------------------------------------
// Differential-oracle warm start (the shrinker's fast path)
// ---------------------------------------------------------------------------

void expect_same_side(const autovision::diff::SideRun& cold,
                      const autovision::diff::SideRun& warm) {
    EXPECT_EQ(cold.selects, warm.selects);
    EXPECT_EQ(cold.swaps, warm.swaps);
    EXPECT_EQ(cold.aborts, warm.aborts);
    EXPECT_EQ(cold.captures, warm.captures);
    EXPECT_EQ(cold.restores, warm.restores);
    EXPECT_EQ(cold.probes, warm.probes);
    EXPECT_EQ(cold.diagnostics, warm.diagnostics);
    EXPECT_TRUE(same_events(cold.events, warm.events));
    EXPECT_EQ(cold.stats.timed_events, warm.stats.timed_events);
    EXPECT_EQ(cold.stats.delta_cycles, warm.stats.delta_cycles);
    EXPECT_EQ(cold.stats.proc_invocations, warm.stats.proc_invocations);
    EXPECT_EQ(cold.stats.signal_updates, warm.stats.signal_updates);
    EXPECT_EQ(cold.sim_time, warm.sim_time);
}

TEST(Ckpt, DiffSidesWarmStartMatchesCold) {
    const autovision::scen::Scenario sc = corrupted_stream_scenario();

    autovision::diff::DiffOptions cold_opt;  // no cache: always cold
    const autovision::diff::SideRun vm_cold =
        autovision::diff::run_vm_side(sc, cold_opt);
    const autovision::diff::SideRun rs_cold =
        autovision::diff::run_resim_side(sc, cold_opt);

    autovision::diff::BootCache cache;
    autovision::diff::DiffOptions warm_opt;
    warm_opt.boot = &cache;
    // First pair of runs fills the cache (cold boot + save)...
    const autovision::diff::SideRun vm_fill =
        autovision::diff::run_vm_side(sc, warm_opt);
    const autovision::diff::SideRun rs_fill =
        autovision::diff::run_resim_side(sc, warm_opt);
    EXPECT_FALSE(vm_fill.warm_started);
    EXPECT_FALSE(rs_fill.warm_started);
    expect_same_side(vm_cold, vm_fill);
    expect_same_side(rs_cold, rs_fill);
    ASSERT_FALSE(cache.vm[0].empty());
    ASSERT_FALSE(cache.resim[0].empty());
    // ...the second pair forks from the snapshots and must be identical.
    const autovision::diff::SideRun vm_warm =
        autovision::diff::run_vm_side(sc, warm_opt);
    const autovision::diff::SideRun rs_warm =
        autovision::diff::run_resim_side(sc, warm_opt);
    EXPECT_TRUE(vm_warm.warm_started);
    EXPECT_TRUE(rs_warm.warm_started);
    expect_same_side(vm_cold, vm_warm);
    expect_same_side(rs_cold, rs_warm);
}

// A boot-cache entry that fails to restore, at any section, gives exactly
// the cold run on either side, and the cold run refills the entry.
TEST(Ckpt, DiffSidesDamagedBootCacheBootsCold) {
    using autovision::diff::BootCache;
    using autovision::diff::DiffOptions;
    using autovision::diff::SideRun;
    const autovision::scen::Scenario sc = corrupted_stream_scenario();
    for (const bool resim : {false, true}) {
        SCOPED_TRACE(resim ? "resim side" : "vm side");
        const auto run_side = resim ? autovision::diff::run_resim_side
                                    : autovision::diff::run_vm_side;
        const auto entry = [resim](BootCache& c) -> std::string& {
            return (resim ? c.resim : c.vm)[0];
        };
        const SideRun cold = run_side(sc, DiffOptions{});
        BootCache filled;
        DiffOptions fill;
        fill.boot = &filled;
        (void)run_side(sc, fill);
        const std::string good = entry(filled);
        ASSERT_FALSE(good.empty());

        for (const std::string& name : section_names(good)) {
            SCOPED_TRACE("damaged section " + name);
            BootCache cache;
            entry(cache) = damage_section(good, name);
            DiffOptions opt;
            opt.boot = &cache;
            const SideRun r = run_side(sc, opt);
            EXPECT_FALSE(r.warm_started);
            expect_same_side(cold, r);
            EXPECT_EQ(entry(cache), good);
        }
    }
}

// The VM side's boot-cache entry, pinned across commits.
TEST(Ckpt, DiffVmBootBlobMatchesGolden) {
    autovision::diff::BootCache cache;
    autovision::diff::DiffOptions opt;
    opt.boot = &cache;
    (void)autovision::diff::run_vm_side(corrupted_stream_scenario(), opt);
    const std::string& blob =
        cache.vm[static_cast<std::size_t>(autovision::diff::DiffFault::kNone)];
    EXPECT_EQ(blob.size(), 3888u);
    EXPECT_EQ(rtlsim::snap_hash64(blob), 0x47c1'6ece'c429'f480ull);
}

// The ReSim side's observable run, pinned across commits: its boot cache
// is in-memory only, so the run itself is the contract.
TEST(Ckpt, DiffResimSideRunMatchesGolden) {
    const autovision::diff::SideRun run = autovision::diff::run_resim_side(
        corrupted_stream_scenario(), autovision::diff::DiffOptions{});
    EXPECT_EQ(run.swaps, 3u);
    EXPECT_EQ(run.probes.size(), 5u);
    EXPECT_EQ(run.events.size(), 64u);
    EXPECT_EQ(run.diagnostics.size(), 1u);
    EXPECT_EQ(run.stats.timed_events, 10759u);
    EXPECT_EQ(run.stats.delta_cycles, 17739u);
    EXPECT_EQ(run.stats.proc_invocations, 5214u);
    EXPECT_EQ(run.stats.signal_updates, 17099u);
    EXPECT_EQ(run.sim_time, 53'790'000u);
}

}  // namespace
