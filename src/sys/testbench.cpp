#include "testbench.hpp"

#include "address_map.hpp"
#include "obs/export.hpp"

namespace autovision::sys {

namespace {

video::MatchConfig match_config(const SystemConfig& cfg) {
    video::MatchConfig mc;
    mc.step = cfg.step;
    mc.margin = cfg.margin;
    mc.search = static_cast<int>(cfg.search);
    mc.patch = 1;
    return mc;
}

video::SceneConfig scene_config(const SystemConfig& cfg, std::uint32_t seed) {
    // Zero means "no override": derive from the canonical run seed. The
    // default run seed maps to scene seed 1, the historical default.
    if (seed == 0) {
        seed = cfg.seed == 1
                   ? 1u
                   : rtlsim::derive_seed32(cfg.seed, kSeedTagScene);
    }
    return video::SceneConfig::standard(cfg.width, cfg.height, seed);
}

}  // namespace

std::uint64_t progress_budget(const SystemConfig& cfg) {
    // Measured clean stretches: the camera frame plus census pass and the
    // drawing pass take about 2.7 cycles a pixel, the motion search about
    // 1.5 a pixel plus one a candidate, a SimB word max(icap_clk_div, 2)
    // cycles, and a delay-loop pass one cycle. Each term below bounds its
    // stage with room to spare, and a stretch spans at most these stages.
    const video::MatchConfig mc = match_config(cfg);
    const std::uint64_t px = std::uint64_t{cfg.width} * cfg.height;
    const std::uint64_t span = 2 * std::uint64_t{cfg.search} + 1;
    const std::uint64_t candidates = std::uint64_t{video::grid_points(
                                         cfg.width, mc)} *
                                     video::grid_points(cfg.height, mc) *
                                     span * span;
    constexpr std::uint64_t kFixed = 2048;  // reset, boot and the ISR
    std::uint64_t stretch = kFixed + 4 * px + 2 * candidates +
                            std::uint64_t{cfg.simb_payload_words} *
                                (cfg.icap_clk_div + 2);
    if (cfg.wait == FirmwareConfig::Wait::kDelay) {
        stretch += 2 * std::uint64_t{cfg.delay_loops};
    }
    constexpr std::uint64_t kMargin = 4;
    return kMargin * stretch;
}

std::string RunResult::verdict() const {
    if (clean()) return "clean";
    std::string v;
    if (watchdog_timeout) v += "[watchdog timeout] ";
    if (frames_completed < frames_requested) {
        v += "[only " + std::to_string(frames_completed) + "/" +
             std::to_string(frames_requested) + " frames] ";
    }
    if (data_corruption()) {
        v += "[data corruption: " + std::to_string(census_mismatches) +
             " census / " + std::to_string(field_mismatches) + " field / " +
             std::to_string(output_mismatches) + " output] ";
    }
    if (!diagnostics.empty()) {
        v += '[' + std::to_string(diagnostics.size()) +
             " checker diagnostics, first: " + diagnostics.front().source +
             ": " + diagnostics.front().message + "]";
    }
    return v;
}

Testbench::Testbench(SystemConfig cfg, std::uint32_t scene_seed)
    : sys(cfg),
      scene(scene_config(cfg, scene_seed)),
      scoreboard(match_config(cfg), cfg.width, cfg.height, kDrawThreshold) {
    if (!cfg.vcd_path.empty()) {
        vcd_file_ = std::make_unique<std::ofstream>(cfg.vcd_path);
        tracer_ = std::make_unique<rtlsim::Tracer>(*vcd_file_);
        tracer_->add(sys.clk.out);
        tracer_->add(sys.rst.out);
        tracer_->add(sys.rr_done);
        tracer_->add(sys.rr.stream_tap);
        tracer_->add(sys.plb.master(kMasterRr).req);
        tracer_->add(sys.plb.master(kMasterRr).addr);
        tracer_->add(sys.icapctrl.done_irq);
        tracer_->add(sys.intc.irq);
        tracer_->add(sys.iso.isolate);
        tracer_->add(sys.video_in.frame_irq);
        sys.sch.set_tracer(tracer_.get());
    }
    if (cfg.trace_events) {
        recorder_ = std::make_unique<obs::EventRecorder>(cfg.trace_capacity);
        recorder_->set_enabled(true);
        sys.attach_observer(recorder_.get());
    }
}

void Testbench::send_frame(unsigned index) {
    if (recorder_) {
        recorder_->record(sys.sch.now(), obs::EventKind::kFrameStart,
                          obs::Source::kTestbench, index);
    }
    sys.video_in.send_frame(scene.frame(index), kFrameBuf);
    ++frames_sent_;
}

RunResult Testbench::run(unsigned frames, std::uint64_t watchdog_cycles) {
    using Clock = std::chrono::steady_clock;
    const SystemConfig& cfg = sys.config();
    RunResult res;
    res.frames_requested = frames;

    if (watchdog_cycles == 0) watchdog_cycles = progress_budget(cfg);

    // Hard cap: runaway failure modes (e.g. an interrupt storm) keep the
    // mailbox counters moving, so the progress watchdog alone cannot bound
    // the run.
    const std::uint64_t max_total_cycles =
        (std::uint64_t{frames} + 8) * watchdog_cycles;

    const rtlsim::SimStats stats0 = sys.sch.stats;
    const rtlsim::Time t0 = sys.sch.now();

    // Reset settles first; then the camera delivers the first frame.
    sys.sch.run_until(8 * cfg.clk_period);
    send_frame(0);

    std::uint64_t last_progress_sum = ~std::uint64_t{0};
    std::uint64_t idle_cycles = 0;
    unsigned frames_checked = 0;
    unsigned cie_seen = 0;
    unsigned me_seen = 0;

    constexpr unsigned kQuantum = 32;  // cycles per attribution slice
    auto wall_prev = Clock::now();
    const auto wall_start = wall_prev;
    // Out-of-range sentinel: the first attribution slice always records a
    // kStageEnter event.
    obs::Stage cur_stage = static_cast<obs::Stage>(~0u);

    std::uint64_t total_cycles = 0;
    while (!sys.sch.stop_requested()) {
        if (cancel_ != nullptr &&
            cancel_->load(std::memory_order_relaxed)) {
            res.watchdog_timeout = true;
            sys.sch.report("watchdog", "run cancelled by batch supervisor");
            break;
        }
        sys.sch.run_until(sys.sch.now() + kQuantum * cfg.clk_period);
        total_cycles += kQuantum;
        if (total_cycles > max_total_cycles) {
            res.watchdog_timeout = true;
            sys.sch.report("watchdog", "hard run budget exhausted");
            break;
        }

        // ---- stage attribution (Table II) -----------------------------
        const auto wall_now = Clock::now();
        const auto dwall = std::chrono::duration_cast<std::chrono::nanoseconds>(
            wall_now - wall_prev);
        wall_prev = wall_now;
        const rtlsim::Time dsim = kQuantum * cfg.clk_period;
        obs::Stage stage = obs::Stage::kCpu;
        if (sys.icapctrl.busy()) {
            res.stages.dpr_sim += dsim;
            res.stages.dpr_wall += dwall;
            stage = obs::Stage::kDpr;
        } else if (sys.cie.busy()) {
            res.stages.cie_sim += dsim;
            res.stages.cie_wall += dwall;
            stage = obs::Stage::kCie;
        } else if (sys.me.busy()) {
            res.stages.me_sim += dsim;
            res.stages.me_wall += dwall;
            stage = obs::Stage::kMe;
        } else {
            res.stages.cpu_sim += dsim;
            res.stages.cpu_wall += dwall;
        }
        if (recorder_ && stage != cur_stage) {
            cur_stage = stage;
            recorder_->record(sys.sch.now(), obs::EventKind::kStageEnter,
                              obs::Source::kTestbench,
                              static_cast<std::uint32_t>(stage));
        }

        // ---- scoreboard hooks ------------------------------------------
        const std::uint32_t cie_count = sys.mailbox(kMbCieCount);
        const std::uint32_t me_count = sys.mailbox(kMbMeCount);
        const std::uint32_t frames_done = sys.mailbox(kMbFramesDone);

        if (cie_count > cie_seen) {
            // A census image is complete: check it, then let the camera
            // overwrite the consumed input frame with the next one.
            scoreboard.expect_frame(scene.frame(cie_seen));
            res.census_mismatches += scoreboard.check_census(
                sys.mem,
                OpticalFlowSystem::census_addr_for_frame(cie_seen));
            ++cie_seen;
            if (frames_sent_ < frames) send_frame(frames_sent_);
        }
        if (me_count > me_seen) {
            res.field_mismatches += scoreboard.check_field(sys.mem, kFieldBuf);
            ++me_seen;
        }
        if (frames_done > frames_checked) {
            if (recorder_) {
                recorder_->record(sys.sch.now(), obs::EventKind::kFrameDone,
                                  obs::Source::kTestbench, frames_checked);
            }
            res.output_mismatches += scoreboard.check_output_mem(
                sys.mem, kOutBuf, frames_checked);
            // Exercise the display path as well: the VIP fetch is checked
            // when it completes (a few hundred cycles later).
            if (!sys.video_out.busy()) {
                sys.video_out.fetch_frame(
                    kOutBuf, cfg.width, cfg.height, [this](video::Frame f) {
                        displayed.push_back(std::move(f));
                    });
            }
            ++frames_checked;
        }
        if (stop_at_verdict_ &&
            (res.data_corruption() || !sys.sch.diagnostics().empty())) {
            break;
        }
        if (frames_checked >= frames && !sys.video_out.busy()) break;

        // ---- watchdog ----------------------------------------------------
        const std::uint64_t progress_sum =
            std::uint64_t{cie_count} + me_count + frames_done +
            sys.mailbox(kMbDprCount);
        if (progress_sum == last_progress_sum) {
            idle_cycles += kQuantum;
            if (idle_cycles >= watchdog_cycles) {
                res.watchdog_timeout = true;
                sys.sch.report("watchdog",
                               "no pipeline progress in " +
                                   std::to_string(watchdog_cycles) +
                                   " cycles");
                break;
            }
        } else {
            idle_cycles = 0;
            last_progress_sum = progress_sum;
        }
    }

    res.frames_completed = frames_checked;
    res.diagnostics = sys.sch.diagnostics();
    res.stats = sys.sch.stats - stats0;
    res.sim_time = sys.sch.now() - t0;
    res.wall_time = std::chrono::duration_cast<std::chrono::nanoseconds>(
        Clock::now() - wall_start);
    if (recorder_) {
        const std::vector<obs::Event> events = recorder_->snapshot();
        res.metrics = obs::Metrics::from_events(events, cfg.clk_period);
        res.metrics.events_dropped = recorder_->dropped();
        res.traced = true;
        if (!cfg.trace_path.empty()) {
            std::ofstream os(cfg.trace_path);
            if (os) {
                obs::write_chrome_trace(os, events);
            } else {
                sys.sch.report("testbench", "cannot open trace output '" +
                                                cfg.trace_path + "'");
            }
        }
    }
    return res;
}

}  // namespace autovision::sys
