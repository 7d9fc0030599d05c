// Video verification IPs.
//
// The simulation environment has no camera or display; as in the paper,
// SystemC-style VIPs replace the video input and output modules. Frames
// come from the synthetic scene (instead of video files on disk) and move
// to/from simulated main memory through *cycle-accurate PLB bus
// operations*, so the bus-level behaviour of the real video pipeline is
// preserved.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "bus/plb.hpp"
#include "kernel/kernel.hpp"
#include "video/frame.hpp"

namespace autovision::vip {

using rtlsim::Logic;

/// Camera-side VIP: a PLB master that DMA-writes frames into memory and
/// pulses a frame-done interrupt, like the demonstrator's video input IP.
class VideoInVip final : public rtlsim::Module {
public:
    VideoInVip(rtlsim::Scheduler& sch, const std::string& name,
               rtlsim::Signal<Logic>& clk, PlbMasterPort& port);

    /// One-cycle pulse when a frame has fully landed in memory.
    rtlsim::Signal<Logic> frame_irq;

    /// Begin streaming `f` to `addr`. Width must be a multiple of 4.
    void send_frame(const video::Frame& f, std::uint32_t addr,
                    std::function<void()> on_done = {});

    [[nodiscard]] bool busy() const { return busy_; }
    [[nodiscard]] std::uint64_t frames_sent() const { return frames_; }

    // --- checkpoint ------------------------------------------------------
    void ckpt_save(rtlsim::SnapWriter& w) const;
    [[nodiscard]] bool ckpt_restore(rtlsim::SnapReader& r);
    /// True when the saved state had a caller completion callback pending;
    /// the owning harness must re-install it via ckpt_rearm_on_done.
    [[nodiscard]] bool ckpt_pending_callback() const { return had_on_done_; }
    void ckpt_rearm_on_done(std::function<void()> f) {
        on_done_ = std::move(f);
    }

private:
    void on_clock();

    rtlsim::Process* stream_ = nullptr;
    DmaMaster dma_;
    std::vector<std::uint8_t> staging_;
    bool busy_ = false;
    bool pulse_ = false;
    bool had_on_done_ = false;  ///< restore-time flag, see ckpt_restore
    std::uint64_t frames_ = 0;
    std::function<void()> on_done_;
};

/// Display-side VIP: DMA-reads a frame from memory and hands it to a C++
/// consumer (the scoreboard / PPM writer).
class VideoOutVip final : public rtlsim::Module {
public:
    VideoOutVip(rtlsim::Scheduler& sch, const std::string& name,
                rtlsim::Signal<Logic>& clk, PlbMasterPort& port);

    rtlsim::Signal<Logic> frame_irq;

    /// Begin fetching a w x h frame from `addr`; `sink` receives it when
    /// complete. X bytes read from memory are reported and delivered as 0.
    void fetch_frame(std::uint32_t addr, unsigned w, unsigned h,
                     std::function<void(video::Frame)> sink);

    [[nodiscard]] bool busy() const { return busy_; }
    [[nodiscard]] std::uint64_t frames_fetched() const { return frames_; }

    // --- checkpoint ------------------------------------------------------
    void ckpt_save(rtlsim::SnapWriter& w) const;
    [[nodiscard]] bool ckpt_restore(rtlsim::SnapReader& r);
    /// True when the saved state had a frame sink pending; the owning
    /// harness must re-install it via ckpt_rearm_sink.
    [[nodiscard]] bool ckpt_pending_callback() const { return had_sink_; }
    void ckpt_rearm_sink(std::function<void(video::Frame)> f) {
        sink_ = std::move(f);
    }

private:
    void on_clock();

    rtlsim::Process* stream_ = nullptr;
    DmaMaster dma_;
    video::Frame staging_;
    bool busy_ = false;
    bool pulse_ = false;
    bool had_sink_ = false;  ///< restore-time flag, see ckpt_restore
    std::uint64_t frames_ = 0;
    unsigned x_reports_ = 0;
    std::function<void(video::Frame)> sink_;
};

}  // namespace autovision::vip
