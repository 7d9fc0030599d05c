#include "video_vip.hpp"

#include <algorithm>

namespace autovision::vip {

using rtlsim::Word;

VideoInVip::VideoInVip(rtlsim::Scheduler& sch, const std::string& name,
                       rtlsim::Signal<Logic>& clk, PlbMasterPort& port)
    : Module(sch, name),
      frame_irq(sch, full_name() + ".frame_irq", Logic::L0),
      dma_(port, 16) {
    stream_ = &sync_proc("stream", [this] { on_clock(); },
                         {rtlsim::posedge(clk)});
}

void VideoInVip::send_frame(const video::Frame& f, std::uint32_t addr,
                            std::function<void()> on_done) {
    if (busy_) {
        report("send_frame while busy; frame dropped");
        return;
    }
    busy_ = true;
    stream_->wake();
    on_done_ = std::move(on_done);
    staging_.assign(f.pixels().begin(), f.pixels().end());
    // Pad to a word multiple (frames are byte-packed 4 per word).
    while (staging_.size() % 4 != 0) staging_.push_back(0);
    dma_.start_write(
        addr, static_cast<std::uint32_t>(staging_.size() / 4),
        [this](std::uint32_t i) {
            return Word{(static_cast<std::uint32_t>(staging_[4 * i]) << 24) |
                        (static_cast<std::uint32_t>(staging_[4 * i + 1]) << 16) |
                        (static_cast<std::uint32_t>(staging_[4 * i + 2]) << 8) |
                        static_cast<std::uint32_t>(staging_[4 * i + 3])};
        },
        [this] {
            busy_ = false;
            pulse_ = true;
            ++frames_;
            if (on_done_) {
                auto f2 = std::move(on_done_);
                on_done_ = {};
                f2();
            }
        });
}

void VideoInVip::on_clock() {
    dma_.step();
    // Idle until send_frame once the DMA is done and frame_irq is low.
    if (!pulse_ && !dma_.busy()) stream_->gate();
    frame_irq.write(pulse_ ? Logic::L1 : Logic::L0);
    pulse_ = false;
}

void VideoInVip::ckpt_save(rtlsim::SnapWriter& w) const {
    dma_.ckpt_save(w);
    w.bool8(busy_);
    w.bool8(pulse_);
    w.u64(frames_);
    w.bytes(staging_);
    w.bool8(static_cast<bool>(on_done_));
}

bool VideoInVip::ckpt_restore(rtlsim::SnapReader& r) {
    if (!dma_.ckpt_restore(r)) return false;
    busy_ = r.bool8();
    pulse_ = r.bool8();
    frames_ = r.u64();
    staging_ = r.bytes();
    had_on_done_ = r.bool8();
    on_done_ = {};
    if (!r.ok_so_far()) return false;
    if (busy_ != dma_.busy()) return false;
    if (busy_ && dma_.words_total() > staging_.size() / 4) return false;
    // Re-arm the streaming closures (identical to send_frame's); the
    // caller's on_done_ is external and re-installed by the harness.
    dma_.ckpt_rearm(
        {},
        [this](std::uint32_t i) {
            return Word{(static_cast<std::uint32_t>(staging_[4 * i]) << 24) |
                        (static_cast<std::uint32_t>(staging_[4 * i + 1]) << 16) |
                        (static_cast<std::uint32_t>(staging_[4 * i + 2]) << 8) |
                        static_cast<std::uint32_t>(staging_[4 * i + 3])};
        },
        [this] {
            busy_ = false;
            pulse_ = true;
            ++frames_;
            if (on_done_) {
                auto f2 = std::move(on_done_);
                on_done_ = {};
                f2();
            }
        });
    return true;
}

VideoOutVip::VideoOutVip(rtlsim::Scheduler& sch, const std::string& name,
                         rtlsim::Signal<Logic>& clk, PlbMasterPort& port)
    : Module(sch, name),
      frame_irq(sch, full_name() + ".frame_irq", Logic::L0),
      dma_(port, 16) {
    stream_ = &sync_proc("stream", [this] { on_clock(); },
                         {rtlsim::posedge(clk)});
}

void VideoOutVip::fetch_frame(std::uint32_t addr, unsigned w, unsigned h,
                              std::function<void(video::Frame)> sink) {
    if (busy_) {
        report("fetch_frame while busy; request dropped");
        return;
    }
    busy_ = true;
    stream_->wake();
    sink_ = std::move(sink);
    staging_ = video::Frame(w, h);
    dma_.start_read(
        addr, (w * h + 3) / 4,
        [this](std::uint32_t i, Word word) {
            if (word.has_unknown() && x_reports_ < 5) {
                ++x_reports_;
                report("X in displayed frame data");
            }
            const auto v = static_cast<std::uint32_t>(word.to_u64());
            auto px = staging_.pixels();
            for (unsigned b = 0; b < 4; ++b) {
                const std::size_t idx = 4 * std::size_t{i} + b;
                if (idx < px.size()) {
                    px[idx] = static_cast<std::uint8_t>(v >> (8 * (3 - b)));
                }
            }
        },
        [this] {
            busy_ = false;
            pulse_ = true;
            ++frames_;
            if (sink_) {
                auto s = std::move(sink_);
                sink_ = {};
                s(std::move(staging_));
            }
        });
}

void VideoOutVip::on_clock() {
    dma_.step();
    // Idle until fetch_frame once the DMA is done and frame_irq is low.
    if (!pulse_ && !dma_.busy()) stream_->gate();
    frame_irq.write(pulse_ ? Logic::L1 : Logic::L0);
    pulse_ = false;
}

void VideoOutVip::ckpt_save(rtlsim::SnapWriter& w) const {
    dma_.ckpt_save(w);
    w.bool8(busy_);
    w.bool8(pulse_);
    w.u64(frames_);
    w.u32(x_reports_);
    w.u32(staging_.width());
    w.u32(staging_.height());
    w.bytes(staging_.pixels());
    w.bool8(static_cast<bool>(sink_));
}

bool VideoOutVip::ckpt_restore(rtlsim::SnapReader& r) {
    if (!dma_.ckpt_restore(r)) return false;
    busy_ = r.bool8();
    pulse_ = r.bool8();
    frames_ = r.u64();
    x_reports_ = r.u32();
    const std::uint32_t fw = r.u32();
    const std::uint32_t fh = r.u32();
    const std::vector<std::uint8_t> pix = r.bytes();
    if (pix.size() != std::size_t{fw} * fh) return false;
    staging_ = video::Frame(fw, fh);
    std::copy(pix.begin(), pix.end(), staging_.pixels().begin());
    had_sink_ = r.bool8();
    sink_ = {};
    if (!r.ok_so_far()) return false;
    if (busy_ != dma_.busy()) return false;
    // Re-arm the fetch closures (identical to fetch_frame's); the frame
    // sink is external and re-installed by the harness.
    dma_.ckpt_rearm(
        [this](std::uint32_t i, Word word) {
            if (word.has_unknown() && x_reports_ < 5) {
                ++x_reports_;
                report("X in displayed frame data");
            }
            const auto v = static_cast<std::uint32_t>(word.to_u64());
            auto px = staging_.pixels();
            for (unsigned b = 0; b < 4; ++b) {
                const std::size_t idx = 4 * std::size_t{i} + b;
                if (idx < px.size()) {
                    px[idx] = static_cast<std::uint8_t>(v >> (8 * (3 - b)));
                }
            }
        },
        {},
        [this] {
            busy_ = false;
            pulse_ = true;
            ++frames_;
            if (sink_) {
                auto s = std::move(sink_);
                sink_ = {};
                s(std::move(staging_));
            }
        });
    return true;
}

}  // namespace autovision::vip
