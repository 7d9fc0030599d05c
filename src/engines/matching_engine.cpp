#include "matching_engine.hpp"

#include <algorithm>

#include "video/census.hpp"

namespace autovision {

using rtlsim::LVec;
using rtlsim::Word;

MatchingEngine::MatchingEngine(rtlsim::Scheduler& sch, const std::string& name,
                               rtlsim::Signal<rtlsim::Logic>& clk,
                               rtlsim::Signal<rtlsim::Logic>& rst,
                               EngineRegs& regs, unsigned burst_limit)
    : EngineBase(sch, name, clk, rst, regs, burst_limit),
      mv_out(sch, full_name() + ".mv_out", LVec<32>{0}) {}

void MatchingEngine::reset_job() {
    phase_ = Phase::LoadPrev;
    dma_issued_ = false;
    load_done_ = false;
    gx_ = 0;
    gy_ = 0;
    cand_ = 0;
    best_dx_ = 0;
    best_dy_ = 0;
    best_cost_ = ~0u;
    prev_.clear();
    cur_.clear();
    out_.clear();
}

void MatchingEngine::save_job_state(StateWriter& w) const {
    w.u32(w_);
    w.u32(h_);
    w.u32(cur_addr_);
    w.u32(prev_addr_);
    w.u32(dst_);
    w.i32(search_);
    w.u32(step_);
    w.u32(margin_);
    w.u32(gw_);
    w.u32(gh_);
    w.u8(static_cast<std::uint8_t>(phase_));
    w.bool8(load_done_);
    w.u32(gx_);
    w.u32(gy_);
    w.u32(cand_);
    w.i32(best_dx_);
    w.i32(best_dy_);
    w.u32(best_cost_);
    w.bytes(prev_);
    w.bytes(cur_);
    w.words(out_);
}

bool MatchingEngine::restore_job_state(StateReader& r) {
    w_ = r.u32();
    h_ = r.u32();
    cur_addr_ = r.u32();
    prev_addr_ = r.u32();
    dst_ = r.u32();
    search_ = r.i32();
    step_ = r.u32();
    margin_ = r.u32();
    gw_ = r.u32();
    gh_ = r.u32();
    const std::uint8_t ph = r.u8();
    if (ph > static_cast<std::uint8_t>(Phase::Write)) return false;
    phase_ = static_cast<Phase>(ph);
    load_done_ = r.bool8();
    gx_ = r.u32();
    gy_ = r.u32();
    cand_ = r.u32();
    best_dx_ = r.i32();
    best_dy_ = r.i32();
    best_cost_ = r.u32();
    prev_ = r.bytes();
    cur_ = r.bytes();
    out_ = r.words();
    dma_issued_ = false;
    if (!r.ok_so_far()) return false;
    if (w_ == 0 && h_ == 0) {
        // Idle image: captured before any job was configured (see
        // CensusEngine::restore_job_state).
        return prev_.empty() && cur_.empty() && out_.empty() && gx_ == 0 &&
               gy_ == 0;
    }
    return w_ > 0 && h_ > 0 && prev_.size() == std::size_t{w_} * h_ &&
           cur_.size() == std::size_t{w_} * h_ &&
           out_.size() == std::size_t{gw_} * gh_ && gx_ <= gw_ && gy_ <= gh_;
}

void MatchingEngine::ckpt_save_job(rtlsim::SnapWriter& w) const {
    w.u32(w_);
    w.u32(h_);
    w.u32(cur_addr_);
    w.u32(prev_addr_);
    w.u32(dst_);
    w.i32(search_);
    w.u32(step_);
    w.u32(margin_);
    w.u32(gw_);
    w.u32(gh_);
    w.u8(static_cast<std::uint8_t>(phase_));
    w.bool8(dma_issued_);
    w.bool8(load_done_);
    w.u32(gx_);
    w.u32(gy_);
    w.u32(cand_);
    w.i32(best_dx_);
    w.i32(best_dy_);
    w.u32(best_cost_);
    w.bytes(prev_);
    w.bytes(cur_);
    w.words(out_);
}

bool MatchingEngine::ckpt_restore_job(rtlsim::SnapReader& r) {
    w_ = r.u32();
    h_ = r.u32();
    cur_addr_ = r.u32();
    prev_addr_ = r.u32();
    dst_ = r.u32();
    search_ = r.i32();
    step_ = r.u32();
    margin_ = r.u32();
    gw_ = r.u32();
    gh_ = r.u32();
    const std::uint8_t ph = r.u8();
    if (ph > static_cast<std::uint8_t>(Phase::Write)) return false;
    phase_ = static_cast<Phase>(ph);
    dma_issued_ = r.bool8();
    load_done_ = r.bool8();
    gx_ = r.u32();
    gy_ = r.u32();
    cand_ = r.u32();
    best_dx_ = r.i32();
    best_dy_ = r.i32();
    best_cost_ = r.u32();
    prev_ = r.bytes();
    cur_ = r.bytes();
    out_ = r.words();
    if (!r.ok_so_far()) return false;
    if (dma_issued_ != dma_.busy()) return false;
    if (prev_.empty() && cur_.empty() && out_.empty()) {
        // Between jobs: reset_job cleared the buffers but the geometry
        // registers keep the last job's values. Only the post-reset
        // initial state is legal with empty buffers.
        return phase_ == Phase::LoadPrev && !dma_issued_ && !load_done_ &&
               gx_ == 0 && gy_ == 0 && cand_ == 0;
    }
    if (w_ == 0 || prev_.size() != std::size_t{w_} * h_ ||
        cur_.size() != std::size_t{w_} * h_ ||
        out_.size() != std::size_t{gw_} * gh_) {
        return false;
    }
    if (!dma_issued_) return true;
    // Re-arm the open burst's closures; the target follows from the phase
    // (the phase only advances after the load/write completes).
    switch (phase_) {
        case Phase::LoadPrev:
            if (dma_.words_total() > (std::size_t{w_} * h_) / 4) return false;
            rearm_read(prev_);
            return true;
        case Phase::LoadCur:
            if (dma_.words_total() > (std::size_t{w_} * h_) / 4) return false;
            rearm_read(cur_);
            return true;
        case Phase::Write:
            if (dma_.words_total() > out_.size()) return false;
            dma_.ckpt_rearm({},
                            [this](std::uint32_t i) { return Word{out_[i]}; },
                            [this] {
                                dma_issued_ = false;
                                load_done_ = true;
                            });
            return true;
        default:
            return false;  // Compute never has a burst open
    }
}

bool MatchingEngine::begin_job() {
    w_ = regs_.width();
    h_ = regs_.height();
    cur_addr_ = regs_.src();
    prev_addr_ = regs_.src2();
    dst_ = regs_.dst();
    const std::uint32_t p = regs_.param();
    search_ = static_cast<int>(p & 0xFF);
    step_ = (p >> 8) & 0xFF;
    margin_ = (p >> 16) & 0xFF;
    if (w_ == 0 || h_ == 0 || (w_ % 4) != 0 || step_ == 0 || search_ == 0) {
        return false;
    }
    reset_job();
    // Same grid formula as video::grid_points, restated independently.
    gw_ = (w_ < 2 * margin_) ? 0 : (w_ - 2 * margin_ + step_ - 1) / step_;
    gh_ = (h_ < 2 * margin_) ? 0 : (h_ - 2 * margin_ + step_ - 1) / step_;
    prev_.assign(std::size_t{w_} * h_, 0);
    cur_.assign(std::size_t{w_} * h_, 0);
    out_.assign(std::size_t{gw_} * gh_, 0);
    return true;
}

void MatchingEngine::issue_frame_read(std::uint32_t addr,
                                      std::vector<std::uint8_t>& dest) {
    dma_issued_ = true;
    dma_.start_read(
        addr, (w_ * h_) / 4,
        [this, &dest](std::uint32_t i, Word w) {
            if (w.has_unknown()) report_x_input();
            const auto v = static_cast<std::uint32_t>(w.to_u64());
            dest[4 * i + 0] = static_cast<std::uint8_t>(v >> 24);
            dest[4 * i + 1] = static_cast<std::uint8_t>(v >> 16);
            dest[4 * i + 2] = static_cast<std::uint8_t>(v >> 8);
            dest[4 * i + 3] = static_cast<std::uint8_t>(v);
        },
        [this] {
            dma_issued_ = false;
            load_done_ = true;
        });
}

void MatchingEngine::rearm_read(std::vector<std::uint8_t>& dest) {
    // Identical to the closures issue_frame_read installs.
    dma_.ckpt_rearm(
        [this, &dest](std::uint32_t i, Word w) {
            if (w.has_unknown()) report_x_input();
            const auto v = static_cast<std::uint32_t>(w.to_u64());
            dest[4 * i + 0] = static_cast<std::uint8_t>(v >> 24);
            dest[4 * i + 1] = static_cast<std::uint8_t>(v >> 16);
            dest[4 * i + 2] = static_cast<std::uint8_t>(v >> 8);
            dest[4 * i + 3] = static_cast<std::uint8_t>(v);
        },
        {}, [this] {
            dma_issued_ = false;
            load_done_ = true;
        });
}

std::uint8_t MatchingEngine::sample(const std::vector<std::uint8_t>& img,
                                    int x, int y) const {
    const int cx = std::clamp(x, 0, static_cast<int>(w_) - 1);
    const int cy = std::clamp(y, 0, static_cast<int>(h_) - 1);
    return img[static_cast<std::size_t>(cy) * w_ + static_cast<std::size_t>(cx)];
}

unsigned MatchingEngine::cost(unsigned x, unsigned y, int dx, int dy) const {
    // 3x3 patch Hamming comparator — evaluated in a single clock, as the
    // hardware computes all nine signature XOR/popcounts in parallel.
    const int px = static_cast<int>(x) - dx;
    const int py = static_cast<int>(y) - dy;
    const auto w = static_cast<int>(w_);
    const auto h = static_cast<int>(h_);
    if (x >= 1 && x + 1 < w_ && y >= 1 && y + 1 < h_ && px >= 1 &&
        px + 1 < w && py >= 1 && py + 1 < h) {
        // Both patches lie inside the images: XOR each pair of rows as one
        // word, three bytes packed high first, and add the lane counts.
        const std::uint8_t* a = cur_.data() + (y - 1) * w_ + (x - 1);
        const std::uint8_t* b =
            prev_.data() + static_cast<std::size_t>(py - 1) * w_ + (px - 1);
        std::uint32_t lanes = 0;
        for (int r = 0; r < 3; ++r, a += w_, b += w_) {
            const std::uint32_t ra = std::uint32_t{a[0]} << 16 |
                                     std::uint32_t{a[1]} << 8 | a[2];
            const std::uint32_t rb = std::uint32_t{b[0]} << 16 |
                                     std::uint32_t{b[1]} << 8 | b[2];
            lanes += video::byte_popcounts(ra ^ rb);
        }
        return (lanes & 0xFFu) + (lanes >> 8 & 0xFFu) + (lanes >> 16);
    }
    unsigned c = 0;
    for (int oy = -1; oy <= 1; ++oy) {
        for (int ox = -1; ox <= 1; ++ox) {
            const std::uint8_t a =
                sample(cur_, static_cast<int>(x) + ox, static_cast<int>(y) + oy);
            const std::uint8_t b = sample(prev_, px + ox, py + oy);
            c += video::signature_distance(a, b);
        }
    }
    return c;
}

bool MatchingEngine::work_cycle() {
    if (dma_issued_) return false;

    switch (phase_) {
        case Phase::LoadPrev:
            if (!load_done_) {
                issue_frame_read(prev_addr_, prev_);
                return false;
            }
            load_done_ = false;
            phase_ = Phase::LoadCur;
            return false;

        case Phase::LoadCur:
            if (!load_done_) {
                issue_frame_read(cur_addr_, cur_);
                return false;
            }
            load_done_ = false;
            phase_ = Phase::Compute;
            if (gw_ == 0 || gh_ == 0) phase_ = Phase::Write;  // nothing to do
            best_cost_ = ~0u;
            return false;

        case Phase::Compute: {
            // One candidate displacement per clock; scan order dy-major
            // from -search to +search, strict-improvement tie-break —
            // identical to the reference model.
            const unsigned span = 2 * static_cast<unsigned>(search_) + 1;
            const int dy = static_cast<int>(cand_ / span) - search_;
            const int dx = static_cast<int>(cand_ % span) - search_;
            const unsigned x = margin_ + gx_ * step_;
            const unsigned y = margin_ + gy_ * step_;
            const unsigned c = cost(x, y, dx, dy);
            if (c < best_cost_) {
                best_cost_ = c;
                best_dx_ = dx;
                best_dy_ = dy;
            }
            if (++cand_ == span * span) {
                cand_ = 0;
                const std::uint32_t wrd =
                    ((static_cast<std::uint32_t>(best_dx_ + 128) & 0xFF) << 24) |
                    ((static_cast<std::uint32_t>(best_dy_ + 128) & 0xFF) << 16) |
                    (best_cost_ & 0xFFFF);
                out_[std::size_t{gy_} * gw_ + gx_] = wrd;
                mv_out.write(LVec<32>{wrd});
                best_cost_ = ~0u;
                if (++gx_ == gw_) {
                    gx_ = 0;
                    if (++gy_ == gh_) phase_ = Phase::Write;
                }
            }
            return false;
        }

        case Phase::Write:
            if (!load_done_) {
                if (out_.empty()) return true;
                dma_issued_ = true;
                dma_.start_write(
                    dst_, static_cast<std::uint32_t>(out_.size()),
                    [this](std::uint32_t i) { return Word{out_[i]}; },
                    [this] {
                        dma_issued_ = false;
                        load_done_ = true;
                    });
                return false;
            }
            load_done_ = false;
            return true;  // job complete
    }
    return false;
}

}  // namespace autovision
