#include "census_engine.hpp"

#include <algorithm>

namespace autovision {

using rtlsim::LVec;
using rtlsim::Word;

CensusEngine::CensusEngine(rtlsim::Scheduler& sch, const std::string& name,
                           rtlsim::Signal<rtlsim::Logic>& clk,
                           rtlsim::Signal<rtlsim::Logic>& rst,
                           EngineRegs& regs, unsigned burst_limit)
    : EngineBase(sch, name, clk, rst, regs, burst_limit) {}

void CensusEngine::reset_job() {
    phase_ = Phase::LoadFirst;
    dma_issued_ = false;
    write_issued_ = false;
    y_ = 0;
    x_ = 0;
    prev_.clear();
    cur_.clear();
    next_.clear();
    out_row_.clear();
}

void CensusEngine::save_job_state(StateWriter& w) const {
    w.u32(w_);
    w.u32(h_);
    w.u32(src_);
    w.u32(dst_);
    w.u8(static_cast<std::uint8_t>(phase_));
    w.bool8(write_issued_);
    w.u32(y_);
    w.u32(x_);
    w.bytes(prev_);
    w.bytes(cur_);
    w.bytes(next_);
    w.words(out_row_);
}

bool CensusEngine::restore_job_state(StateReader& r) {
    w_ = r.u32();
    h_ = r.u32();
    src_ = r.u32();
    dst_ = r.u32();
    const std::uint8_t ph = r.u8();
    if (ph > static_cast<std::uint8_t>(Phase::WriteRow)) return false;
    phase_ = static_cast<Phase>(ph);
    write_issued_ = r.bool8();
    y_ = r.u32();
    x_ = r.u32();
    prev_ = r.bytes();
    cur_ = r.bytes();
    next_ = r.bytes();
    out_row_ = r.words();
    dma_issued_ = false;  // capture is only legal with the DMA idle
    if (!r.ok_so_far()) return false;
    if (w_ == 0 && h_ == 0) {
        // Idle image: captured before any job was configured. Valid iff
        // every buffer is empty too — a capture/restore round-trip of an
        // untouched module must succeed.
        return prev_.empty() && cur_.empty() && next_.empty() &&
               out_row_.empty() && y_ == 0 && x_ == 0;
    }
    // Geometry consistency: a mismatched image must be rejected.
    return w_ > 0 && h_ > 0 && prev_.size() == w_ && cur_.size() == w_ &&
           next_.size() == w_ && out_row_.size() == w_ / 4 && y_ <= h_ &&
           x_ <= w_;
}

void CensusEngine::ckpt_save_job(rtlsim::SnapWriter& w) const {
    w.u32(w_);
    w.u32(h_);
    w.u32(src_);
    w.u32(dst_);
    w.u8(static_cast<std::uint8_t>(phase_));
    w.bool8(dma_issued_);
    w.bool8(write_issued_);
    w.u32(y_);
    w.u32(x_);
    w.bytes(prev_);
    w.bytes(cur_);
    w.bytes(next_);
    w.words(out_row_);
}

bool CensusEngine::ckpt_restore_job(rtlsim::SnapReader& r) {
    w_ = r.u32();
    h_ = r.u32();
    src_ = r.u32();
    dst_ = r.u32();
    const std::uint8_t ph = r.u8();
    if (ph > static_cast<std::uint8_t>(Phase::WriteRow)) return false;
    phase_ = static_cast<Phase>(ph);
    dma_issued_ = r.bool8();
    write_issued_ = r.bool8();
    y_ = r.u32();
    x_ = r.u32();
    prev_ = r.bytes();
    cur_ = r.bytes();
    next_ = r.bytes();
    out_row_ = r.words();
    if (!r.ok_so_far()) return false;
    if (dma_issued_ != dma_.busy()) return false;
    if (prev_.empty() && cur_.empty() && next_.empty() && out_row_.empty()) {
        // Between jobs: reset_job cleared the buffers but w_/h_ keep the
        // last job's geometry. Only the post-reset initial state is legal
        // here — any mid-job phase would index the empty buffers.
        return phase_ == Phase::LoadFirst && !dma_issued_ &&
               !write_issued_ && y_ == 0 && x_ == 0;
    }
    if (w_ == 0 || prev_.size() != w_ || cur_.size() != w_ ||
        next_.size() != w_ || out_row_.size() != w_ / 4) {
        return false;
    }
    if (!dma_issued_) return true;
    if (dma_.words_total() > w_ / 4) return false;  // would overrun a buffer
    // Re-arm the open burst's data closures from the phase flags; the
    // closures are the same ones issue_row_read/issue_row_write install.
    switch (phase_) {
        case Phase::LoadNext:  // row-0 fetch issued by LoadFirst
            rearm_read(cur_);
            return true;
        case Phase::Compute:  // look-ahead row fetch issued by LoadNext
            rearm_read(next_);
            return true;
        case Phase::WriteRow:
            if (!write_issued_) return false;
            dma_.ckpt_rearm(
                {}, [this](std::uint32_t i) { return Word{out_row_[i]}; },
                [this] { dma_issued_ = false; });
            return true;
        default:
            return false;  // LoadFirst never leaves a burst open
    }
}

bool CensusEngine::begin_job() {
    w_ = regs_.width();
    h_ = regs_.height();
    src_ = regs_.src();
    dst_ = regs_.dst();
    if (w_ == 0 || h_ == 0 || (w_ % 4) != 0) return false;
    reset_job();
    prev_.assign(w_, 0);
    cur_.assign(w_, 0);
    next_.assign(w_, 0);
    out_row_.assign(w_ / 4, 0);
    return true;
}

void CensusEngine::issue_row_read(unsigned row, std::vector<std::uint8_t>& dest) {
    dma_issued_ = true;
    dma_.start_read(
        src_ + row * w_, w_ / 4,
        [this, &dest](std::uint32_t i, Word w) {
            if (w.has_unknown()) report_x_input();
            const auto v = static_cast<std::uint32_t>(w.to_u64());
            dest[4 * i + 0] = static_cast<std::uint8_t>(v >> 24);
            dest[4 * i + 1] = static_cast<std::uint8_t>(v >> 16);
            dest[4 * i + 2] = static_cast<std::uint8_t>(v >> 8);
            dest[4 * i + 3] = static_cast<std::uint8_t>(v);
        },
        [this] { dma_issued_ = false; });
}

void CensusEngine::rearm_read(std::vector<std::uint8_t>& dest) {
    // Identical to the sink issue_row_read installs.
    dma_.ckpt_rearm(
        [this, &dest](std::uint32_t i, Word w) {
            if (w.has_unknown()) report_x_input();
            const auto v = static_cast<std::uint32_t>(w.to_u64());
            dest[4 * i + 0] = static_cast<std::uint8_t>(v >> 24);
            dest[4 * i + 1] = static_cast<std::uint8_t>(v >> 16);
            dest[4 * i + 2] = static_cast<std::uint8_t>(v >> 8);
            dest[4 * i + 3] = static_cast<std::uint8_t>(v);
        },
        {}, [this] { dma_issued_ = false; });
}

void CensusEngine::issue_row_write() {
    dma_issued_ = true;
    dma_.start_write(
        dst_ + y_ * w_, w_ / 4,
        [this](std::uint32_t i) { return Word{out_row_[i]}; },
        [this] { dma_issued_ = false; });
}

std::uint8_t CensusEngine::sample(const std::vector<std::uint8_t>& row,
                                  int x) const {
    // Horizontal edge clamp, matching the reference model's border policy.
    return row[static_cast<std::size_t>(
        std::clamp(x, 0, static_cast<int>(w_) - 1))];
}

namespace {

/// The comparator bank: tap i drives bit 7 - i, set when the tap is
/// brighter than the centre.
std::uint8_t compare_taps(std::uint8_t c, const std::uint8_t (&n)[8]) {
    std::uint8_t sig = 0;
    for (int i = 0; i < 8; ++i) {
        sig = static_cast<std::uint8_t>(sig << 1);
        if (n[i] > c) sig |= 1;
    }
    return sig;
}

}  // namespace

std::uint8_t CensusEngine::signature(unsigned x) const {
    // Independent implementation of the 3x3 census (clockwise from
    // top-left), deliberately *not* shared with video::census_signature so
    // the scoreboard cross-check is meaningful. The line buffers already
    // hold the vertical clamp; a column with both horizontal taps inside
    // the row reads them through raw pointers, the two edge columns clamp.
    const std::uint8_t c = cur_[x];
    if (x >= 1 && x + 1 < w_) {
        const std::uint8_t* u = prev_.data() + x;
        const std::uint8_t* m = cur_.data() + x;
        const std::uint8_t* d = next_.data() + x;
        const std::uint8_t n[8] = {u[-1], u[0], u[1],  m[1],
                                   d[1],  d[0], d[-1], m[-1]};
        return compare_taps(c, n);
    }
    const int xi = static_cast<int>(x);
    const std::uint8_t n[8] = {
        sample(prev_, xi - 1), sample(prev_, xi), sample(prev_, xi + 1),
        sample(cur_, xi + 1),  sample(next_, xi + 1), sample(next_, xi),
        sample(next_, xi - 1), sample(cur_, xi - 1),
    };
    return compare_taps(c, n);
}

bool CensusEngine::work_cycle() {
    if (dma_issued_) return false;  // waiting for a burst to finish

    switch (phase_) {
        case Phase::LoadFirst:
            // Load row 0 into cur_, then treat it as its own upper
            // neighbour (vertical clamp).
            issue_row_read(0, cur_);
            phase_ = Phase::LoadNext;
            return false;

        case Phase::LoadNext: {
            if (y_ == 0) prev_ = cur_;  // top edge: vertical clamp
            const unsigned next_row = std::min(y_ + 1, h_ - 1);
            if (next_row == y_) {
                next_ = cur_;  // bottom edge: clamp, no DMA needed
                phase_ = Phase::Compute;
                x_ = 0;
                return false;
            }
            issue_row_read(next_row, next_);
            phase_ = Phase::Compute;
            x_ = 0;
            return false;
        }

        case Phase::Compute: {
            // One pixel per clock; the streaming tap toggles every cycle.
            const std::uint8_t sig = signature(x_);
            stream_out.write(LVec<8>{sig});
            const unsigned word = x_ / 4;
            const unsigned lane = x_ % 4;
            const unsigned shift = (3 - lane) * 8;
            out_row_[word] =
                (out_row_[word] & ~(0xFFu << shift)) |
                (static_cast<std::uint32_t>(sig) << shift);
            if (++x_ == w_) phase_ = Phase::WriteRow;
            return false;
        }

        case Phase::WriteRow:
            // First entry issues the write-back; the entry after the DMA
            // completes advances to the next row.
            if (!write_issued_) {
                write_issued_ = true;
                issue_row_write();
                return false;
            }
            write_issued_ = false;
            ++y_;
            if (y_ == h_) return true;  // frame complete
            prev_.swap(cur_);
            cur_.swap(next_);
            phase_ = Phase::LoadNext;
            return false;
    }
    return false;
}

}  // namespace autovision
