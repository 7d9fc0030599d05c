#include "icap_arbiter.hpp"

#include <algorithm>

namespace autovision::rrm {

using rtlsim::is1;
using rtlsim::Logic;
using rtlsim::Word;

IcapArbiter::IcapArbiter(rtlsim::Scheduler& sch, const std::string& name,
                         rtlsim::Signal<Logic>& clk, rtlsim::Signal<Logic>& rst,
                         IcapPortIf& sink, unsigned num_regions, Grant grant)
    : Module(sch, name),
      rst_(rst),
      sink_(sink),
      grant_(grant),
      stats_(std::max(1u, num_regions)) {
    sync_proc("arbiter", [this] { on_clock(); }, {rtlsim::posedge(clk)});
}

void IcapArbiter::submit(unsigned region, std::vector<std::uint32_t> words,
                         unsigned word_gap, unsigned priority) {
    if (region >= stats_.size() || words.empty()) {
        report("arbiter submit rejected: bad region or empty session");
        return;
    }
    Session s;
    s.region = region;
    s.gap = std::max(1u, word_gap);
    s.priority = priority;
    s.submit_cycle = cycle_;
    s.words = std::move(words);
    queue_.push_back(std::move(s));
}

unsigned IcapArbiter::outstanding(unsigned region) const {
    unsigned n = active_ && active_session_.region == region ? 1u : 0u;
    for (const Session& s : queue_) {
        if (s.region == region) ++n;
    }
    return n;
}

bool IcapArbiter::busy() const {
    return active_ || !queue_.empty() || !ext_buf_.empty();
}

int IcapArbiter::pick_next() const {
    if (queue_.empty()) return -1;
    int best = -1;
    if (grant_ == Grant::kFair) {
        // Round-robin: the first queued session of the first region at or
        // after the rotation cursor that has one; sessions of one region
        // keep their submit order.
        const unsigned n = static_cast<unsigned>(stats_.size());
        for (unsigned off = 0; off < n && best < 0; ++off) {
            const unsigned r = (rotation_ + off) % n;
            for (std::size_t i = 0; i < queue_.size(); ++i) {
                if (queue_[i].region == r) {
                    best = static_cast<int>(i);
                    break;
                }
            }
        }
    } else {
        // Priority: smallest priority value, ties to lowest region index,
        // then submit order.
        for (std::size_t i = 0; i < queue_.size(); ++i) {
            if (best < 0) {
                best = static_cast<int>(i);
                continue;
            }
            const Session& b = queue_[static_cast<std::size_t>(best)];
            const Session& s = queue_[i];
            if (s.priority < b.priority ||
                (s.priority == b.priority && s.region < b.region)) {
                best = static_cast<int>(i);
            }
        }
    }
    return best;
}

void IcapArbiter::on_clock() {
    if (is1(rst_.read())) return;
    ++cycle_;

    if (!active_) {
        // Drain any externally buffered words first — the legacy datapath
        // was pre-empted by a manager session and resumes before new grants.
        if (!ext_buf_.empty()) {
            const std::uint64_t planes = ext_buf_.front();
            ext_buf_.pop_front();
            sink_.icap_write(Word::from_planes(
                static_cast<std::uint32_t>(planes >> 32),
                static_cast<std::uint32_t>(planes & 0xFFFF'FFFFull)));
            return;
        }
        if (ext_in_session_) return;  // external SimB open: no grants
        const int next = pick_next();
        if (next < 0) return;
        active_ = true;
        active_session_ = std::move(queue_[static_cast<std::size_t>(next)]);
        queue_.erase(queue_.begin() + next);
        gap_left_ = 0;
        const std::uint64_t wait = cycle_ - active_session_.submit_cycle;
        RegionStats& rs = stats_[active_session_.region];
        rs.wait_cycles += wait;
        rs.max_wait = std::max(rs.max_wait, wait);
        note(obs::EventKind::kArbGrant,
             static_cast<std::uint8_t>(active_session_.region),
             static_cast<std::uint32_t>(queue_.size() + 1), wait);
        return;
    }

    if (gap_left_ > 0) {
        --gap_left_;
        return;
    }
    Session& s = active_session_;
    sink_.icap_write(Word{s.words[s.next_word]});
    ++s.next_word;
    ++stats_[s.region].words;
    if (s.next_word == s.words.size()) {
        RegionStats& rs = stats_[s.region];
        ++rs.sessions;
        note(obs::EventKind::kArbRelease, static_cast<std::uint8_t>(s.region),
             s.next_word);
        rotation_ = (s.region + 1) % static_cast<unsigned>(stats_.size());
        active_ = false;
        active_session_ = Session{};
    } else {
        gap_left_ = s.gap - 1;
    }
}

void IcapArbiter::external_write(Word w) {
    // Session sniffer: SYNC opens, CMD DESYNC closes. Only well-formed
    // framing is tracked — a malformed external stream conservatively
    // holds the port (manager grants wait for the next DESYNC).
    const bool defined = w.is_fully_defined();
    const auto v = defined ? static_cast<std::uint32_t>(w.to_u64()) : 0u;
    if (!ext_in_session_) {
        if (defined && v == resim::kSyncWord) ext_in_session_ = true;
    } else if (defined && v == resim::type1_write(resim::CfgReg::kCmd, 1)) {
        ext_cmd_pending_ = true;
    } else if (ext_cmd_pending_) {
        ext_cmd_pending_ = false;
        if (defined &&
            v == static_cast<std::uint32_t>(resim::CfgCmd::kDesync)) {
            ext_in_session_ = false;
        }
    }

    // Buffer while a session drains and until the words it held back have
    // drained too: a word sent straight on would overtake them.
    if (active_ || !ext_buf_.empty()) {
        ext_buf_.push_back(
            (static_cast<std::uint64_t>(w.val_plane()) << 32) |
            w.unk_plane());
        return;
    }
    sink_.icap_write(w);
}

void IcapArbiter::ckpt_save(rtlsim::SnapWriter& w) const {
    w.u8(static_cast<std::uint8_t>(grant_));
    w.u32(static_cast<std::uint32_t>(stats_.size()));
    for (const RegionStats& rs : stats_) {
        w.u64(rs.sessions);
        w.u64(rs.words);
        w.u64(rs.wait_cycles);
        w.u64(rs.max_wait);
    }
    const auto session = [&w](const Session& s) {
        w.u32(s.region);
        w.u32(s.gap);
        w.u32(s.priority);
        w.u64(s.submit_cycle);
        w.u32(s.next_word);
        w.u32(static_cast<std::uint32_t>(s.words.size()));
        for (std::uint32_t word : s.words) w.u32(word);
    };
    w.u32(static_cast<std::uint32_t>(queue_.size()));
    for (const Session& s : queue_) session(s);
    w.bool8(active_);
    if (active_) session(active_session_);
    w.u32(gap_left_);
    w.u32(rotation_);
    w.u64(cycle_);
    w.bool8(ext_in_session_);
    w.bool8(ext_cmd_pending_);
    w.u32(static_cast<std::uint32_t>(ext_buf_.size()));
    for (std::uint64_t planes : ext_buf_) w.u64(planes);
}

bool IcapArbiter::ckpt_restore(rtlsim::SnapReader& r) {
    const std::uint8_t g = r.u8();
    if (g > static_cast<std::uint8_t>(Grant::kPriority)) return false;
    grant_ = static_cast<Grant>(g);
    if (r.u32() != stats_.size()) return false;
    for (RegionStats& rs : stats_) {
        rs.sessions = r.u64();
        rs.words = r.u64();
        rs.wait_cycles = r.u64();
        rs.max_wait = r.u64();
    }
    const auto session = [this, &r](Session& s) {
        s.region = r.u32();
        s.gap = r.u32();
        s.priority = r.u32();
        s.submit_cycle = r.u64();
        s.next_word = r.u32();
        const std::uint32_t n = r.u32();
        s.words.clear();
        for (std::uint32_t i = 0; i < n && r.ok_so_far(); ++i) {
            s.words.push_back(r.u32());
        }
        return r.ok_so_far() && s.region < stats_.size() && s.gap >= 1 &&
               s.next_word <= s.words.size();
    };
    queue_.clear();
    const std::uint32_t nq = r.u32();
    for (std::uint32_t i = 0; i < nq && r.ok_so_far(); ++i) {
        Session s;
        if (!session(s)) return false;
        queue_.push_back(std::move(s));
    }
    active_ = r.bool8();
    active_session_ = Session{};
    if (active_ && !session(active_session_)) return false;
    gap_left_ = r.u32();
    rotation_ = r.u32();
    cycle_ = r.u64();
    ext_in_session_ = r.bool8();
    ext_cmd_pending_ = r.bool8();
    ext_buf_.clear();
    const std::uint32_t nb = r.u32();
    for (std::uint32_t i = 0; i < nb && r.ok_so_far(); ++i) {
        ext_buf_.push_back(r.u64());
    }
    return r.ok_so_far() && rotation_ < stats_.size();
}

}  // namespace autovision::rrm
