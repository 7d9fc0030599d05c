#include "dcr.hpp"

#include <cassert>

namespace autovision {

using rtlsim::is1;

DcrChain::DcrChain(Scheduler& sch, const std::string& name, Signal<Logic>& clk,
                   Signal<Logic>& rst)
    : Module(sch, name), clk_(clk), rst_(rst) {
    ring_ = &sync_proc("ring", [this] { on_clock(); },
                       {rtlsim::posedge(clk_), rtlsim::wake_on(rst_)});
}

void DcrChain::start_read(std::uint32_t regno, std::function<void(Word)> done) {
    assert(!busy_ && "DCR transaction already in flight");
    busy_ = true;
    is_read_ = true;
    claimed_ = false;
    corrupted_ = false;
    regno_ = regno;
    data_ = Word::all_x();  // reads return X unless a node supplies data
    pos_ = 0;
    rd_done_ = std::move(done);
    ring_->wake();
}

void DcrChain::start_write(std::uint32_t regno, Word data,
                           std::function<void()> done) {
    assert(!busy_ && "DCR transaction already in flight");
    busy_ = true;
    is_read_ = false;
    claimed_ = false;
    corrupted_ = false;
    regno_ = regno;
    data_ = data;
    pos_ = 0;
    wr_done_ = std::move(done);
    ring_->wake();
}

void DcrChain::ckpt_save(rtlsim::SnapWriter& w) const {
    w.bool8(busy_);
    w.bool8(is_read_);
    w.bool8(claimed_);
    w.bool8(corrupted_);
    w.bool8(corruption_reported_);
    w.u32(regno_);
    w.u64((static_cast<std::uint64_t>(data_.val_plane()) << 32) |
          data_.unk_plane());
    w.u64(pos_);
}

bool DcrChain::ckpt_restore(rtlsim::SnapReader& r) {
    busy_ = r.bool8();
    is_read_ = r.bool8();
    claimed_ = r.bool8();
    corrupted_ = r.bool8();
    corruption_reported_ = r.bool8();
    regno_ = r.u32();
    const std::uint64_t planes = r.u64();
    data_ = Word::from_planes(planes >> 32, planes & 0xFFFF'FFFFull);
    pos_ = r.u64();
    return r.ok_so_far() && pos_ <= nodes_.size();
}

void DcrChain::on_clock() {
    if (is1(rst_.read())) {
        busy_ = false;
        pos_ = 0;
        return;
    }
    if (!busy_) {
        ring_->gate();  // idle until start_read/start_write
        return;
    }

    if (pos_ < nodes_.size()) {
        DcrSlaveIf* n = nodes_[pos_];
        if (n->dcr_corrupted()) {
            // The node's flip-flops are mid-reconfiguration: the token is
            // destroyed for the rest of the ring. Report once per event so
            // the log points at the broken daisy chain directly.
            corrupted_ = true;
            data_ = Word::all_x();
            if (!corruption_reported_) {
                corruption_reported_ = true;
                report("DCR daisy chain broken at node '" + n->dcr_name() +
                       "' (registers inside a reconfiguring region)");
            }
        } else if (!corrupted_ && !claimed_ && n->dcr_claims(regno_)) {
            claimed_ = true;
            if (is_read_) {
                data_ = n->dcr_read(regno_);
            } else {
                n->dcr_write(regno_, data_);
            }
        }
        ++pos_;
        return;
    }

    // Token returned to the master.
    if (!claimed_ && !corrupted_) {
        report("DCR " + std::string(is_read_ ? "read" : "write") +
               " of unclaimed register 0x" + std::to_string(regno_));
    }
    busy_ = false;
    corruption_reported_ = false;
    if (obs_ != nullptr) {
        obs_->record(sch_.now(),
                     is_read_ ? obs::EventKind::kDcrRead
                              : obs::EventKind::kDcrWrite,
                     obs::Source::kDcr, regno_,
                     data_.is_fully_defined() ? data_.to_u64() : ~0ull);
    }
    if (is_read_) {
        if (rd_done_) {
            auto f = std::move(rd_done_);
            rd_done_ = {};
            f(data_);
        }
    } else if (wr_done_) {
        auto f = std::move(wr_done_);
        wr_done_ = {};
        f();
    }
}

}  // namespace autovision
