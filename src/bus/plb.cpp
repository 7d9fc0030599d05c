#include "plb.hpp"

#include <algorithm>

namespace autovision {

using rtlsim::is0;
using rtlsim::is1;
using rtlsim::is_unknown;

// ----------------------------------------------------------- PlbMasterPort

PlbMasterPort::PlbMasterPort(Scheduler& sch, const std::string& prefix)
    : req(sch, prefix + ".req", Logic::L0),
      rnw(sch, prefix + ".rnw", Logic::L1),
      addr(sch, prefix + ".addr", Word{0}),
      nbeats(sch, prefix + ".nbeats", LVec<16>{1}),
      wdata(sch, prefix + ".wdata", Word{0}),
      grant(sch, prefix + ".grant", Logic::L0),
      rd_ack(sch, prefix + ".rd_ack", Logic::L0),
      rdata(sch, prefix + ".rdata", Word{0}),
      wr_ack(sch, prefix + ".wr_ack", Logic::L0),
      done(sch, prefix + ".done", Logic::L0),
      err(sch, prefix + ".err", Logic::L0) {}

void PlbMasterPort::idle() {
    req.write(Logic::L0);
    rnw.write(Logic::L1);
    addr.write(Word{0});
    nbeats.write(LVec<16>{1});
    wdata.write(Word{0});
}

void PlbMasterPort::drive_x() {
    req.write(Logic::X);
    rnw.write(Logic::X);
    addr.write(Word::all_x());
    nbeats.write(LVec<16>::all_x());
    wdata.write(Word::all_x());
}

// --------------------------------------------------------------------- Plb

Plb::Plb(Scheduler& sch, const std::string& name, Signal<Logic>& clk,
         Signal<Logic>& rst, Config cfg)
    : Module(sch, name), cfg_(cfg), clk_(clk), rst_(rst) {
    ports_.reserve(cfg_.num_masters);
    for (unsigned i = 0; i < cfg_.num_masters; ++i) {
        ports_.push_back(std::make_unique<PlbMasterPort>(
            sch, full_name() + ".m" + std::to_string(i)));
    }
    starve_.assign(cfg_.num_masters, 0);
    x_reports_.assign(cfg_.num_masters, 0);
    mcounters_.assign(cfg_.num_masters, MasterCounters{});
    fsm_ = &sync_proc("fsm", [this] { on_clock(); },
                      {rtlsim::posedge(clk_), rtlsim::wake_on(rst_)});
    for (auto& p : ports_) p->req.add_listener(*fsm_, Edge::Wake);
}

PlbSlaveIf* Plb::decode(std::uint32_t addr) const {
    for (PlbSlaveIf* s : slaves_) {
        if (s->claims(addr)) return s;
    }
    return nullptr;
}

void Plb::clear_pulses() {
    // Pulses go only to the owner (beats, done) or the master last
    // arbitrated (grant, decode error), and only on a cycle that leaves the
    // bus out of Idle — so an Idle bus has nothing to clear, and a busy one
    // at most two ports. The rule reads only checkpointed FSM state.
    if (state_ == St::Idle) return;
    for (const unsigned m : {owner_, last_granted_}) {
        PlbMasterPort& p = *ports_[m];
        p.grant.write(Logic::L0);
        p.rd_ack.write(Logic::L0);
        p.wr_ack.write(Logic::L0);
        p.done.write(Logic::L0);
        p.err.write(Logic::L0);
        if (owner_ == last_granted_) break;
    }
}

void Plb::report_x_req(unsigned m) {
    if (x_reports_[m] < 5) {
        ++x_reports_[m];
        report("protocol: X/Z on req of master " + std::to_string(m) +
               " — unisolated reconfiguration traffic?");
    }
}

void Plb::arbitrate() {
    // Round-robin scan starting after the last granted master.
    const unsigned n = num_masters();
    for (unsigned k = 1; k <= n; ++k) {
        const unsigned m = (last_granted_ + k) % n;
        PlbMasterPort& p = *ports_[m];
        if (!is1(p.req.read())) continue;

        // Validate the address phase before granting.
        if (p.addr.read().has_unknown() || is_unknown(p.rnw.read()) ||
            p.nbeats.read().has_unknown()) {
            if (x_reports_[m] < 5) {
                ++x_reports_[m];
                report("protocol: X in address phase of master " +
                       std::to_string(m));
            }
            continue;
        }

        const auto addr32 = static_cast<std::uint32_t>(p.addr.read().to_u64());
        unsigned beats = static_cast<unsigned>(p.nbeats.read().to_u64());
        if (beats == 0) beats = 1;

        PlbSlaveIf* s = decode(addr32);
        if (s == nullptr) {
            ++counters_.decode_errors;
            report("decode error: no slave claims address 0x" +
                   [addr32] {
                       char buf[16];
                       std::snprintf(buf, sizeof buf, "%08x", addr32);
                       return std::string(buf);
                   }());
            p.err.write(Logic::L1);
            last_granted_ = m;
            state_ = St::Cooldown;
            return;
        }

        if (cfg_.max_burst != 0 && beats > cfg_.max_burst) {
            ++counters_.truncations;
            report("protocol: burst of " + std::to_string(beats) +
                   " beats exceeds bus maximum of " +
                   std::to_string(cfg_.max_burst) + "; truncated");
            beats = cfg_.max_burst;
        }

        ++counters_.transactions;
        ++mcounters_[m].transactions;
        owner_ = m;
        last_granted_ = m;
        slave_ = s;
        cursor_ = addr32;
        beats_left_ = beats;
        starve_[m] = 0;
        p.grant.write(Logic::L1);
        if (is1(p.rnw.read())) {
            wait_left_ = s->read_latency();
            state_ = wait_left_ == 0 ? St::ReadBurst : St::ReadWait;
        } else {
            // One dead cycle after grant lets the master's first data word
            // settle before the bus consumes it.
            state_ = St::WriteGap;
        }
        return;
    }
}

void Plb::on_clock() {
    if (is1(rst_.read())) {
        clear_pulses();
        state_ = St::Idle;
        std::fill(starve_.begin(), starve_.end(), 0u);
        return;
    }

    clear_pulses();
    ++counters_.total_cycles;
    if (state_ != St::Idle) ++counters_.busy_cycles;

    // Starvation accounting and X sniffing run every cycle.
    bool any_req = false;  // some req is high or X
    for (unsigned m = 0; m < num_masters(); ++m) {
        const Logic req = ports_[m]->req.read();
        if (is_unknown(req)) report_x_req(m);
        any_req = any_req || !is0(req);
        if (is1(req) && !(state_ != St::Idle && m == owner_)) {
            ++mcounters_[m].grant_wait_cycles;
            if (++starve_[m] == cfg_.grant_timeout) {
                report("starvation: master " + std::to_string(m) +
                       " waited " + std::to_string(cfg_.grant_timeout) +
                       " cycles for grant");
                starve_[m] = 0;
            }
        } else if (state_ != St::Idle && m == owner_) {
            starve_[m] = 0;
        }
    }

    // Mid-burst abandonment: the owner dropped req while others are waiting.
    if (state_ != St::Idle && state_ != St::Cooldown) {
        PlbMasterPort& p = *ports_[owner_];
        if (is0(p.req.read())) {
            bool contended = false;
            for (unsigned m = 0; m < num_masters(); ++m) {
                if (m != owner_ && is1(ports_[m]->req.read())) contended = true;
            }
            if (contended) {
                ++counters_.aborts;
                report("protocol: master " + std::to_string(owner_) +
                       " released req mid-burst; transaction aborted");
                state_ = St::Idle;
            }
            // With no contention the grant stays parked (point-to-point
            // tolerance) and the burst continues.
        }
    }

    switch (state_) {
        case St::Idle:
            arbitrate();
            break;

        case St::ReadWait:
            if (--wait_left_ == 0) state_ = St::ReadBurst;
            break;

        case St::ReadBurst: {
            PlbMasterPort& p = *ports_[owner_];
            p.rdata.write(slave_->plb_read(cursor_));
            p.rd_ack.write(Logic::L1);
            ++counters_.read_beats;
            ++mcounters_[owner_].read_beats;
            cursor_ += 4;
            if (--beats_left_ == 0) {
                p.done.write(Logic::L1);
                state_ = St::Cooldown;
            }
            break;
        }

        case St::WriteBeat: {
            PlbMasterPort& p = *ports_[owner_];
            const Word w = p.wdata.read();
            if (w.has_unknown() && x_reports_[owner_] < 5) {
                ++x_reports_[owner_];
                report("protocol: X in write data of master " +
                       std::to_string(owner_));
            }
            slave_->plb_write(cursor_, w);
            p.wr_ack.write(Logic::L1);
            ++counters_.write_beats;
            ++mcounters_[owner_].write_beats;
            cursor_ += 4;
            if (--beats_left_ == 0) {
                p.done.write(Logic::L1);
                state_ = St::Cooldown;
            } else {
                state_ = St::WriteGap;
            }
            break;
        }

        case St::WriteGap:
            state_ = St::WriteBeat;
            break;

        case St::Cooldown:
            state_ = St::Idle;
            break;
    }

    // Ending Idle means no pulse went out this cycle; with every req low
    // the next edge would only count itself, which counters() adds back
    // from the skipped count. A req change or reset reopens the gate.
    if (state_ == St::Idle && !any_req) fsm_->gate();
}

void Plb::ckpt_save(rtlsim::SnapWriter& w) const {
    w.u8(static_cast<std::uint8_t>(state_));
    w.u32(owner_);
    w.u32(last_granted_);
    w.u32(cursor_);
    w.u32(beats_left_);
    w.u32(wait_left_);
    w.u64(counters_.transactions);
    w.u64(counters_.read_beats);
    w.u64(counters_.write_beats);
    w.u64(counters_.truncations);
    w.u64(counters_.aborts);
    w.u64(counters_.decode_errors);
    w.u64(counters_.busy_cycles);
    w.u64(counters_.total_cycles);
    for (const MasterCounters& mc : mcounters_) {
        w.u64(mc.transactions);
        w.u64(mc.read_beats);
        w.u64(mc.write_beats);
        w.u64(mc.grant_wait_cycles);
    }
    for (unsigned s : starve_) w.u32(s);
    for (unsigned x : x_reports_) w.u32(x);
}

bool Plb::ckpt_restore(rtlsim::SnapReader& r) {
    const std::uint8_t st = r.u8();
    if (st > static_cast<std::uint8_t>(St::Cooldown)) return false;
    state_ = static_cast<St>(st);
    owner_ = r.u32();
    last_granted_ = r.u32();
    cursor_ = r.u32();
    beats_left_ = r.u32();
    wait_left_ = r.u32();
    counters_.transactions = r.u64();
    counters_.read_beats = r.u64();
    counters_.write_beats = r.u64();
    counters_.truncations = r.u64();
    counters_.aborts = r.u64();
    counters_.decode_errors = r.u64();
    counters_.busy_cycles = r.u64();
    counters_.total_cycles = r.u64();
    for (MasterCounters& mc : mcounters_) {
        mc.transactions = r.u64();
        mc.read_beats = r.u64();
        mc.write_beats = r.u64();
        mc.grant_wait_cycles = r.u64();
    }
    for (unsigned& s : starve_) s = r.u32();
    for (unsigned& x : x_reports_) x = r.u32();
    // clear_pulses() indexes both ports.
    if (owner_ >= num_masters() || last_granted_ >= num_masters()) {
        return false;
    }
    slave_ = nullptr;
    if (state_ == St::ReadWait || state_ == St::ReadBurst ||
        state_ == St::WriteBeat || state_ == St::WriteGap) {
        slave_ = decode(cursor_);
        if (slave_ == nullptr) return false;
    }
    return r.ok_so_far();
}

// --------------------------------------------------------------- DmaMaster

DmaMaster::DmaMaster(PlbMasterPort& port, unsigned burst_limit)
    : port_(port), burst_limit_(burst_limit) {}

void DmaMaster::start_read(std::uint32_t addr, std::uint32_t nwords,
                           std::function<void(std::uint32_t, Word)> sink,
                           std::function<void()> on_done) {
    addr_ = addr;
    remaining_ = nwords;
    total_ = nwords;
    idx_ = 0;
    reading_ = true;
    sink_ = std::move(sink);
    on_done_ = std::move(on_done);
    if (nwords == 0) {
        state_ = St::Idle;
        if (on_done_) on_done_();
        return;
    }
    begin_burst();
}

void DmaMaster::start_write(std::uint32_t addr, std::uint32_t nwords,
                            std::function<Word(std::uint32_t)> src,
                            std::function<void()> on_done) {
    addr_ = addr;
    remaining_ = nwords;
    total_ = nwords;
    idx_ = 0;
    reading_ = false;
    src_ = std::move(src);
    on_done_ = std::move(on_done);
    if (nwords == 0) {
        state_ = St::Idle;
        if (on_done_) on_done_();
        return;
    }
    begin_burst();
}

void DmaMaster::begin_burst() {
    failed_ = false;
    burst_beats_ = (burst_limit_ == 0)
                       ? remaining_
                       : std::min<std::uint32_t>(burst_limit_, remaining_);
    port_.addr.write(Word{addr_});
    port_.nbeats.write(LVec<16>{burst_beats_});
    port_.rnw.write(reading_ ? Logic::L1 : Logic::L0);
    if (!reading_) port_.wdata.write(src_(idx_));
    port_.req.write(Logic::L1);
    state_ = St::Req;
}

void DmaMaster::reset() {
    state_ = St::Idle;
    port_.idle();
    sink_ = {};
    src_ = {};
    on_done_ = {};
}

void DmaMaster::ckpt_save(rtlsim::SnapWriter& w) const {
    w.u8(static_cast<std::uint8_t>(state_));
    w.bool8(reading_);
    w.bool8(failed_);
    w.u32(addr_);
    w.u32(remaining_);
    w.u32(total_);
    w.u32(idx_);
    w.u32(burst_beats_);
}

bool DmaMaster::ckpt_restore(rtlsim::SnapReader& r) {
    const std::uint8_t st = r.u8();
    if (st > static_cast<std::uint8_t>(St::Gap)) return false;
    state_ = static_cast<St>(st);
    reading_ = r.bool8();
    failed_ = r.bool8();
    addr_ = r.u32();
    remaining_ = r.u32();
    total_ = r.u32();
    idx_ = r.u32();
    burst_beats_ = r.u32();
    return r.ok_so_far();
}

void DmaMaster::step() {
    switch (state_) {
        case St::Idle:
            break;

        case St::Req:
            if (is1(port_.err.read())) {
                // Address decode error: abandon the transfer so the bus is
                // not re-requested forever. The error stays visible through
                // failed() and the bus checker's diagnostic.
                failed_ = true;
                state_ = St::Idle;
                port_.idle();
                if (on_done_) {
                    auto f = std::move(on_done_);
                    on_done_ = {};
                    f();
                }
                break;
            }
            if (is1(port_.grant.read())) state_ = St::Xfer;
            break;

        case St::Xfer: {
            if (reading_ && is1(port_.rd_ack.read())) {
                // An aborted burst that is granted again in full delivers
                // beats past the transfer; the sink never sees them.
                if (sink_ && idx_ < total_) sink_(idx_, port_.rdata.read());
                ++idx_;
            }
            if (!reading_ && is1(port_.wr_ack.read())) {
                ++idx_;
                if (src_ && idx_ < total_) port_.wdata.write(src_(idx_));
            }
            if (is1(port_.done.read())) {
                // The burst the bus completed may have been truncated; the
                // master cannot see that (it is exactly how bug.dpr.4
                // silently under-transfers), so it advances by what it asked
                // for, saturating to avoid wrap.
                const std::uint32_t advanced =
                    std::min<std::uint32_t>(burst_beats_, remaining_);
                remaining_ -= advanced;
                addr_ += 4 * advanced;
                port_.req.write(Logic::L0);
                if (remaining_ > 0) {
                    state_ = St::Gap;
                } else {
                    state_ = St::Idle;
                    port_.idle();
                    if (on_done_) {
                        auto f = std::move(on_done_);
                        on_done_ = {};
                        f();
                    }
                }
            }
            break;
        }

        case St::Gap:
            begin_burst();
            break;
    }
}

}  // namespace autovision
