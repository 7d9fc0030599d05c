#include "scheduler.hpp"

#include <bit>
#include <cassert>
#include <utility>

#include "logic.hpp"

namespace rtlsim {

// ---------------------------------------------------------------- Process

Process::Process(Scheduler& sch, std::string name, std::function<void()> fn)
    : sch_(sch), name_(std::move(name)), fn_(std::move(fn)) {
    sch_.register_process(this);
}

void Process::notify() { sch_.notify_from_body(this); }

void Process::time_body() {
    fn_ = [this, body = std::move(fn_)] {
        const auto t0 = std::chrono::steady_clock::now();
        body();
        self_time_ += std::chrono::steady_clock::now() - t0;
    };
}

// -------------------------------------------------------------- SignalBase

SignalBase::SignalBase(Scheduler& sch, std::string name)
    : sch_(sch), name_(std::move(name)) {
    sch_.register_signal(this);
}

SignalBase::~SignalBase() {
    sch_.signal_store().release(ref_);
    sch_.unregister_signal(this);
}

void SignalBase::add_listener(Process& p, Edge e) {
    for (const Listener& l : listeners_) {
        if (l.proc == &p && l.edge == e) return;
    }
    pos_only_ = e == Edge::Pos && (listeners_.empty() || pos_only_);
    const auto pos = static_cast<std::uint32_t>(listeners_.size());
    // A member added during a walk has missed it: it starts at walks_.
    listeners_.push_back({&p, p.index(), e, walks_});
    if (pos % 64 == 0) open_.push_back(0);
    if (e == Edge::Pos) {
        p.pos_slots_.push_back({this, pos});
        set_open(pos, !p.gated());
    }
}

void SignalBase::notify_listeners(bool rising, bool falling) {
    for (const Listener& l : listeners_) {
        switch (l.edge) {
            case Edge::Any: sch_.notify_process(l.proc, l.idx); break;
            case Edge::Pos:
                if (rising) sch_.notify_process(l.proc, l.idx);
                break;
            case Edge::Neg:
                if (falling) sch_.notify_process(l.proc, l.idx);
                break;
            case Edge::Wake:
                if (sch_.gate_flags_[l.idx] != 0) l.proc->wake();
                break;
        }
    }
}

// --------------------------------------------------------------- Scheduler

void Scheduler::FnEvent::fire() {
    // Detach the closure and recycle the node *before* invoking it, so the
    // callback can schedule_at() again and immediately reuse this slot —
    // a self-rescheduling closure then runs allocation-free at steady state.
    std::function<void()> f = std::move(fn);
    fn = nullptr;
    sch.recycle(this);
    f();
}

void Scheduler::schedule_at(Time t, std::function<void()> fn) {
    assert(t >= now_ && "cannot schedule events in the past");
    FnEvent* ev = fn_free_;
    if (ev != nullptr) {
        fn_free_ = static_cast<FnEvent*>(ev->next_);
    } else {
        fn_pool_.push_back(std::make_unique<FnEvent>(*this));
        ev = fn_pool_.back().get();
    }
    ev->fn = std::move(fn);
    ev->time_ = t;
    ev->pending_ = true;
    ev->next_ = nullptr;
    queue_.push(ev);
}

void Scheduler::notify_from_body(Process* p) {
    // The ordinary queue sets every member's scheduled flag at fan-out and
    // clears it just before the member runs, so a notify() lands as a no-op
    // on a member still ahead, gated or not, and queues one already passed
    // for the next delta. A walk reproduces that by the member's position.
    for (const Process::PosSlot& slot : p->pos_slots_) {
        if (walk_has_yet_to_reach(slot)) return;
    }
    notify_process(p, p->index_);
}

std::uint64_t Scheduler::skipped_of(const Process& p) const noexcept {
    std::uint64_t n = skip_counts_[p.index_];
    for (const Process::PosSlot& slot : p.pos_slots_) {
        const SignalBase& s = *slot.sig;
        n += s.walks_ - s.listeners_[slot.pos].ran;
        // The walk in progress counts itself in walks_ from its start, but a
        // member it has yet to reach has not been passed over.
        if (walk_has_yet_to_reach(slot)) --n;
    }
    return n;
}

void Scheduler::run_edge() {
    SignalBase* s = edge_sig_;
    ++s->walks_;
    // Indexed, not iterated: a body may add listeners to the signal. Those
    // join at the next edge, as they would have missed this fan-out.
    walk_end_ = s->listeners_.size();
    for (std::size_t base = 0; base < walk_end_; base += 64) {
        const std::size_t n = walk_end_ - base;
        const std::uint64_t in_walk =
            n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
        const std::size_t w = base / 64;
        std::uint64_t due = s->open_[w] & in_walk;
        while (due != 0) {
            const int b = std::countr_zero(due);
            walk_pos_ = base + static_cast<std::size_t>(b);
            SignalBase::Listener& l = s->listeners_[walk_pos_];
            ++l.ran;
            ++stats.proc_invocations;
            l.proc->invoke();
            // The live word, past this member: a body may have woken or
            // gated one ahead, and one passed waits for the next edge.
            due = s->open_[w] & in_walk & ~((std::uint64_t{2} << b) - 1);
        }
    }
    assert(open_set_in_step(*s));
    walk_end_ = 0;
    edge_sig_ = nullptr;
}

bool Scheduler::open_set_in_step(const SignalBase& s) const {
    for (std::size_t i = 0; i < s.listeners_.size(); ++i) {
        const SignalBase::Listener& l = s.listeners_[i];
        const bool bit = (s.open_[i / 64] >> (i % 64) & 1) != 0;
        if (bit != (l.edge == Edge::Pos && gate_flags_[l.idx] == 0)) {
            return false;
        }
    }
    return true;
}

bool Scheduler::commit_and_notify(std::uint32_t ref) {
    // Most changed commits reach no listener (a data bus, a status word):
    // those skip the fan-out call.
    const std::uint32_t slot = SignalStore::slot_of(ref);
    switch (SignalStore::kind_of(ref)) {
        case SignalStore::kLogic: {
            SignalBase* s = store_.logic_owner[slot];
            if (s != nullptr) s->update_requested_ = false;
            const std::uint8_t cur = store_.logic_cur[slot];
            const std::uint8_t nxt = store_.logic_next[slot];
            if (nxt == cur) return false;
            store_.logic_cur[slot] = nxt;
            if (s != nullptr && !s->listeners_.empty()) {
                constexpr auto k1 = static_cast<std::uint8_t>(Logic::L1);
                constexpr auto k0 = static_cast<std::uint8_t>(Logic::L0);
                s->notify_listeners(nxt == k1, nxt == k0);
            }
            return true;
        }
        case SignalStore::kVec: {
            SignalBase* s = store_.vec_owner[slot];
            if (s != nullptr) s->update_requested_ = false;
            const std::uint64_t nval = store_.vec_next_val[slot];
            const std::uint64_t nunk = store_.vec_next_unk[slot];
            if (nval == store_.vec_cur_val[slot] &&
                nunk == store_.vec_cur_unk[slot]) {
                return false;
            }
            store_.vec_cur_val[slot] = nval;
            store_.vec_cur_unk[slot] = nunk;
            if (s != nullptr && !s->listeners_.empty()) {
                s->notify_listeners(false, false);
            }
            return true;
        }
        case SignalStore::kWord: {
            SignalBase* s = store_.word_owner[slot];
            if (s != nullptr) s->update_requested_ = false;
            const std::uint64_t nxt = store_.word_next[slot];
            if (nxt == store_.word_cur[slot]) return false;
            store_.word_cur[slot] = nxt;
            if (s != nullptr && !s->listeners_.empty()) {
                s->notify_listeners(false, false);
            }
            return true;
        }
    }
    return false;
}

void Scheduler::settle() {
    while (!runnable_.empty() || !updates_.empty() || edge_sig_ != nullptr) {
        ++stats.delta_cycles;

        // Evaluate phase: walk the rising edge toggle_in_place() recorded,
        // or run every process queued in the previous delta (never both:
        // the edge is recorded onto an idle kernel, and this first phase
        // consumes it). A gated process is skipped here rather than at
        // fan-out, so the delta still counts and an earlier process's
        // wake() in this same delta still lets it run (DESIGN.md "Activity
        // gating").
        if (edge_sig_ != nullptr) {
            assert(runnable_.empty());
            run_edge();
        } else {
            run_scratch_.swap(runnable_);
            for (Process* p : run_scratch_) {
                sched_flags_[p->index_] = 0;
                if (open(p->index_)) p->invoke();
            }
            run_scratch_.clear();
        }

        // Update phase: commit pending values straight from the
        // struct-of-arrays store (no virtual dispatch); changes queue their
        // listeners into runnable_ for the next delta.
        upd_scratch_.swap(updates_);
        for (const std::uint32_t ref : upd_scratch_) {
            if (commit_and_notify(ref)) ++stats.signal_updates;
        }
        upd_scratch_.clear();
    }
}

// Tracer::sample is declared in trace.hpp; call through a thunk to avoid a
// header dependency cycle.
void tracer_sample_thunk(Tracer*, Time);

void Scheduler::sample_tracer() {
    // After all deltas settle, so each timestamp appears once.
    if (tracer_ != nullptr) tracer_sample_thunk(tracer_, now_);
}

void Scheduler::toggle_in_place(TimedEvent* ev, Time bound) {
    constexpr auto k1 = static_cast<std::uint8_t>(Logic::L1);
    constexpr auto k0 = static_cast<std::uint8_t>(Logic::L0);
    do {
        SignalBase* s = ev->toggles_;
        assert(edge_sig_ == nullptr && "settle() walks every recorded edge");
        assert(SignalStore::kind_of(s->ref_) == SignalStore::kLogic);
        now_ = ev->time_;
        const std::uint32_t slot = SignalStore::slot_of(s->ref_);
        const bool rising = store_.logic_cur[slot] != k1;
        store_.logic_cur[slot] = rising ? k1 : k0;
        store_.logic_next[slot] = store_.logic_cur[slot];
        // The timestep, its one timed event, and the delta that fire()'s
        // write would commit in: the counts are the same on either path.
        ++stats.time_steps;
        ++stats.timed_events;
        ++stats.delta_cycles;
        ++stats.signal_updates;
        // Before settling, as fire() reschedules before the deltas run, so
        // a body's schedule_at() for the same future time orders after it.
        queue_.reschedule_front(now_ + ev->half_);
        // A fall of a posedge-only signal wakes nobody.
        if (rising) {
            assert(runnable_.empty() && updates_.empty() &&
                   "an edge is recorded only onto an idle kernel");
            edge_sig_ = s;
            settle();
        }
        sample_tracer();
        // A body may have queued work, scheduled a closure or requested a
        // stop: the next toggle re-checks.
        ev = in_place_front(bound);
    } while (ev != nullptr);
}

void Scheduler::fire_step() {
    TimedEvent* ev = queue_.pop_step(now_);
    ++stats.time_steps;
    // Fire the chain popped for this timestep. Events scheduled while it
    // runs — including at the current time — land in the queue for a later
    // timestep, exactly as with the old per-timestamp vectors.
    while (ev != nullptr) {
        TimedEvent* next = ev->next_;
        ev->next_ = nullptr;
        ev->pending_ = false;
        ++stats.timed_events;
        ev->fire();
        ev = next;
    }
    settle();
    sample_tracer();
}

bool Scheduler::advance() {
    Time next = 0;
    if (stop_requested_ || !queue_.peek_next(next)) return false;
    if (TimedEvent* ev = in_place_front(next)) {
        toggle_in_place(ev, next);
    } else {
        fire_step();
    }
    return true;
}

void Scheduler::run_until(Time t) {
    Time next = 0;
    while (!stop_requested_ && queue_.peek_next(next) && next <= t) {
        if (TimedEvent* ev = in_place_front(t)) {
            toggle_in_place(ev, t);
        } else {
            fire_step();
        }
    }
    if (!stop_requested_ && t > now_) now_ = t;
}

void Scheduler::run() {
    while (advance()) {
    }
}

void Scheduler::enable_profiling() {
    // A body would replace its own running std::function.
    assert(run_scratch_.empty() && walk_end_ == 0 && "not from a body");
    if (profiling_) return;
    profiling_ = true;
    for (Process* p : procs_) p->time_body();
}

void Scheduler::request_stop(const std::string& reason) {
    if (!stop_requested_) {
        stop_requested_ = true;
        stop_reason_ = reason;
    }
}

void Scheduler::set_tracer(Tracer* t) {
    tracer_ = t;
    if (t != nullptr) {
        extern void tracer_header_thunk(Tracer*);
        tracer_header_thunk(t);
    }
}

void Scheduler::report(std::string source, std::string message) {
    // Bound storage so a pathological run (or a hot benchmark loop) cannot
    // grow the log without limit; the count of dropped entries is kept.
    if (diags_.size() >= kMaxDiags) {
        ++dropped_diags_;
        return;
    }
    diags_.push_back(Diag{now_, std::move(source), std::move(message)});
}

void Scheduler::unregister_signal(SignalBase* s) {
    // Teardown path (and the rare dynamically re-created module): signals
    // die in reverse construction order, so scanning from the back is O(1)
    // in practice.
    for (auto it = signals_.rbegin(); it != signals_.rend(); ++it) {
        if (*it == s) {
            signals_.erase(std::next(it).base());
            return;
        }
    }
}

// ------------------------------------------------------------- checkpoint

bool Scheduler::ckpt_quiescent() const {
    assert(edge_sig_ == nullptr && "no edge outlives settle()");
    if (!runnable_.empty() || !updates_.empty()) return false;
    // Every pooled closure node must be on the free list: a pending
    // schedule_at() closure cannot be serialized.
    std::size_t free_count = 0;
    for (const TimedEvent* e = fn_free_; e != nullptr; e = e->next_) {
        ++free_count;
    }
    return free_count == fn_pool_.size();
}

void Scheduler::ckpt_save(SnapWriter& w) const {
    w.u64(now_);
    w.bool8(stop_requested_);
    w.str(stop_reason_);
    w.u64(stats.timed_events);
    w.u64(stats.delta_cycles);
    w.u64(stats.proc_invocations);
    w.u64(stats.signal_updates);
    w.u64(stats.time_steps);
    w.u64(dropped_diags_);
    w.u32(static_cast<std::uint32_t>(diags_.size()));
    for (const Diag& d : diags_) {
        w.u64(d.time);
        w.str(d.source);
        w.str(d.message);
    }
    w.u32(static_cast<std::uint32_t>(procs_.size()));
    for (std::size_t i = 0; i < procs_.size(); ++i) {
        w.bool8(gate_flags_[i] != 0);
        w.u64(skipped_of(*procs_[i]));
    }
}

bool Scheduler::ckpt_restore(SnapReader& r) {
    ckpt_clear_events();
    ckpt_quiesce();
    now_ = r.u64();
    const std::uint8_t stop = r.u8();
    if (stop > 1) return false;
    stop_requested_ = stop != 0;
    stop_reason_ = r.str();
    stats.timed_events = r.u64();
    stats.delta_cycles = r.u64();
    stats.proc_invocations = r.u64();
    stats.signal_updates = r.u64();
    stats.time_steps = r.u64();
    dropped_diags_ = r.u64();
    // report() stores kMaxDiags before it drops any.
    const std::uint32_t n = r.u32();
    if (n > kMaxDiags || (dropped_diags_ != 0 && n < kMaxDiags)) return false;
    diags_.clear();
    for (std::uint32_t i = 0; i < n && r.ok_so_far(); ++i) {
        Diag d;
        d.time = r.u64();
        d.source = r.str();
        d.message = r.str();
        diags_.push_back(std::move(d));
    }
    if (r.u32() != procs_.size()) return false;
    for (std::size_t i = 0; i < procs_.size(); ++i) {
        const std::uint8_t gated = r.u8();
        if (gated > 1) return false;
        // The saved count is the whole skipped(): load it as the eager
        // count, mark every Pos listener's walks as its own, and set its
        // open bits from the restored gate.
        gate_flags_[i] = gated;
        skip_counts_[i] = r.u64();
        for (const Process::PosSlot& slot : procs_[i]->pos_slots_) {
            slot.sig->listeners_[slot.pos].ran = slot.sig->walks_;
            slot.sig->set_open(slot.pos, gated == 0);
        }
    }
    return r.ok_so_far();
}

void Scheduler::ckpt_clear_events() {
    queue_.clear();
    // Every closure node returns to the free list (any that were pending
    // belonged to the discarded pre-restore timeline).
    fn_free_ = nullptr;
    for (auto& ev : fn_pool_) {
        ev->fn = nullptr;
        ev->pending_ = false;
        ev->next_ = fn_free_;
        fn_free_ = ev.get();
    }
}

void Scheduler::ckpt_quiesce() {
    for (Process* p : runnable_) sched_flags_[p->index_] = 0;
    runnable_.clear();
    assert(edge_sig_ == nullptr && "no edge outlives settle()");
    for (const std::uint32_t ref : updates_) {
        if (SignalBase* s = store_.owner_of(ref)) s->update_requested_ = false;
    }
    updates_.clear();
}

std::uint64_t SignalBase::snap_id() const {
    if (snap_id_ == 0) {
        snap_id_ = snap_hash64_u64(trace_width(), snap_hash64(name_));
    }
    return snap_id_;
}

void Scheduler::ckpt_save_signals(SnapWriter& w) const {
    w.u32(static_cast<std::uint32_t>(signals_.size()));
    for (const SignalBase* s : signals_) {
        w.u64(s->snap_id());
        s->snap_save(w);
    }
}

bool Scheduler::ckpt_restore_signals(SnapReader& r) {
    const std::uint32_t n = r.u32();
    if (n != signals_.size()) return false;
    for (SignalBase* s : signals_) {
        if (r.u64() != s->snap_id()) return false;
        if (!s->snap_restore(r)) return false;
    }
    return r.ok_so_far();
}

bool Scheduler::has_diag_from(const std::string& needle) const {
    for (const Diag& d : diags_) {
        if (d.source.find(needle) != std::string::npos) return true;
    }
    return false;
}

}  // namespace rtlsim
