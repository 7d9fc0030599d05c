#include "scheduler.hpp"

#include <cassert>
#include <utility>

#include "logic.hpp"

namespace rtlsim {

// ---------------------------------------------------------------- Process

Process::Process(Scheduler& sch, std::string name, std::function<void()> fn)
    : sch_(sch), name_(std::move(name)), fn_(std::move(fn)) {
    sch_.register_process(this);
}

void Process::notify() { sch_.notify_process(this, index_); }

bool Process::run_profiled() {
    if (gated_) {
        ++skipped_;
        return false;
    }
    ++invocations_;
    const auto t0 = std::chrono::steady_clock::now();
    fn_();
    self_time_ += std::chrono::steady_clock::now() - t0;
    return true;
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
            case Edge::Wake: l.proc->wake(); break;
        }
    }
}

void SignalBase::request_update() {
    if (!update_requested_) {
        update_requested_ = true;
        sch_.updates_.push_back(ref_);
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
    queue_.push(ev, now_);
}

bool Scheduler::commit_and_notify(std::uint32_t ref) {
    const std::uint32_t slot = SignalStore::slot_of(ref);
    switch (SignalStore::kind_of(ref)) {
        case SignalStore::kLogic: {
            SignalBase* s = store_.logic_owner[slot];
            if (s != nullptr) s->update_requested_ = false;
            const std::uint8_t cur = store_.logic_cur[slot];
            const std::uint8_t nxt = store_.logic_next[slot];
            if (nxt == cur) return false;
            store_.logic_cur[slot] = nxt;
            if (s != nullptr) {
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
            if (s != nullptr) s->notify_listeners(false, false);
            return true;
        }
        case SignalStore::kWord: {
            SignalBase* s = store_.word_owner[slot];
            if (s != nullptr) s->update_requested_ = false;
            const std::uint64_t nxt = store_.word_next[slot];
            if (nxt == store_.word_cur[slot]) return false;
            store_.word_cur[slot] = nxt;
            if (s != nullptr) s->notify_listeners(false, false);
            return true;
        }
    }
    return false;
}

void Scheduler::settle() {
    while (!runnable_.empty() || !updates_.empty()) {
        ++stats.delta_cycles;

        // Evaluate phase: run every process queued in the previous delta.
        // The profiling branch is taken once per delta, not per process.
        // A gated process is skipped here rather than at fan-out, so the
        // delta still counts and an earlier process's wake() in this same
        // delta still lets it run (DESIGN.md "Activity gating").
        run_scratch_.swap(runnable_);
        if (profiling_) {
            for (Process* p : run_scratch_) {
                sched_flags_[p->index_] = 0;
                stats.proc_invocations += p->run_profiled() ? 1 : 0;
            }
        } else {
            for (Process* p : run_scratch_) {
                sched_flags_[p->index_] = 0;
                stats.proc_invocations += p->run() ? 1 : 0;
            }
        }
        run_scratch_.clear();

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

bool Scheduler::advance() {
    if (stop_requested_) return false;
    TimedEvent* ev = queue_.pop_step(now_);
    if (ev == nullptr) return false;
    ++stats.time_steps;

    // Fire the chain popped for this timestep. Events scheduled while it
    // runs — including at the current time — land in the queue for a later
    // advance(), exactly as with the old per-timestamp vectors.
    while (ev != nullptr) {
        TimedEvent* next = ev->next_;
        ev->next_ = nullptr;
        ev->pending_ = false;
        ++stats.timed_events;
        ev->fire();
        ev = next;
    }
    settle();
    // Tracing happens after all deltas settle so each timestamp appears once.
    if (tracer_ != nullptr) {
        // Tracer::sample is declared in trace.hpp; call through a thunk to
        // avoid a header dependency cycle.
        extern void tracer_sample_thunk(Tracer*, Time);
        tracer_sample_thunk(tracer_, now_);
    }
    return true;
}

void Scheduler::run_until(Time t) {
    Time next = 0;
    while (!stop_requested_ && queue_.peek_next(next) && next <= t) {
        advance();
    }
    if (!stop_requested_) now_ = t;
}

void Scheduler::run() {
    while (advance()) {
    }
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
    for (const Process* p : procs_) {
        w.bool8(p->gated_);
        w.u64(p->skipped_);
    }
}

bool Scheduler::ckpt_restore(SnapReader& r) {
    ckpt_clear_events();
    ckpt_quiesce();
    now_ = r.u64();
    stop_requested_ = r.bool8();
    stop_reason_ = r.str();
    stats.timed_events = r.u64();
    stats.delta_cycles = r.u64();
    stats.proc_invocations = r.u64();
    stats.signal_updates = r.u64();
    stats.time_steps = r.u64();
    dropped_diags_ = r.u64();
    const std::uint32_t n = r.u32();
    diags_.clear();
    for (std::uint32_t i = 0; i < n && r.ok_so_far(); ++i) {
        Diag d;
        d.time = r.u64();
        d.source = r.str();
        d.message = r.str();
        diags_.push_back(std::move(d));
    }
    if (r.u32() != procs_.size()) return false;
    for (Process* p : procs_) {
        const std::uint8_t gated = r.u8();
        if (gated > 1) return false;
        p->gated_ = gated != 0;
        p->skipped_ = r.u64();
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
