// rtlsim: event-driven simulation scheduler with delta cycles.
//
// The kernel implements the classic two-phase (evaluate/update) discrete
// event semantics of HDL simulators:
//   * processes read the *current* value of signals and write *pending*
//     values (non-blocking assignment semantics);
//   * after the evaluate phase, pending values are committed and value
//     changes notify sensitive processes, which run in the next delta;
//   * when no more deltas are pending, simulated time advances to the next
//     scheduled event (e.g. a clock toggle).
//
// This matches ModelSim's observable behaviour closely enough that the
// ReSim artifacts (X injection, bitstream-timed module swaps) behave as in
// the paper.
//
// Hot-path design (see DESIGN.md "Kernel event path" and §13): timed events
// live in a binary-heap event queue (event.hpp) as intrusive nodes; the
// closure convenience API pools its nodes on a free list; the evaluate and
// update delta queues are double-buffered so no allocation happens at a
// steady state; signal values live in a struct-of-arrays store
// (signal_store.hpp) and commit through a dense packed-reference dirty
// list with no virtual dispatch; and an idle clocked process can gate
// itself so the evaluate loop skips its body until a wake (DESIGN.md
// "Activity gating"). Toggles of a clock whose listeners all want only its
// rising edge, alone at the front of the queue with nothing else due, run
// in place, cycle after cycle in one loop: no pop, push, fire() or commit
// delta. A fall wakes nobody, and a rise runs the open members in place,
// found by a bit per listener, instead of queueing them one by one; every
// other change fans out through the ordinary queue (DESIGN.md "Kernel
// event path"). Profiling times each body from inside it, so a profiled
// run takes the same path as any other.
//
// Evaluation is sequential; DESIGN.md §13 records why.
#pragma once

#include <cassert>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "event.hpp"
#include "signal_store.hpp"
#include "sim_time.hpp"
#include "snapshot.hpp"
#include "stats.hpp"

namespace rtlsim {

class Process;
class Scheduler;
class SignalBase;
class Tracer;

/// One diagnostic emitted by a checker/monitor during simulation. The
/// fault-detection harness decides "bug detected" by inspecting these.
struct Diag {
    Time time = 0;
    std::string source;
    std::string message;
};

/// Which transitions of a signal trigger a sensitive process.
enum class Edge : std::uint8_t {
    Any,   ///< any committed value change
    Pos,   ///< transition to a defined 1 (Logic signals only)
    Neg,   ///< transition to a defined 0 (Logic signals only)
    Wake,  ///< any committed change reopens a gated process; never queues it
};

/// A static-sensitivity process: a callback re-run whenever one of the
/// signals it is sensitive to changes (filtered by edge). Equivalent to a
/// SystemC SC_METHOD / a Verilog always block with a static sensitivity list.
class Process {
public:
    Process(Scheduler& sch, std::string name, std::function<void()> fn);

    Process(const Process&) = delete;
    Process& operator=(const Process&) = delete;

    /// Queue this process to run in the next evaluate phase (idempotent
    /// within a delta).
    void notify();

    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    [[nodiscard]] std::uint64_t invocations() const noexcept { return invocations_; }

    // --- activity gating (DESIGN.md "Activity gating") --------------------
    // The gate flag and the eager skipped count live in the scheduler's
    // dense per-process arrays, so the evaluate loop tests a gate without
    // loading the Process; each Edge::Pos listener position also holds an
    // open bit in its signal, which the in-place walk reads.
    /// Called by a clocked body whose next run would change nothing: the
    /// evaluate loop skips the process, uncounted, until a wake. A wake is
    /// a committed change on an Edge::Wake signal or an explicit wake().
    void gate() noexcept;
    /// Reopen the gate. A process not yet evaluated in the current delta
    /// still runs in it; otherwise it runs at its next trigger.
    void wake() noexcept;
    [[nodiscard]] bool gated() const noexcept;
    /// Triggers swallowed while gated: what invocations() would have added.
    /// Per-cycle counters of a gated module add this to stay exact. Exact at
    /// any point, also from a body in the middle of a walk.
    [[nodiscard]] std::uint64_t skipped() const noexcept;

    /// Dense registration index (assigned at construction; stable for the
    /// scheduler's lifetime). Indexes the scheduler's flat per-process
    /// arrays: scheduled flags, gate flags and skipped counts.
    [[nodiscard]] std::uint32_t index() const noexcept { return index_; }

    /// Accumulated wall-clock time in the body since
    /// Scheduler::enable_profiling(); zero without it. Used by the overhead
    /// experiment (E3).
    [[nodiscard]] std::chrono::nanoseconds self_time() const noexcept {
        return self_time_;
    }

private:
    friend class Scheduler;
    friend class SignalBase;

    /// Run the body of an open process; the scheduler tests the gate
    /// first. A profiled body times itself (time_body()).
    void invoke() {
        ++invocations_;
        fn_();
    }

    /// Wrap the body in a steady_clock pair that adds to self_time_.
    void time_body();

    /// One of this process's Edge::Pos listener positions.
    struct PosSlot {
        SignalBase* sig;
        std::uint32_t pos;
    };

    Scheduler& sch_;
    std::string name_;
    std::function<void()> fn_;
    std::uint32_t index_ = 0;
    std::uint64_t invocations_ = 0;
    std::chrono::nanoseconds self_time_{0};
    /// Where gate() and wake() keep the signals' open bits in step.
    std::vector<PosSlot> pos_slots_;
};

/// Base class for all signals: owns the sensitivity fan-out, the packed
/// reference into the scheduler's struct-of-arrays value store, and the
/// pending-update bookkeeping. Typed accessors live in Signal<T>.
class SignalBase {
public:
    SignalBase(Scheduler& sch, std::string name);
    virtual ~SignalBase();

    SignalBase(const SignalBase&) = delete;
    SignalBase& operator=(const SignalBase&) = delete;

    [[nodiscard]] const std::string& name() const noexcept { return name_; }

    /// Register a process to be notified on changes of this signal. The
    /// process's flat index is cached in the listener entry so fan-out
    /// touches the scheduled-flag array without chasing the Process object.
    /// A repeated (process, edge) pair is dropped: the scheduled flag makes
    /// it a no-op, and the in-place rising-edge walk needs each process once.
    void add_listener(Process& p, Edge e);

    /// Packed (kind, slot) reference into the scheduler's SignalStore.
    [[nodiscard]] std::uint32_t store_ref() const noexcept { return ref_; }

    // --- tracing interface (VCD) ---------------------------------------
    /// Bit width for the VCD $var declaration.
    [[nodiscard]] virtual unsigned trace_width() const = 0;
    /// Current value as a binary string, MSB first ('0','1','x','z').
    [[nodiscard]] virtual std::string trace_value() const = 0;

    // --- checkpoint interface (see src/ckpt/) ---------------------------
    /// Serialize the committed value. Checkpoints are taken at quiescent
    /// points (no pending updates), so the pending value equals it.
    virtual void snap_save(SnapWriter& w) const = 0;
    /// Restore the value with init() semantics: current and pending value
    /// are both set, no listeners are notified.
    virtual bool snap_restore(SnapReader& r) = 0;
    /// Identity hash recorded next to each signal's value in a snapshot
    /// (FNV over name + width). Name and width are fixed after
    /// elaboration, so the hash is computed once and cached.
    [[nodiscard]] std::uint64_t snap_id() const;

protected:
    friend class Scheduler;

    /// Fan out a committed change to sensitive processes.
    void notify_listeners(bool rising, bool falling);

    /// Ask the scheduler to commit this signal's pending value at the end
    /// of the current delta (idempotent within a delta). Inline: every
    /// changing write() calls it.
    void request_update();

    void set_store_ref(std::uint32_t r) noexcept { ref_ = r; }

    Scheduler& sch_;

private:
    struct Listener {
        Process* proc;
        std::uint32_t idx;  ///< cached proc->index()
        Edge edge;
        /// Edge::Pos: walks_ when the member registered, plus one for each
        /// walk that ran it, so walks_ - ran is the walks it was gated for.
        std::uint64_t ran;
    };

    void set_open(std::uint32_t pos, bool open) noexcept {
        const std::uint64_t bit = std::uint64_t{1} << (pos % 64);
        std::uint64_t& w = open_[pos / 64];
        w = open ? (w | bit) : (w & ~bit);
    }

    std::string name_;
    std::vector<Listener> listeners_;
    /// The open set: bit i of word i / 64 is set iff listener i is
    /// Edge::Pos and its process's gate is open.
    std::vector<std::uint64_t> open_;
    /// Rising edges of this signal walked in place (Scheduler::run_edge).
    std::uint64_t walks_ = 0;
    std::uint32_t ref_ = SignalStore::kInvalidRef;
    bool update_requested_ = false;
    /// At least one listener, and every listener is Edge::Pos: only a
    /// rising commit wakes anyone, so a toggle of this signal can run in
    /// place (Scheduler::in_place_front, DESIGN.md "Kernel event path").
    bool pos_only_ = false;
    mutable std::uint64_t snap_id_ = 0;  ///< 0 = not yet computed
};

/// The simulation kernel: event queue + delta queues +
/// struct-of-arrays signal store + diagnostics.
class Scheduler {
public:
    Scheduler() = default;

    Scheduler(const Scheduler&) = delete;
    Scheduler& operator=(const Scheduler&) = delete;

    [[nodiscard]] Time now() const noexcept { return now_; }

    /// Schedule a callback at an absolute simulated time (must be >= now).
    /// The closure is wrapped in a pool-recycled event node; recurring
    /// sources should prefer schedule_event() with a reusable node.
    void schedule_at(Time t, std::function<void()> fn);

    /// Schedule a callback after a relative delay.
    void schedule_in(Time delay, std::function<void()> fn) {
        schedule_at(now_ + delay, std::move(fn));
    }

    /// Schedule an intrusive event node at an absolute time (must be >= now
    /// and the node must not already be pending). Allocation-free; the node
    /// may reschedule itself from fire(). Both preconditions are asserts
    /// only, so a caller that takes `t` from outside bytes (a checkpoint
    /// restore) checks it first. A scheduled node fires; nothing unlinks it
    /// except the drain in ckpt_restore().
    void schedule_event(Time t, TimedEvent& ev) {
        assert(t >= now_ && "cannot schedule events in the past");
        assert(!ev.pending_ && "event is already scheduled");
        ev.time_ = t;
        ev.pending_ = true;
        ev.next_ = nullptr;
        queue_.push(&ev);
    }

    /// Run until the given absolute time (inclusive) or until out of events.
    /// Time never runs backwards: a bound before now() runs nothing and
    /// leaves now() where it is.
    void run_until(Time t);

    /// Run one timestep (all deltas at the next event time).
    /// Returns false when no events remain or a stop was requested.
    bool advance();

    /// Run until no events remain or a stop is requested.
    void run();

    /// Request the simulation to stop at the end of the current timestep;
    /// used by watchdogs and fatal checkers ($finish equivalent). The first
    /// request's reason is kept.
    void request_stop(const std::string& reason);

    [[nodiscard]] bool stop_requested() const noexcept { return stop_requested_; }
    [[nodiscard]] const std::string& stop_reason() const noexcept { return stop_reason_; }

    /// The struct-of-arrays value store backing every Signal<T>.
    [[nodiscard]] SignalStore& signal_store() noexcept { return store_; }
    [[nodiscard]] const SignalStore& signal_store() const noexcept {
        return store_;
    }

    // --- diagnostics -----------------------------------------------------
    /// Record a checker/monitor finding. Simulation continues; fatal
    /// conditions should also call request_stop().
    void report(std::string source, std::string message);

    [[nodiscard]] const std::vector<Diag>& diagnostics() const noexcept {
        return diags_;
    }

    /// Diagnostics beyond the storage bound are counted, not stored.
    static constexpr std::size_t kMaxDiags = 4096;
    [[nodiscard]] std::uint64_t dropped_diagnostics() const noexcept {
        return dropped_diags_;
    }

    /// True when any diagnostic from a source containing `needle` exists.
    [[nodiscard]] bool has_diag_from(const std::string& needle) const;

    // --- profiling ---------------------------------------------------------
    /// Time every process body from now on, at one steady_clock pair per
    /// invocation, into Process::self_time(): each registered process's
    /// body is wrapped, and so is each one registered later. One-way; a
    /// second call does nothing. Call it between runs, not from a body.
    void enable_profiling();
    [[nodiscard]] bool profiling() const noexcept { return profiling_; }

    /// All processes ever registered, for profiling reports.
    [[nodiscard]] const std::vector<Process*>& processes() const noexcept {
        return procs_;
    }

    /// Attach a VCD tracer; writes the header (with current signal values at
    /// time 0) immediately, then samples after every timestep.
    void set_tracer(Tracer* t);

    // --- checkpoint (orchestrated by src/ckpt/) --------------------------
    /// True when the kernel is at a checkpointable quiescent point: no
    /// runnable process, no pending signal update, and no in-flight
    /// schedule_at() closure (closures cannot be serialized; the recurring
    /// event sources — clocks, resets — re-enter the queue on restore).
    [[nodiscard]] bool ckpt_quiescent() const;

    /// Serialize the kernel core: sim time, stop state, stats, diagnostics,
    /// and the gate table (each process's gate flag and skipped(), in
    /// registration order).
    void ckpt_save(SnapWriter& w) const;
    /// Restore the kernel core into a freshly elaborated scheduler: drains
    /// the event queue (elaboration-time schedules), discards any pending
    /// deltas, then restores time/stats/diagnostics/gates. Bytes no save
    /// writes are rejected: a stop byte other than 0/1, more than kMaxDiags
    /// stored diagnostics, a dropped count with fewer than kMaxDiags
    /// stored, a gate table whose length is not the elaborated process
    /// count, or a gate flag other than 0/1. The skipped counts load as
    /// eager counts, with the open bits and ran marks rebuilt to match.
    /// Event sources must re-schedule themselves afterwards
    /// (Clock/ResetGen::ckpt_restore), at times they have checked against
    /// the restored now().
    [[nodiscard]] bool ckpt_restore(SnapReader& r);

    /// Serialize every registered signal (elaboration order), each tagged
    /// with a name+width identity hash so a mismatched design is rejected.
    void ckpt_save_signals(SnapWriter& w) const;
    /// Restore all signal values; false on count/identity mismatch.
    [[nodiscard]] bool ckpt_restore_signals(SnapReader& r);

    /// Drop any queued deltas without running them (restore must not burn
    /// counted delta cycles settling elaboration-time writes).
    void ckpt_quiesce();

    /// Signals in elaboration order (checkpoint + debugging aid).
    [[nodiscard]] const std::vector<SignalBase*>& signals() const noexcept {
        return signals_;
    }

    SimStats stats;

private:
    friend class Process;
    friend class SignalBase;

    /// A pooled closure event backing the schedule_at() convenience API.
    struct FnEvent final : TimedEvent {
        explicit FnEvent(Scheduler& s) : sch(s) {}
        void fire() override;
        Scheduler& sch;
        std::function<void()> fn;
    };

    void notify_process(Process* p, std::uint32_t idx) {
        std::uint8_t& f = sched_flags_[idx];
        if (f == 0) {
            f = 1;
            runnable_.push_back(p);
        }
    }
    /// Process::notify(): as notify_process(), except that a member the
    /// current in-place walk has yet to reach is already due in this delta.
    void notify_from_body(Process* p);
    void register_process(Process* p) {
        p->index_ = static_cast<std::uint32_t>(procs_.size());
        procs_.push_back(p);
        sched_flags_.push_back(0);
        gate_flags_.push_back(0);
        skip_counts_.push_back(0);
        if (profiling_) p->time_body();
    }
    /// Process::gate()/wake(): the gate flag and the process's open bits.
    void set_gate(const Process& p, bool gated) noexcept {
        gate_flags_[p.index_] = gated ? 1 : 0;
        for (const Process::PosSlot& s : p.pos_slots_) {
            s.sig->set_open(s.pos, !gated);
        }
    }
    /// Process::skipped(): the eager count plus the walks each Pos listener
    /// was gated for, less the walk in progress where it has yet to reach.
    [[nodiscard]] std::uint64_t skipped_of(const Process& p) const noexcept;
    /// True when `s` lies on the walk in progress, past the running member.
    [[nodiscard]] bool walk_has_yet_to_reach(
        const Process::PosSlot& s) const noexcept {
        return s.sig == edge_sig_ && s.pos > walk_pos_ && s.pos < walk_end_;
    }
    /// Ordinary evaluate-loop gate test: an open process is counted and
    /// returns true; a gated one counts the trigger as skipped, eagerly.
    bool open(std::uint32_t idx) {
        if (gate_flags_[idx] != 0) {
            ++skip_counts_[idx];
            return false;
        }
        ++stats.proc_invocations;
        return true;
    }
    void register_signal(SignalBase* s) { signals_.push_back(s); }
    void unregister_signal(SignalBase* s);
    /// Commit one dirty signal from the store and fan out the change.
    /// Returns true when the committed value changed.
    bool commit_and_notify(std::uint32_t ref);
    /// Evaluate phase of a recorded rising edge: run the members whose open
    /// bit is set, in listener order, re-reading the live word after each
    /// body so a gate counts as it stands when the walk reaches it.
    void run_edge();
    /// True when every Edge::Pos listener's open bit equals its gate being
    /// open, and no other listener's bit is set (a Debug check).
    [[nodiscard]] bool open_set_in_step(const SignalBase& s) const;
    /// The queue's front when its timestep, due by `bound`, is a toggle that
    /// can run in place, else nullptr: the front is a clock's toggle node
    /// alone at its time, its signal is posedge-only, and nothing else is
    /// due. Test code may write or notify() between run_until() calls (a
    /// write of the clock itself sits in updates_ too). Inline: every
    /// timestep pays it.
    [[nodiscard]] TimedEvent* in_place_front(Time bound) const noexcept {
        TimedEvent* ev = queue_.lone_front();
        if (ev == nullptr || ev->time_ > bound || ev->toggles_ == nullptr ||
            !ev->toggles_->pos_only_ || !runnable_.empty() ||
            !updates_.empty() || stop_requested_) {
            return nullptr;
        }
        return ev;
    }
    /// Run toggles in place from `ev` (in_place_front(bound)) for as long as
    /// in_place_front(bound) finds the next: each toggles the level, counts
    /// what fire() and the commit delta would, moves the node on by half a
    /// period and, on a rise, records the edge and settles it.
    void toggle_in_place(TimedEvent* ev, Time bound);
    /// Pop the earliest timestep (the queue is not empty), fire its events,
    /// settle and sample the tracer.
    void fire_step();
    /// Sample an attached tracer once a timestep has settled.
    void sample_tracer();
    /// Drain the event queue and rebuild the closure-event free list.
    void ckpt_clear_events();
    void recycle(FnEvent* ev) noexcept {
        ev->next_ = fn_free_;
        fn_free_ = ev;
    }

    /// Run delta cycles until no process is runnable and no update pending.
    void settle();

    Time now_ = 0;
    bool stop_requested_ = false;
    std::string stop_reason_;
    bool profiling_ = false;

    EventQueue queue_;
    FnEvent* fn_free_ = nullptr;  ///< free list threaded through next_
    std::vector<std::unique_ptr<FnEvent>> fn_pool_;

    SignalStore store_;

    // Delta queues, double-buffered: settle() swaps the live queue with the
    // matching scratch buffer so both retain capacity across deltas.
    std::vector<Process*> runnable_;
    std::vector<Process*> run_scratch_;
    std::vector<std::uint32_t> updates_;
    std::vector<std::uint32_t> upd_scratch_;

    /// Flat scheduled flags indexed by Process::index(): the fan-out hot
    /// loop tests/sets one dense byte instead of touching each Process.
    std::vector<std::uint8_t> sched_flags_;
    /// Gate flags and the ordinary queue's skipped counts, indexed the same
    /// way. The in-place walk never visits a gated member, so its skips are
    /// derived from the walk counts instead (skipped_of()).
    std::vector<std::uint8_t> gate_flags_;
    std::vector<std::uint64_t> skip_counts_;

    /// The rising edge the next evaluate phase walks in place, and while it
    /// runs the running member's position and the walk's end (0 outside a
    /// walk). Only toggle_in_place() records an edge, onto an idle kernel,
    /// and the first evaluate phase of the settle() it then calls consumes
    /// it, so no edge outlives that settle(). Every other rise fans out.
    SignalBase* edge_sig_ = nullptr;
    std::size_t walk_pos_ = 0;
    std::size_t walk_end_ = 0;

    std::vector<Process*> procs_;
    std::vector<SignalBase*> signals_;
    std::vector<Diag> diags_;
    std::uint64_t dropped_diags_ = 0;
    Tracer* tracer_ = nullptr;
};

inline void SignalBase::request_update() {
    if (!update_requested_) {
        update_requested_ = true;
        sch_.updates_.push_back(ref_);
    }
}

inline void Process::gate() noexcept { sch_.set_gate(*this, true); }
inline void Process::wake() noexcept { sch_.set_gate(*this, false); }
inline bool Process::gated() const noexcept {
    return sch_.gate_flags_[index_] != 0;
}
inline std::uint64_t Process::skipped() const noexcept {
    return sch_.skipped_of(*this);
}

}  // namespace rtlsim
