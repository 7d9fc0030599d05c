// rtlsim: hierarchical module base class.
#pragma once

#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "scheduler.hpp"
#include "signal.hpp"

namespace rtlsim {

/// One entry of a static sensitivity list.
struct Sens {
    SignalBase* sig;
    Edge edge = Edge::Any;
};

[[nodiscard]] inline Sens posedge(SignalBase& s) { return {&s, Edge::Pos}; }
[[nodiscard]] inline Sens negedge(SignalBase& s) { return {&s, Edge::Neg}; }
[[nodiscard]] inline Sens anyedge(SignalBase& s) { return {&s, Edge::Any}; }
/// Wake source of a gated process: a change reopens its gate without
/// queueing it (see Process::gate()).
[[nodiscard]] inline Sens wake_on(SignalBase& s) { return {&s, Edge::Wake}; }

/// Base class for hardware modules. A module owns its processes and gives
/// them hierarchical names; signals are owned by whoever declares them
/// (usually the module itself or the enclosing testbench).
class Module {
public:
    Module(Scheduler& sch, std::string name, const Module* parent = nullptr)
        : sch_(sch),
          name_(parent != nullptr ? parent->full_name() + "." + name
                                  : std::move(name)) {}

    virtual ~Module() = default;

    Module(const Module&) = delete;
    Module& operator=(const Module&) = delete;

    [[nodiscard]] const std::string& full_name() const noexcept { return name_; }
    [[nodiscard]] Scheduler& scheduler() const noexcept { return sch_; }

protected:
    /// Create a clocked process: runs on each triggering edge, never at
    /// elaboration (registers must not capture before the first real edge).
    Process& sync_proc(const std::string& n, std::function<void()> fn,
                       std::initializer_list<Sens> sens) {
        return make_proc(n, std::move(fn), sens, /*run_at_init=*/false);
    }

    /// Create a combinational process: runs whenever any input changes and
    /// once at elaboration so outputs have defined initial values.
    Process& comb_proc(const std::string& n, std::function<void()> fn,
                       std::initializer_list<Sens> sens) {
        return make_proc(n, std::move(fn), sens, /*run_at_init=*/true);
    }

    /// Emit a checker diagnostic attributed to this module.
    void report(const std::string& message) const {
        sch_.report(name_, message);
    }

    Scheduler& sch_;

private:
    Process& make_proc(const std::string& n, std::function<void()> fn,
                       std::initializer_list<Sens> sens, bool run_at_init) {
        procs_.push_back(
            std::make_unique<Process>(sch_, name_ + "." + n, std::move(fn)));
        Process& p = *procs_.back();
        for (const Sens& s : sens) s.sig->add_listener(p, s.edge);
        if (run_at_init) p.notify();
        return p;
    }

    std::string name_;
    std::vector<std::unique_ptr<Process>> procs_;
};

}  // namespace rtlsim
