// PowerPC-subset instruction set simulator (ISS).
//
// Plays the role of the IBM PowerPC ISS the paper co-simulated with the RTL:
// the firmware (drivers + ISRs + pipelined main loop) executes as real
// machine code while the hardware runs cycle-accurately around it.
//
// Timing model, documented for the Table II reproduction:
//   * 1 instruction per bus clock when no memory operand (models cached
//     fetch on the PPC405's I-cache; the vendor ISS similarly decoupled
//     fetch from the bus);
//   * every data load/store is a single-beat PLB transaction through the
//     CPU's master port (word ops one transaction; sub-word stores are
//     read-modify-write, two transactions);
//   * mfdcr/mtdcr stall for the DCR ring latency;
//   * external interrupts are sampled between instructions; MSR[EE],
//     SRR0/SRR1 and rfi follow the 405 exception model with EVPR = 0.
//
// Execution engines (Config::engine):
//   * kInterp — the retained reference interpreter: fetch + decode + execute
//     every instruction on every posedge. The oracle half of the lockstep
//     differential tests.
//   * kCached (default) — per-cycle execution out of the basic-block decode
//     cache (src/isa/decode.hpp): one micro-op per posedge, re-validated
//     against the owning memory page's write generation, falling back to
//     the interpreter for bus ops, traps, MSR writes and illegal words.
//     Cycle-, trace- and diagnostic-identical to kInterp by construction.
//
// Both engines retire at most one instruction per posedge: the CPU shares
// its clock with every other module of the design, so it never runs ahead
// of the hardware it drives.
//
// Syscalls: the Power `sc` instruction traps to HostIo (src/isa/syscall.hpp)
// with the genuine SRR0/SRR1 clobber — which is exactly why `sc` inside an
// ISR is one of the catalogued software bugs.
//
// Verification hooks: fetching undefined (X) memory, an X level on the
// external interrupt pin, and DCR reads returning X are all reported to the
// scheduler's diagnostics — these are exactly the software-visible symptoms
// of the case study's isolation bugs.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>

#include "bus/dcr.hpp"
#include "bus/memory.hpp"
#include "bus/plb.hpp"
#include "decode.hpp"
#include "kernel/kernel.hpp"
#include "syscall.hpp"

namespace autovision::isa {

using rtlsim::Logic;
using rtlsim::Module;
using rtlsim::Scheduler;
using rtlsim::Signal;

class PpcCpu final : public Module {
public:
    struct Config {
        std::uint32_t reset_pc = 0x0000'1000;
        /// Upper bound on reported X-related diagnostics (spam control).
        unsigned x_report_limit = 5;
        /// Execution engine; kCached is the default and is cycle-identical
        /// to the interpreter (kInterp stays as the lockstep oracle).
        enum class Engine : std::uint8_t { kInterp, kCached };
        Engine engine = Engine::kCached;
    };

    PpcCpu(Scheduler& sch, const std::string& name, Signal<Logic>& clk,
           Signal<Logic>& rst, PlbMasterPort& port, DcrChain& dcr,
           Memory& imem, Signal<Logic>& ext_irq, Config cfg);

    // --- introspection (testbench/backdoor) ------------------------------
    [[nodiscard]] std::uint32_t gpr(unsigned i) const { return st_.gpr[i]; }
    void set_gpr(unsigned i, std::uint32_t v) { st_.gpr[i] = v; }
    [[nodiscard]] std::uint32_t pc() const { return st_.pc; }
    void set_pc(std::uint32_t pc) { st_.pc = pc; }
    [[nodiscard]] std::uint32_t msr() const { return st_.msr; }
    [[nodiscard]] std::uint32_t lr() const { return st_.lr; }
    [[nodiscard]] std::uint32_t ctr() const { return st_.ctr; }
    [[nodiscard]] std::uint32_t cr0() const { return st_.cr0; }

    /// Whole architectural register file as a comparable value (the
    /// lockstep differential tests diff this wholesale).
    [[nodiscard]] const ArchRegs& arch_state() const { return st_; }

    [[nodiscard]] std::uint64_t instructions() const { return icount_; }
    [[nodiscard]] std::uint64_t interrupts_taken() const { return irqs_; }

    /// True while the CPU spins on a branch-to-self with interrupts either
    /// disabled or not pending — the firmware's "done/idle" convention.
    [[nodiscard]] bool halted() const { return st_.halted; }

    /// Host-IO side of the syscall layer (console output, exit latch).
    [[nodiscard]] const HostIo& host_io() const { return host_; }

    /// Observability: every retired `sc` records an obs::EventKind::kSyscall
    /// (a = call number, b = result, region = 1 when at ISR depth). Both
    /// execution engines trap through the same interpreter path, so the
    /// event stream is engine-invariant. Null disables (the default).
    void set_observer(obs::EventRecorder* rec) { obs_ = rec; }

    /// Decode-cache statistics (bench/regression introspection).
    [[nodiscard]] const DecodeCache& decode_cache() const { return cache_; }

    /// Optional per-instruction trace hook (pc, raw instruction). Not part
    /// of the checkpoint image; consumers re-install it after restore.
    std::function<void(std::uint32_t, std::uint32_t)> trace;

    // --- checkpoint ------------------------------------------------------
    /// Architectural registers + the pending memory/DCR operation
    /// descriptors; an op that was mid-flight at save time resumes on the
    /// restored bus state with freshly re-armed completion closures. The
    /// decode cache is never serialized — restore flushes it and redecodes
    /// from restored memory. The section ends with the retired sleep-window
    /// fields (DESIGN.md §11): zero bytes that restore requires.
    void ckpt_save(rtlsim::SnapWriter& w) const;
    [[nodiscard]] bool ckpt_restore(rtlsim::SnapReader& r);

private:
    void on_clock();
    void take_interrupt();
    void execute(std::uint32_t insn);
    void exec_op31(std::uint32_t insn);
    void set_cr0(std::int32_t v);
    void illegal(std::uint32_t insn, const std::string& why);
    void do_syscall();

    bool step_cached();  ///< one micro-op via the decode cache; false -> fetch path

    // Data-side memory operations (through the PLB).
    void load(std::uint32_t ea, unsigned bytes, std::uint32_t rt);
    void store(std::uint32_t ea, unsigned bytes, std::uint32_t value);
    // Completion handlers: operands live in the descriptors below so the
    // same code serves the cold path and a post-restore resumption.
    void finish_load(rtlsim::Word w);
    void rmw_merge(rtlsim::Word w);
    void issue_rmw_write();
    void finish_mfdcr(rtlsim::Word w);

    Config cfg_;
    Signal<Logic>& clk_;
    Signal<Logic>& rst_;
    DcrChain& dcr_;
    Memory& imem_;
    Signal<Logic>& ext_irq_;
    DmaMaster dma_;

    ArchRegs st_;  ///< architectural register file

    bool in_reset_ = true;
    bool fatal_ = false;
    bool mem_busy_ = false;   ///< PLB data op in flight
    bool dcr_busy_ = false;   ///< DCR ring op in flight
    std::uint64_t icount_ = 0;
    std::uint64_t irqs_ = 0;
    unsigned x_reports_ = 0;

    HostIo host_;
    std::uint32_t isr_depth_ = 0;  ///< take_interrupt/rfi nesting (syscall-in-ISR)
    obs::EventRecorder* obs_ = nullptr;

    /// Width of the retired sleep-window fields at the end of the section:
    /// a flag, window length, start time, wake time and wake-pending flag.
    static constexpr unsigned kRetiredSleepBytes = 1 + 8 + 8 + 8 + 1;

    // Decode cache + per-cycle cursor. The cursor is a pure accelerator:
    // it is valid only while it agrees with st_.pc and the block is fresh,
    // so dropping it (nullptr) is always safe.
    DecodeCache cache_;
    const DecodeCache::Block* cur_blk_ = nullptr;
    std::size_t cur_idx_ = 0;

    // Pending data-side operation descriptor. The DMA closures capture only
    // `this` and read their operands from here, which is what makes a
    // mid-operation checkpoint re-armable.
    struct MemOp {
        enum class Kind : std::uint8_t { None, Load, Store4, RmwRead, RmwWrite };
        Kind kind = Kind::None;
        std::uint32_t ea = 0;
        std::uint32_t bytes = 0;
        std::uint32_t rt = 0;     ///< load destination register
        std::uint32_t value = 0;  ///< store data / RMW merge accumulator
    } mem_;

    // Pending DCR-ring operation descriptor (same rationale).
    struct DcrOp {
        enum class Kind : std::uint8_t { None, Read, Write };
        Kind kind = Kind::None;
        std::uint32_t dcrn = 0;
        std::uint32_t rt = 0;
    } dcrop_;
};

}  // namespace autovision::isa
