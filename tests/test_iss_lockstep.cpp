// Lockstep differential tests for the ISS execution engines.
//
// The decode-cache engine (kCached) claims to be cycle- and state-identical
// to the retained reference interpreter (kInterp). These tests pin that
// claim the hard way: two complete CPU testbenches execute the same
// assembler-generated program side by side and the whole architectural
// register file (ArchRegs: GPRs, PC, MSR, CR0, LR, CTR, XER, SRR0/1, halt)
// is diffed after every clock cycle.
//
// The program generator draws from a single seed and deliberately includes
// the three hazards the decode cache must survive:
//   * self-modifying code — stores of valid instruction words into patch
//     slots the control flow re-executes (page write-generation must
//     invalidate the cached block);
//   * mid-block external interrupts — IRQ pulses at arbitrary, off-phase
//     times landing in the middle of cached basic blocks (interrupts are
//     sampled between instructions in both engines);
//   * syscalls — `sc` traps (putchar/clock/yield and the final exit) whose
//     SRR clobber and host-IO side effects must agree byte-for-byte.
//
// The randomized suite has two arms: eight seeds with loads and stores in
// the body, and four bus-free seeds (longer straight-line runs between
// traps, IRQ pulses landing inside them). Across both the two engines
// retire 119,177 instructions in lockstep; the floor below asserts 108k.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "bus/dcr.hpp"
#include "bus/intc.hpp"
#include "bus/memory.hpp"
#include "bus/plb.hpp"
#include "isa/assembler.hpp"
#include "isa/cpu.hpp"
#include "kernel/kernel.hpp"

namespace autovision::isa {
namespace {

using rtlsim::Clock;
using rtlsim::Logic;
using rtlsim::NS;
using rtlsim::ResetGen;
using rtlsim::Scheduler;
using rtlsim::Signal;

constexpr rtlsim::Time kClk = 10 * NS;
using Engine = PpcCpu::Config::Engine;

/// Full CPU testbench with an external interrupt line into the INTC.
struct LockTb {
    Scheduler sch;
    Clock clk{sch, "clk", kClk};
    ResetGen rst{sch, "rst", 3 * kClk};
    Signal<Logic> line{sch, "line", Logic::L0};
    Memory mem;
    Plb plb{sch, "plb", clk.out, rst.out, Plb::Config{1, 16, 5000}};
    DcrChain dcr{sch, "dcr", clk.out, rst.out};
    Intc intc{sch, "intc", clk.out, rst.out, 0x40};
    PpcCpu cpu;

    LockTb(const Program& prog, Engine eng)
        : cpu(sch, "cpu", clk.out, rst.out, plb.master(0), dcr, mem, intc.irq,
              PpcCpu::Config{prog.entry(), 5, eng}) {
        plb.attach_slave(mem);
        dcr.attach(intc);
        intc.attach(line);
        mem.load_words(prog.origin, prog.words);
    }

    /// One-cycle IRQ pulse at an absolute (possibly off-phase) time.
    void pulse_at(rtlsim::Time t) {
        sch.schedule_at(t, [this] { line.write(Logic::L1); });
        sch.schedule_at(t + kClk, [this] { line.write(Logic::L0); });
    }
};

/// Assemble a single instruction to get its raw encoding (the SMC stores
/// write these words into the patch slots).
std::uint32_t encode(const std::string& insn) {
    return assemble(".org 0x100\n_start: " + insn + "\n").words.at(0);
}

// ------------------------------------------------------- program generator

struct GenConfig {
    unsigned body_items = 120;   ///< random items per loop pass
    unsigned outer = 16;         ///< loop passes
    unsigned mem_weight = 3;     ///< load/store weight (0 = bus-free body)
    unsigned smc_weight = 2;     ///< self-modifying-store weight
    unsigned syscall_weight = 1;
};

/// Random but always-valid program: an `outer`-pass loop whose body is a
/// seeded mix of register arithmetic, bounded loads/stores into a private
/// data area, short forward branches (bi 0..3 via CR0), CTR micro-loops,
/// syscalls, and stores of valid instruction encodings into four `nop`
/// patch slots that execute on every pass. Ends with exit(0) through the
/// syscall layer. Registers: r2/r28 bases, r20/r23 ISR-owned, r25 loop
/// counter, r26 SMC scratch, r3-r12 stream scratch.
std::string random_program(std::uint64_t seed, const GenConfig& g) {
    std::mt19937_64 rng(seed);
    const auto rnd = [&rng](unsigned lo, unsigned hi) {
        return lo + static_cast<unsigned>(rng() % (hi - lo + 1));
    };
    const auto reg = [&] { return rnd(3, 12); };

    static const std::uint32_t kPatchMenu[] = {
        encode("addi r6, r6, 5"),  encode("xor r7, r7, r7"),
        encode("neg r8, r8"),      encode("addi r7, r7, -3"),
        encode("ori r6, r6, 0x10"), encode("nop"),
    };

    std::ostringstream s;
    s << ".equ INTC_IER, 0x41\n.equ INTC_IAR, 0x42\n"
         ".org 0x500\n"
         "isr:  addi r20, r20, 1\n"
         "      li r23, 0xFF\n"
         "      mtdcr INTC_IAR, r23\n"
         "      rfi\n"
         ".org 0x1000\n"
         "_start:\n"
         "  li r20, 0\n"
         "  li r3, 0xFF\n"
         "  mtdcr INTC_IER, r3\n"
         "  wrteei 1\n"
         "  lis r2, hi(data)\n  ori r2, r2, lo(data)\n"
         "  lis r28, hi(patch)\n  ori r28, r28, lo(patch)\n";
    for (unsigned i = 3; i <= 12; ++i) {
        s << "  li r" << i << ", " << rnd(0, 255) << "\n";
    }
    s << "  li r25, " << g.outer << "\nouter:\n";

    static const char* kBranches[] = {"beq", "bne", "blt", "bgt", "ble",
                                      "bge"};
    unsigned label = 0;
    const auto emit_arith = [&] {
        switch (rnd(0, 11)) {
            case 0: s << "  add r" << reg() << ", r" << reg() << ", r"
                      << reg() << "\n"; break;
            case 1: s << "  subf r" << reg() << ", r" << reg() << ", r"
                      << reg() << "\n"; break;
            case 2: s << "  xor r" << reg() << ", r" << reg() << ", r"
                      << reg() << "\n"; break;
            case 3: s << "  or r" << reg() << ", r" << reg() << ", r"
                      << reg() << "\n"; break;
            case 4: s << "  and r" << reg() << ", r" << reg() << ", r"
                      << reg() << "\n"; break;
            case 5: s << "  addi r" << reg() << ", r" << reg() << ", "
                      << static_cast<int>(rnd(0, 400)) - 200 << "\n"; break;
            case 6: s << "  mulli r" << reg() << ", r" << reg() << ", "
                      << rnd(1, 9) << "\n"; break;
            case 7: s << "  slwi r" << reg() << ", r" << reg() << ", "
                      << rnd(0, 31) << "\n"; break;
            case 8: s << "  srwi r" << reg() << ", r" << reg() << ", "
                      << rnd(0, 31) << "\n"; break;
            case 9: s << "  neg r" << reg() << ", r" << reg() << "\n"; break;
            case 10: s << "  andi. r" << reg() << ", r" << reg() << ", "
                       << rnd(0, 0xFFFF) << "\n"; break;
            default: s << "  add. r" << reg() << ", r" << reg() << ", r"
                       << reg() << "\n"; break;
        }
    };

    for (unsigned i = 0; i < g.body_items; ++i) {
        const unsigned pick =
            rnd(0, 9 + g.mem_weight + g.smc_weight + g.syscall_weight);
        if (pick < 8) {
            emit_arith();
        } else if (pick == 8) {
            // Short forward conditional branch on CR0 (bi 0..3).
            s << "  cmpwi r" << reg() << ", " << rnd(0, 64) << "\n"
              << "  " << kBranches[rnd(0, 5)] << " skip" << label << "\n";
            const unsigned n = rnd(1, 3);
            for (unsigned k = 0; k < n; ++k) emit_arith();
            s << "skip" << label << ":\n";
            ++label;
        } else if (pick == 9) {
            // Bounded CTR micro-loop (bdnz).
            s << "  li r9, " << rnd(1, 5) << "\n  mtctr r9\n"
              << "ctl" << label << ":\n  addi r7, r7, 1\n"
              << "  bdnz ctl" << label << "\n";
            ++label;
        } else if (pick < 10 + g.mem_weight) {
            switch (rnd(0, 3)) {
                case 0: s << "  lwz r" << reg() << ", " << 4 * rnd(0, 200)
                          << "(r2)\n"; break;
                case 1: s << "  stw r" << reg() << ", " << 4 * rnd(0, 200)
                          << "(r2)\n"; break;
                case 2: s << "  lbz r" << reg() << ", " << rnd(0, 800)
                          << "(r2)\n"; break;
                default: s << "  stb r" << reg() << ", " << rnd(0, 800)
                           << "(r2)\n"; break;
            }
        } else if (pick < 10 + g.mem_weight + g.smc_weight) {
            // Self-modifying store: a valid encoding into a patch slot the
            // loop executes every pass.
            const std::uint32_t enc = kPatchMenu[rnd(0, 5)];
            s << "  lis r26, hi(" << enc << ")\n"
              << "  ori r26, r26, lo(" << enc << ")\n"
              << "  stw r26, " << 4 * rnd(0, 3) << "(r28)\n";
        } else {
            switch (rnd(0, 2)) {
                case 0: s << "  li r0, 2\n  sc\n"; break;  // clock -> r3
                case 1: s << "  li r0, 3\n  sc\n"; break;  // yield
                default: s << "  li r0, 1\n  li r3, " << rnd(33, 126)
                           << "\n  sc\n"; break;           // putchar
            }
        }
    }

    s << "patch:\n  nop\n  nop\n  nop\n  nop\n"
         "  addi r25, r25, -1\n"
         "  cmpwi r25, 0\n"
         "  bne outer\n"
         "  li r0, 0\n  li r3, 0\n  sc\n"  // exit(0)
         "done: b done\n"
         ".org 0x8000\n"
         "data: .space 1024\n";
    return s.str();
}

/// Seeded off-phase IRQ pulse schedule over the run's expected span.
std::vector<rtlsim::Time> random_pulses(std::uint64_t seed, unsigned count,
                                        rtlsim::Time span) {
    std::mt19937_64 rng(seed ^ 0x9E3779B97F4A7C15ull);
    std::vector<rtlsim::Time> out;
    out.reserve(count);
    for (unsigned i = 0; i < count; ++i) {
        const rtlsim::Time cyc = 50 + rng() % (span / kClk);
        out.push_back(cyc * kClk + 3 * NS);  // off the posedge
    }
    return out;
}

// ----------------------------------------------------------- lockstep core

/// Run interpreter vs cached side by side, diffing the full architectural
/// state every cycle. Returns retired instructions (asserted equal).
std::uint64_t run_lockstep(const Program& p,
                           const std::vector<rtlsim::Time>& pulses,
                           rtlsim::Time max_time) {
    LockTb a(p, Engine::kInterp);
    LockTb b(p, Engine::kCached);
    for (const rtlsim::Time t : pulses) {
        a.pulse_at(t);
        b.pulse_at(t);
    }
    while (a.sch.now() < max_time) {
        a.sch.run_until(a.sch.now() + kClk);
        b.sch.run_until(b.sch.now() + kClk);
        EXPECT_EQ(a.sch.now(), b.sch.now());
        const ArchRegs& ra = a.cpu.arch_state();
        const ArchRegs& rb = b.cpu.arch_state();
        if (!(ra == rb)) {
            ADD_FAILURE() << "arch state diverged at t=" << a.sch.now()
                          << " interp pc=0x" << std::hex << ra.pc
                          << " cached pc=0x" << rb.pc << std::dec
                          << " (interp icount=" << a.cpu.instructions()
                          << ", cached icount=" << b.cpu.instructions()
                          << ")";
            return a.cpu.instructions();
        }
        if (a.cpu.host_io().exited() && b.cpu.host_io().exited()) break;
    }
    EXPECT_TRUE(a.cpu.host_io().exited())
        << "interpreter run never reached exit(0)";
    EXPECT_TRUE(b.cpu.host_io().exited())
        << "cached run never reached exit(0)";
    EXPECT_EQ(a.cpu.instructions(), b.cpu.instructions());
    EXPECT_EQ(a.cpu.interrupts_taken(), b.cpu.interrupts_taken());
    EXPECT_EQ(a.cpu.host_io().out(), b.cpu.host_io().out());
    EXPECT_EQ(a.cpu.host_io().total_calls(), b.cpu.host_io().total_calls());
    EXPECT_EQ(a.cpu.host_io().exit_code(), b.cpu.host_io().exit_code());
    return a.cpu.instructions();
}

// ------------------------------------------------------------------- tests

TEST(IsaLockstep, RandomizedStreamsMatchPerCycle) {
    // Per-cycle ArchRegs diff over seeded random programs with
    // self-modifying stores, mid-block IRQ pulses and syscalls mixed in.
    // Floor: >= 108k retired instructions across both arms.
    std::uint64_t total = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        GenConfig g;
        g.body_items = 120;
        g.outer = 36;
        const Program p = assemble(random_program(seed, g));
        const auto pulses = random_pulses(seed, 12, 40000 * kClk);
        total += run_lockstep(p, pulses, 200000 * kClk);
        if (::testing::Test::HasFailure()) break;  // first divergence only
    }
    // Bus-free arm: no loads or stores but the self-modifying ones, so the
    // cached engine runs long stretches of cached blocks while IRQ pulses
    // and store-to-code invalidations land inside them.
    for (std::uint64_t seed = 21; seed <= 24; ++seed) {
        if (::testing::Test::HasFailure()) break;
        GenConfig g;
        g.body_items = 100;
        g.outer = 60;
        g.mem_weight = 0;
        g.smc_weight = 1;
        const Program p = assemble(random_program(seed, g));
        const auto pulses = random_pulses(seed, 8, 60000 * kClk);
        total += run_lockstep(p, pulses, 400000 * kClk);
    }
    EXPECT_GE(total, 108000u) << "randomized suite must retire >= 108k insns";
}

TEST(IsaLockstep, SelfModifyingStoreInvalidatesTheCachedBlock) {
    // Deterministic SMC kernel: pass 1 executes the original patch slot
    // (addi r6, r6, 1), stores the encoding of `addi r6, r6, 100` over it,
    // and every later pass must execute the patched word. Both engines run
    // in lockstep; the cached engine must additionally report stale
    // redecodes (the write-generation invalidation actually fired).
    std::ostringstream s;
    s << ".org 0x1000\n"
         "_start:\n"
         "  li r6, 0\n"
         "  li r25, 5\n"
         "  lis r28, hi(patch)\n  ori r28, r28, lo(patch)\n"
         "  lis r26, hi(" << encode("addi r6, r6, 100") << ")\n"
         "  ori r26, r26, lo(" << encode("addi r6, r6, 100") << ")\n"
         "outer:\n"
         "patch:\n"
         "  addi r6, r6, 1\n"
         "  stw r26, 0(r28)\n"
         "  addi r25, r25, -1\n"
         "  cmpwi r25, 0\n"
         "  bne outer\n"
         "  li r0, 0\n  li r3, 0\n  sc\n"
         "done: b done\n";
    const Program p = assemble(s.str());

    LockTb a(p, Engine::kInterp);
    LockTb b(p, Engine::kCached);
    while (!a.cpu.host_io().exited() && a.sch.now() < 20000 * kClk) {
        a.sch.run_until(a.sch.now() + kClk);
        b.sch.run_until(b.sch.now() + kClk);
        ASSERT_EQ(a.cpu.arch_state(), b.cpu.arch_state())
            << "diverged at t=" << a.sch.now();
    }
    ASSERT_TRUE(a.cpu.host_io().exited());
    // Pass 1 adds 1, passes 2..5 add the patched 100.
    EXPECT_EQ(a.cpu.gpr(6), 401u);
    EXPECT_EQ(b.cpu.gpr(6), 401u);
    EXPECT_GT(b.cpu.decode_cache().stale_redecodes(), 0u)
        << "store-to-code must invalidate the cached block";
}

TEST(IsaLockstep, MidBlockIrqsAreTakenOnTheSameCycle) {
    // A long straight-line block (cached as one basic block) hammered with
    // IRQ pulses at off-phase times: both engines must enter and leave the
    // ISR on exactly the same cycles (per-cycle ArchRegs diff covers
    // SRR0/SRR1/MSR), and take the same interrupt count.
    std::ostringstream body;
    body << ".equ INTC_IER, 0x41\n.equ INTC_IAR, 0x42\n"
            ".org 0x500\n"
            "isr:  addi r20, r20, 1\n"
            "      li r23, 0xFF\n"
            "      mtdcr INTC_IAR, r23\n"
            "      rfi\n"
            ".org 0x1000\n"
            "_start:\n"
            "  li r20, 0\n"
            "  li r3, 0xFF\n  mtdcr INTC_IER, r3\n  wrteei 1\n"
            "  li r5, 0\n  li r6, 1\n"
            "  li r25, 200\n"
            "outer:\n";
    for (unsigned i = 0; i < 48; ++i) {
        body << "  add r5, r5, r6\n  xor r7, r5, r6\n";
    }
    body << "  addi r25, r25, -1\n  cmpwi r25, 0\n  bne outer\n"
            "  li r0, 0\n  li r3, 0\n  sc\n"
            "done: b done\n";
    const Program p = assemble(body.str());
    std::vector<rtlsim::Time> pulses;
    for (unsigned i = 0; i < 16; ++i) {
        pulses.push_back((300 + 731 * i) * kClk + 3 * NS);
    }
    const std::uint64_t insns =
        run_lockstep(p, pulses, 120000 * kClk);
    EXPECT_GT(insns, 15000u);

    // Every pulse must actually have been serviced (r20 == 16) — rerun one
    // engine standalone to read the ISR counter.
    LockTb solo(p, Engine::kCached);
    for (const rtlsim::Time t : pulses) solo.pulse_at(t);
    while (!solo.cpu.host_io().exited() && solo.sch.now() < 120000 * kClk) {
        solo.sch.run_until(solo.sch.now() + 1024 * kClk);
    }
    ASSERT_TRUE(solo.cpu.host_io().exited());
    EXPECT_EQ(solo.cpu.gpr(20), pulses.size());
    EXPECT_EQ(solo.cpu.interrupts_taken(), pulses.size());
}

TEST(IsaLockstep, SyscallStreamsAgreeByteForByte) {
    // Syscall-dense program: the console output, per-service counters and
    // exit code must agree between the engines (the diff in run_lockstep
    // asserts them); additionally pin the console contents here.
    GenConfig g;
    g.body_items = 60;
    g.outer = 8;
    g.syscall_weight = 6;
    const Program p = assemble(random_program(77, g));
    LockTb solo(p, Engine::kCached);
    while (!solo.cpu.host_io().exited() && solo.sch.now() < 120000 * kClk) {
        solo.sch.run_until(solo.sch.now() + 1024 * kClk);
    }
    ASSERT_TRUE(solo.cpu.host_io().exited());
    const std::string expected = solo.cpu.host_io().out();
    EXPECT_FALSE(expected.empty());

    LockTb ref(p, Engine::kInterp);
    while (!ref.cpu.host_io().exited() && ref.sch.now() < 120000 * kClk) {
        ref.sch.run_until(ref.sch.now() + 1024 * kClk);
    }
    ASSERT_TRUE(ref.cpu.host_io().exited());
    EXPECT_EQ(ref.cpu.host_io().out(), expected);
    run_lockstep(p, {}, 120000 * kClk);
}

}  // namespace
}  // namespace autovision::isa
