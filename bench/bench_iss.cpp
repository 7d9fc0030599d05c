// E15 — ISS execution rate: interpreter vs basic-block decode cache.
//
// Measures instructions per host second for the two CPU execution engines
// on a bus-free compute kernel (the workload shape where the ISS hot path
// dominates — every data access would serialize on the cycle-accurate PLB
// in both engines and mask the decode-path difference):
//   * bm_iss_interp        — the retained reference interpreter
//                            (fetch + decode + execute every posedge);
//   * bm_iss_cached_cold   — the decode-cache engine, one micro-op per
//                            posedge, fresh cache every iteration (decode
//                            cost included).
// CI gates the committed baseline rows through tools/bench_compare.py.
#include <benchmark/benchmark.h>

#include "bus/dcr.hpp"
#include "bus/intc.hpp"
#include "bus/memory.hpp"
#include "bus/plb.hpp"
#include "isa/assembler.hpp"
#include "isa/cpu.hpp"
#include "kernel/kernel.hpp"

namespace {

using namespace autovision;
using namespace autovision::isa;
using rtlsim::NS;

constexpr rtlsim::Time kClk = 10 * NS;

/// ~850k dynamic instructions of register-only compute: a doubly nested
/// loop over adds, shifts, rotates and compares. No loads/stores inside the
/// loop. Long enough that execution dominates testbench elaboration.
const char* kWorkload = R"(
    .org 0x100
    _start: li r10, 0
            li r4, 512
            mtctr r4
    outer:  li r5, 0
            li r6, 200
    inner:  addi r5, r5, 3
            xor r7, r5, r6
            rlwinm r8, r7, 3, 0, 28
            add r9, r8, r5
            subf r9, r6, r9
            addic r6, r6, -1
            cmpwi r6, 0
            bne inner
            add r10, r10, r5
            bdnz outer
    done:   b done
)";

/// Minimal CPU-only testbench (clock/reset, PLB + memory, DCR + INTC).
struct IssTb {
    rtlsim::Scheduler sch;
    rtlsim::Clock clk{sch, "clk", kClk};
    rtlsim::ResetGen rst{sch, "rst", 3 * kClk};
    Memory mem;
    Plb plb{sch, "plb", clk.out, rst.out, Plb::Config{1, 16, 5000}};
    DcrChain dcr{sch, "dcr", clk.out, rst.out};
    Intc intc{sch, "intc", clk.out, rst.out, 0x40};
    PpcCpu cpu;

    IssTb(const Program& prog, PpcCpu::Config::Engine engine)
        : cpu(sch, "cpu", clk.out, rst.out, plb.master(0), dcr, mem, intc.irq,
              PpcCpu::Config{prog.entry(), 5, engine}) {
        plb.attach_slave(mem);
        dcr.attach(intc);
        mem.load_words(prog.origin, prog.words);
    }

    std::uint64_t run_to_halt() {
        while (!cpu.halted() && !sch.stop_requested()) {
            sch.run_until(sch.now() + 4096 * kClk);
        }
        return cpu.instructions();
    }
};

void run_engine(benchmark::State& state, PpcCpu::Config::Engine engine) {
    const Program prog = assemble(kWorkload);
    std::uint64_t insns = 0;
    for (auto _ : state) {
        IssTb tb(prog, engine);
        insns = tb.run_to_halt();
        if (tb.sch.stop_requested()) state.SkipWithError("run was not clean");
        benchmark::DoNotOptimize(insns);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(insns));
    state.counters["insns"] = static_cast<double>(insns);
}

void bm_iss_interp(benchmark::State& state) {
    run_engine(state, PpcCpu::Config::Engine::kInterp);
}
BENCHMARK(bm_iss_interp)->Unit(benchmark::kMillisecond);

void bm_iss_cached_cold(benchmark::State& state) {
    run_engine(state, PpcCpu::Config::Engine::kCached);
}
BENCHMARK(bm_iss_cached_cold)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
