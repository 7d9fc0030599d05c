// Predecoded basic-block cache for the PPC ISS.
//
// The interpreter in cpu.cpp re-decodes every instruction on every clock
// edge; measured against the scenario firmware that is ~150 ns/insn, of
// which almost all is kernel/event overhead and decode-switch dispatch.
// This file splits the ISS into the layers a fast ISS needs:
//
//   * ArchRegs — the architectural register file as a plain value type,
//     so it can be compared wholesale (the lockstep differential tests).
//   * Uop/MicroOp — one decoded instruction, 16 bytes, with immediates,
//     rotate masks, and branch targets precomputed at decode time.
//   * DecodeCache — basic blocks keyed by start PC. A block is decoded
//     once and re-validated against the owning memory page's write
//     generation, so a store into code (self-modifying firmware, DMA, a
//     corrupting reconfiguration) forces a redecode instead of executing
//     stale micro-ops.
//
// The cached engine in cpu.cpp retires exactly one micro-op per posedge
// through exec_uop, which keeps it cycle-, trace-, and diagnostic-identical
// to the interpreter.
//
// Block boundaries: a block ends at any branch (included), at the first
// Uop::kFallback (included — the engine runs it through the interpreter),
// at a 4 KiB page boundary (so one page generation covers the whole
// block), at an undecodable/X word (excluded), or at kMaxBlockLen
// micro-ops.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "bus/memory.hpp"
#include "ppc.hpp"

namespace autovision::isa {

/// Architectural register state as a plain comparable value.
struct ArchRegs {
    std::array<std::uint32_t, 32> gpr{};
    std::uint32_t pc = 0;
    std::uint32_t msr = 0;
    std::uint32_t cr0 = 0;
    std::uint32_t lr = 0;
    std::uint32_t ctr = 0;
    std::uint32_t xer = 0;
    std::uint32_t srr0 = 0;
    std::uint32_t srr1 = 0;
    bool halted = false;

    friend bool operator==(const ArchRegs&, const ArchRegs&) = default;
};

inline void set_cr0_signed(ArchRegs& st, std::uint32_t v) {
    const auto s = static_cast<std::int32_t>(v);
    st.cr0 = (s < 0) ? CR0_LT : (s > 0) ? CR0_GT : CR0_EQ;
}

/// Micro-op kinds. Everything exec_uop can retire without touching the
/// bus, the DCR ring, MSR[EE], or the host gets its own kind; the rest —
/// loads/stores, mfdcr/mtdcr, sc, rfi, mtmsr, wrteei, illegal encodings —
/// is kFallback and always runs through the full interpreter per-cycle.
enum class Uop : std::uint8_t {
    kAddi,      // d <- (a|0) + imm   (addi/addis, imm prescaled)
    kAddic,     // d <- gpr[a] + imm
    kMulli,     // d <- low32(gpr[a] * simm)
    kSubfic,    // d <- imm - gpr[a]
    kOrImm,     // d <- gpr[a] | imm  (ori/oris, imm prescaled)
    kXorImm,    // d <- gpr[a] ^ imm  (xori/xoris)
    kAndImmRc,  // d <- gpr[a] & imm, CR0 (andi./andis.)
    kCmpi,      // CR0 <- gpr[a] <=> simm (signed)
    kCmpli,     // CR0 <- gpr[a] <=> imm  (unsigned)
    kRlwinm,    // d <- rotl32(gpr[a], b) & imm (mask precomputed)
    kB,         // pc <- imm (target precomputed); link via flag
    kBHalt,     // unconditional branch-to-self, non-link: halt
    kBc,        // conditional; d=BO a=BI imm=target
    kBclr,      // d=BO a=BI; target = lr & ~3
    kBcctr,     // target = ctr & ~3
    kNop,       // isync, sync, encodings with no architectural effect
    kAdd,       // d <- gpr[a] + gpr[b]
    kSubf,      // d <- gpr[b] - gpr[a]
    kNeg,       // d <- -gpr[a]
    kMullw,     // d <- low32(gpr[a] * gpr[b])
    kDivw,      // d <- gpr[a] /s gpr[b]; zero/overflow divisor -> interp
    kDivwu,     // d <- gpr[a] /u gpr[b]; zero divisor -> interp
    kAnd,
    kOr,
    kXor,
    kNor,
    kAndc,
    kSlw,
    kSrw,
    kSraw,
    kSrawi,  // b = shift amount
    kCmp,
    kCmpl,
    kMfspr,  // imm = SPR number (known-valid at decode)
    kMtspr,
    kMfcr,
    kMtcrf,
    kMfmsr,
    kFallback,  // run the raw word through the interpreter
};

inline constexpr std::uint8_t kUopFlagRc = 1;    ///< record CR0
inline constexpr std::uint8_t kUopFlagLink = 2;  ///< branch updates LR

/// One decoded instruction. 16 bytes; `raw` keeps the original word for
/// trace hooks and for the kFallback interpreter path.
struct MicroOp {
    Uop kind = Uop::kFallback;
    std::uint8_t flags = 0;
    std::uint8_t d = 0;
    std::uint8_t a = 0;
    std::uint8_t b = 0;
    std::uint32_t imm = 0;
    std::uint32_t raw = 0;
};

/// True when this op ends the decode of a basic block (branches and
/// fallbacks are included as the block's final op).
[[nodiscard]] constexpr bool ends_block(Uop k) {
    switch (k) {
        case Uop::kB:
        case Uop::kBHalt:
        case Uop::kBc:
        case Uop::kBclr:
        case Uop::kBcctr:
        case Uop::kFallback: return true;
        default: return false;
    }
}

/// Decode one instruction word fetched from `pc` into a micro-op.
[[nodiscard]] MicroOp decode_one(std::uint32_t insn, std::uint32_t pc);

/// True when `op` cannot be retired by exec_uop on the given state and must
/// run through the full interpreter: kFallback always; divides whose result
/// the Power ISA leaves undefined (zero divisor, INT_MIN/-1) so the
/// interpreter's diagnostic report fires exactly once, per-cycle.
[[nodiscard]] inline bool needs_interp(const ArchRegs& st, const MicroOp& op) {
    if (op.kind == Uop::kFallback) return true;
    if (op.kind == Uop::kDivwu) return st.gpr[op.b] == 0;
    if (op.kind == Uop::kDivw) {
        return st.gpr[op.b] == 0 ||
               (st.gpr[op.a] == 0x8000'0000u && st.gpr[op.b] == 0xFFFF'FFFFu);
    }
    return false;
}

/// Retire one micro-op: advances st.pc by 4, then applies the op (branches
/// overwrite pc; a taken self-branch without link sets halted, matching the
/// interpreter's idle convention). Precondition: !needs_interp(st, op).
void exec_uop(ArchRegs& st, const MicroOp& op);

/// Basic-block cache keyed by physical start PC. Values are stable under
/// rehash (std::unordered_map nodes don't move), so the CPU may hold a
/// Block* cursor between cycles as long as it re-checks fresh().
class DecodeCache {
public:
    struct Block {
        std::uint32_t start_pc = 0;
        std::size_t page = 0;      ///< memory page holding the whole block
        std::uint32_t gen = 0;     ///< page write generation at decode time
        std::vector<MicroOp> ops;  ///< empty => start word undecodable
    };

    /// Blocks never cross a page boundary, so 64 is also bounded by the
    /// 1024-word page; it caps the worst-case decode burst.
    static constexpr std::size_t kMaxBlockLen = 64;

    explicit DecodeCache(Memory& mem) : mem_(mem) {}

    /// True while the block's decode still matches memory.
    [[nodiscard]] bool fresh(const Block& b) const {
        return mem_.page_gen(b.page) == b.gen;
    }

    /// Find (or decode) the block starting at `pc`. A stale block is
    /// redecoded in place. Returns nullptr when no instruction can be
    /// decoded at `pc` (bad address, misaligned, X word) — the caller's
    /// interpreter fetch path then produces the proper diagnostics.
    [[nodiscard]] const Block* lookup(std::uint32_t pc);

    /// Drop every block (checkpoint restore, reset).
    void flush() {
        blocks_.clear();
        ++flushes_;
    }

    [[nodiscard]] std::uint64_t decodes() const { return decodes_; }
    [[nodiscard]] std::uint64_t stale_redecodes() const {
        return stale_redecodes_;
    }
    [[nodiscard]] std::uint64_t flushes() const { return flushes_; }
    [[nodiscard]] std::size_t blocks() const { return blocks_.size(); }

private:
    void decode_block(Block& b, std::uint32_t pc);

    Memory& mem_;
    std::unordered_map<std::uint32_t, Block> blocks_;
    std::uint64_t decodes_ = 0;
    std::uint64_t stale_redecodes_ = 0;
    std::uint64_t flushes_ = 0;
};

}  // namespace autovision::isa
