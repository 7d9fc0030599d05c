#include "decode.hpp"

#include <cassert>

namespace autovision::isa {

namespace {

[[nodiscard]] std::int32_t sext16(std::uint32_t v) {
    return static_cast<std::int16_t>(v & 0xFFFF);
}

[[nodiscard]] std::uint32_t mul_low32(std::uint32_t a, std::uint32_t b) {
    // 64-bit signed product truncated to 32: the same wrapped result the
    // interpreter's 32-bit expression produces, without the signed-overflow
    // UB that a randomized operand stream would trip under UBSan.
    return static_cast<std::uint32_t>(
        static_cast<std::int64_t>(static_cast<std::int32_t>(a)) *
        static_cast<std::int64_t>(static_cast<std::int32_t>(b)));
}

inline void put_rc(ArchRegs& st, const MicroOp* uop, std::uint32_t v) {
    st.gpr[uop->d] = v;
    if (uop->flags & kUopFlagRc) set_cr0_signed(st, v);
}

}  // namespace

// Micro-op semantics, one entry per kind. Each entry expands with `st`
// (ArchRegs&) and `uop` (const MicroOp*) in scope and st.pc already
// advanced past the instruction; the list has one expansion, the switch
// in exec_uop. kFallback is deliberately absent: callers filter it
// through needs_interp() first.
// clang-format off
#define AUTOVISION_UOP_SEMANTICS(X)                                          \
    X(kAddi,                                                                 \
      st.gpr[uop->d] = (uop->a != 0 ? st.gpr[uop->a] : 0u) + uop->imm;)      \
    X(kAddic, st.gpr[uop->d] = st.gpr[uop->a] + uop->imm;)                   \
    X(kMulli, st.gpr[uop->d] = mul_low32(st.gpr[uop->a], uop->imm);)         \
    X(kSubfic, st.gpr[uop->d] = uop->imm - st.gpr[uop->a];)                  \
    X(kOrImm, st.gpr[uop->d] = st.gpr[uop->a] | uop->imm;)                   \
    X(kXorImm, st.gpr[uop->d] = st.gpr[uop->a] ^ uop->imm;)                  \
    X(kAndImmRc,                                                             \
      const std::uint32_t v = st.gpr[uop->a] & uop->imm;                     \
      st.gpr[uop->d] = v;                                                    \
      set_cr0_signed(st, v);)                                                \
    X(kCmpi,                                                                 \
      const auto x = static_cast<std::int32_t>(st.gpr[uop->a]);              \
      const auto m = static_cast<std::int32_t>(uop->imm);                    \
      st.cr0 = (x < m) ? CR0_LT : (x > m) ? CR0_GT : CR0_EQ;)                \
    X(kCmpli,                                                                \
      const std::uint32_t x = st.gpr[uop->a];                                \
      st.cr0 = (x < uop->imm) ? CR0_LT : (x > uop->imm) ? CR0_GT : CR0_EQ;)  \
    X(kRlwinm,                                                               \
      const std::uint32_t rs = st.gpr[uop->a];                               \
      const std::uint32_t rot =                                              \
          (rs << uop->b) | (uop->b == 0 ? 0u : rs >> (32 - uop->b));         \
      const std::uint32_t v = rot & uop->imm;                                \
      st.gpr[uop->d] = v;                                                    \
      if (uop->flags & kUopFlagRc) set_cr0_signed(st, v);)                   \
    X(kB,                                                                    \
      if (uop->flags & kUopFlagLink) st.lr = st.pc;                          \
      st.pc = uop->imm;)                                                     \
    X(kBHalt,                                                                \
      st.halted = true;                                                      \
      st.pc = uop->imm;)                                                     \
    X(kBc,                                                                   \
      const std::uint32_t from = st.pc - 4;                                  \
      bool ctr_ok = true;                                                    \
      if ((uop->d & 0x4) == 0) {                                             \
          --st.ctr;                                                          \
          ctr_ok = ((uop->d & 0x2) != 0) == (st.ctr == 0);                   \
      }                                                                      \
      bool cond_ok = true;                                                   \
      if ((uop->d & 0x10) == 0) {                                            \
          const bool bit = (st.cr0 >> (3 - uop->a)) & 1;                     \
          cond_ok = ((uop->d & 0x8) != 0) == bit;                            \
      }                                                                      \
      if (ctr_ok && cond_ok) {                                               \
          if (uop->flags & kUopFlagLink) st.lr = st.pc;                      \
          st.pc = uop->imm;                                                  \
          if (uop->imm == from && (uop->flags & kUopFlagLink) == 0) {        \
              st.halted = true;                                              \
          }                                                                  \
      })                                                                     \
    X(kBclr,                                                                 \
      bool cond_ok = true;                                                   \
      if ((uop->d & 0x10) == 0) {                                            \
          const bool bit = (st.cr0 >> (3 - uop->a)) & 1;                     \
          cond_ok = ((uop->d & 0x8) != 0) == bit;                            \
      }                                                                      \
      if (cond_ok) {                                                         \
          const std::uint32_t target = st.lr & ~3u;                          \
          if (uop->flags & kUopFlagLink) st.lr = st.pc;                      \
          st.pc = target;                                                    \
      })                                                                     \
    X(kBcctr,                                                                \
      if (uop->flags & kUopFlagLink) st.lr = st.pc;                          \
      st.pc = st.ctr & ~3u;)                                                 \
    X(kNop, (void)uop;)                                                      \
    X(kAdd, put_rc(st, uop, st.gpr[uop->a] + st.gpr[uop->b]);)               \
    X(kSubf, put_rc(st, uop, st.gpr[uop->b] - st.gpr[uop->a]);)              \
    X(kNeg, put_rc(st, uop, 0u - st.gpr[uop->a]);)                           \
    X(kMullw, put_rc(st, uop, mul_low32(st.gpr[uop->a], st.gpr[uop->b]));)   \
    X(kDivw,                                                                 \
      put_rc(st, uop,                                                        \
             static_cast<std::uint32_t>(                                     \
                 static_cast<std::int32_t>(st.gpr[uop->a]) /                 \
                 static_cast<std::int32_t>(st.gpr[uop->b])));)               \
    X(kDivwu, put_rc(st, uop, st.gpr[uop->a] / st.gpr[uop->b]);)             \
    X(kAnd, put_rc(st, uop, st.gpr[uop->a] & st.gpr[uop->b]);)               \
    X(kOr, put_rc(st, uop, st.gpr[uop->a] | st.gpr[uop->b]);)                \
    X(kXor, put_rc(st, uop, st.gpr[uop->a] ^ st.gpr[uop->b]);)               \
    X(kNor, put_rc(st, uop, ~(st.gpr[uop->a] | st.gpr[uop->b]));)            \
    X(kAndc, put_rc(st, uop, st.gpr[uop->a] & ~st.gpr[uop->b]);)             \
    X(kSlw,                                                                  \
      const std::uint32_t sh = st.gpr[uop->b] & 0x3F;                        \
      put_rc(st, uop, sh >= 32 ? 0u : st.gpr[uop->a] << sh);)                \
    X(kSrw,                                                                  \
      const std::uint32_t sh = st.gpr[uop->b] & 0x3F;                        \
      put_rc(st, uop, sh >= 32 ? 0u : st.gpr[uop->a] >> sh);)                \
    X(kSraw,                                                                 \
      const std::uint32_t sh = st.gpr[uop->b] & 0x3F;                        \
      const auto s = static_cast<std::int32_t>(st.gpr[uop->a]);              \
      put_rc(st, uop,                                                        \
             static_cast<std::uint32_t>(sh >= 32 ? (s < 0 ? -1 : 0)          \
                                                 : (s >> sh)));)             \
    X(kSrawi,                                                                \
      const auto s = static_cast<std::int32_t>(st.gpr[uop->a]);              \
      put_rc(st, uop, static_cast<std::uint32_t>(s >> uop->b));)             \
    X(kCmp,                                                                  \
      const auto x = static_cast<std::int32_t>(st.gpr[uop->a]);              \
      const auto y = static_cast<std::int32_t>(st.gpr[uop->b]);              \
      st.cr0 = (x < y) ? CR0_LT : (x > y) ? CR0_GT : CR0_EQ;)                \
    X(kCmpl,                                                                 \
      const std::uint32_t x = st.gpr[uop->a];                                \
      const std::uint32_t y = st.gpr[uop->b];                                \
      st.cr0 = (x < y) ? CR0_LT : (x > y) ? CR0_GT : CR0_EQ;)                \
    X(kMfspr,                                                                \
      switch (uop->imm) {                                                    \
          case SPR_XER: st.gpr[uop->d] = st.xer; break;                      \
          case SPR_LR: st.gpr[uop->d] = st.lr; break;                        \
          case SPR_CTR: st.gpr[uop->d] = st.ctr; break;                      \
          case SPR_SRR0: st.gpr[uop->d] = st.srr0; break;                    \
          case SPR_SRR1: st.gpr[uop->d] = st.srr1; break;                    \
          default: break;                                                    \
      })                                                                     \
    X(kMtspr,                                                                \
      switch (uop->imm) {                                                    \
          case SPR_XER: st.xer = st.gpr[uop->d]; break;                      \
          case SPR_LR: st.lr = st.gpr[uop->d]; break;                        \
          case SPR_CTR: st.ctr = st.gpr[uop->d]; break;                      \
          case SPR_SRR0: st.srr0 = st.gpr[uop->d]; break;                    \
          case SPR_SRR1: st.srr1 = st.gpr[uop->d]; break;                    \
          default: break;                                                    \
      })                                                                     \
    X(kMfcr, st.gpr[uop->d] = st.cr0 << 28;)                                 \
    X(kMtcrf, st.cr0 = (st.gpr[uop->d] >> 28) & 0xF;)                        \
    X(kMfmsr, st.gpr[uop->d] = st.msr;)
// clang-format on

void exec_uop(ArchRegs& st, const MicroOp& op) {
    const MicroOp* uop = &op;
    st.pc += 4;
    switch (uop->kind) {
#define AUTOVISION_UOP_CASE(name, ...) \
    case Uop::name: {                  \
        __VA_ARGS__                    \
    }                                  \
        return;
        AUTOVISION_UOP_SEMANTICS(AUTOVISION_UOP_CASE)
#undef AUTOVISION_UOP_CASE
        case Uop::kFallback: break;
    }
    assert(false && "exec_uop: op needs the interpreter");
}

MicroOp decode_one(std::uint32_t insn, std::uint32_t pc) {
    MicroOp u;
    u.raw = insn;
    const std::uint32_t op = insn >> 26;
    const auto rt = static_cast<std::uint8_t>((insn >> 21) & 0x1F);
    const auto ra = static_cast<std::uint8_t>((insn >> 16) & 0x1F);
    const auto rb = static_cast<std::uint8_t>((insn >> 11) & 0x1F);
    const std::uint32_t imm16 = insn & 0xFFFF;
    const auto simm = static_cast<std::uint32_t>(sext16(imm16));
    const std::uint8_t rc = (insn & 1) ? kUopFlagRc : 0;

    switch (op) {
        case OP_ADDI: u = {Uop::kAddi, 0, rt, ra, 0, simm, insn}; break;
        case OP_ADDIS:
            u = {Uop::kAddi, 0, rt, ra, 0, imm16 << 16, insn};
            break;
        case OP_ADDIC: u = {Uop::kAddic, 0, rt, ra, 0, simm, insn}; break;
        case OP_MULLI: u = {Uop::kMulli, 0, rt, ra, 0, simm, insn}; break;
        case OP_SUBFIC: u = {Uop::kSubfic, 0, rt, ra, 0, simm, insn}; break;
        case OP_ORI: u = {Uop::kOrImm, 0, ra, rt, 0, imm16, insn}; break;
        case OP_ORIS:
            u = {Uop::kOrImm, 0, ra, rt, 0, imm16 << 16, insn};
            break;
        case OP_XORI: u = {Uop::kXorImm, 0, ra, rt, 0, imm16, insn}; break;
        case OP_XORIS:
            u = {Uop::kXorImm, 0, ra, rt, 0, imm16 << 16, insn};
            break;
        case OP_ANDI: u = {Uop::kAndImmRc, 0, ra, rt, 0, imm16, insn}; break;
        case OP_ANDIS:
            u = {Uop::kAndImmRc, 0, ra, rt, 0, imm16 << 16, insn};
            break;
        case OP_CMPI: u = {Uop::kCmpi, 0, 0, ra, 0, simm, insn}; break;
        case OP_CMPLI: u = {Uop::kCmpli, 0, 0, ra, 0, imm16, insn}; break;

        case OP_RLWINM: {
            const std::uint32_t sh = (insn >> 11) & 0x1F;
            const std::uint32_t mb = (insn >> 6) & 0x1F;
            const std::uint32_t me = (insn >> 1) & 0x1F;
            const std::uint32_t m_begin = ~0u >> mb;
            const std::uint32_t m_end = ~0u << (31 - me);
            const std::uint32_t mask =
                (mb <= me) ? (m_begin & m_end) : (m_begin | m_end);
            u = {Uop::kRlwinm, rc, ra, rt, static_cast<std::uint8_t>(sh),
                 mask, insn};
            break;
        }

        case OP_B: {
            const std::int32_t li =
                (static_cast<std::int32_t>(insn << 6) >> 6) & ~3;
            const bool link = (insn & 1) != 0;
            const std::uint32_t target =
                (insn & 2) ? static_cast<std::uint32_t>(li)
                           : pc + static_cast<std::uint32_t>(li);
            if (target == pc && !link) {
                u = {Uop::kBHalt, 0, 0, 0, 0, target, insn};
            } else {
                u = {Uop::kB, link ? kUopFlagLink : std::uint8_t{0}, 0, 0, 0,
                     target, insn};
            }
            break;
        }
        case OP_BC: {
            // BI is masked to the modelled CR0 field; the assembler and the
            // firmware corpus never emit BI > 3 (the interpreter's shift
            // would be out of range for them).
            const std::uint32_t target =
                pc + static_cast<std::uint32_t>(sext16(insn & 0xFFFC));
            u = {Uop::kBc, (insn & 1) ? kUopFlagLink : std::uint8_t{0}, rt,
                 static_cast<std::uint8_t>(ra & 3), 0, target, insn};
            break;
        }

        case OP_XL: {
            const std::uint32_t xo = (insn >> 1) & 0x3FF;
            if (xo == XL_BCLR) {
                u = {Uop::kBclr, (insn & 1) ? kUopFlagLink : std::uint8_t{0},
                     rt, static_cast<std::uint8_t>(ra & 3), 0, 0, insn};
            } else if (xo == XL_BCCTR) {
                u = {Uop::kBcctr,
                     (insn & 1) ? kUopFlagLink : std::uint8_t{0}, 0, 0, 0, 0,
                     insn};
            } else if (xo == XL_ISYNC) {
                u.kind = Uop::kNop;
            }
            // XL_RFI and unknown XL encodings stay kFallback.
            break;
        }

        case OP_X: {
            const std::uint32_t xo = (insn >> 1) & 0x3FF;
            switch (xo) {
                case X_ADD: u = {Uop::kAdd, rc, rt, ra, rb, 0, insn}; break;
                case X_SUBF: u = {Uop::kSubf, rc, rt, ra, rb, 0, insn}; break;
                case X_NEG: u = {Uop::kNeg, rc, rt, ra, 0, 0, insn}; break;
                case X_MULLW:
                    u = {Uop::kMullw, rc, rt, ra, rb, 0, insn};
                    break;
                case X_DIVW: u = {Uop::kDivw, rc, rt, ra, rb, 0, insn}; break;
                case X_DIVWU:
                    u = {Uop::kDivwu, rc, rt, ra, rb, 0, insn};
                    break;
                // Logical/shift forms: destination rA, source in rT slot.
                case X_AND: u = {Uop::kAnd, rc, ra, rt, rb, 0, insn}; break;
                case X_OR: u = {Uop::kOr, rc, ra, rt, rb, 0, insn}; break;
                case X_XOR: u = {Uop::kXor, rc, ra, rt, rb, 0, insn}; break;
                case X_NOR: u = {Uop::kNor, rc, ra, rt, rb, 0, insn}; break;
                case X_ANDC: u = {Uop::kAndc, rc, ra, rt, rb, 0, insn}; break;
                case X_SLW: u = {Uop::kSlw, rc, ra, rt, rb, 0, insn}; break;
                case X_SRW: u = {Uop::kSrw, rc, ra, rt, rb, 0, insn}; break;
                case X_SRAW: u = {Uop::kSraw, rc, ra, rt, rb, 0, insn}; break;
                case X_SRAWI:
                    u = {Uop::kSrawi, rc, ra, rt, rb, 0, insn};
                    break;
                case X_CMP: u = {Uop::kCmp, 0, 0, ra, rb, 0, insn}; break;
                case X_CMPL: u = {Uop::kCmpl, 0, 0, ra, rb, 0, insn}; break;
                case X_MFSPR:
                case X_MTSPR: {
                    const std::uint32_t spr = unsplit_sprf(insn);
                    switch (spr) {
                        case SPR_XER:
                        case SPR_LR:
                        case SPR_CTR:
                        case SPR_SRR0:
                        case SPR_SRR1:
                            u = {xo == X_MFSPR ? Uop::kMfspr : Uop::kMtspr, 0,
                                 rt, 0, 0, spr, insn};
                            break;
                        default: break;  // illegal SPR -> interpreter report
                    }
                    break;
                }
                case X_MFCR: u = {Uop::kMfcr, 0, rt, 0, 0, 0, insn}; break;
                case X_MTCRF: u = {Uop::kMtcrf, 0, rt, 0, 0, 0, insn}; break;
                case X_MFMSR: u = {Uop::kMfmsr, 0, rt, 0, 0, 0, insn}; break;
                case X_SYNC: u.kind = Uop::kNop; break;
                // mtmsr/wrteei can enable MSR[EE] (interrupt-visible),
                // mfdcr/mtdcr are multi-cycle ring transactions: kFallback.
                default: break;
            }
            break;
        }

        default: break;  // loads/stores, sc, unknown primaries: kFallback
    }
    return u;
}

void DecodeCache::decode_block(Block& b, std::uint32_t pc) {
    b.start_pc = pc;
    b.page = mem_.page_of(pc);
    b.gen = mem_.page_gen(b.page);
    b.ops.clear();
    std::uint32_t p = pc;
    while (b.ops.size() < kMaxBlockLen) {
        bool ok = true;
        const std::uint32_t insn = mem_.peek_u32(p, &ok);
        if (!ok) break;  // X/corrupted word: the interpreter path reports
        b.ops.push_back(decode_one(insn, p));
        if (ends_block(b.ops.back().kind)) break;
        p += 4;
        if (!mem_.claims(p) || mem_.page_of(p) != b.page) break;
    }
}

const DecodeCache::Block* DecodeCache::lookup(std::uint32_t pc) {
    if ((pc & 3u) != 0 || !mem_.claims(pc)) return nullptr;
    auto [it, inserted] = blocks_.try_emplace(pc);
    Block& b = it->second;
    if (inserted) {
        ++decodes_;
        decode_block(b, pc);
    } else if (!fresh(b)) {
        ++stale_redecodes_;
        decode_block(b, pc);
    }
    return b.ops.empty() ? nullptr : &b;
}

}  // namespace autovision::isa
