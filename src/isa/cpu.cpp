#include "cpu.hpp"

#include <cstdio>

#include "ppc.hpp"

namespace autovision::isa {

using rtlsim::is1;
using rtlsim::is_unknown;
using rtlsim::Word;

namespace {

[[nodiscard]] std::int32_t sext16(std::uint32_t v) {
    return static_cast<std::int16_t>(v & 0xFFFF);
}

// Signed 32x32 multiply low half without signed-overflow UB (the decode
// cache's exec_uop computes the same way; see decode.cpp).
[[nodiscard]] std::uint32_t mul_low32(std::uint32_t a, std::uint32_t b) {
    return static_cast<std::uint32_t>(
        static_cast<std::int64_t>(static_cast<std::int32_t>(a)) *
        static_cast<std::int64_t>(static_cast<std::int32_t>(b)));
}

}  // namespace

PpcCpu::PpcCpu(Scheduler& sch, const std::string& name, Signal<Logic>& clk,
               Signal<Logic>& rst, PlbMasterPort& port, DcrChain& dcr,
               Memory& imem, Signal<Logic>& ext_irq, Config cfg)
    : Module(sch, name),
      cfg_(cfg),
      clk_(clk),
      rst_(rst),
      dcr_(dcr),
      imem_(imem),
      ext_irq_(ext_irq),
      dma_(port, /*burst_limit=*/1),
      cache_(imem) {
    st_.pc = cfg_.reset_pc;
    sync_proc("exec", [this] { on_clock(); }, {rtlsim::posedge(clk_)});
}

void PpcCpu::set_cr0(std::int32_t v) {
    st_.cr0 = (v < 0) ? CR0_LT : (v > 0) ? CR0_GT : CR0_EQ;
}

void PpcCpu::illegal(std::uint32_t insn, const std::string& why) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "illegal instruction 0x%08x at 0x%08x (%s)",
                  insn, st_.pc - 4, why.c_str());
    report(buf);
    fatal_ = true;
    sch_.request_stop(full_name() + ": " + buf);
}

void PpcCpu::take_interrupt() {
    st_.srr0 = st_.pc;
    st_.srr1 = st_.msr;
    st_.msr &= ~MSR_EE;
    st_.pc = VEC_EXTERNAL;
    st_.halted = false;
    ++irqs_;
    ++isr_depth_;
}

void PpcCpu::do_syscall() {
    // Genuine system-call SRR clobber: `sc` saves its return state into the
    // same SRR0/SRR1 an external interrupt uses. Inside an ISR this
    // destroys the interrupt's own return state — bug.sw.5's root cause —
    // so HostIo is told whether we are at ISR depth for the fault coverage.
    st_.srr0 = st_.pc;  // instruction after the sc
    st_.srr1 = st_.msr;
    const std::uint32_t call = st_.gpr[0];
    if (host_.dispatch(st_, static_cast<std::uint32_t>(sch_.now()),
                       isr_depth_ > 0)) {
        st_.halted = true;  // exit(): firmware convention is a trailing `b .`
    }
    if (obs_ != nullptr) {
        obs_->record(sch_.now(), obs::EventKind::kSyscall, obs::Source::kCpu,
                     call, st_.gpr[3], isr_depth_ > 0 ? 1 : 0);
    }
}

// --- per-cycle execution ----------------------------------------------------

bool PpcCpu::step_cached() {
    const DecodeCache::Block* blk = cur_blk_;
    if (blk == nullptr || cur_idx_ >= blk->ops.size() ||
        blk->start_pc + 4 * static_cast<std::uint32_t>(cur_idx_) != st_.pc ||
        !cache_.fresh(*blk)) {
        blk = cache_.lookup(st_.pc);
        cur_blk_ = blk;
        cur_idx_ = 0;
    }
    if (blk == nullptr) return false;  // undecodable: fetch path diagnoses

    const MicroOp& op = blk->ops[cur_idx_];
    if (trace) trace(st_.pc, op.raw);
    if (needs_interp(st_, op)) {
        st_.pc += 4;
        ++icount_;
        cur_blk_ = nullptr;
        execute(op.raw);
        return true;
    }
    exec_uop(st_, op);
    ++icount_;
    if (st_.pc ==
            blk->start_pc + 4 * static_cast<std::uint32_t>(cur_idx_ + 1) &&
        cur_idx_ + 1 < blk->ops.size()) {
        ++cur_idx_;  // fall-through: stay on the block
    } else {
        cur_blk_ = nullptr;  // branch or block end: re-enter via lookup
    }
    return true;
}

void PpcCpu::on_clock() {
    if (is1(rst_.read())) {
        in_reset_ = true;
        return;
    }
    if (in_reset_) {
        // Leaving reset: start clean at the reset vector.
        in_reset_ = false;
        st_.pc = cfg_.reset_pc;
        st_.msr = 0;
        st_.halted = false;
        fatal_ = false;
        mem_busy_ = false;
        dcr_busy_ = false;
        dma_.reset();
        cur_blk_ = nullptr;
    }
    if (fatal_) return;

    // Service an in-flight data transaction first.
    if (mem_busy_) {
        dma_.step();
        return;
    }
    if (dcr_busy_) return;  // completion callback clears the flag

    // Sample the external interrupt between instructions.
    const Logic irq = ext_irq_.read();
    if (is_unknown(irq)) {
        if (x_reports_ < cfg_.x_report_limit) {
            ++x_reports_;
            report("X on external interrupt input");
        }
    } else if (is1(irq) && (st_.msr & MSR_EE) != 0) {
        take_interrupt();
        return;  // vector fetch starts next cycle
    }

    if (cfg_.engine == Config::Engine::kCached && step_cached()) return;

    // Fetch (cached; backdoor read — see header timing model).
    if (!imem_.claims(st_.pc) || (st_.pc & 3u) != 0) {
        char buf[48];
        std::snprintf(buf, sizeof buf, "bad fetch address 0x%08x", st_.pc);
        report(buf);
        fatal_ = true;
        sch_.request_stop(full_name() + ": bad fetch");
        return;
    }
    bool ok = true;
    const std::uint32_t insn = imem_.peek_u32(st_.pc, &ok);
    if (!ok) {
        char buf[56];
        std::snprintf(buf, sizeof buf, "fetched X/corrupted word at 0x%08x",
                      st_.pc);
        report(buf);
        fatal_ = true;
        sch_.request_stop(full_name() + ": corrupted instruction memory");
        return;
    }
    if (trace) trace(st_.pc, insn);
    st_.pc += 4;
    ++icount_;
    execute(insn);
}

void PpcCpu::finish_mfdcr(Word w) {
    if (w.has_unknown() && x_reports_ < cfg_.x_report_limit) {
        ++x_reports_;
        report("mfdcr " + std::to_string(dcrop_.dcrn) +
               " returned X (broken daisy chain?)");
    }
    st_.gpr[dcrop_.rt] = static_cast<std::uint32_t>(w.to_u64());
    dcr_busy_ = false;
    dcrop_.kind = DcrOp::Kind::None;
}

void PpcCpu::finish_load(Word w) {
    if (w.has_unknown() && x_reports_ < cfg_.x_report_limit) {
        ++x_reports_;
        char buf[56];
        std::snprintf(buf, sizeof buf, "load of X/corrupted data at 0x%08x",
                      mem_.ea);
        report(buf);
    }
    const auto full = static_cast<std::uint32_t>(w.to_u64());
    std::uint32_t v = full;
    if (mem_.bytes == 1) {
        v = (full >> ((3 - (mem_.ea & 3u)) * 8)) & 0xFF;
    } else if (mem_.bytes == 2) {
        v = (full >> ((mem_.ea & 2u) ? 0 : 16)) & 0xFFFF;
    }
    st_.gpr[mem_.rt] = v;
}

void PpcCpu::rmw_merge(Word w) {
    const auto old = static_cast<std::uint32_t>(w.to_u64());
    std::uint32_t merged = old;
    if (mem_.bytes == 1) {
        const unsigned sh = (3 - (mem_.ea & 3u)) * 8;
        merged = (old & ~(0xFFu << sh)) | ((mem_.value & 0xFF) << sh);
    } else {
        const unsigned sh = (mem_.ea & 2u) ? 0 : 16;
        merged = (old & ~(0xFFFFu << sh)) | ((mem_.value & 0xFFFF) << sh);
    }
    mem_.value = merged;
}

void PpcCpu::issue_rmw_write() {
    mem_.kind = MemOp::Kind::RmwWrite;
    dma_.start_write(
        mem_.ea & ~3u, 1, [this](std::uint32_t) { return Word{mem_.value}; },
        [this] {
            mem_busy_ = false;
            mem_.kind = MemOp::Kind::None;
        });
}

void PpcCpu::load(std::uint32_t ea, unsigned bytes, std::uint32_t rt) {
    mem_busy_ = true;
    mem_ = MemOp{MemOp::Kind::Load, ea, bytes, rt, 0};
    dma_.start_read(
        ea & ~3u, 1, [this](std::uint32_t, Word w) { finish_load(w); },
        [this] {
            mem_busy_ = false;
            mem_.kind = MemOp::Kind::None;
        });
}

void PpcCpu::store(std::uint32_t ea, unsigned bytes, std::uint32_t value) {
    mem_busy_ = true;
    if (bytes == 4) {
        mem_ = MemOp{MemOp::Kind::Store4, ea, 4, 0, value};
        dma_.start_write(
            ea & ~3u, 1,
            [this](std::uint32_t) { return Word{mem_.value}; }, [this] {
                mem_busy_ = false;
                mem_.kind = MemOp::Kind::None;
            });
        return;
    }
    // Sub-word store: read-modify-write through the bus (the model's
    // substitute for byte enables; see header).
    mem_ = MemOp{MemOp::Kind::RmwRead, ea, bytes, 0, value};
    dma_.start_read(
        mem_.ea & ~3u, 1, [this](std::uint32_t, Word w) { rmw_merge(w); },
        [this] { issue_rmw_write(); });
}

void PpcCpu::ckpt_save(rtlsim::SnapWriter& w) const {
    dma_.ckpt_save(w);
    for (std::uint32_t g : st_.gpr) w.u32(g);
    w.u32(st_.pc);
    w.u32(st_.msr);
    w.u32(st_.cr0);
    w.u32(st_.lr);
    w.u32(st_.ctr);
    w.u32(st_.xer);
    w.u32(st_.srr0);
    w.u32(st_.srr1);
    w.bool8(in_reset_);
    w.bool8(st_.halted);
    w.bool8(fatal_);
    w.bool8(mem_busy_);
    w.bool8(dcr_busy_);
    w.u64(icount_);
    w.u64(irqs_);
    w.u32(x_reports_);
    w.u8(static_cast<std::uint8_t>(mem_.kind));
    w.u32(mem_.ea);
    w.u32(mem_.bytes);
    w.u32(mem_.rt);
    w.u32(mem_.value);
    w.u8(static_cast<std::uint8_t>(dcrop_.kind));
    w.u32(dcrop_.dcrn);
    w.u32(dcrop_.rt);
    // Appended after the seed image: the syscall layer, then the retired
    // sleep-window fields as the zeros every save wrote. The decode cache
    // itself is derived state and stays out of the snapshot.
    host_.ckpt_save(w);
    w.u32(isr_depth_);
    for (unsigned i = 0; i < kRetiredSleepBytes; ++i) w.u8(0);
}

bool PpcCpu::ckpt_restore(rtlsim::SnapReader& r) {
    if (!dma_.ckpt_restore(r)) return false;
    for (std::uint32_t& g : st_.gpr) g = r.u32();
    st_.pc = r.u32();
    st_.msr = r.u32();
    st_.cr0 = r.u32();
    st_.lr = r.u32();
    st_.ctr = r.u32();
    st_.xer = r.u32();
    st_.srr0 = r.u32();
    st_.srr1 = r.u32();
    in_reset_ = r.bool8();
    st_.halted = r.bool8();
    fatal_ = r.bool8();
    mem_busy_ = r.bool8();
    dcr_busy_ = r.bool8();
    icount_ = r.u64();
    irqs_ = r.u64();
    x_reports_ = r.u32();
    const std::uint8_t mk = r.u8();
    if (mk > static_cast<std::uint8_t>(MemOp::Kind::RmwWrite)) return false;
    mem_.kind = static_cast<MemOp::Kind>(mk);
    mem_.ea = r.u32();
    mem_.bytes = r.u32();
    mem_.rt = r.u32();
    mem_.value = r.u32();
    const std::uint8_t dk = r.u8();
    if (dk > static_cast<std::uint8_t>(DcrOp::Kind::Write)) return false;
    dcrop_.kind = static_cast<DcrOp::Kind>(dk);
    dcrop_.dcrn = r.u32();
    dcrop_.rt = r.u32();
    if (!host_.ckpt_restore(r)) return false;
    isr_depth_ = r.u32();
    for (unsigned i = 0; i < kRetiredSleepBytes; ++i) {
        if (r.u8() != 0) return false;
    }
    if (!r.ok_so_far()) return false;
    if (mem_.rt >= st_.gpr.size() || dcrop_.rt >= st_.gpr.size()) return false;
    if (mem_busy_ != dma_.busy()) return false;
    if (mem_busy_ && mem_.kind == MemOp::Kind::None) return false;
    // Re-arm whichever completion closures the open operation needs.
    switch (mem_.kind) {
        case MemOp::Kind::Load:
            dma_.ckpt_rearm(
                [this](std::uint32_t, Word w) { finish_load(w); }, {},
                [this] {
                    mem_busy_ = false;
                    mem_.kind = MemOp::Kind::None;
                });
            break;
        case MemOp::Kind::RmwRead:
            dma_.ckpt_rearm([this](std::uint32_t, Word w) { rmw_merge(w); },
                            {}, [this] { issue_rmw_write(); });
            break;
        case MemOp::Kind::Store4:
        case MemOp::Kind::RmwWrite:
            dma_.ckpt_rearm(
                {}, [this](std::uint32_t) { return Word{mem_.value}; },
                [this] {
                    mem_busy_ = false;
                    mem_.kind = MemOp::Kind::None;
                });
            break;
        case MemOp::Kind::None: break;
    }
    if (dcr_busy_) {
        switch (dcrop_.kind) {
            case DcrOp::Kind::Read:
                dcr_.ckpt_rearm_read([this](Word w) { finish_mfdcr(w); });
                break;
            case DcrOp::Kind::Write:
                dcr_.ckpt_rearm_write([this] {
                    dcr_busy_ = false;
                    dcrop_.kind = DcrOp::Kind::None;
                });
                break;
            case DcrOp::Kind::None: return false;
        }
    }
    // The decode cache is rebuilt from restored memory on first use.
    cache_.flush();
    cur_blk_ = nullptr;
    return true;
}

void PpcCpu::execute(std::uint32_t insn) {
    const std::uint32_t op = insn >> 26;
    const std::uint32_t rt = (insn >> 21) & 0x1F;
    const std::uint32_t ra = (insn >> 16) & 0x1F;
    const std::uint32_t imm = insn & 0xFFFF;
    const std::int32_t simm = sext16(imm);
    const std::uint32_t a0 = (ra == 0) ? 0 : st_.gpr[ra];  // (rA|0) semantics

    switch (op) {
        case OP_ADDI: st_.gpr[rt] = a0 + static_cast<std::uint32_t>(simm); return;
        case OP_ADDIS: st_.gpr[rt] = a0 + (imm << 16); return;
        case OP_ADDIC: st_.gpr[rt] = st_.gpr[ra] + static_cast<std::uint32_t>(simm); return;
        case OP_MULLI:
            st_.gpr[rt] = mul_low32(st_.gpr[ra], static_cast<std::uint32_t>(simm));
            return;
        case OP_SUBFIC:
            st_.gpr[rt] = static_cast<std::uint32_t>(simm) - st_.gpr[ra];
            return;
        case OP_ORI: st_.gpr[ra] = st_.gpr[rt] | imm; return;
        case OP_ORIS: st_.gpr[ra] = st_.gpr[rt] | (imm << 16); return;
        case OP_XORI: st_.gpr[ra] = st_.gpr[rt] ^ imm; return;
        case OP_XORIS: st_.gpr[ra] = st_.gpr[rt] ^ (imm << 16); return;
        case OP_ANDI:
            st_.gpr[ra] = st_.gpr[rt] & imm;
            set_cr0(static_cast<std::int32_t>(st_.gpr[ra]));
            return;
        case OP_ANDIS:
            st_.gpr[ra] = st_.gpr[rt] & (imm << 16);
            set_cr0(static_cast<std::int32_t>(st_.gpr[ra]));
            return;

        case OP_CMPI: {
            const auto a = static_cast<std::int32_t>(st_.gpr[ra]);
            st_.cr0 = (a < simm) ? CR0_LT : (a > simm) ? CR0_GT : CR0_EQ;
            return;
        }
        case OP_CMPLI: {
            const std::uint32_t a = st_.gpr[ra];
            st_.cr0 = (a < imm) ? CR0_LT : (a > imm) ? CR0_GT : CR0_EQ;
            return;
        }

        case OP_RLWINM: {
            const std::uint32_t rs = rt;
            const std::uint32_t sh = (insn >> 11) & 0x1F;
            const std::uint32_t mb = (insn >> 6) & 0x1F;
            const std::uint32_t me = (insn >> 1) & 0x1F;
            const std::uint32_t rot =
                (st_.gpr[rs] << sh) | (sh == 0 ? 0 : (st_.gpr[rs] >> (32 - sh)));
            // Power mask: 1s from bit MB through bit ME inclusive, bits
            // numbered from the MSB; MB > ME wraps.
            const std::uint32_t m_begin = ~0u >> mb;
            const std::uint32_t m_end = ~0u << (31 - me);
            const std::uint32_t mask =
                (mb <= me) ? (m_begin & m_end) : (m_begin | m_end);
            st_.gpr[ra] = rot & mask;
            if (insn & 1) set_cr0(static_cast<std::int32_t>(st_.gpr[ra]));
            return;
        }

        case OP_LWZ: load(a0 + static_cast<std::uint32_t>(simm), 4, rt); return;
        case OP_LBZ: load(a0 + static_cast<std::uint32_t>(simm), 1, rt); return;
        case OP_LHZ: load(a0 + static_cast<std::uint32_t>(simm), 2, rt); return;
        case OP_LWZU: {
            const std::uint32_t ea = st_.gpr[ra] + static_cast<std::uint32_t>(simm);
            st_.gpr[ra] = ea;
            load(ea, 4, rt);
            return;
        }
        case OP_LBZU: {
            const std::uint32_t ea = st_.gpr[ra] + static_cast<std::uint32_t>(simm);
            st_.gpr[ra] = ea;
            load(ea, 1, rt);
            return;
        }
        case OP_LHZU: {
            const std::uint32_t ea = st_.gpr[ra] + static_cast<std::uint32_t>(simm);
            st_.gpr[ra] = ea;
            load(ea, 2, rt);
            return;
        }
        case OP_STW: store(a0 + static_cast<std::uint32_t>(simm), 4, st_.gpr[rt]); return;
        case OP_STB: store(a0 + static_cast<std::uint32_t>(simm), 1, st_.gpr[rt]); return;
        case OP_STH: store(a0 + static_cast<std::uint32_t>(simm), 2, st_.gpr[rt]); return;
        case OP_STWU: {
            const std::uint32_t ea = st_.gpr[ra] + static_cast<std::uint32_t>(simm);
            st_.gpr[ra] = ea;
            store(ea, 4, st_.gpr[rt]);
            return;
        }
        case OP_STBU: {
            const std::uint32_t ea = st_.gpr[ra] + static_cast<std::uint32_t>(simm);
            st_.gpr[ra] = ea;
            store(ea, 1, st_.gpr[rt]);
            return;
        }
        case OP_STHU: {
            const std::uint32_t ea = st_.gpr[ra] + static_cast<std::uint32_t>(simm);
            st_.gpr[ra] = ea;
            store(ea, 2, st_.gpr[rt]);
            return;
        }

        case OP_SC: do_syscall(); return;

        case OP_B: {
            const std::int32_t li =
                (static_cast<std::int32_t>(insn << 6) >> 6) & ~3;
            const std::uint32_t from = st_.pc - 4;
            if (insn & 1) st_.lr = st_.pc;  // bl
            const std::uint32_t target =
                (insn & 2) ? static_cast<std::uint32_t>(li)
                           : from + static_cast<std::uint32_t>(li);
            if (target == from && (insn & 1) == 0) st_.halted = true;
            st_.pc = target;
            return;
        }
        case OP_BC: {
            const std::uint32_t bo = rt;
            const std::uint32_t bi = ra;
            const std::int32_t bd = sext16(insn & 0xFFFC);
            bool ctr_ok = true;
            if ((bo & 0x4) == 0) {  // decrement CTR
                --st_.ctr;
                ctr_ok = ((bo & 0x2) != 0) == (st_.ctr == 0);
            }
            bool cond_ok = true;
            if ((bo & 0x10) == 0) {
                const bool bit = (st_.cr0 >> (3 - bi)) & 1;
                cond_ok = ((bo & 0x8) != 0) == bit;
            }
            if (ctr_ok && cond_ok) {
                const std::uint32_t from = st_.pc - 4;
                if (insn & 1) st_.lr = st_.pc;
                st_.pc = from + static_cast<std::uint32_t>(bd);
                if (st_.pc == from && (insn & 1) == 0) st_.halted = true;
            }
            return;
        }

        case OP_XL: {
            const std::uint32_t xo = (insn >> 1) & 0x3FF;
            if (xo == XL_BCLR) {
                const std::uint32_t bo = rt;
                bool cond_ok = true;
                if ((bo & 0x10) == 0) {
                    const bool bit = (st_.cr0 >> (3 - ra)) & 1;
                    cond_ok = ((bo & 0x8) != 0) == bit;
                }
                if (cond_ok) {
                    const std::uint32_t target = st_.lr & ~3u;
                    if (insn & 1) st_.lr = st_.pc;
                    st_.pc = target;
                }
                return;
            }
            if (xo == XL_BCCTR) {
                if (insn & 1) st_.lr = st_.pc;
                st_.pc = st_.ctr & ~3u;
                return;
            }
            if (xo == XL_RFI) {
                st_.msr = st_.srr1;
                st_.pc = st_.srr0;
                if (isr_depth_ > 0) --isr_depth_;
                return;
            }
            if (xo == XL_ISYNC) return;
            illegal(insn, "XL");
            return;
        }

        case OP_X: exec_op31(insn); return;

        default:
            illegal(insn, "primary opcode " + std::to_string(op));
            return;
    }
}

void PpcCpu::exec_op31(std::uint32_t insn) {
    const std::uint32_t rt = (insn >> 21) & 0x1F;
    const std::uint32_t ra = (insn >> 16) & 0x1F;
    const std::uint32_t rb = (insn >> 11) & 0x1F;
    const bool rc = (insn & 1) != 0;
    const std::uint32_t xo = (insn >> 1) & 0x3FF;

    auto put = [&](std::uint32_t dest, std::uint32_t v) {
        st_.gpr[dest] = v;
        if (rc) set_cr0(static_cast<std::int32_t>(v));
    };

    switch (xo) {
        case X_ADD: put(rt, st_.gpr[ra] + st_.gpr[rb]); return;
        case X_SUBF: put(rt, st_.gpr[rb] - st_.gpr[ra]); return;
        case X_NEG: put(rt, 0u - st_.gpr[ra]); return;
        case X_MULLW: put(rt, mul_low32(st_.gpr[ra], st_.gpr[rb])); return;
        case X_DIVW:
            if (st_.gpr[rb] == 0) {
                report("divw by zero");
                put(rt, 0);
            } else if (st_.gpr[ra] == 0x8000'0000u &&
                       st_.gpr[rb] == 0xFFFF'FFFFu) {
                // INT_MIN / -1: result undefined by the ISA (and a host
                // SIGFPE if computed naively); pin it and diagnose.
                report("divw overflow");
                put(rt, 0x8000'0000u);
            } else {
                put(rt, static_cast<std::uint32_t>(
                            static_cast<std::int32_t>(st_.gpr[ra]) /
                            static_cast<std::int32_t>(st_.gpr[rb])));
            }
            return;
        case X_DIVWU:
            if (st_.gpr[rb] == 0) {
                report("divwu by zero");
                put(rt, 0);
            } else {
                put(rt, st_.gpr[ra] / st_.gpr[rb]);
            }
            return;

        // Logical/shift: dest is rA, source is the rT slot (rS).
        case X_AND: put(ra, st_.gpr[rt] & st_.gpr[rb]); return;
        case X_OR: put(ra, st_.gpr[rt] | st_.gpr[rb]); return;
        case X_XOR: put(ra, st_.gpr[rt] ^ st_.gpr[rb]); return;
        case X_NOR: put(ra, ~(st_.gpr[rt] | st_.gpr[rb])); return;
        case X_ANDC: put(ra, st_.gpr[rt] & ~st_.gpr[rb]); return;
        case X_SLW: {
            const std::uint32_t sh = st_.gpr[rb] & 0x3F;
            put(ra, sh >= 32 ? 0 : st_.gpr[rt] << sh);
            return;
        }
        case X_SRW: {
            const std::uint32_t sh = st_.gpr[rb] & 0x3F;
            put(ra, sh >= 32 ? 0 : st_.gpr[rt] >> sh);
            return;
        }
        case X_SRAW: {
            const std::uint32_t sh = st_.gpr[rb] & 0x3F;
            const auto s = static_cast<std::int32_t>(st_.gpr[rt]);
            put(ra, static_cast<std::uint32_t>(sh >= 32 ? (s < 0 ? -1 : 0)
                                                        : (s >> sh)));
            return;
        }
        case X_SRAWI: {
            const auto s = static_cast<std::int32_t>(st_.gpr[rt]);
            put(ra, static_cast<std::uint32_t>(s >> rb));
            return;
        }

        case X_CMP: {
            const auto a = static_cast<std::int32_t>(st_.gpr[ra]);
            const auto b = static_cast<std::int32_t>(st_.gpr[rb]);
            st_.cr0 = (a < b) ? CR0_LT : (a > b) ? CR0_GT : CR0_EQ;
            return;
        }
        case X_CMPL:
            st_.cr0 = (st_.gpr[ra] < st_.gpr[rb])   ? CR0_LT
                      : (st_.gpr[ra] > st_.gpr[rb]) ? CR0_GT
                                                    : CR0_EQ;
            return;

        case X_MFSPR: {
            switch (unsplit_sprf(insn)) {
                case SPR_XER: st_.gpr[rt] = st_.xer; return;
                case SPR_LR: st_.gpr[rt] = st_.lr; return;
                case SPR_CTR: st_.gpr[rt] = st_.ctr; return;
                case SPR_SRR0: st_.gpr[rt] = st_.srr0; return;
                case SPR_SRR1: st_.gpr[rt] = st_.srr1; return;
                default: illegal(insn, "mfspr"); return;
            }
        }
        case X_MTSPR: {
            switch (unsplit_sprf(insn)) {
                case SPR_XER: st_.xer = st_.gpr[rt]; return;
                case SPR_LR: st_.lr = st_.gpr[rt]; return;
                case SPR_CTR: st_.ctr = st_.gpr[rt]; return;
                case SPR_SRR0: st_.srr0 = st_.gpr[rt]; return;
                case SPR_SRR1: st_.srr1 = st_.gpr[rt]; return;
                default: illegal(insn, "mtspr"); return;
            }
        }
        // Condition-register moves: only CR0 is modelled; it occupies the
        // top nibble of the architectural CR.
        case X_MFCR: st_.gpr[rt] = st_.cr0 << 28; return;
        case X_MTCRF: st_.cr0 = (st_.gpr[rt] >> 28) & 0xF; return;

        case X_MFMSR: st_.gpr[rt] = st_.msr; return;
        case X_MTMSR: st_.msr = st_.gpr[rt]; return;
        case X_WRTEEI:
            if (insn & (1u << 15)) {
                st_.msr |= MSR_EE;
            } else {
                st_.msr &= ~MSR_EE;
            }
            return;

        case X_MFDCR: {
            const std::uint32_t dcrn = unsplit_sprf(insn);
            dcr_busy_ = true;
            dcrop_ = DcrOp{DcrOp::Kind::Read, dcrn, rt};
            dcr_.start_read(dcrn, [this](Word w) { finish_mfdcr(w); });
            return;
        }
        case X_MTDCR: {
            const std::uint32_t dcrn = unsplit_sprf(insn);
            dcr_busy_ = true;
            dcrop_ = DcrOp{DcrOp::Kind::Write, dcrn, 0};
            dcr_.start_write(dcrn, Word{st_.gpr[rt]}, [this] {
                dcr_busy_ = false;
                dcrop_.kind = DcrOp::Kind::None;
            });
            return;
        }

        case X_SYNC: return;

        default:
            illegal(insn, "op31 xo " + std::to_string(xo));
            return;
    }
}

}  // namespace autovision::isa
