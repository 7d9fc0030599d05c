#include "diff.hpp"

#include <memory>
#include <optional>

#include "scen/dpr_stack.hpp"
#include "sys/address_map.hpp"
#include "vm/virtual_mux.hpp"

namespace autovision::diff {

using rtlsim::Word;

const char* to_string(DiffFault f) {
    switch (f) {
        case DiffFault::kNone: return "none";
        case DiffFault::kVmNoSigInit: return "vm-no-sig-init";
        case DiffFault::kIsolationMissing: return "isolation-missing";
        case DiffFault::kWrongModuleMap: return "wrong-module-map";
        case DiffFault::kCount: break;
    }
    return "?";
}

DiffFault fault_from_string(const std::string& s, bool* ok) {
    for (unsigned i = 0; i < static_cast<unsigned>(DiffFault::kCount); ++i) {
        const auto f = static_cast<DiffFault>(i);
        if (s == to_string(f)) {
            if (ok != nullptr) *ok = true;
            return f;
        }
    }
    if (ok != nullptr) *ok = false;
    return DiffFault::kNone;
}

namespace {

using scen::DprStack;

// Probe geometry: one 16x16 frame pair at fixed addresses, one output
// window per probe index. Margin 4 keeps the ME grid non-empty at 16x16.
constexpr unsigned kProbeW = 16;
constexpr unsigned kProbeH = 16;
constexpr std::uint32_t kProbeSrcA = 0x4'0000;
constexpr std::uint32_t kProbeSrcB = 0x4'1000;
constexpr std::uint32_t kProbeDstBase = 0x5'0000;
constexpr std::uint32_t kProbeDstStride = 0x1000;
constexpr unsigned kProbeOutBytes = 64;
constexpr std::uint32_t kMeParam = 2u | (4u << 8) | (4u << 16);

[[nodiscard]] constexpr unsigned slot_of(std::uint8_t module_id) {
    return module_id == 1 ? 0u : 1u;
}

[[nodiscard]] bool cancelled(const DiffOptions& opt) {
    return opt.cancel != nullptr && opt.cancel->load(std::memory_order_relaxed);
}

/// One side of the pair: the minimal DPR stack with the isolation module
/// (so a correct ReSim-side driver can keep reconfiguration X off the bus)
/// and the probe frames in memory. The ReSim side adds the portal and ICAP
/// artifact and configures the CIE once the recorder listens, so its
/// recorded selects start with slot 0, as expected_selects does. The VM
/// side adds the engine_signature mux instead.
struct Side : DprStack {
    std::unique_ptr<vm::VirtualMux> vmux;  ///< VM side only

    Side(bool resim, DiffFault inject)
        : DprStack(Parts{.isolation = true, .icap = resim}) {
        listen();
        if (resim) {
            configure(inject == DiffFault::kWrongModuleMap);
        } else {
            vmux = std::make_unique<vm::VirtualMux>(sch, "vmux", rr,
                                                    sys::kDcrSig);
            vmux->map_module(1, 0);
            vmux->map_module(2, 1);
            dcr.attach(*vmux);
            // A VM wrapper has both engines instantiated; a mis-steered
            // 2-state mux drives idle levels, never X.
            rr.set_unselected_policy(RrBoundary::UnselectedPolicy::kIdle);
            sections.add("vmux", *vmux);
        }
        load_probe_images();
    }

    void load_probe_images() {
        std::vector<std::uint8_t> img(kProbeW * kProbeH);
        std::uint32_t s = 0x0123'4567u;
        for (std::uint8_t& b : img) {
            s = s * 1664525u + 1013904223u;
            b = static_cast<std::uint8_t>(s >> 24);
        }
        mem.load_bytes(kProbeSrcA, img);
        for (std::uint8_t& b : img) {
            s = s * 1664525u + 1013904223u;
            b = static_cast<std::uint8_t>(s >> 24);
        }
        mem.load_bytes(kProbeSrcB, img);
    }

    void wait_dcr() {
        for (unsigned i = 0; i < 64 && dcr.busy(); ++i) run_cycles(1);
    }

    /// Program, start and wait out one engine job, then hash the output
    /// window. A start pulse aimed at a module that is not resident is
    /// simply lost (the bug.dpr.6b mechanism), which the early busy/done
    /// check converts into done=false without burning the full budget.
    ProbeOutcome probe(std::uint8_t module_id, unsigned index,
                       const DiffOptions& opt) {
        EngineRegs& regs = module_id == 1 ? cie_regs : me_regs;
        const std::uint32_t base = module_id == 1 ? 0x60u : 0x68u;
        const std::uint32_t dst = kProbeDstBase + index * kProbeDstStride;
        regs.dcr_write(base + EngineRegs::kSrc, Word{kProbeSrcA});
        regs.dcr_write(base + EngineRegs::kDst, Word{dst});
        regs.dcr_write(base + EngineRegs::kDims,
                       Word{(kProbeW << 16) | kProbeH});
        if (module_id == 2) {
            regs.dcr_write(base + EngineRegs::kSrc2, Word{kProbeSrcB});
            regs.dcr_write(base + EngineRegs::kParam, Word{kMeParam});
        }
        run_cycles(4);
        regs.dcr_write(base + EngineRegs::kCtrl, Word{1});
        run_cycles(64);
        unsigned waited = 64;
        if (regs.busy() || regs.done()) {
            while (!regs.done() && waited < opt.probe_budget_cycles &&
                   !cancelled(opt)) {
                run_cycles(128);
                waited += 128;
            }
        }
        ProbeOutcome out;
        out.done = regs.done();
        regs.dcr_write(base + EngineRegs::kStatus, Word{2});  // W1C done
        run_cycles(2);
        std::uint64_t h = 1469598103934665603ull;  // FNV-1a
        for (unsigned i = 0; i < kProbeOutBytes; ++i) {
            bool ok = false;
            std::uint8_t v = mem.peek_u8(dst + i, &ok);
            if (!ok) {
                ++out.x_bytes;
                v = 0xAA;  // deterministic sentinel keeps the hash stable
            }
            h = (h ^ v) * 1099511628211ull;
        }
        out.hash = h;
        return out;
    }

    void finish(SideRun& run, const DiffOptions& opt) {
        run.cancelled = run.cancelled || cancelled(opt);
        run.events = rec.snapshot();
        for (const obs::Event& e : run.events) {
            if (e.kind == obs::EventKind::kSelect &&
                e.src == obs::Source::kRrBoundary) {
                run.selects.push_back(static_cast<std::int32_t>(e.a));
            }
        }
        run.diagnostics.reserve(sch.diagnostics().size());
        for (const rtlsim::Diag& d : sch.diagnostics()) {
            run.diagnostics.push_back(d.source + ": " + d.message);
        }
        run.stats = sch.stats;
        run.sim_time = sch.now();
    }
};

/// Elaborate one side into `tb`, warm-started from its boot-cache entry
/// when there is one; returns whether it started warm. A cold side boots
/// (elaborate + reset settle) and refills the cache entry.
bool start_side(std::optional<Side>& tb, bool resim, const DiffOptions& opt) {
    // The injected fault is folded into the blob identity: a boot saved
    // with the signature initialised must never restore into a
    // kVmNoSigInit elaboration (and vice versa). ReSim v2: the recorder
    // section follows the ICAP artifact's, in stack order.
    const std::uint64_t hash = rtlsim::snap_hash64_u64(
        static_cast<std::uint64_t>(opt.inject),
        rtlsim::snap_hash64(resim ? "autovision.difftb.resim.v2"
                                  : "autovision.difftb.vm.v1"));
    std::string* cached = nullptr;
    if (opt.boot != nullptr) {
        cached = &(resim ? opt.boot->resim
                         : opt.boot->vm)[static_cast<std::size_t>(opt.inject)];
    }
    tb.emplace(resim, opt.inject);
    if (cached != nullptr && !cached->empty()) {
        if (tb->restore(*cached, hash)) return true;
        // A restore that fails partway leaves the side half-written.
        tb.emplace(resim, opt.inject);
    }
    if (!resim && opt.inject != DiffFault::kVmNoSigInit) {
        // The boot firmware's engine_signature initialisation — exactly
        // the write bug.hw.2 forgets. Like the system's power-on
        // configuration it happens at elaboration, before the first
        // delta cycle.
        tb->vmux->dcr_write(sys::kDcrSig, Word{1});
    }
    tb->boot();
    if (cached != nullptr) *cached = tb->save(hash);
    return false;
}

}  // namespace

SideRun run_vm_side(const scen::Scenario& s, const DiffOptions& opt) {
    SideRun run;
    std::optional<Side> tb;
    run.warm_started = start_side(tb, /*resim=*/false, opt);
    Side& f = *tb;

    run.probes.push_back(f.probe(1, 0, opt));
    std::uint8_t resident = 1;
    unsigned idx = 1;
    for (const scen::StreamSession& ss : s.sessions) {
        if (cancelled(opt)) {
            run.cancelled = true;
            break;
        }
        // VM consumes only the swap schedule: a zero-delay signature write
        // per session that completes its swap. The SimB words, isolation
        // driving and capture/restore have no VM equivalent.
        if (scen::swap_expected(ss.corrupt)) {
            f.dcr.start_write(sys::kDcrSig, Word{ss.module_id});
            f.wait_dcr();
            resident = ss.module_id;
        }
        // The session's DCR transaction, issued up front: the VM side has
        // no payload window to overlap it with.
        if (ss.dcr != scen::DcrTraffic::kNone) {
            f.issue_traffic(ss);
            f.wait_dcr();
        }
        f.run_cycles(16);
        run.probes.push_back(f.probe(resident, idx, opt));
        ++idx;
    }
    run.swaps = f.vmux->swaps();
    f.finish(run, opt);
    return run;
}

SideRun run_resim_side(const scen::Scenario& s, const DiffOptions& opt) {
    SideRun run;
    std::optional<Side> tb;
    run.warm_started = start_side(tb, /*resim=*/true, opt);
    Side& f = *tb;

    run.probes.push_back(f.probe(1, 0, opt));
    std::uint8_t resident = 1;
    unsigned idx = 1;
    const bool drive_iso = opt.inject != DiffFault::kIsolationMissing;
    for (const scen::StreamSession& ss : s.sessions) {
        if (cancelled(opt)) {
            run.cancelled = true;
            break;
        }
        // The correct driver isolates the region across the bitstream
        // transfer; skipping these two writes is bug.dpr.1.
        if (drive_iso) f.iso->dcr_write(sys::kDcrIso, Word{1});
        f.play(ss, opt.cancel);
        if (drive_iso) {
            f.iso->dcr_write(sys::kDcrIso, Word{0});
            f.run_cycles(2);
        }
        if (scen::swap_expected(ss.corrupt)) resident = ss.module_id;
        run.probes.push_back(f.probe(resident, idx, opt));
        ++idx;
    }
    run.swaps = f.portal->reconfigurations();
    run.aborts = f.portal->aborts();
    run.captures = f.portal->captures();
    run.restores = f.portal->restores();
    f.finish(run, opt);
    return run;
}

std::vector<int> expected_selects(const scen::Scenario& s) {
    std::vector<int> v{0};  // initial configuration: CIE in slot 0
    for (const scen::StreamSession& ss : s.sessions) {
        if (scen::swap_expected(ss.corrupt)) {
            v.push_back(static_cast<int>(slot_of(ss.module_id)));
        }
    }
    return v;
}

std::size_t simb_word_count(const scen::Scenario& s) {
    std::size_t n = 0;
    for (const scen::StreamSession& ss : s.sessions) n += ss.words().size();
    return n;
}

}  // namespace autovision::diff
