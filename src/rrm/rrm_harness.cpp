#include "rrm_harness.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "ckpt/checkpoint.hpp"
#include "kernel/prng.hpp"
#include "kernel/snapshot.hpp"

namespace autovision::rrm {

namespace {

using rtlsim::Logic;
using rtlsim::Time;

/// Harness-wide clamp: at least one region, at most the event schema's
/// region-tag capacity (obs::kMaxRegions).
RrmConfig clamp_config(RrmConfig cfg) {
    cfg.regions = std::clamp(cfg.regions, 1u,
                             static_cast<unsigned>(obs::kMaxRegions));
    if (cfg.jobs_per_region == 0) cfg.jobs_per_region = 1;
    if (cfg.word_gap == 0) cfg.word_gap = 1;
    if (cfg.victim >= cfg.regions) cfg.victim = 0;
    return cfg;
}

}  // namespace

std::uint64_t RrmConfig::config_hash() const {
    using rtlsim::snap_hash64;
    using rtlsim::snap_hash64_u64;
    // Domain string first (the sysconfig idiom); bump the suffix when the
    // field list or the harness topology changes.
    std::uint64_t h = snap_hash64("autovision.rrmtb.v1");
    h = snap_hash64_u64(regions, h);
    h = snap_hash64_u64(static_cast<std::uint64_t>(policy), h);
    h = snap_hash64_u64(static_cast<std::uint64_t>(grant), h);
    h = snap_hash64_u64(vm_mode ? 1 : 0, h);
    h = snap_hash64_u64(payload_words, h);
    h = snap_hash64_u64(word_gap, h);
    h = snap_hash64_u64(width, h);
    h = snap_hash64_u64(height, h);
    h = snap_hash64_u64(jobs_per_region, h);
    h = snap_hash64_u64(seed, h);
    h = snap_hash64_u64(static_cast<std::uint64_t>(corrupt), h);
    h = snap_hash64_u64(victim, h);
    h = snap_hash64_u64(watchdog_cycles, h);
    // max_cycles is deliberately excluded: it bounds how long the driver
    // runs, not how the state evolves, so snapshots interchange freely
    // between bailout settings.
    return h;
}

RrmHarness::RrmHarness(const RrmConfig& c)
    : cfg(clamp_config(c)),
      clk(sch, "clk", kClk),
      rst(sch, "rst", 3 * kClk),
      mem(Memory::Config{0, 1u << 20, 4}),
      plb(sch, "plb", clk.out, rst.out, Plb::Config{cfg.regions, 16, 1u << 30}),
      dcr(sch, "dcr", clk.out, rst.out),
      portal(sch, "portal"),
      icap(sch, "icap", portal),
      arbiter(sch, "arb", clk.out, rst.out, icap, cfg.regions, cfg.grant),
      manager(sch, "rrm", clk.out, rst.out, dcr, cfg.vm_mode ? nullptr : &arbiter,
              RegionManager::Config{cfg.policy, cfg.vm_mode, cfg.payload_words,
                                    cfg.word_gap, cfg.seed, cfg.corrupt,
                                    cfg.victim, cfg.watchdog_cycles}) {
    plb.attach_slave(mem);
    rec.set_enabled(true);

    regions_.reserve(cfg.regions);
    for (unsigned r = 0; r < cfg.regions; ++r) {
        const std::uint32_t base = kDcrBase + r * kDcrStride;
        RegionLayout lay;
        lay.plb_master = r;
        lay.region = static_cast<std::uint8_t>(r);
        lay.iso_dcr = base + kIsoOff;
        lay.regs_dcr = base + kRegsOff;
        lay.sig_dcr = base + kSigOff;
        lay.vm_mode = cfg.vm_mode;
        regions_.push_back(std::make_unique<RegionBlock>(
            sch, 'r' + std::to_string(r), clk.out, rst.out, plb, lay));
    }

    for (unsigned r = 0; r < cfg.regions; ++r) {
        RegionBlock& reg = *regions_[r];
        // DCR ring order is part of the topology: iso, regs[, vmux] per
        // region, regions in index order.
        reg.attach_dcr(dcr);
        // ReSim datapath: region r answers SimB FAR region id r+1.
        if (!cfg.vm_mode) reg.map_portal(portal);
        manager.add_region(reg.ports());
        reg.set_observer(&rec);
    }

    icap.set_observer(&rec);
    portal.set_observer(&rec);
    dcr.set_observer(&rec);
    arbiter.set_observer(&rec);
    manager.set_observer(&rec);
}

void RrmHarness::boot() { sch.run_until(8 * kClk); }

void RrmHarness::start() {
    // Deterministic scene: two pseudo-random frames shared by every region
    // (cur for single-source engines, cur+prev for matching/flow).
    const std::uint32_t pixels = cfg.width * cfg.height;
    for (std::uint32_t i = 0; i < pixels; ++i) {
        mem.poke_u8(kCurFrame + i, static_cast<std::uint8_t>(
                                       rtlsim::derive_seed(cfg.seed,
                                                           0xF0C0'0000ull + i)));
        mem.poke_u8(kPrevFrame + i, static_cast<std::uint8_t>(
                                        rtlsim::derive_seed(
                                            cfg.seed, 0xF1C0'0000ull + i)));
    }

    // Job mix: engines rotate through the library with a per-region phase,
    // so three regions exercise disjoint engine sequences from one seed.
    for (unsigned r = 0; r < cfg.regions; ++r) {
        for (unsigned j = 0; j < cfg.jobs_per_region; ++j) {
            const EngineInfo& info =
                engine_library()[(r + j) % kNumEngines];
            RegionJob job;
            job.engine = info.kind;
            job.src = kCurFrame;
            job.src2 = info.needs_src2 ? kPrevFrame : 0;
            job.dst = kDstBase +
                      (r * cfg.jobs_per_region + j) * kDstStride;
            job.width = static_cast<std::uint16_t>(cfg.width);
            job.height = static_cast<std::uint16_t>(cfg.height);
            job.param = info.kind == EngineKind::kMatching
                            ? (1u | (2u << 8) | (2u << 16))
                            : 0u;
            job.deadline = rtlsim::derive_seed32(
                               cfg.seed, 0xDEAD'0000ull + r * 16 + j) %
                           16u;
            manager.enqueue(r, job);
        }
    }
    manager.start();
}

void RrmHarness::run_to_completion() {
    const Time limit = sch.now() + cfg.max_cycles * kClk;
    while (!manager.done() && sch.now() < limit) {
        sch.run_until(std::min(sch.now() + 64 * kClk, limit));
    }
    // Let the last DCR token and done-IRQ edges settle.
    sch.run_until(sch.now() + 16 * kClk);
}

RrmResult RrmHarness::collect() {
    RrmResult res;
    res.completed = manager.done();
    res.schedule = manager.signature();
    res.swaps = portal.reconfigurations();
    for (unsigned r = 0; r < cfg.regions; ++r) {
        res.jobs_done.push_back(manager.jobs_done(r));
        res.sessions.push_back(manager.sessions_submitted(r));
        res.timeouts.push_back(manager.timeouts(r));
        res.arb_sessions.push_back(arbiter.stats(r).sessions);
        res.arb_max_wait.push_back(arbiter.stats(r).max_wait);
    }
    res.diagnostics = sch.diagnostics().size();
    res.diagnostic_text.reserve(res.diagnostics);
    for (const rtlsim::Diag& d : sch.diagnostics()) {
        res.diagnostic_text.push_back(d.source + ": " + d.message);
    }
    res.events = rec.snapshot();
    res.metrics = obs::Metrics::from_events(res.events, kClk);
    res.clk_period = kClk;
    res.sim_time = sch.now();
    res.stats = sch.stats;
    return res;
}

std::vector<RegionSnapshot> RrmHarness::region_snapshots() const {
    std::vector<RegionSnapshot> out;
    out.reserve(regions_.size());
    for (unsigned r = 0; r < regions_.size(); ++r) {
        const RegionBlock& reg = *regions_[r];
        RegionSnapshot s;
        s.index = static_cast<std::uint8_t>(r);
        s.resident = manager.started() ? manager.resident(r)
                                       : EngineKind::kNone;
        s.busy = reg.regs.busy();
        s.isolated = rtlsim::is1(reg.iso.isolate.read());
        s.swaps = manager.started() ? manager.sessions_submitted(r) : 0;
        s.jobs = manager.started() ? manager.jobs_done(r) : 0;
        out.push_back(s);
    }
    return out;
}

bool RrmHarness::save(std::ostream& os) const {
    // Any delta-quiescent point works: the manager re-arms its in-flight
    // DCR completion on restore, and the engines re-arm their DMA bursts.
    if (!sch.ckpt_quiescent()) return false;
    ckpt::Saver saver(
        ckpt::Manifest{ckpt::kFormatVersion, cfg.config_hash(), sch.now()});
    sch.ckpt_save(saver.section("kernel"));
    clk.ckpt_save(saver.section("clock"));
    rst.ckpt_save(saver.section("reset"));
    mem.ckpt_save(saver.section("memory"));
    plb.ckpt_save(saver.section("plb"));
    dcr.ckpt_save(saver.section("dcr"));
    for (unsigned r = 0; r < regions_.size(); ++r) {
        regions_[r]->ckpt_save(
            saver.section('r' + std::to_string(r) + ".block"));
    }
    portal.ckpt_save(saver.section("portal"));
    icap.ckpt_save(saver.section("icap"));
    // The region-array trio: decodable summary + the full mutable state.
    save_region_section(saver.section("rrm"), region_snapshots());
    arbiter.ckpt_save(saver.section("rrm_arb"));
    manager.ckpt_save(saver.section("rrm_mgr"));
    rec.ckpt_save(saver.section("recorder"));
    sch.ckpt_save_signals(saver.section("signals"));
    return saver.write_to(os);
}

bool RrmHarness::restore(std::istream& is, std::string* error) {
    const auto fail = [error](const std::string& what) {
        if (error != nullptr) *error = what;
        return false;
    };
    ckpt::Loader loader;
    if (!loader.load(is, cfg.config_hash())) return fail(loader.error());
    const auto section = [&](const std::string& name, auto&& target) {
        rtlsim::SnapReader r = loader.reader(name);
        return target.ckpt_restore(r);
    };
    const auto corrupt = [&](const std::string& name) {
        return fail(name + " section corrupt");
    };
    {
        rtlsim::SnapReader r = loader.reader("kernel");
        if (!sch.ckpt_restore(r)) return corrupt("kernel");
    }
    if (!section("clock", clk)) return corrupt("clock");
    if (!section("reset", rst)) return corrupt("reset");
    if (!section("memory", mem)) return corrupt("memory");
    if (!section("plb", plb)) return corrupt("plb");
    if (!section("dcr", dcr)) return corrupt("dcr");
    for (unsigned r = 0; r < regions_.size(); ++r) {
        const std::string name = 'r' + std::to_string(r) + ".block";
        if (!section(name, *regions_[r])) return corrupt(name);
    }
    if (!section("portal", portal)) return corrupt("portal");
    if (!section("icap", icap)) return corrupt("icap");
    std::vector<RegionSnapshot> summary;
    {
        rtlsim::SnapReader r = loader.reader("rrm");
        if (!load_region_section(r, summary)) return corrupt("rrm");
    }
    if (!section("rrm_arb", arbiter)) return corrupt("rrm_arb");
    if (!section("rrm_mgr", manager)) return corrupt("rrm_mgr");
    if (!section("recorder", rec)) return corrupt("recorder");
    {
        rtlsim::SnapReader r = loader.reader("signals");
        if (!sch.ckpt_restore_signals(r)) {
            return fail("signal registry mismatch");
        }
    }
    // The summary section must agree with the restored full state — this
    // keeps the decodable format honest against drift.
    if (summary != region_snapshots()) {
        return fail("rrm summary/state mismatch");
    }
    return true;
}

RrmResult run_rrm_scenario(const RrmConfig& cfg) {
    RrmHarness tb(cfg);
    tb.boot();
    tb.start();
    tb.run_to_completion();
    return tb.collect();
}

}  // namespace autovision::rrm
