#include "rrm_harness.hpp"

#include <algorithm>
#include <utility>

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

    ckpt_.add("clock", clk);
    ckpt_.add("reset", rst);
    ckpt_.add("memory", mem);
    ckpt_.add("plb", plb);
    ckpt_.add("dcr", dcr);
    for (unsigned r = 0; r < regions_.size(); ++r) {
        ckpt_.add('r' + std::to_string(r) + ".block", *regions_[r]);
    }
    ckpt_.add("portal", portal);
    ckpt_.add("icap", icap);
    add_pool_sections(ckpt_, regions_, manager, &arbiter);
    ckpt_.add("recorder", rec);
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
    return rrm::region_snapshots(regions_, manager);
}

bool RrmHarness::save(std::ostream& os) const {
    // Any delta-quiescent point works: the manager re-arms its in-flight
    // DCR completion on restore, and the engines re-arm their DMA bursts.
    return ckpt_.save(os, cfg.config_hash());
}

bool RrmHarness::restore(std::istream& is, std::string* error) {
    return ckpt_.restore(is, cfg.config_hash(), error);
}

RrmResult run_rrm_scenario(const RrmConfig& cfg) {
    RrmHarness tb(cfg);
    tb.boot();
    tb.start();
    tb.run_to_completion();
    return tb.collect();
}

}  // namespace autovision::rrm
