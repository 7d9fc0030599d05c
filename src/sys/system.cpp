#include "system.hpp"

#include <istream>
#include <ostream>

#include "address_map.hpp"
#include "resim/injectors.hpp"

namespace autovision::sys {

namespace {

IcapCtrl::Config icap_config(const SystemConfig& cfg) {
    IcapCtrl::Config ic;
    ic.dcr_base = kDcrIcap;
    ic.size_in_bytes = true;  // the modified (shared-bus) IP counts bytes
    ic.p2p_mode = (cfg.fault == Fault::kDpr4P2pIcap);
    ic.burst_words = 16;
    ic.fifo_depth = cfg.icap_fifo_depth;
    ic.clk_div = cfg.icap_clk_div;
    return ic;
}

SystemConfig normalize(SystemConfig cfg) {
    if (cfg.regions < 1) cfg.regions = 1;
    if (cfg.regions > obs::kMaxRegions) {
        cfg.regions = obs::kMaxRegions;
    }
    if (cfg.rrm_jobs_per_region == 0) cfg.rrm_jobs_per_region = 1;
    if (cfg.regions == 1) cfg.rrm_software = false;
    return cfg;
}

FirmwareConfig firmware_config(const SystemConfig& cfg,
                               std::uint32_t simb_cie_words,
                               std::uint32_t simb_me_words) {
    FirmwareConfig fw;
    fw.method = cfg.method;
    fw.wait = cfg.wait;
    fw.delay_loops = cfg.delay_loops;
    fw.width = cfg.width;
    fw.height = cfg.height;
    fw.step = cfg.step;
    fw.margin = cfg.margin;
    fw.search = cfg.search;
    fw.simb_cie_words = simb_cie_words;
    fw.simb_me_words = simb_me_words;
    fw.fault = cfg.fault;
    fw.host_io = cfg.host_io;
    fw.exit_after_frames = cfg.exit_after_frames;
    if (cfg.rrm_software && cfg.regions > 1) {
        fw.pool_regions = cfg.regions - 1;
        fw.pool_jobs_per_region = cfg.rrm_jobs_per_region;
    }
    return fw;
}

}  // namespace

OpticalFlowSystem::OpticalFlowSystem(SystemConfig cfg)
    : cfg_(normalize(cfg)),
      clk(sch, "clk", cfg_.clk_period),
      rst(sch, "rst", 4 * cfg_.clk_period),
      mem(Memory::Config{0, 8u << 20, 4}),
      plb(sch, "plb", clk.out, rst.out,
          Plb::Config{kNumMasters + (cfg_.regions - 1), /*max_burst=*/16,
                      /*grant_timeout=*/50000}),
      dcr(sch, "dcr", clk.out, rst.out),
      intc(sch, "intc", clk.out, rst.out, kDcrIntc),
      iso(sch, "iso", kDcrIso),
      cie_regs(sch, "cie_regs", clk.out, kDcrCie),
      me_regs(sch, "me_regs", clk.out, kDcrMe),
      cie(sch, "cie", clk.out, rst.out, cie_regs),
      me(sch, "me", clk.out, rst.out, me_regs),
      rr_done(sch, "rr_done", rtlsim::Logic::L0),
      rr(sch, "rr", plb.master(kMasterRr), rr_done),
      icapctrl(sch, "icapctrl", clk.out, rst.out, plb.master(kMasterIcap),
               icap_router, icap_config(cfg)),
      video_in(sch, "video_in", clk.out, plb.master(kMasterVideoIn)),
      video_out(sch, "video_out", clk.out, plb.master(kMasterVideoOut)),
      firmware(),
      cpu(sch, "cpu", clk.out, rst.out, plb.master(kMasterCpu), dcr, mem,
          intc.irq, isa::PpcCpu::Config{kFwBase, 5}) {
    // --- bus topology -----------------------------------------------------
    plb.attach_slave(mem);

    // --- reconfigurable region --------------------------------------------
    rr.add_module(cie);  // slot 0 = module id 1
    rr.add_module(me);   // slot 1 = module id 2
    rr.set_isolation_signal(iso.isolate);
    switch (cfg.injection) {
        case SystemConfig::Injection::kX:
            break;  // the default ErrorInjector already drives X
        case SystemConfig::Injection::kHoldLast:
            rr.set_error_injector(
                std::make_unique<resim::HoldLastInjector>());
            break;
        case SystemConfig::Injection::kZeros:
            rr.set_error_injector(std::make_unique<resim::ZeroInjector>());
            break;
        case SystemConfig::Injection::kGarbage:
            rr.set_error_injector(std::make_unique<resim::GarbageInjector>(
                rtlsim::derive_seed32(cfg.seed, kSeedTagInjector)));
            break;
    }

    // --- interrupt fabric ----------------------------------------------------
    intc.attach(rr_done);               // line 0: engine done (through RR)
    intc.attach(icapctrl.done_irq);     // line 1: bitstream transfer done
    intc.attach(video_in.frame_irq);    // line 2: camera frame landed

    // --- DCR daisy chain (ring order models physical placement) -----------
    dcr.attach(icapctrl);
    dcr.attach(iso);
    dcr.attach(intc);
    dcr.attach(cie_regs);
    dcr.attach(me_regs);

    // --- method-specific simulation-only layer ------------------------------
    if (is_resim()) {
        portal = std::make_unique<resim::ExtendedPortal>(sch, "portal");
        icap_artifact =
            std::make_unique<resim::IcapArtifact>(sch, "icap", *portal);
        portal->map_module(kRrId, kModuleCie, rr, 0);
        portal->map_module(kRrId, kModuleMe, rr, 1);
        // Power-on full configuration loads the CIE.
        portal->initial_configuration(kRrId, kModuleCie);
    } else {
        rr.set_unselected_policy(RrBoundary::UnselectedPolicy::kIdle);
        vmux = std::make_unique<vm::VirtualMux>(sch, "vmux", rr, kDcrSig);
        vmux->map_module(1, 0);  // signature 1 = CIE
        vmux->map_module(2, 1);  // signature 2 = ME
        dcr.attach(*vmux);
        // The region stays unselected until software initialises the
        // signature register (or fails to — bug.hw.2).
    }

    // Point the IcapCTRL at the right sink. Under VM the controller is
    // instantiated but unused in simulation (its words go to a null sink).
    icap_router.set_target(icap_artifact ? static_cast<IcapPortIf*>(
                                               icap_artifact.get())
                                         : &null_icap);

    // --- virtualization pool (regions >= 2) ---------------------------------
    if (cfg_.regions > 1) {
        dcr_mgmt = std::make_unique<DcrChain>(sch, "dcr_mgmt", clk.out,
                                              rst.out);
        if (is_resim()) {
            // One physical ICAP: every configuration word now funnels
            // through the arbiter — manager sessions by grant, the CPU's
            // IcapCTRL stream via the SYNC-sniffing passthrough port.
            icap_arbiter = std::make_unique<rrm::IcapArbiter>(
                sch, "icap_arb", clk.out, rst.out, *icap_artifact,
                cfg_.regions, cfg_.rrm_grant);
            icap_router.set_target(&icap_arbiter->external_port());
        }
        rrm::RegionManager::Config mc;
        mc.policy = cfg_.rrm_policy;
        mc.vm_mode = !is_resim();
        mc.payload_words = cfg_.rrm_payload_words;
        mc.simb_seed = rtlsim::derive_seed(cfg_.seed, kSeedTagRegionSimb);
        mc.software = cfg_.rrm_software;
        region_manager = std::make_unique<rrm::RegionManager>(
            sch, "rrm", clk.out, rst.out, *dcr_mgmt, icap_arbiter.get(), mc);

        for (unsigned r = 1; r < cfg_.regions; ++r) {
            const std::uint32_t base = kDcrRegionBase + r * kDcrRegionStride;
            rrm::RegionLayout lay;
            lay.plb_master = kMasterRegion0 + (r - 1);
            lay.region = static_cast<std::uint8_t>(r);
            lay.iso_dcr = base + kDcrRegionIso;
            lay.regs_dcr = base + kDcrRegionRegs;
            lay.sig_dcr = base + kDcrRegionSig;
            lay.vm_mode = !is_resim();
            region_blocks.push_back(std::make_unique<rrm::RegionBlock>(
                sch, "region" + std::to_string(r), clk.out, rst.out, plb,
                lay));
            rrm::RegionBlock& blk = *region_blocks.back();
            blk.attach_dcr(*dcr_mgmt);
            if (is_resim()) blk.map_portal(*portal);
            intc.attach(blk.done_line);  // line kIrqRegion0 + r - 1
            region_manager->add_region(blk.ports());
        }

        // Shared pool source frames and the deterministic per-region job
        // mix; the pool starts autonomously once reset deasserts and runs
        // alongside the firmware-driven pipeline.
        for (unsigned i = 0; i < kRegionJobW * kRegionJobH; ++i) {
            mem.poke_u8(kRegionSrcCur + i,
                        static_cast<std::uint8_t>(rtlsim::derive_seed(
                            cfg_.seed, kSeedTagRegionCur + i)));
            mem.poke_u8(kRegionSrcPrev + i,
                        static_cast<std::uint8_t>(rtlsim::derive_seed(
                            cfg_.seed, kSeedTagRegionPrev + i)));
        }
        if (cfg_.rrm_software) {
            // Software-scheduled pool: the workload arrives at run time
            // through the DCR bridge; the firmware's pool driver decides
            // the engine order (see build_firmware). The bridge joins the
            // LEGACY chain — only under this flag, so the default ring
            // length (and with it every pinned DCR latency) is unchanged.
            pool_bridge =
                std::make_unique<rrm::PoolBridge>(*region_manager, kDcrPool);
            dcr.attach(*pool_bridge);
        } else {
            for (unsigned r = 1; r < cfg_.regions; ++r) {
                for (unsigned j = 0; j < cfg_.rrm_jobs_per_region; ++j) {
                    const rrm::EngineInfo& info =
                        rrm::engine_library()[(r + j) % rrm::kNumEngines];
                    rrm::RegionJob job;
                    job.engine = info.kind;
                    job.src = kRegionSrcCur;
                    job.src2 = info.needs_src2 ? kRegionSrcPrev : 0;
                    job.dst = kRegionDstBase +
                              ((r - 1) * cfg_.rrm_jobs_per_region + j) *
                                  kRegionDstStride;
                    job.width = static_cast<std::uint16_t>(kRegionJobW);
                    job.height = static_cast<std::uint16_t>(kRegionJobH);
                    job.param = info.kind == rrm::EngineKind::kMatching
                                    ? (1u | (2u << 8) | (2u << 16))
                                    : 0u;
                    job.deadline = rtlsim::derive_seed32(
                                       cfg_.seed, kSeedTagRegionDeadline +
                                                      r * 16 + j) %
                                   16u;
                    region_manager->enqueue(r - 1, job);
                }
            }
        }
        region_manager->start();
    }

    // --- bug.dpr.2 placement ------------------------------------------------
    if (cfg.fault == Fault::kDpr2RegsInsideRr && is_resim()) {
        // Registers inside the region exist only while their module is
        // resident; an absent/being-overwritten module breaks the ring.
        cie_regs.corrupted_hook = [this] { return !cie.rm_active(); };
        me_regs.corrupted_hook = [this] { return !me.rm_active(); };
    }

    // --- stage bitstreams ---------------------------------------------------
    // Filler seeds derive from the canonical run seed; the default seed
    // reproduces the historical Table I constants (the kernel-invariance
    // goldens pin the resulting bus traffic bit-for-bit).
    resim::SimB scie;
    scie.rr_id = kRrId;
    scie.module_id = kModuleCie;
    scie.payload_words = cfg.simb_payload_words;
    if (cfg.seed != 1) {
        scie.seed = rtlsim::derive_seed32(cfg.seed, kSeedTagSimbCie);
    }
    const auto cie_ws = scie.build();
    resim::SimB sme = scie;
    sme.module_id = kModuleMe;
    sme.seed = cfg.seed != 1 ? rtlsim::derive_seed32(cfg.seed, kSeedTagSimbMe)
                             : 0xF464'9889;
    const auto me_ws = sme.build();
    simb_cie_words = static_cast<std::uint32_t>(cie_ws.size());
    simb_me_words = static_cast<std::uint32_t>(me_ws.size());
    mem.load_words(kSimbCie, cie_ws);
    mem.load_words(kSimbMe, me_ws);

    // --- firmware -------------------------------------------------------------
    firmware =
        build_firmware(firmware_config(cfg, simb_cie_words, simb_me_words));
    mem.load_words(firmware.origin, firmware.words);
    cpu.set_pc(firmware.entry());

    // --- checkpoint sections, in elaboration order ----------------------------
    ckpt_.add("clock", clk);
    ckpt_.add("reset", rst);
    ckpt_.add("memory", mem);
    ckpt_.add("plb", plb);
    ckpt_.add("dcr", dcr);
    ckpt_.add("intc", intc);
    ckpt_.add("iso", iso);
    ckpt_.add("cie_regs", cie_regs);
    ckpt_.add("me_regs", me_regs);
    ckpt_.add("cie", cie);
    ckpt_.add("me", me);
    ckpt_.add("rr", rr);
    if (portal) ckpt_.add("portal", *portal);
    if (icap_artifact) ckpt_.add("icap", *icap_artifact);
    if (vmux) ckpt_.add("vmux", *vmux);
    // Virtualization pool (regions >= 2 only): absent sections keep the
    // single-region blob byte-identical to the pre-pool format.
    if (dcr_mgmt) ckpt_.add("dcr_mgmt", *dcr_mgmt);
    for (std::size_t i = 0; i < region_blocks.size(); ++i) {
        ckpt_.add("region" + std::to_string(i + 1), *region_blocks[i]);
    }
    if (region_manager) {
        rrm::add_pool_sections(ckpt_, region_blocks, *region_manager,
                               icap_arbiter.get());
    }
    if (pool_bridge) ckpt_.add("pool_bridge", *pool_bridge);
    ckpt_.add("icapctrl", icapctrl);
    ckpt_.add("video_in", video_in);
    ckpt_.add("video_out", video_out);
    ckpt_.add("cpu", cpu);
}

std::uint64_t OpticalFlowSystem::config_hash(const SystemConfig& cfg) {
    using rtlsim::snap_hash64;
    using rtlsim::snap_hash64_u64;
    // Domain string first so the hash can never collide with a raw field
    // sequence; bump the suffix when the field list changes.
    std::uint64_t h = snap_hash64("autovision.sysconfig.v1");
    h = snap_hash64_u64(static_cast<std::uint64_t>(cfg.method), h);
    h = snap_hash64_u64(static_cast<std::uint64_t>(cfg.wait), h);
    h = snap_hash64_u64(cfg.delay_loops, h);
    h = snap_hash64_u64(static_cast<std::uint64_t>(cfg.fault), h);
    h = snap_hash64_u64(cfg.seed, h);
    h = snap_hash64_u64(cfg.width, h);
    h = snap_hash64_u64(cfg.height, h);
    h = snap_hash64_u64(cfg.step, h);
    h = snap_hash64_u64(cfg.margin, h);
    h = snap_hash64_u64(cfg.search, h);
    h = snap_hash64_u64(cfg.simb_payload_words, h);
    h = snap_hash64_u64(static_cast<std::uint64_t>(cfg.injection), h);
    h = snap_hash64_u64(cfg.icap_clk_div, h);
    h = snap_hash64_u64(cfg.icap_fifo_depth, h);
    h = snap_hash64_u64(cfg.clk_period, h);
    h = snap_hash64_u64(cfg.trace_events ? 1 : 0, h);
    h = snap_hash64_u64(cfg.trace_capacity, h);
    // lanes, vcd_path and trace_path are deliberately excluded: they do not
    // change simulation state.
    //
    // The virtualization-pool fields fold in only when a pool exists, so
    // every single-region configuration hashes exactly as it did before
    // the pool was introduced (checkpoint compatibility contract).
    if (cfg.regions > 1) {
        h = snap_hash64("autovision.sysconfig.pool.v1", h);
        h = snap_hash64_u64(cfg.regions, h);
        h = snap_hash64_u64(static_cast<std::uint64_t>(cfg.rrm_policy), h);
        h = snap_hash64_u64(static_cast<std::uint64_t>(cfg.rrm_grant), h);
        h = snap_hash64_u64(cfg.rrm_jobs_per_region, h);
        h = snap_hash64_u64(cfg.rrm_payload_words, h);
        // The software-scheduling flag folds in only when set, under its
        // own domain tag, so every pre-existing pool configuration hashes
        // exactly as before (same checkpoint compatibility contract).
        if (cfg.rrm_software) {
            h = snap_hash64("autovision.sysconfig.swpool.v1", h);
        }
    }
    // Same gated-fold contract for the host-IO knobs: every configuration
    // that leaves them at the defaults hashes exactly as before.
    if (cfg.host_io || cfg.exit_after_frames != 0) {
        h = snap_hash64("autovision.sysconfig.hostio.v1", h);
        h = snap_hash64_u64(cfg.host_io ? 1 : 0, h);
        h = snap_hash64_u64(cfg.exit_after_frames, h);
    }
    return h;
}

std::vector<rrm::RegionSnapshot> OpticalFlowSystem::region_snapshots() const {
    if (!region_manager) return {};
    return rrm::region_snapshots(region_blocks, *region_manager);
}

bool OpticalFlowSystem::save(std::ostream& os) const {
    return ckpt_.save(os, config_hash());
}

bool OpticalFlowSystem::restore(std::istream& is, std::string* error) {
    return ckpt_.restore(is, config_hash(), error);
}

void OpticalFlowSystem::attach_observer(obs::EventRecorder* rec) {
    dcr.set_observer(rec);
    intc.set_observer(rec);
    iso.set_observer(rec);
    rr.set_observer(rec);
    if (portal) portal->set_observer(rec);
    if (icap_artifact) icap_artifact->set_observer(rec);
    if (dcr_mgmt) dcr_mgmt->set_observer(rec);
    for (auto& blk : region_blocks) blk->set_observer(rec);
    if (icap_arbiter) icap_arbiter->set_observer(rec);
    if (region_manager) region_manager->set_observer(rec);
    cpu.set_observer(rec);
}

}  // namespace autovision::sys
