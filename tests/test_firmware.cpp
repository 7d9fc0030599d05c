// Unit tests for the firmware builder: every variant must assemble, and
// the generated code must reflect the method/wait/fault knobs. The FwPool
// suite pins the software-scheduled virtualization pool end to end: the
// generated pool driver decides the engine order and the RegionManager's
// schedule signature must match it exactly.
#include <gtest/gtest.h>

#include "sys/firmware.hpp"
#include "sys/testbench.hpp"

namespace autovision::sys {
namespace {

FirmwareConfig base_cfg() {
    FirmwareConfig cfg;
    cfg.width = 64;
    cfg.height = 48;
    cfg.simb_cie_words = 110;
    cfg.simb_me_words = 110;
    return cfg;
}

TEST(Firmware, AllVariantsAssemble) {
    for (auto method :
         {FirmwareConfig::Method::kVm, FirmwareConfig::Method::kResim}) {
        for (auto wait :
             {FirmwareConfig::Wait::kIrq, FirmwareConfig::Wait::kPollDone,
              FirmwareConfig::Wait::kDelay}) {
            for (int f = 0; f < static_cast<int>(Fault::kCount); ++f) {
                FirmwareConfig cfg = base_cfg();
                cfg.method = method;
                cfg.wait = wait;
                cfg.fault = static_cast<Fault>(f);
                const isa::Program p = build_firmware(cfg);
                EXPECT_GT(p.words.size(), 100u)
                    << "method=" << static_cast<int>(method)
                    << " wait=" << static_cast<int>(wait) << " fault=" << f;
                EXPECT_EQ(p.entry(), 0x1000u);
            }
        }
    }
}

TEST(Firmware, VectorAndEntryPlacement) {
    const isa::Program p = build_firmware(base_cfg());
    EXPECT_EQ(p.origin, 0x500u) << "image begins at the interrupt vector";
    EXPECT_EQ(p.sym("isr"), 0x500u);
    EXPECT_EQ(p.sym("_start"), 0x1000u);
    EXPECT_EQ(p.sym("main_loop") % 4, 0u);
}

TEST(Firmware, MethodSelectsReconfigurationDriver) {
    FirmwareConfig cfg = base_cfg();
    cfg.method = FirmwareConfig::Method::kResim;
    const std::string resim_src = build_firmware_source(cfg);
    EXPECT_NE(resim_src.find("mtdcr ICAP_ADDR"), std::string::npos);
    EXPECT_NE(resim_src.find("mtdcr ISO_CTRL"), std::string::npos);
    EXPECT_EQ(resim_src.find("mtdcr SIG_REG"), std::string::npos)
        << "the real driver never touches the simulation-only register";

    cfg.method = FirmwareConfig::Method::kVm;
    const std::string vm_src = build_firmware_source(cfg);
    EXPECT_NE(vm_src.find("mtdcr SIG_REG"), std::string::npos);
    EXPECT_EQ(vm_src.find("mtdcr ICAP_ADDR"), std::string::npos)
        << "the hacked VM software bypasses the IcapCTRL driver";
    EXPECT_EQ(vm_src.find("mtdcr ISO_CTRL"), std::string::npos)
        << "VM never exercises the isolation driver";
}

TEST(Firmware, WaitModeShapesTheDriver) {
    FirmwareConfig cfg = base_cfg();
    cfg.wait = FirmwareConfig::Wait::kIrq;
    EXPECT_EQ(build_firmware_source(cfg).find("poll_"), std::string::npos);
    cfg.wait = FirmwareConfig::Wait::kPollDone;
    EXPECT_NE(build_firmware_source(cfg).find("poll_"), std::string::npos);
    cfg.wait = FirmwareConfig::Wait::kDelay;
    const std::string s = build_firmware_source(cfg);
    EXPECT_NE(s.find("delay_"), std::string::npos);
    EXPECT_NE(s.find("DELAY_LOOPS"), std::string::npos);
}

TEST(Firmware, FaultsEditTheGeneratedCode) {
    // bug.hw.1: the source address is shifted down to a word index.
    FirmwareConfig cfg = base_cfg();
    cfg.fault = Fault::kHw1SrcWordAddr;
    EXPECT_NE(build_firmware_source(cfg).find("srwi r6, r6, 2"),
              std::string::npos);

    // bug.hw.3: INTC control written with 0 (level capture).
    cfg = base_cfg();
    cfg.fault = Fault::kHw3LevelIntc;
    EXPECT_NE(build_firmware_source(cfg).find("li r6, 0\n  mtdcr INTC_CTRL"),
              std::string::npos);

    // bug.sw.2: the IAR acknowledge disappears.
    cfg = base_cfg();
    const std::string good = build_firmware_source(cfg);
    cfg.fault = Fault::kSw2NoIntcAck;
    const std::string bad = build_firmware_source(cfg);
    EXPECT_NE(good.find("mtdcr INTC_IAR"), std::string::npos);
    EXPECT_EQ(bad.find("mtdcr INTC_IAR"), std::string::npos);

    // bug.dpr.1: isolation writes disappear (the equate remains).
    cfg = base_cfg();
    cfg.fault = Fault::kDpr1NoIsolation;
    EXPECT_EQ(build_firmware_source(cfg).find("mtdcr ISO_CTRL"),
              std::string::npos);

    // bug.dpr.5: the size equates are word counts, not byte counts.
    cfg = base_cfg();
    cfg.fault = Fault::kDpr5SizeInWords;
    const std::string sz = build_firmware_source(cfg);
    EXPECT_NE(sz.find(".equ SIMB_ME_SIZE, 110"), std::string::npos);
    cfg.fault = Fault::kNone;
    EXPECT_NE(build_firmware_source(cfg).find(".equ SIMB_ME_SIZE, 440"),
              std::string::npos);

    // bug.dpr.3: the DPR-to-ME path stages the CIE SimB.
    cfg = base_cfg();
    cfg.fault = Fault::kDpr3WrongSimbAddr;
    const std::string wrong = build_firmware_source(cfg);
    // In the to-ME block (tagged "tome") the address constant is SIMB_CIE.
    const auto tome = wrong.find("stw r7, VAR_DPR_TARGET");
    ASSERT_NE(tome, std::string::npos);
    EXPECT_NE(wrong.find("hi(SIMB_CIE)", tome), std::string::npos);
}

TEST(Firmware, GeometryEquatesMatchConfig) {
    FirmwareConfig cfg = base_cfg();
    cfg.width = 128;
    cfg.height = 96;
    cfg.step = 4;
    cfg.margin = 8;
    const std::string s = build_firmware_source(cfg);
    EXPECT_NE(s.find(".equ WIDTH, 128"), std::string::npos);
    EXPECT_NE(s.find(".equ HEIGHT, 96"), std::string::npos);
    EXPECT_NE(s.find(".equ GW, 28"), std::string::npos);   // (128-16+3)/4
    EXPECT_NE(s.find(".equ GH, 20"), std::string::npos);   // (96-16+3)/4
}

TEST(Firmware, IerMasksIcapLineOutsideIrqMode) {
    FirmwareConfig cfg = base_cfg();
    cfg.method = FirmwareConfig::Method::kResim;
    cfg.wait = FirmwareConfig::Wait::kIrq;
    EXPECT_NE(build_firmware_source(cfg).find("li r6, 7\n  mtdcr INTC_IER"),
              std::string::npos);
    cfg.wait = FirmwareConfig::Wait::kDelay;
    EXPECT_NE(build_firmware_source(cfg).find("li r6, 5\n  mtdcr INTC_IER"),
              std::string::npos);
}

TEST(Firmware, PoolDriverShapesTheCode) {
    // Default config: no pool driver, text identical to the classic build.
    FirmwareConfig cfg = base_cfg();
    const std::string classic = build_firmware_source(cfg);
    EXPECT_EQ(classic.find("handle_region"), std::string::npos);
    EXPECT_EQ(classic.find("pool_table"), std::string::npos);
    EXPECT_EQ(classic.find("POOL_CMD"), std::string::npos);

    cfg.pool_regions = 2;
    cfg.pool_jobs_per_region = 3;
    const std::string pool = build_firmware_source(cfg);
    EXPECT_NE(pool.find("handle_region"), std::string::npos);
    EXPECT_NE(pool.find("mtdcr POOL_CMD"), std::string::npos);
    EXPECT_NE(pool.find(".equ POOL_N, 2"), std::string::npos);
    EXPECT_NE(pool.find(".equ POOL_JOBS, 3"), std::string::npos);
    // Region lines unmasked: 0b111 | ((1<<2)-1)<<3 = 0x1F.
    EXPECT_NE(pool.find("li r6, 31\n  mtdcr INTC_IER"), std::string::npos);
    // The job table carries 3 words per job.
    EXPECT_NE(pool.find("pool_table:"), std::string::npos);
    const isa::Program p = build_firmware(cfg);
    EXPECT_EQ(p.sym("pool_table") % 4, 0u);
}

// ---------------------------------------------------------------- FwPool
// Full-system runs of the software-scheduled pool. The firmware seeds one
// job per region at boot and pushes the rest from the region-done ISR; the
// RegionManager executes the pushed plan. Goldens pin the schedule
// signature (reconfigurations marked '!', demand hits unmarked).

SystemConfig pool_cfg(unsigned regions) {
    SystemConfig cfg;
    cfg.width = 32;
    cfg.height = 24;
    cfg.step = 4;
    cfg.margin = 8;
    cfg.search = 2;
    cfg.simb_payload_words = 100;
    cfg.regions = regions;
    cfg.rrm_software = true;
    return cfg;
}

/// Run two video frames, then keep simulating until the pool drains.
RunResult run_pool(Testbench& tb) {
    RunResult r = tb.run(2);
    unsigned guard = 0;
    while (!tb.sys.region_manager->done() && ++guard < 2000) {
        tb.sys.sch.run_until(tb.sys.sch.now() + 100000);
    }
    EXPECT_TRUE(tb.sys.region_manager->done()) << "pool failed to drain";
    return r;
}

TEST(FwPool, ScheduleSignatureGolden) {
    const char* kGolden[] = {
        "r0.census! r0.census",
        "r0.census! r1.matching! r0.census r1.matching",
        "r0.census! r1.matching! r2.sobel! "
        "r0.census r1.matching r2.sobel",
    };
    for (unsigned regions = 2; regions <= 4; ++regions) {
        Testbench tb(pool_cfg(regions));
        const RunResult r = run_pool(tb);
        EXPECT_TRUE(r.clean()) << "regions=" << regions << ": "
                               << r.verdict();
        EXPECT_EQ(tb.sys.region_manager->signature(), kGolden[regions - 2]);
        EXPECT_EQ(tb.sys.pool_bridge->pushes(), (regions - 1) * 2);
        for (unsigned i = 0; i + 1 < regions; ++i) {
            EXPECT_EQ(tb.sys.region_manager->jobs_done(i), 2u);
            EXPECT_EQ(tb.sys.region_manager->timeouts(i), 0u);
        }
    }
}

TEST(FwPool, VmMethodRunsTheSameSchedule) {
    SystemConfig cfg = pool_cfg(3);
    cfg.method = FirmwareConfig::Method::kVm;
    Testbench tb(cfg);
    const RunResult r = run_pool(tb);
    EXPECT_TRUE(r.clean()) << r.verdict();
    EXPECT_EQ(tb.sys.region_manager->signature(),
              "r0.census! r1.matching! r0.census r1.matching");
    // VM swaps never stream SimBs.
    EXPECT_EQ(tb.sys.region_manager->sessions_submitted(0), 0u);
    EXPECT_EQ(tb.sys.region_manager->sessions_submitted(1), 0u);
}

TEST(FwPool, PairedJobsAreDemandHits) {
    // Four jobs per region: the schedule rotates engines in pairs, so the
    // second of each pair skips the reconfiguration entirely.
    SystemConfig cfg = pool_cfg(2);
    cfg.rrm_jobs_per_region = 4;
    Testbench tb(cfg);
    const RunResult r = run_pool(tb);
    EXPECT_TRUE(r.clean()) << r.verdict();
    EXPECT_EQ(tb.sys.region_manager->signature(),
              "r0.census! r0.census r0.matching! r0.matching");
    // Exactly the two '!' entries streamed a SimB through the arbiter.
    EXPECT_EQ(tb.sys.region_manager->sessions_submitted(0), 2u);
    EXPECT_EQ(tb.sys.region_manager->jobs_done(0), 4u);
}

TEST(FwPool, SoftwarePoolFoldsIntoConfigHash) {
    SystemConfig plain = pool_cfg(3);
    plain.rrm_software = false;
    SystemConfig sw = pool_cfg(3);
    EXPECT_NE(OpticalFlowSystem::config_hash(plain),
              OpticalFlowSystem::config_hash(sw))
        << "software scheduling changes simulation semantics";
    // Single-region configs ignore (and normalize away) the flag.
    SystemConfig one;
    SystemConfig one_sw;
    one_sw.rrm_software = true;
    EXPECT_EQ(OpticalFlowSystem::config_hash(one),
              OpticalFlowSystem::config_hash(one_sw));
}

}  // namespace
}  // namespace autovision::sys
