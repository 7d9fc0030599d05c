// Fault catalogue — the injectable bugs of the case study (Table III and
// the Section V-A counts).
//
// Each fault reproduces one of the paper's reported bugs (or a
// representative of its class). The detection harness enables one fault at
// a time, runs the full system under Virtual Multiplexing and under
// ReSim-based simulation, and classifies the outcome; Table III's
// "Comments" column becomes the `expected` field here.
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace autovision::sys {

enum class Fault {
    kNone,
    // Static-design bugs (weeks 4-9 of Figure 5; found by both methods).
    kHw1SrcWordAddr,     ///< driver programs the CIE source as a word address
    kHw2NoSigInit,       ///< engine_signature never initialised (VM-only artefact)
    kHw3LevelIntc,       ///< INTC configured for level capture; done pulses lost
    kSw1PollWrongBit,    ///< DPR driver polls ICAP busy instead of done
    kSw2NoIntcAck,       ///< ISR never acknowledges the INTC (interrupt storm)
    // ISS-layer software bugs (the decode-cache / syscall bug classes).
    kSw3StaleCodePatch,  ///< ISR patches the draw loop in place (self-mod code)
    kSw4EeStuckOff,      ///< firmware never sets MSR[EE]; no interrupt ever taken
    kSw5SyscallInIsr,    ///< `sc` inside the ISR clobbers SRR0/SRR1
    // DPR bugs (weeks 10-11; only ReSim exercises the machinery).
    kDpr1NoIsolation,    ///< driver never enables isolation during DPR
    kDpr2RegsInsideRr,   ///< engine DCR registers left inside the RR
    kDpr3WrongSimbAddr,  ///< bitstream pointer names the wrong SimB
    kDpr4P2pIcap,        ///< point-to-point IcapCTRL on the shared PLB
    kDpr5SizeInWords,    ///< driver writes a word count to the byte-count IP
    kDpr6bShortWait,     ///< fixed reset delay tuned for the old config clock
    kCount,
};

/// Which simulation method is expected to flag the fault.
enum class ExpectedDetection {
    kBoth,        ///< static bug: visible under either method
    kResimOnly,   ///< requires the bitstream/isolation machinery
    kVmFalseAlarm,  ///< artefact of the VM testbench itself; N/A under ReSim
};

struct FaultInfo {
    Fault fault;
    const char* id;           ///< paper-style identifier
    const char* description;
    ExpectedDetection expected;
};

inline constexpr std::array<FaultInfo, 14> kFaultCatalog{{
    {Fault::kHw1SrcWordAddr, "bug.hw.1",
     "CIE source address programmed as a word index (byte/word mismatch)",
     ExpectedDetection::kBoth},
    {Fault::kHw2NoSigInit, "bug.hw.2",
     "engine_signature register not initialised at start-up",
     ExpectedDetection::kVmFalseAlarm},
    {Fault::kHw3LevelIntc, "bug.hw.3",
     "INTC misconfigured for level capture; one-cycle done pulses lost",
     ExpectedDetection::kBoth},
    {Fault::kSw1PollWrongBit, "bug.sw.1",
     "DPR driver polls the ICAP busy bit instead of the done bit",
     ExpectedDetection::kResimOnly},
    {Fault::kSw2NoIntcAck, "bug.sw.2",
     "ISR fails to acknowledge the interrupt controller",
     ExpectedDetection::kBoth},
    {Fault::kSw3StaleCodePatch, "bug.sw.3",
     "ISR patches the draw loop in place; stale threshold corrupts frames",
     ExpectedDetection::kBoth},
    {Fault::kSw4EeStuckOff, "bug.sw.4",
     "firmware never sets MSR[EE]; interrupt-driven flow stalls",
     ExpectedDetection::kBoth},
    {Fault::kSw5SyscallInIsr, "bug.sw.5",
     "`sc` inside the ISR clobbers SRR0/SRR1; rfi returns into the ISR",
     ExpectedDetection::kBoth},
    {Fault::kDpr1NoIsolation, "bug.dpr.1",
     "isolation never enabled; X escapes the region during DPR",
     ExpectedDetection::kResimOnly},
    {Fault::kDpr2RegsInsideRr, "bug.dpr.2",
     "engine DCR registers left inside the RR; daisy chain breaks",
     ExpectedDetection::kResimOnly},
    {Fault::kDpr3WrongSimbAddr, "bug.dpr.3",
     "bitstream pointer names the wrong SimB",
     ExpectedDetection::kResimOnly},
    {Fault::kDpr4P2pIcap, "bug.dpr.4",
     "IcapCTRL in point-to-point mode on the shared PLB",
     ExpectedDetection::kResimOnly},
    {Fault::kDpr5SizeInWords, "bug.dpr.5",
     "driver computes the bitstream size in words for the byte-count IP",
     ExpectedDetection::kResimOnly},
    {Fault::kDpr6bShortWait, "bug.dpr.6b",
     "engine reset delay tuned for the faster original configuration clock",
     ExpectedDetection::kResimOnly},
}};

/// bug.sw.3-sw.5 exercise the ISS (self-modifying code, MSR[EE], `sc` in an
/// ISR). They are this reproduction's additions, not among the paper's 11
/// faults, so the Section V-A tally counts them apart.
[[nodiscard]] constexpr bool in_paper(Fault f) {
    return f < Fault::kSw3StaleCodePatch || f > Fault::kSw5SyscallInIsr;
}

// --- catalogue completeness, checked at compile time -----------------------
// The array literal above must stay in sync with the Fault enum by hand;
// these static_asserts turn a forgotten or duplicated entry into a compile
// error instead of a silently un-tested fault.
namespace detail {

constexpr bool cstr_eq(const char* a, const char* b) {
    for (; *a != '\0' && *b != '\0'; ++a, ++b) {
        if (*a != *b) return false;
    }
    return *a == *b;
}

/// Every injectable Fault enumerator (all but kNone/kCount) appears in the
/// catalogue exactly once, and kNone never does.
constexpr bool catalog_covers_every_fault_once() {
    for (int f = static_cast<int>(Fault::kNone) + 1;
         f < static_cast<int>(Fault::kCount); ++f) {
        int seen = 0;
        for (const FaultInfo& fi : kFaultCatalog) {
            if (fi.fault == static_cast<Fault>(f)) ++seen;
        }
        if (seen != 1) return false;
    }
    for (const FaultInfo& fi : kFaultCatalog) {
        if (fi.fault == Fault::kNone) return false;
    }
    return true;
}

/// Paper-style id strings are pairwise distinct (they key campaign job
/// names, coverage bins and the Table III rows).
constexpr bool catalog_ids_unique() {
    for (std::size_t i = 0; i < kFaultCatalog.size(); ++i) {
        for (std::size_t j = i + 1; j < kFaultCatalog.size(); ++j) {
            if (cstr_eq(kFaultCatalog[i].id, kFaultCatalog[j].id)) {
                return false;
            }
        }
    }
    return true;
}

}  // namespace detail

static_assert(kFaultCatalog.size() ==
                  static_cast<std::size_t>(Fault::kCount) - 1,
              "kFaultCatalog must list every injectable Fault enumerator");
static_assert(detail::catalog_covers_every_fault_once(),
              "kFaultCatalog must cover each Fault exactly once (no "
              "duplicates, no kNone entry)");
static_assert(detail::catalog_ids_unique(),
              "kFaultCatalog id strings must be unique");

[[nodiscard]] inline const FaultInfo& fault_info(Fault f) {
    for (const FaultInfo& fi : kFaultCatalog) {
        if (fi.fault == f) return fi;
    }
    static constexpr FaultInfo kNone{Fault::kNone, "none", "no fault",
                                     ExpectedDetection::kBoth};
    return kNone;
}

}  // namespace autovision::sys
