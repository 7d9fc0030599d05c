#include "detection.hpp"

#include <algorithm>
#include <sstream>

#include "campaign/pool.hpp"

namespace autovision::sys {

SystemConfig config_for_fault(SystemConfig base, Fault f) {
    base.fault = f;
    switch (f) {
        case Fault::kSw1PollWrongBit:
            // The bug lives in the polling driver variant.
            base.wait = FirmwareConfig::Wait::kPollDone;
            break;
        case Fault::kDpr6bShortWait:
            // The original delay-based driver, with the loop count tuned
            // for the old fast configuration clock. The system's clock
            // divider (default 4) makes the real transfer far longer.
            base.wait = FirmwareConfig::Wait::kDelay;
            base.delay_loops = 50;
            break;
        default:
            break;
    }
    return base;
}

bool DetectionOutcome::matches_expectation() const {
    switch (fault_info(fault).expected) {
        case ExpectedDetection::kBoth:
            return vm_detected() && resim_detected();
        case ExpectedDetection::kResimOnly:
            return !vm_detected() && resim_detected();
        case ExpectedDetection::kVmFalseAlarm:
            return vm_detected() && !resim_detected();
    }
    return false;
}

std::string DetectionOutcome::row() const {
    const FaultInfo& fi = fault_info(fault);
    std::ostringstream os;
    os << fi.id << " | VM: "
       << (vm_detected() ? "DETECTED" : "passed   ")
       << " | ReSim: " << (resim_detected() ? "DETECTED" : "passed   ")
       << " | expected: ";
    switch (fi.expected) {
        case ExpectedDetection::kBoth: os << "both detect"; break;
        case ExpectedDetection::kResimOnly: os << "ReSim only"; break;
        case ExpectedDetection::kVmFalseAlarm: os << "VM false alarm"; break;
    }
    os << (matches_expectation() ? " [ok]" : " [MISMATCH]");
    return os.str();
}

DetectionOutcome run_detection(const SystemConfig& base, Fault f,
                               unsigned frames,
                               const std::atomic<bool>* cancel) {
    DetectionOutcome out;
    out.fault = f;

    SystemConfig vm_cfg = config_for_fault(base, f);
    vm_cfg.method = FirmwareConfig::Method::kVm;
    Testbench vm_tb(vm_cfg);
    vm_tb.set_cancel_flag(cancel);
    vm_tb.set_stop_at_verdict(true);
    out.vm = vm_tb.run(frames);

    SystemConfig rs_cfg = config_for_fault(base, f);
    rs_cfg.method = FirmwareConfig::Method::kResim;
    Testbench rs_tb(rs_cfg);
    rs_tb.set_cancel_flag(cancel);
    rs_tb.set_stop_at_verdict(true);
    out.resim = rs_tb.run(frames);
    return out;
}

std::vector<DetectionOutcome> run_catalog(const SystemConfig& base,
                                          unsigned frames, unsigned threads) {
    std::vector<Fault> faults;
    for (const FaultInfo& fi : kFaultCatalog) faults.push_back(fi.fault);
    std::vector<DetectionOutcome> out(faults.size());

    const unsigned workers =
        std::min<unsigned>(campaign::resolve_workers(threads),
                           static_cast<unsigned>(faults.size()));

    if (workers <= 1) {
        for (std::size_t i = 0; i < faults.size(); ++i) {
            out[i] = run_detection(base, faults[i], frames);
        }
        return out;
    }

    // Each simulation is fully independent (own scheduler, memory,
    // firmware), so the catalogue is just a batch on the campaign pool.
    campaign::WorkerPool pool(workers, faults.size());
    for (std::size_t i = 0; i < faults.size(); ++i) {
        pool.submit([&, i] { out[i] = run_detection(base, faults[i], frames); });
    }
    pool.drain();
    return out;
}

}  // namespace autovision::sys
