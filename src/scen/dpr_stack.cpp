#include "dpr_stack.hpp"

#include <sstream>
#include <vector>

#include "sys/address_map.hpp"

namespace autovision::scen {

DprStack::DprStack(Parts parts)
    : iso(parts.isolation
              ? std::make_unique<Isolation>(sch, "iso", sys::kDcrIso)
              : nullptr),
      portal(parts.icap ? std::make_unique<resim::ExtendedPortal>(sch, "portal")
                        : nullptr),
      icap(portal ? std::make_unique<resim::IcapArtifact>(sch, "icap", *portal)
                  : nullptr) {
    plb.attach_slave(mem);
    dcr.attach(cie_regs);
    dcr.attach(me_regs);
    if (iso) dcr.attach(*iso);
    rr.add_module(cie);
    rr.add_module(me);
    if (iso) rr.set_isolation_signal(iso->isolate);
    rec.set_enabled(true);

    sections.add("clock", clk);
    sections.add("reset", rst);
    sections.add("memory", mem);
    sections.add("plb", plb);
    sections.add("dcr", dcr);
    if (iso) sections.add("iso", *iso);
    sections.add("cie_regs", cie_regs);
    sections.add("me_regs", me_regs);
    sections.add("cie", cie);
    sections.add("me", me);
    sections.add("rr", rr);
    if (portal) sections.add("portal", *portal);
    if (icap) sections.add("icap", *icap);
    sections.add("recorder", rec);
}

void DprStack::configure(bool swapped) {
    portal->map_module(1, 1, rr, swapped ? 1u : 0u);
    portal->map_module(1, 2, rr, swapped ? 0u : 1u);
    portal->initial_configuration(1, 1);
}

void DprStack::listen() {
    rr.set_observer(&rec);
    dcr.set_observer(&rec);
    if (iso) iso->set_observer(&rec);
    if (portal) portal->set_observer(&rec);
    if (icap) icap->set_observer(&rec);
}

void DprStack::issue_traffic(const StreamSession& ss) {
    if (ss.dcr == DcrTraffic::kRead) {
        dcr.start_read(0x60 + EngineRegs::kStatus, [](rtlsim::Word) {});
    } else if (ss.dcr == DcrTraffic::kWrite) {
        dcr.start_write(0x60 + EngineRegs::kSrc, rtlsim::Word{0x1234});
    }
}

void DprStack::play(const StreamSession& ss,
                    const std::atomic<bool>* cancel) {
    const std::vector<rtlsim::Word> words = ss.words();
    bool traffic_pending = ss.dcr != DcrTraffic::kNone;
    for (const rtlsim::Word& w : words) {
        if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
            break;
        }
        icap->icap_write(w);
        if (traffic_pending && icap->payload_pending() && !dcr.busy()) {
            traffic_pending = false;
            issue_traffic(ss);
        }
        run_cycles(ss.word_gap);
    }
    run_cycles(16);  // in-flight DCR token and boundary settle
}

std::string DprStack::save(std::uint64_t config_hash) const {
    std::ostringstream os;
    if (dcr.busy() || !sections.save(os, config_hash)) return {};
    return os.str();
}

bool DprStack::restore(const std::string& blob, std::uint64_t config_hash) {
    std::istringstream is(blob);
    return sections.restore(is, config_hash);
}

}  // namespace autovision::scen
