#include "rrm_section.hpp"

#include "icap_arbiter.hpp"
#include "region_block.hpp"
#include "region_manager.hpp"

namespace autovision::rrm {

std::vector<RegionSnapshot> region_snapshots(
    const std::vector<std::unique_ptr<RegionBlock>>& blocks,
    const RegionManager& manager) {
    const bool started = manager.started();
    std::vector<RegionSnapshot> out;
    out.reserve(blocks.size());
    for (unsigned i = 0; i < blocks.size(); ++i) {
        const RegionBlock& blk = *blocks[i];
        RegionSnapshot s;
        s.index = blk.layout.region;
        s.resident = started ? manager.resident(i) : EngineKind::kNone;
        s.busy = blk.regs.busy();
        s.isolated = rtlsim::is1(blk.iso.isolate.read());
        s.swaps = started ? manager.sessions_submitted(i) : 0;
        s.jobs = started ? manager.jobs_done(i) : 0;
        out.push_back(s);
    }
    return out;
}

void add_pool_sections(ckpt::Sections& sections,
                       const std::vector<std::unique_ptr<RegionBlock>>& blocks,
                       RegionManager& manager, IcapArbiter* arbiter) {
    // The restored summary waits here for the check, which runs once the
    // signals (the isolation levels it reports) are back.
    auto summary = std::make_shared<std::vector<RegionSnapshot>>();
    sections.add(
        "rrm",
        [&blocks, &manager](rtlsim::SnapWriter& w) {
            save_region_section(w, region_snapshots(blocks, manager));
        },
        [summary](rtlsim::SnapReader& r) {
            return load_region_section(r, *summary);
        });
    if (arbiter != nullptr) sections.add("rrm_arb", *arbiter);
    sections.add("rrm_mgr", manager);
    sections.check("rrm summary/state mismatch", [summary, &blocks, &manager] {
        return *summary == region_snapshots(blocks, manager);
    });
}

}  // namespace autovision::rrm
