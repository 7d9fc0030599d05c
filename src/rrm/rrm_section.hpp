// rrm: the versioned "rrm" checkpoint section — the per-region occupancy
// array multi-region checkpoints carry — and the pool trio it opens.
//
// The section is a decodable *summary* (tools/ckpt_inspect.py prints it);
// the full mutable state of the arbiter and manager travels in their own
// sections ("rrm_arb", "rrm_mgr") next to it. add_pool_sections registers
// the three, for sys::System and RrmHarness alike. Single-region
// configurations register none of them, so their checkpoints stay
// byte-identical to the pre-virtualization format.
//
// Layout (all big-endian, via SnapWriter):
//   u32 version (kRegionSectionVersion)
//   u32 region count
//   per region:
//     u8  region index
//     u8  resident engine kind (EngineKind; 0 = unconfigured)
//     u8  busy     (engine job in flight)
//     u8  isolated (isolation clamp asserted)
//     u64 swaps    (reconfiguration sessions submitted for the region)
//     u32 jobs     (jobs completed on the region)
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "engine_library.hpp"
#include "kernel/snapshot.hpp"

namespace autovision::rrm {

class IcapArbiter;
class RegionBlock;
class RegionManager;

inline constexpr std::uint32_t kRegionSectionVersion = 1;

struct RegionSnapshot {
    std::uint8_t index = 0;
    EngineKind resident = EngineKind::kNone;
    bool busy = false;
    bool isolated = false;
    std::uint64_t swaps = 0;
    std::uint32_t jobs = 0;

    [[nodiscard]] bool operator==(const RegionSnapshot&) const = default;
};

inline void save_region_section(rtlsim::SnapWriter& w,
                                std::span<const RegionSnapshot> regions) {
    w.u32(kRegionSectionVersion);
    w.u32(static_cast<std::uint32_t>(regions.size()));
    for (const RegionSnapshot& r : regions) {
        w.u8(r.index);
        w.u8(static_cast<std::uint8_t>(r.resident));
        w.bool8(r.busy);
        w.bool8(r.isolated);
        w.u64(r.swaps);
        w.u32(r.jobs);
    }
}

/// Decode; returns false on version/shape mismatch. (The C++ side only
/// validates — restore rebuilds true state from rrm_arb/rrm_mgr — but the
/// decoder keeps the format honest under test.)
[[nodiscard]] inline bool load_region_section(
    rtlsim::SnapReader& r, std::vector<RegionSnapshot>& out) {
    if (r.u32() != kRegionSectionVersion) return false;
    const std::uint32_t n = r.u32();
    out.clear();
    for (std::uint32_t i = 0; i < n && r.ok_so_far(); ++i) {
        RegionSnapshot s;
        s.index = r.u8();
        s.resident = static_cast<EngineKind>(r.u8());
        s.busy = r.bool8();
        s.isolated = r.bool8();
        s.swaps = r.u64();
        s.jobs = r.u32();
        out.push_back(s);
    }
    return r.ok_so_far() && out.size() == n;
}

/// The summary of a managed pool, one entry per block in manager order.
[[nodiscard]] std::vector<RegionSnapshot> region_snapshots(
    const std::vector<std::unique_ptr<RegionBlock>>& blocks,
    const RegionManager& manager);

/// Register the pool trio: the "rrm" summary, "rrm_arb" (when the pool
/// has an arbiter) and "rrm_mgr", plus the post-restore check that the
/// summary agrees with the restored state — which keeps the decodable
/// format honest against drift.
void add_pool_sections(ckpt::Sections& sections,
                       const std::vector<std::unique_ptr<RegionBlock>>& blocks,
                       RegionManager& manager, IcapArbiter* arbiter);

}  // namespace autovision::rrm
