// ckpt: versioned simulator checkpoints.
//
// A checkpoint is a compact, byte-deterministic binary blob:
//
//   magic "AVCKPT\0\1" (8 bytes)
//   u32  format version (kFormatVersion)
//   u64  config hash    (identity of the elaborated design; restore into a
//                        differently configured system is rejected)
//   u64  sim time       (informational copy of the scheduler's `now`)
//   u32  section count
//   per section: str name, u32 payload size, payload bytes
//
// What a testbench's checkpoint contains is written down once, as its
// Sections registration: the kernel core first, then each part in
// elaboration order (clocks, per-module POD), then signals last. Save and
// restore both walk that one list, so two checkpoints of identical
// simulator states are identical byte strings — the property the
// warm-start consumers (closure campaign, diff oracle, shrinker) and
// `tools/ckpt_inspect.py` rely on — and a blob whose section table is not
// exactly the registration is rejected before any state is touched.
//
// Restore model: state is restored into a *freshly elaborated* system of
// the identical configuration (that is what the config hash pins). Pending
// closures are never serialized — the recurring event sources re-enter the
// wheel themselves and modules re-arm their DMA/DCR completion closures
// from restored descriptor fields. A restore that fails partway leaves the
// system half-written: discard it.
#pragma once

#include <cstdint>
#include <functional>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "kernel/scheduler.hpp"
#include "kernel/snapshot.hpp"

namespace autovision::ckpt {

inline constexpr char kMagic[8] = {'A', 'V', 'C', 'K', 'P', 'T', 0, 1};
inline constexpr std::uint32_t kFormatVersion = 2;

/// Checkpoint identity + integrity header.
struct Manifest {
    std::uint32_t format_version = kFormatVersion;
    std::uint64_t config_hash = 0;
    std::uint64_t sim_time = 0;
};

/// Accumulates named sections and writes the final blob.
class Saver {
public:
    explicit Saver(Manifest m) : manifest_(m) {}

    /// Begin a section; returns the writer to serialize into. Finished by
    /// the next section() call or by write_to().
    rtlsim::SnapWriter& section(std::string name);

    /// Seal the blob and stream it out. Returns false on stream failure.
    bool write_to(std::ostream& os);

private:
    void seal_current();

    Manifest manifest_;
    std::string cur_name_;
    rtlsim::SnapWriter cur_;
    bool open_ = false;
    std::vector<std::pair<std::string, std::vector<std::uint8_t>>> sections_;
};

/// Parses a blob, validates the manifest, and hands out per-section readers.
class Loader {
public:
    /// Read and parse the whole stream. `expected_config_hash` of 0 skips
    /// the config check (ckpt_inspect); any other value must match.
    [[nodiscard]] bool load(std::istream& is,
                            std::uint64_t expected_config_hash);

    [[nodiscard]] const Manifest& manifest() const noexcept { return manifest_; }
    [[nodiscard]] const std::string& error() const noexcept { return error_; }

    /// Section payload by name; nullptr when absent.
    [[nodiscard]] const std::vector<std::uint8_t>* find(
        const std::string& name) const;

    /// Reader over a named section; a missing section yields a reader that
    /// fails on first use (and is recorded in error()).
    [[nodiscard]] rtlsim::SnapReader reader(const std::string& name);

    struct SectionInfo {
        std::string name;
        std::size_t size = 0;
    };
    [[nodiscard]] std::vector<SectionInfo> sections() const;

private:
    Manifest manifest_;
    std::vector<std::pair<std::string, std::vector<std::uint8_t>>> sections_;
    std::string error_;
};

/// The one list of what a testbench's checkpoint contains. The testbench
/// registers each checkpointed part once, in elaboration order; save() and
/// restore() both walk that list, the kernel first and the signal registry
/// last, so the two directions cannot drift apart.
class Sections {
public:
    using SaveFn = std::function<void(rtlsim::SnapWriter&)>;
    using RestoreFn = std::function<bool(rtlsim::SnapReader&)>;

    /// Registers the kernel section ("kernel") first.
    explicit Sections(rtlsim::Scheduler& sch);

    /// Register a part with ckpt_save(SnapWriter&) const and
    /// ckpt_restore(SnapReader&).
    template <typename T>
    void add(std::string name, T& part) {
        add(std::move(name),
            [&part](rtlsim::SnapWriter& w) { part.ckpt_save(w); },
            [&part](rtlsim::SnapReader& r) { return part.ckpt_restore(r); });
    }
    void add(std::string name, SaveFn save, RestoreFn restore);

    /// A consistency check run after every section has restored: restore
    /// fails with `diagnostic` unless `holds()`.
    void check(std::string diagnostic, std::function<bool()> holds);

    /// Seal every section into a blob. Only legal at a quiescent point
    /// (between run_until quanta); returns false otherwise.
    [[nodiscard]] bool save(std::ostream& os,
                            std::uint64_t config_hash) const;

    /// Restore into the freshly elaborated testbench that registered this
    /// list. On failure `*error` (when given) says why: the loader's
    /// diagnostic, "section table mismatch" (nothing touched yet),
    /// "<name> section corrupt", or a failed check's diagnostic.
    [[nodiscard]] bool restore(std::istream& is, std::uint64_t config_hash,
                               std::string* error = nullptr);

private:
    struct Part {
        std::string name;
        SaveFn save;
        RestoreFn restore;
    };
    struct Check {
        std::string diagnostic;
        std::function<bool()> holds;
    };

    rtlsim::Scheduler& sch_;
    std::vector<Part> parts_;
    std::vector<Check> checks_;
};

}  // namespace autovision::ckpt
