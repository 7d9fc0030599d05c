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
// Sections are written and restored in a fixed order chosen by the system
// (kernel core, clocks, per-module POD, signals last), so two checkpoints
// of identical simulator states are identical byte strings — the property
// the warm-start consumers (closure campaign, diff oracle, shrinker) and
// `tools/ckpt_inspect.py` rely on.
//
// Restore model: state is restored into a *freshly elaborated* system of
// the identical configuration (that is what the config hash pins). Pending
// closures are never serialized — the recurring event sources re-enter the
// wheel themselves and modules re-arm their DMA/DCR completion closures
// from restored descriptor fields.
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

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

/// Interface a module implements to participate in a checkpoint. The
/// system's save/restore walks its modules in elaboration order; each
/// serializes only non-signal state (signal values are captured wholesale
/// by the scheduler's signal registry).
class Checkpointable {
public:
    virtual ~Checkpointable() = default;
    virtual void ckpt_save(rtlsim::SnapWriter& w) const = 0;
    [[nodiscard]] virtual bool ckpt_restore(rtlsim::SnapReader& r) = 0;
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

/// Restore one named section into a Checkpointable-shaped target (anything
/// with a ckpt_restore(SnapReader&)); the common step of a restore walk.
template <typename T>
[[nodiscard]] bool restore_section(Loader& loader, const std::string& name,
                                   T& target) {
    rtlsim::SnapReader r = loader.reader(name);
    return target.ckpt_restore(r);
}

}  // namespace autovision::ckpt
