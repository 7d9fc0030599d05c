#include "checkpoint.hpp"

#include <utility>

namespace autovision::ckpt {

namespace {

/// kMagic as one big-endian u64: the header's first eight bytes.
constexpr std::uint64_t kMagicWord = [] {
    std::uint64_t v = 0;
    for (char c : kMagic) v = (v << 8) | static_cast<std::uint8_t>(c);
    return v;
}();

}  // namespace

// ------------------------------------------------------------------ Saver

rtlsim::SnapWriter& Saver::section(std::string name) {
    seal_current();
    cur_name_ = std::move(name);
    open_ = true;
    return cur_;
}

void Saver::seal_current() {
    if (!open_) return;
    sections_.emplace_back(std::move(cur_name_), cur_.take());
    open_ = false;
}

bool Saver::write_to(std::ostream& os) {
    seal_current();
    rtlsim::SnapWriter w;
    w.u64(kMagicWord);
    w.u32(manifest_.format_version);
    w.u64(manifest_.config_hash);
    w.u64(manifest_.sim_time);
    w.u32(static_cast<std::uint32_t>(sections_.size()));
    for (const auto& [name, payload] : sections_) {
        w.str(name);
        w.bytes(payload);
    }
    const std::vector<std::uint8_t> blob = w.take();
    os.write(reinterpret_cast<const char*>(blob.data()),
             static_cast<std::streamsize>(blob.size()));
    return static_cast<bool>(os);
}

// ----------------------------------------------------------------- Loader

bool Loader::load(std::istream& is, std::uint64_t expected_config_hash) {
    std::vector<std::uint8_t> blob{std::istreambuf_iterator<char>(is),
                                   std::istreambuf_iterator<char>()};
    rtlsim::SnapReader r(blob);
    if (r.u64() != kMagicWord || !r.ok_so_far()) {
        error_ = "not a checkpoint (bad magic)";
        return false;
    }
    manifest_.format_version = r.u32();
    if (manifest_.format_version != kFormatVersion) {
        error_ = "unsupported format version " +
                 std::to_string(manifest_.format_version);
        return false;
    }
    manifest_.config_hash = r.u64();
    manifest_.sim_time = r.u64();
    if (expected_config_hash != 0 &&
        manifest_.config_hash != expected_config_hash) {
        error_ = "config hash mismatch (snapshot was taken from a "
                 "differently configured system)";
        return false;
    }
    const std::uint32_t n = r.u32();
    sections_.clear();
    for (std::uint32_t i = 0; i < n; ++i) {
        std::string name = r.str();
        std::vector<std::uint8_t> payload = r.bytes();
        if (!r.ok_so_far()) {
            error_ = "truncated section table";
            return false;
        }
        sections_.emplace_back(std::move(name), std::move(payload));
    }
    if (!r.ok()) {
        error_ = "trailing bytes after section table";
        return false;
    }
    return true;
}

const std::vector<std::uint8_t>* Loader::find(const std::string& name) const {
    for (const auto& [n, payload] : sections_) {
        if (n == name) return &payload;
    }
    return nullptr;
}

rtlsim::SnapReader Loader::reader(const std::string& name) {
    const std::vector<std::uint8_t>* payload = find(name);
    if (payload == nullptr) {
        if (error_.empty()) error_ = "missing section '" + name + "'";
        // A reader over the empty span fails on first read.
        return rtlsim::SnapReader({});
    }
    return rtlsim::SnapReader(*payload);
}

std::vector<Loader::SectionInfo> Loader::sections() const {
    std::vector<SectionInfo> out;
    out.reserve(sections_.size());
    for (const auto& [name, payload] : sections_) {
        out.push_back({name, payload.size()});
    }
    return out;
}

// --------------------------------------------------------------- Sections

Sections::Sections(rtlsim::Scheduler& sch) : sch_(sch) { add("kernel", sch); }

void Sections::add(std::string name, SaveFn save, RestoreFn restore) {
    parts_.push_back({std::move(name), std::move(save), std::move(restore)});
}

void Sections::check(std::string diagnostic, std::function<bool()> holds) {
    checks_.push_back({std::move(diagnostic), std::move(holds)});
}

bool Sections::save(std::ostream& os, std::uint64_t config_hash) const {
    if (!sch_.ckpt_quiescent()) return false;
    Saver saver(Manifest{kFormatVersion, config_hash, sch_.now()});
    for (const Part& p : parts_) p.save(saver.section(p.name));
    // Signals last: every part has finalized its side of the state.
    sch_.ckpt_save_signals(saver.section("signals"));
    return saver.write_to(os);
}

bool Sections::restore(std::istream& is, std::uint64_t config_hash,
                       std::string* error) {
    const auto fail = [error](std::string m) {
        if (error != nullptr) *error = std::move(m);
        return false;
    };
    Loader loader;
    if (!loader.load(is, config_hash)) return fail(loader.error());

    // The table must be exactly the registration: a missing, extra,
    // reordered or duplicated section is refused before any state moves.
    const std::vector<Loader::SectionInfo> table = loader.sections();
    bool same = table.size() == parts_.size() + 1 &&
                table.back().name == "signals";
    for (std::size_t i = 0; same && i < parts_.size(); ++i) {
        same = table[i].name == parts_[i].name;
    }
    if (!same) return fail("section table mismatch");

    // Kernel first (clears the event queue and quiesces), then the event
    // sources re-schedule themselves, then modules, then signal values.
    // Each reader must end exactly where its payload does: a save writes
    // nothing its restore leaves unread.
    for (Part& p : parts_) {
        rtlsim::SnapReader r = loader.reader(p.name);
        if (!p.restore(r) || !r.ok()) return fail(p.name + " section corrupt");
    }
    rtlsim::SnapReader r = loader.reader("signals");
    if (!sch_.ckpt_restore_signals(r) || !r.ok()) {
        return fail("signals section corrupt");
    }
    for (const Check& c : checks_) {
        if (!c.holds()) return fail(c.diagnostic);
    }
    return true;
}

}  // namespace autovision::ckpt
