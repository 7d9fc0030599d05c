// Main memory model (DDR controller + SDRAM behind a PLB slave port).
//
// Word-organised, big-endian byte lanes (PowerPC convention). Data is stored
// as 4-state Words so corruption injected on the bus (X during an unisolated
// reconfiguration) is preserved and later observable by scoreboards and by
// the CPU. A backdoor interface gives testbench components (firmware loader,
// video VIPs, scoreboards) zero-time access, mirroring how HDL testbenches
// preload memory models.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "kernel/kernel.hpp"
#include "plb.hpp"

namespace autovision {

class Memory final : public PlbSlaveIf {
public:
    struct Config {
        std::uint32_t base = 0x0000'0000;
        std::uint32_t size_bytes = 8u << 20;  ///< 8 MiB default
        unsigned read_latency = 4;            ///< wait states, first beat
    };

    Memory();
    explicit Memory(Config cfg);

    // --- PLB slave interface -------------------------------------------
    [[nodiscard]] bool claims(std::uint32_t addr) const override;
    [[nodiscard]] unsigned read_latency() const override {
        return cfg_.read_latency;
    }
    [[nodiscard]] Word plb_read(std::uint32_t addr) override;
    void plb_write(std::uint32_t addr, Word w) override;
    [[nodiscard]] std::string plb_name() const override { return "memory"; }

    // --- backdoor (zero simulated time) ---------------------------------
    /// Word access; addr is a byte address, word-aligned.
    [[nodiscard]] Word peek(std::uint32_t addr) const;
    void poke(std::uint32_t addr, Word w);

    /// Defined-value helpers; peek_u32 reports unknown bits to the caller
    /// via `ok` so the ISS can trap fetches of corrupted memory.
    [[nodiscard]] std::uint32_t peek_u32(std::uint32_t addr,
                                         bool* ok = nullptr) const;
    void poke_u32(std::uint32_t addr, std::uint32_t v);

    /// Byte access with big-endian lane selection.
    [[nodiscard]] std::uint8_t peek_u8(std::uint32_t addr,
                                       bool* ok = nullptr) const;
    void poke_u8(std::uint32_t addr, std::uint8_t v);

    [[nodiscard]] std::uint16_t peek_u16(std::uint32_t addr,
                                         bool* ok = nullptr) const;
    void poke_u16(std::uint32_t addr, std::uint16_t v);

    /// Bulk loads used by the firmware loader and bitstream staging.
    void load_words(std::uint32_t addr, std::span<const std::uint32_t> ws);
    void load_bytes(std::uint32_t addr, std::span<const std::uint8_t> bs);

    /// True when any word in [addr, addr+len_bytes) has unknown bits.
    [[nodiscard]] bool range_has_unknown(std::uint32_t addr,
                                         std::uint32_t len_bytes) const;

    [[nodiscard]] std::uint32_t base() const { return cfg_.base; }
    [[nodiscard]] std::uint32_t size_bytes() const { return cfg_.size_bytes; }

    // --- write tracking (ISS decode cache) -------------------------------
    /// Pages are kPageWords words (4 KiB). The generation counter of a page
    /// bumps on every front-door or backdoor write into it; the ISS decode
    /// cache snapshots the generation at block-decode time and re-decodes
    /// when it moved (store-to-code detection without per-word shadow
    /// state). Checkpoint restore deliberately does NOT bump generations —
    /// the CPU flushes its cache wholesale on restore instead, so the
    /// counters stay out of the snapshot bytes.
    static constexpr std::size_t kPageWords = 1024;  ///< 4 KiB pages
    [[nodiscard]] std::size_t page_of(std::uint32_t addr) const {
        return index(addr) / kPageWords;
    }
    [[nodiscard]] std::uint32_t page_gen(std::size_t page) const {
        return page_gen_[page];
    }

    // --- checkpoint ------------------------------------------------------
    /// RLE over the 4-state image: each word's (val<<32 | unk) planes form
    /// one u64 run value, so the zero-dominated image stays tiny. Save cost
    /// scales with the *dirty* footprint: a clean page is all Word{0} (see
    /// page_dirty_), so it is one zero group that is never read, and its
    /// host pages are never faulted in. Only dirty pages are scanned word
    /// by word; the encoder merges the groups into the same canonical runs
    /// a per-word scan produces, so the bytes do not depend on which pages
    /// are dirty.
    void ckpt_save(rtlsim::SnapWriter& w) const {
        rtlsim::snap_rle_u64_runs(w, nwords_, [this](std::size_t i) {
            const std::size_t p = i / kPageWords;
            const std::size_t end = std::min((p + 1) * kPageWords, nwords_);
            if (page_dirty_[p] == 0) return rtlsim::SnapRun{end - i, 0};
            const std::uint64_t v = packed(words_[i]);
            std::size_t run = 1;
            while (i + run < end && packed(words_[i + run]) == v) ++run;
            return rtlsim::SnapRun{run, v};
        });
    }
    /// Restore cost scales with the *touched* footprint too: an all-zero
    /// run only needs to re-fill the dirty pages it covers, because a clean
    /// page already holds Word{0}. An 8 MiB image whose firmware + frame
    /// buffers span a few dozen pages restores in microseconds instead of
    /// a 2M-word sweep. Together with the mapped image (construction and
    /// teardown cost what was touched) and the dirty-page save, no step
    /// of a warm start pays for the configured size.
    [[nodiscard]] bool ckpt_restore(rtlsim::SnapReader& r) {
        return rtlsim::snap_unrle_u64_runs(
            r, nwords_,
            [this](std::size_t i, std::uint64_t run, std::uint64_t v) {
                const std::size_t p0 = i / kPageWords;
                const std::size_t p1 = (i + run - 1) / kPageWords;
                if (v != 0) {
                    std::fill_n(words_.get() + i, run,
                                Word::from_planes(v >> 32, v & 0xFFFF'FFFFull));
                    for (std::size_t p = p0; p <= p1; ++p) page_dirty_[p] = 1;
                    return;
                }
                for (std::size_t p = p0; p <= p1; ++p) {
                    if (page_dirty_[p] == 0) continue;  // already all zero
                    const std::size_t lo = std::max(i, p * kPageWords);
                    const std::size_t hi =
                        std::min({i + run, (p + 1) * kPageWords, nwords_});
                    std::fill(words_.get() + lo, words_.get() + hi, Word{0});
                    // Fully zeroed pages are back to the init image; a
                    // partially covered page stays conservatively dirty.
                    if (lo == p * kPageWords &&
                        hi == std::min((p + 1) * kPageWords, nwords_)) {
                        page_dirty_[p] = 0;
                    }
                }
            });
    }

private:
    [[nodiscard]] std::size_t index(std::uint32_t addr) const;

    /// Every mutating path funnels here with the word index `i`: dirty
    /// bit and generation bump of its page.
    void on_write(std::size_t i) {
        page_dirty_[i / kPageWords] = 1;
        ++page_gen_[i / kPageWords];
    }

    [[nodiscard]] static std::uint64_t packed(Word w) {
        return (w.val_plane() << 32) | w.unk_plane();
    }

    struct Unmap {
        std::size_t bytes = 0;
        void operator()(Word* p) const noexcept;
    };

    Config cfg_;
    std::size_t nwords_;
    /// The 4-state image, an anonymous private mapping of its own: the OS
    /// zeroes each page on first touch, so construction and teardown cost
    /// the touched pages, not the size, for every Memory in the process.
    /// It has no allocator redzones; index() asserts every access.
    std::unique_ptr<Word[], Unmap> words_;
    /// One byte per page; nonzero = some word in the page has been written
    /// since construction (its content may differ from the init Word{0}).
    /// Zero = the page holds Word{0} everywhere: save and restore skip it.
    std::vector<std::uint8_t> page_dirty_;
    /// Monotone per-page write counter (see the write-tracking section).
    std::vector<std::uint32_t> page_gen_;
};

}  // namespace autovision
