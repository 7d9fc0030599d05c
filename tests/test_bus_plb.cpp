// Unit tests for the PLB bus model, the DMA master helper and the memory.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <vector>

#include "bus/memory.hpp"
#include "bus/plb.hpp"
#include "kernel/kernel.hpp"

namespace autovision {
namespace {

using rtlsim::Clock;
using rtlsim::Logic;
using rtlsim::NS;
using rtlsim::ResetGen;
using rtlsim::Scheduler;

constexpr rtlsim::Time kClkPeriod = 10 * NS;

/// Testbench fixture: clock, reset, a bus with `masters` ports and a memory.
struct BusTb {
    Scheduler sch;
    Clock clk{sch, "clk", kClkPeriod};
    ResetGen rst{sch, "rst", 3 * kClkPeriod};
    Memory mem;
    Plb plb;

    explicit BusTb(unsigned masters, unsigned max_burst = 16)
        : mem(Memory::Config{}),
          plb(sch, "plb", clk.out, rst.out,
              Plb::Config{masters, max_burst, 1000}) {
        plb.attach_slave(mem);
    }

    /// Drive a DmaMaster's step() from a clocked process.
    struct Driver : rtlsim::Module {
        DmaMaster dma;
        Driver(BusTb& tb, unsigned port, unsigned burst_limit)
            : Module(tb.sch, "drv" + std::to_string(port)),
              dma(tb.plb.master(port), burst_limit) {
            sync_proc("step", [this] { dma.step(); },
                      {rtlsim::posedge(tb.clk.out)});
        }
    };

    void run_cycles(unsigned n) { sch.run_until(sch.now() + n * kClkPeriod); }
};

TEST(Memory, ByteLanesAreBigEndian) {
    Memory mem;
    mem.poke_u32(0x100, 0xAABBCCDD);
    EXPECT_EQ(mem.peek_u8(0x100), 0xAA) << "byte 0 is the MSB on PowerPC";
    EXPECT_EQ(mem.peek_u8(0x101), 0xBB);
    EXPECT_EQ(mem.peek_u8(0x102), 0xCC);
    EXPECT_EQ(mem.peek_u8(0x103), 0xDD);
    mem.poke_u8(0x101, 0x55);
    EXPECT_EQ(mem.peek_u32(0x100), 0xAA55CCDDu);
    EXPECT_EQ(mem.peek_u16(0x100), 0xAA55u);
    EXPECT_EQ(mem.peek_u16(0x102), 0xCCDDu);
    mem.poke_u16(0x102, 0x1234);
    EXPECT_EQ(mem.peek_u32(0x100), 0xAA551234u);
}

TEST(Memory, UnknownTracking) {
    Memory mem;
    mem.poke(0x40, Word::all_x());
    bool ok = true;
    (void)mem.peek_u32(0x40, &ok);
    EXPECT_FALSE(ok);
    EXPECT_TRUE(mem.range_has_unknown(0x40, 4));
    EXPECT_FALSE(mem.range_has_unknown(0x44, 16));
    mem.poke_u32(0x40, 7);
    (void)mem.peek_u32(0x40, &ok);
    EXPECT_TRUE(ok);
}

TEST(Memory, BulkLoads) {
    Memory mem;
    const std::vector<std::uint32_t> ws{1, 2, 3};
    mem.load_words(0x200, ws);
    EXPECT_EQ(mem.peek_u32(0x208), 3u);
    const std::vector<std::uint8_t> bs{0xDE, 0xAD};
    mem.load_bytes(0x210, bs);
    EXPECT_EQ(mem.peek_u8(0x211), 0xAD);
}

// --- the 4-state image: construction, dirty-page save, round trip ------

std::uint64_t packed(Word w) { return (w.val_plane() << 32) | w.unk_plane(); }

/// The reference encoding: a per-word scan over the whole image.
std::vector<std::uint8_t> per_word_rle(const Memory& mem) {
    rtlsim::SnapWriter w;
    rtlsim::snap_rle_u64(w, mem.size_bytes() / 4, [&](std::size_t i) {
        return packed(mem.peek(mem.base() + 4 * static_cast<std::uint32_t>(i)));
    });
    return w.take();
}

std::vector<std::uint8_t> saved(const Memory& mem) {
    rtlsim::SnapWriter w;
    mem.ckpt_save(w);
    return w.take();
}

constexpr std::uint32_t kPageBytes = Memory::kPageWords * 4;

/// 16 pages plus a partial 17th, written at every shape the dirty-page
/// save distinguishes.
Memory patterned_image() {
    Memory mem(Memory::Config{0, 16 * kPageBytes + 64, 4});
    // Page edges: last word of page 0, first word of page 1.
    mem.poke_u32(kPageBytes - 4, 0x11);
    mem.poke_u32(kPageBytes, 0x22);
    // An X word inside page 3.
    mem.poke(3 * kPageBytes + 40, Word::all_x());
    // Adjacent dirty pages 5 and 6, one value run across their boundary.
    for (std::uint32_t a = 6 * kPageBytes - 16; a < 6 * kPageBytes + 16;
         a += 4) {
        mem.poke_u32(a, 0xABCD);
    }
    // Page 7 stays clean between dirty pages 6 and 8.
    mem.poke_u32(8 * kPageBytes + 8, 0x33);
    // Page 10 is dirty but written back to all zeros.
    mem.poke_u32(10 * kPageBytes + 100, 0x44);
    mem.poke_u32(10 * kPageBytes + 100, 0);
    // The last word of the partial last page.
    mem.poke_u32(16 * kPageBytes + 60, 0x55);
    return mem;
}

TEST(MemoryImage, FreshLargeImageReadsZeroAndSavesOneZeroRun) {
    const Memory mem(Memory::Config{0, 64u << 20, 4});
    const std::uint32_t last = mem.size_bytes() - 4;
    for (std::uint32_t a : {0u, kPageBytes - 4, kPageBytes, kPageBytes + 4,
                            (last / 2) & ~(kPageBytes - 1),
                            last + 4 - kPageBytes, last}) {
        EXPECT_EQ(mem.peek(a), Word{0}) << a;
    }
    rtlsim::SnapWriter want;
    want.u64(mem.size_bytes() / 4);  // count
    want.u64(mem.size_bytes() / 4);  // one run over every word
    want.u64(0);                     // of Word{0}
    EXPECT_EQ(saved(mem), want.buffer());
}

TEST(MemoryImage, DirtyPageSaveEqualsPerWordRle) {
    const Memory mem = patterned_image();
    EXPECT_EQ(saved(mem), per_word_rle(mem));
}

TEST(MemoryImage, SaveRestoreRoundTrips) {
    const Memory src = patterned_image();
    const std::vector<std::uint8_t> blob = saved(src);

    Memory fresh(Memory::Config{0, src.size_bytes(), 4});
    // A target that already holds other writes restores to the same image.
    Memory used(Memory::Config{0, src.size_bytes(), 4});
    used.poke_u32(2 * kPageBytes, 0x99);
    used.poke_u32(6 * kPageBytes, 0x77);
    used.poke(16 * kPageBytes, Word::all_x());
    for (Memory* dst : {&fresh, &used}) {
        rtlsim::SnapReader r(blob);
        ASSERT_TRUE(dst->ckpt_restore(r));
        EXPECT_TRUE(r.ok());
        EXPECT_EQ(saved(*dst), blob);
        for (std::uint32_t a = 0; a < src.size_bytes(); a += 4) {
            ASSERT_EQ(dst->peek(a), src.peek(a)) << a;
        }
    }
}

/// This process's resident set in bytes (Linux: /proc/self/statm).
std::size_t resident_bytes() {
    std::ifstream statm("/proc/self/statm");
    std::size_t size = 0;
    std::size_t resident = 0;
    statm >> size >> resident;
    return resident * static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}

// Building a memory writes none of its image, and that holds for every
// Memory in the process, not only the first. A calloc'd image did not:
// freeing the first one raised glibc's mmap threshold past the 4 MiB a
// 1 MiB image takes, so calloc served later ones from the heap and, once
// it reused freed heap, cleared all 4 MiB of it.
TEST(MemoryImage, EveryConstructionLeavesTheImageUntouched) {
    const std::size_t before = resident_bytes();
    std::size_t peak = before;
    for (int i = 0; i < 4; ++i) {
        const Memory mem(Memory::Config{0, 1u << 20, 4});
        peak = std::max(peak, resident_bytes());
    }
    EXPECT_LT(peak, before + (1u << 20))
        << "building a 4 MiB image 4 times grew the resident set by "
        << (peak - before) << " bytes";
}

TEST(Plb, SingleBurstRead) {
    BusTb tb(1);
    for (unsigned i = 0; i < 8; ++i) tb.mem.poke_u32(0x1000 + 4 * i, 100 + i);

    BusTb::Driver drv(tb, 0, 16);
    std::vector<std::uint32_t> got;
    bool done = false;
    drv.dma.start_read(
        0x1000, 8,
        [&](std::uint32_t, Word w) {
            ASSERT_TRUE(w.is_fully_defined());
            got.push_back(static_cast<std::uint32_t>(w.to_u64()));
        },
        [&] { done = true; });
    tb.run_cycles(100);

    ASSERT_TRUE(done);
    ASSERT_EQ(got.size(), 8u);
    for (unsigned i = 0; i < 8; ++i) EXPECT_EQ(got[i], 100 + i);
    EXPECT_EQ(tb.plb.counters().transactions, 1u);
    EXPECT_EQ(tb.plb.counters().read_beats, 8u);
}

TEST(Plb, SingleBurstWrite) {
    BusTb tb(1);
    BusTb::Driver drv(tb, 0, 16);
    bool done = false;
    drv.dma.start_write(
        0x2000, 5, [](std::uint32_t i) { return Word{0xC0DE0000u + i}; },
        [&] { done = true; });
    tb.run_cycles(100);

    ASSERT_TRUE(done);
    for (unsigned i = 0; i < 5; ++i) {
        EXPECT_EQ(tb.mem.peek_u32(0x2000 + 4 * i), 0xC0DE0000u + i);
    }
    EXPECT_EQ(tb.plb.counters().write_beats, 5u);
}

TEST(Plb, MultiBurstReadSplitsAtLimit) {
    BusTb tb(1, /*max_burst=*/16);
    for (unsigned i = 0; i < 40; ++i) tb.mem.poke_u32(0x3000 + 4 * i, i * i);

    BusTb::Driver drv(tb, 0, 16);
    std::vector<std::uint32_t> got;
    bool done = false;
    drv.dma.start_read(
        0x3000, 40,
        [&](std::uint32_t, Word w) {
            got.push_back(static_cast<std::uint32_t>(w.to_u64()));
        },
        [&] { done = true; });
    tb.run_cycles(300);

    ASSERT_TRUE(done);
    ASSERT_EQ(got.size(), 40u);
    for (unsigned i = 0; i < 40; ++i) EXPECT_EQ(got[i], i * i);
    EXPECT_EQ(tb.plb.counters().transactions, 3u) << "16+16+8 beats";
    EXPECT_EQ(tb.plb.counters().truncations, 0u);
}

// The bug.dpr.4 mechanism: a master configured for a point-to-point link
// issues the whole transfer as one burst. A shared bus truncates it and the
// master silently under-transfers.
TEST(Plb, OversizedBurstIsTruncatedAndReported) {
    BusTb tb(1, /*max_burst=*/16);
    for (unsigned i = 0; i < 64; ++i) tb.mem.poke_u32(0x4000 + 4 * i, i + 1);

    BusTb::Driver drv(tb, 0, /*burst_limit=*/0);  // point-to-point habit
    std::vector<std::uint32_t> got;
    bool done = false;
    drv.dma.start_read(
        0x4000, 64,
        [&](std::uint32_t, Word w) {
            got.push_back(static_cast<std::uint32_t>(w.to_u64()));
        },
        [&] { done = true; });
    tb.run_cycles(300);

    ASSERT_TRUE(done) << "the master believes the transfer completed";
    EXPECT_EQ(got.size(), 16u) << "only one truncated burst was delivered";
    EXPECT_EQ(tb.plb.counters().truncations, 1u);
    EXPECT_TRUE(tb.sch.has_diag_from("plb"));
}

// On an unbounded (point-to-point) bus the same master works: the original
// AutoVision design was correct with its NPI link.
TEST(Plb, UnboundedBusAcceptsHugeBurst) {
    BusTb tb(1, /*max_burst=*/0);
    for (unsigned i = 0; i < 64; ++i) tb.mem.poke_u32(0x4000 + 4 * i, i + 1);

    BusTb::Driver drv(tb, 0, /*burst_limit=*/0);
    std::vector<std::uint32_t> got;
    drv.dma.start_read(0x4000, 64, [&](std::uint32_t, Word w) {
        got.push_back(static_cast<std::uint32_t>(w.to_u64()));
    });
    tb.run_cycles(300);
    EXPECT_EQ(got.size(), 64u);
    EXPECT_EQ(tb.plb.counters().truncations, 0u);
}

TEST(Plb, TwoMastersInterleaveFairly) {
    BusTb tb(2);
    for (unsigned i = 0; i < 32; ++i) {
        tb.mem.poke_u32(0x5000 + 4 * i, 0xA0000 + i);
        tb.mem.poke_u32(0x6000 + 4 * i, 0xB0000 + i);
    }
    BusTb::Driver d0(tb, 0, 8);
    BusTb::Driver d1(tb, 1, 8);
    std::vector<std::uint32_t> g0;
    std::vector<std::uint32_t> g1;
    bool f0 = false;
    bool f1 = false;
    d0.dma.start_read(0x5000, 32, [&](std::uint32_t, Word w) {
        g0.push_back(static_cast<std::uint32_t>(w.to_u64()));
    }, [&] { f0 = true; });
    d1.dma.start_read(0x6000, 32, [&](std::uint32_t, Word w) {
        g1.push_back(static_cast<std::uint32_t>(w.to_u64()));
    }, [&] { f1 = true; });
    tb.run_cycles(600);

    ASSERT_TRUE(f0);
    ASSERT_TRUE(f1);
    for (unsigned i = 0; i < 32; ++i) {
        EXPECT_EQ(g0[i], 0xA0000 + i);
        EXPECT_EQ(g1[i], 0xB0000 + i);
    }
    EXPECT_EQ(tb.plb.counters().transactions, 8u) << "4 bursts each";
    EXPECT_EQ(tb.plb.counters().aborts, 0u);
}

// An isolated master's req is clamped low mid-burst; with another master
// waiting, the bus aborts the burst. When the clamp lifts, the master still
// holds its original request, so the bus grants the whole burst again and
// delivers more read beats than the transfer has words. The DmaMaster must
// not hand those beats to its sink: a sink writing into a buffer sized for
// the transfer (an engine's frame buffer) would overflow it.
TEST(Plb, RegrantedBurstNeverDeliversBeatsPastTheTransfer) {
    BusTb tb(2);
    for (unsigned i = 0; i < 8; ++i) tb.mem.poke_u32(0x1000 + 4 * i, 100 + i);
    BusTb::Driver d0(tb, 0, 16);
    BusTb::Driver d1(tb, 1, 16);
    std::vector<std::uint32_t> got;
    bool done = false;
    d0.dma.start_read(
        0x1000, 8, [&](std::uint32_t i, Word) { got.push_back(i); },
        [&] { done = true; });
    for (unsigned c = 0; c < 100 && d0.dma.words_done() < 3; ++c) {
        tb.run_cycles(1);
    }
    ASSERT_EQ(d0.dma.words_done(), 3u);

    tb.plb.master(0).req.write(Logic::L0);
    d1.dma.start_read(0x2000, 2, [](std::uint32_t, Word) {});
    tb.run_cycles(2);
    tb.plb.master(0).req.write(Logic::L1);
    tb.run_cycles(100);

    ASSERT_TRUE(done);
    EXPECT_EQ(tb.plb.counters().aborts, 1u);
    EXPECT_GT(tb.plb.master_counters(0).read_beats, 8u)
        << "the burst is granted again in full";
    ASSERT_EQ(got.size(), 8u);
    for (std::uint32_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], i);
}

TEST(Plb, WriteThenReadBack) {
    BusTb tb(1);
    BusTb::Driver drv(tb, 0, 16);
    bool wrote = false;
    drv.dma.start_write(0x7000, 3,
                        [](std::uint32_t i) { return Word{0x10u * (i + 1)}; },
                        [&] { wrote = true; });
    tb.run_cycles(60);
    ASSERT_TRUE(wrote);

    std::vector<std::uint32_t> got;
    drv.dma.start_read(0x7000, 3, [&](std::uint32_t, Word w) {
        got.push_back(static_cast<std::uint32_t>(w.to_u64()));
    });
    tb.run_cycles(60);
    EXPECT_EQ(got, (std::vector<std::uint32_t>{0x10, 0x20, 0x30}));
}

TEST(Plb, DecodeErrorPulsesErrAndReports) {
    BusTb tb(1);
    BusTb::Driver drv(tb, 0, 16);
    drv.dma.start_read(0xF000'0000, 1, [](std::uint32_t, Word) {});
    tb.run_cycles(20);
    EXPECT_EQ(tb.plb.counters().decode_errors, 1u);
    EXPECT_TRUE(tb.sch.has_diag_from("plb"));
}

TEST(Plb, XOnRequestIsReported) {
    BusTb tb(1);
    tb.sch.schedule_at(5 * kClkPeriod,
                       [&] { tb.plb.master(0).drive_x(); });
    tb.run_cycles(20);
    bool found = false;
    for (const auto& d : tb.sch.diagnostics()) {
        if (d.message.find("X/Z on req") != std::string::npos) found = true;
    }
    EXPECT_TRUE(found);
}

TEST(Plb, XReportsAreCapped) {
    BusTb tb(1);
    tb.sch.schedule_at(5 * kClkPeriod, [&] { tb.plb.master(0).drive_x(); });
    tb.run_cycles(500);
    unsigned n = 0;
    for (const auto& d : tb.sch.diagnostics()) {
        if (d.message.find("X/Z on req") != std::string::npos) ++n;
    }
    EXPECT_EQ(n, 5u) << "diagnostic spam must be bounded";
}

TEST(Plb, ZeroWordTransferCompletesImmediately) {
    BusTb tb(1);
    BusTb::Driver drv(tb, 0, 16);
    bool done = false;
    drv.dma.start_read(0x0, 0, [](std::uint32_t, Word) {}, [&] { done = true; });
    EXPECT_TRUE(done);
    EXPECT_FALSE(drv.dma.busy());
}

// Parameterised sweep: transfers of many sizes against several burst limits
// must always deliver every word exactly once, in order.
using SweepParam = std::tuple<unsigned /*words*/, unsigned /*burst_limit*/>;
class PlbSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(PlbSweep, ReadDeliversAllWordsInOrder) {
    const auto [words, limit] = GetParam();
    BusTb tb(1);
    for (unsigned i = 0; i < words; ++i) {
        tb.mem.poke_u32(0x8000 + 4 * i, 0xFEED0000 + i);
    }
    BusTb::Driver drv(tb, 0, limit);
    std::vector<std::uint32_t> got;
    bool done = false;
    drv.dma.start_read(
        0x8000, words,
        [&](std::uint32_t idx, Word w) {
            EXPECT_EQ(idx, got.size());
            got.push_back(static_cast<std::uint32_t>(w.to_u64()));
        },
        [&] { done = true; });
    tb.run_cycles(60 + words * 14);
    ASSERT_TRUE(done);
    ASSERT_EQ(got.size(), words);
    for (unsigned i = 0; i < words; ++i) EXPECT_EQ(got[i], 0xFEED0000 + i);
}

TEST_P(PlbSweep, WriteDeliversAllWordsInOrder) {
    const auto [words, limit] = GetParam();
    BusTb tb(1);
    BusTb::Driver drv(tb, 0, limit);
    bool done = false;
    drv.dma.start_write(
        0x8000, words, [](std::uint32_t i) { return Word{0xBEEF0000 + i}; },
        [&] { done = true; });
    tb.run_cycles(60 + words * 14);
    ASSERT_TRUE(done);
    for (unsigned i = 0; i < words; ++i) {
        EXPECT_EQ(tb.mem.peek_u32(0x8000 + 4 * i), 0xBEEF0000 + i);
    }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndLimits, PlbSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 15u, 16u, 17u, 33u, 64u),
                       ::testing::Values(1u, 4u, 16u)));

}  // namespace
}  // namespace autovision
