#include "memory.hpp"

#include <sys/mman.h>

#include <array>
#include <bit>
#include <cassert>
#include <new>
#include <type_traits>

namespace autovision {

// The mapping's zero pages must *be* the init image: Word{0} is all-zero
// bytes, and a Word is a plain value the mapping can hold without
// construction.
static_assert(std::is_trivially_copyable_v<Word> &&
              std::is_trivially_destructible_v<Word>);
static_assert(std::bit_cast<std::array<unsigned char, sizeof(Word)>>(Word{0}) ==
              std::array<unsigned char, sizeof(Word)>{});

namespace {

// An explicit mapping, not calloc: once a free has raised glibc's dynamic
// mmap threshold, calloc serves images up to 32 MiB from the heap and
// clears every byte of them.
void* map_zeroed(std::size_t bytes) {
    if (bytes == 0) return nullptr;
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return p;
}

}  // namespace

void Memory::Unmap::operator()(Word* p) const noexcept { ::munmap(p, bytes); }

Memory::Memory() : Memory(Config{}) {}

Memory::Memory(Config cfg)
    : cfg_(cfg),
      nwords_(cfg.size_bytes / 4),
      words_(static_cast<Word*>(map_zeroed(nwords_ * sizeof(Word))),
             Unmap{nwords_ * sizeof(Word)}) {
    assert(cfg_.size_bytes % 4 == 0);
    page_dirty_.assign((nwords_ + kPageWords - 1) / kPageWords, 0);
    page_gen_.assign(page_dirty_.size(), 0);
}

bool Memory::claims(std::uint32_t addr) const {
    return addr >= cfg_.base && addr - cfg_.base < cfg_.size_bytes;
}

std::size_t Memory::index(std::uint32_t addr) const {
    assert(claims(addr) && "memory access out of range");
    return (addr - cfg_.base) / 4;
}

Word Memory::plb_read(std::uint32_t addr) { return words_[index(addr)]; }

void Memory::plb_write(std::uint32_t addr, Word w) {
    const std::size_t i = index(addr);
    on_write(i);
    words_[i] = w;
}

Word Memory::peek(std::uint32_t addr) const { return words_[index(addr)]; }

void Memory::poke(std::uint32_t addr, Word w) {
    const std::size_t i = index(addr);
    on_write(i);
    words_[i] = w;
}

std::uint32_t Memory::peek_u32(std::uint32_t addr, bool* ok) const {
    const Word w = words_[index(addr)];
    if (ok != nullptr) *ok = w.is_fully_defined();
    return static_cast<std::uint32_t>(w.to_u64());
}

void Memory::poke_u32(std::uint32_t addr, std::uint32_t v) {
    const std::size_t i = index(addr);
    on_write(i);
    words_[i] = Word{v};
}

std::uint8_t Memory::peek_u8(std::uint32_t addr, bool* ok) const {
    const Word w = words_[index(addr & ~3u)];
    const unsigned lane = addr & 3u;        // 0 = most significant (BE)
    const unsigned shift = (3u - lane) * 8;
    const Word b = (w >> shift) & Word{0xFF};
    if (ok != nullptr) *ok = b.is_fully_defined();
    return static_cast<std::uint8_t>(b.to_u64());
}

void Memory::poke_u8(std::uint32_t addr, std::uint8_t v) {
    const std::size_t i = index(addr & ~3u);
    on_write(i);
    Word& w = words_[i];
    const unsigned shift = (3u - (addr & 3u)) * 8;
    const Word mask = Word{0xFFu} << shift;
    w = (w & ~mask) | (Word{v} << shift);
}

std::uint16_t Memory::peek_u16(std::uint32_t addr, bool* ok) const {
    assert((addr & 1u) == 0 && "halfword access must be aligned");
    const Word w = words_[index(addr & ~3u)];
    const unsigned shift = (addr & 2u) ? 0 : 16;  // BE halfword lanes
    const Word h = (w >> shift) & Word{0xFFFF};
    if (ok != nullptr) *ok = h.is_fully_defined();
    return static_cast<std::uint16_t>(h.to_u64());
}

void Memory::poke_u16(std::uint32_t addr, std::uint16_t v) {
    assert((addr & 1u) == 0 && "halfword access must be aligned");
    const std::size_t i = index(addr & ~3u);
    on_write(i);
    Word& w = words_[i];
    const unsigned shift = (addr & 2u) ? 0 : 16;
    const Word mask = Word{0xFFFFu} << shift;
    w = (w & ~mask) | (Word{v} << shift);
}

void Memory::load_words(std::uint32_t addr,
                        std::span<const std::uint32_t> ws) {
    for (std::uint32_t v : ws) {
        poke_u32(addr, v);
        addr += 4;
    }
}

void Memory::load_bytes(std::uint32_t addr, std::span<const std::uint8_t> bs) {
    for (std::uint8_t b : bs) poke_u8(addr++, b);
}

bool Memory::range_has_unknown(std::uint32_t addr,
                               std::uint32_t len_bytes) const {
    for (std::uint32_t a = addr & ~3u; a < addr + len_bytes; a += 4) {
        if (words_[index(a)].has_unknown()) return true;
    }
    return false;
}

}  // namespace autovision
