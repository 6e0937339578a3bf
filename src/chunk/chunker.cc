#include "chunk/chunker.h"

#include <array>
#include <bit>
#include <stdexcept>

namespace speed::chunk {

namespace {

/// splitmix64 — the standard 64-bit mixer. Used only to derive the gear
/// table below; the table must be the same everywhere or chunk boundaries
/// (and with them chunk tags) would differ between peers.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr std::array<std::uint64_t, 256> make_gear_table(int shift) {
  std::array<std::uint64_t, 256> g{};
  for (std::size_t i = 0; i < g.size(); ++i) {
    g[i] = splitmix64(static_cast<std::uint64_t>(i)) << shift;
  }
  return g;
}

constexpr std::array<std::uint64_t, 256> kGear = make_gear_table(0);
/// G << 1: a byte's gear value one step after it entered the hash, so two
/// steps fold into h' = 4h + kGear2[b0] + kGear[b1].
constexpr std::array<std::uint64_t, 256> kGear2 = make_gear_table(1);

/// Bytes of history a 64-bit Gear hash keeps: each step shifts left once.
constexpr std::size_t kWindow = 64;

}  // namespace

void ChunkerConfig::validate() const {
  if (min_size == 0 || min_size > avg_size || avg_size > max_size) {
    throw std::invalid_argument(
        "ChunkerConfig: need 0 < min_size <= avg_size <= max_size");
  }
  if ((avg_size & (avg_size - 1)) != 0) {
    throw std::invalid_argument("ChunkerConfig: avg_size must be a power of 2");
  }
}

Chunker::Chunker(ChunkerConfig config) : config_(config) {
  config_.validate();
  // Judge the top log2(avg) bits (FastCDC-style): the low bits of a Gear
  // hash depend on only the last ~13 bytes and cut erratically on
  // low-entropy input, while every byte of the 64-byte window reaches the
  // high bits through the shift.
  const int bits = std::countr_zero(static_cast<std::uint64_t>(config_.avg_size));
  cut_mask_ = bits == 0 ? 0 : ~(~std::uint64_t{0} >> bits);
}

std::size_t Chunker::cut_point(const std::uint8_t* p, std::size_t limit) const {
  const std::size_t min = config_.min_size;
  if (limit <= min) return limit;  // forced cut at max (or the end of the input)
  // The first position the rule tests is min - 1, and its hash holds only
  // bytes (min - 65, min - 1]: start there instead of at the chunk's first
  // byte, and every tested position sees the hash a walk from 0 would.
  std::size_t i = min > kWindow ? min - kWindow : 0;
  std::uint64_t h = 0;
  for (; i + 1 < min; ++i) h = (h << 1) + kGear[p[i]];
  // Two positions per step; the loop-carried chain is one shift-add. The
  // first position that passes the mask wins. An odd last position needs
  // no step of its own: it is `limit`, where the chunk ends either way.
  const std::uint64_t mask = cut_mask_;
  for (; i + 2 <= limit; i += 2) {
    const std::uint64_t h1 = (h << 1) + kGear[p[i]];
    h = (h << 2) + (kGear2[p[i]] + kGear[p[i + 1]]);
    if (((h1 & mask) == 0) | ((h & mask) == 0)) {
      return (h1 & mask) == 0 ? i + 1 : i + 2;
    }
  }
  return limit;
}

std::vector<ChunkRef> Chunker::split(ByteView data) const {
  std::vector<ChunkRef> chunks;
  std::size_t start = 0;
  while (start < data.size()) {
    const std::size_t limit = std::min(data.size() - start, config_.max_size);
    const std::size_t cut = cut_point(data.data() + start, limit);
    chunks.push_back(ChunkRef{start, cut});
    start += cut;
  }
  return chunks;
}

}  // namespace speed::chunk
