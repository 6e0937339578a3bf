// Content-defined chunking (Gear rolling hash).
//
// The streaming dedup path splits a large input into variable-size chunks
// whose boundaries depend only on the *content* in a ~64-byte window, not on
// byte offsets. An insert/delete/shift edit therefore perturbs at most the
// chunk it lands in plus its successor: the rolling hash resynchronizes at
// the next content boundary and every later chunk is byte-identical to the
// unedited version — which is what lets chunk-granularity dedup survive
// edits that would forfeit all reuse under whole-call tags.
//
// The chunker is the Gear variant of the Rabin-style rolling hash (the
// chunker idiom of Metadedup, MSST'19): h = (h << 1) + G[byte], with a cut
// when the HIGH log2(avg) bits of h are zero (the FastCDC observation: the
// left shift pushes every window byte's entropy into the high bits, while
// the low bits see only the last few bytes and misbehave on low-entropy
// text). The shift ages a byte out of the hash after 64 steps, giving the
// fixed-size window for free. The gear table is derived deterministically,
// so chunk boundaries — and thus chunk tags — are stable across processes
// and platforms.
//
// Because the hash forgets every byte more than 64 steps back, split() does
// not walk a chunk from its first byte: no cut is taken before min_size, so
// it starts hashing at min_size − 64 (at 0 when min_size ≤ 64) and reaches
// the first tested position with the very hash a walk from the chunk start
// would hold there. Every cut point is unchanged; the bytes below
// min_size − 64 are never read. The walk then tests two positions per step
// (h₁ = 2h + G[b₀], h₂ = 4h + (G ≪ 1)[b₀] + G[b₁]), so the loop-carried
// dependency is one shift-add per two bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bytes.h"

namespace speed::chunk {

/// Chunk-size policy. `avg_size` must be a power of two (it becomes the cut
/// mask); expected chunk size is roughly min_size + avg_size for random
/// data. Defaults target the block-store case study: big enough that the
/// per-chunk crypto amortizes, small enough that edits stay contained.
struct ChunkerConfig {
  std::size_t min_size = 2 * 1024;
  std::size_t avg_size = 8 * 1024;
  std::size_t max_size = 64 * 1024;

  /// Throws std::invalid_argument unless 0 < min <= avg <= max and avg is a
  /// power of two.
  void validate() const;
};

/// One chunk of the input: a half-open [offset, offset + size) window.
struct ChunkRef {
  std::size_t offset = 0;
  std::size_t size = 0;

  friend bool operator==(const ChunkRef&, const ChunkRef&) = default;
};

class Chunker {
 public:
  explicit Chunker(ChunkerConfig config = {});

  /// Split `data` into content-defined chunks. Every chunk's size is in
  /// [min_size, max_size] except the final chunk, which may be shorter
  /// (sub-min inputs yield exactly one chunk; empty input yields none).
  /// Chunks tile the input exactly: offsets are contiguous, sizes sum to
  /// data.size().
  std::vector<ChunkRef> split(ByteView data) const;

  const ChunkerConfig& config() const { return config_; }

 private:
  /// Size of the chunk starting at `p` with `limit` bytes available
  /// (limit ≤ max_size): the first position from min_size on whose hash
  /// passes the cut mask, else `limit`.
  std::size_t cut_point(const std::uint8_t* p, std::size_t limit) const;

  ChunkerConfig config_;
  std::uint64_t cut_mask_;
};

}  // namespace speed::chunk
