// SHA-256 (FIPS 180-4), implemented from scratch.
//
// SPEED derives computation tags t = H(func, m) and RCE secondary keys
// h = H(func, m, r) from SHA-256; it is the collision-resistant hash the
// paper selects (§III-B). The store pins every result blob with its SHA-256
// digest. Streaming interface so multi-part tag inputs (descriptor ‖ input ‖
// challenge) hash without concatenation copies.
//
// Two compression functions are provided and selected at runtime, as for
// AesGcm:
//   * a hardware path on the x86 SHA extensions (SHA-NI), taken whenever the
//     CPU has them;
//   * a portable scalar path, which is the reference the hardware path is
//     tested against and the only path on other CPUs.
// Both produce identical digests; the choice changes speed only.
//
// update_pair feeds the same bytes to two states in one pass. On the
// hardware path it runs both states' rounds interleaved, block by block, so
// the two dependency chains share the SHA unit: a one-lane pass waits on the
// latency of each round, and the second lane fills those waits.
//
// A midstate can leave the object as bytes and come back: export_midstate
// writes the state words, the count of bytes absorbed and the buffered
// partial block; import_midstate rebuilds a state that finishes exactly as
// the exported one would. The streaming data path keeps a chunk context's
// midstate in its manifest this way (mle::ComputationContext).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>

#include "common/bytes.h"

namespace speed::crypto {

inline constexpr std::size_t kSha256DigestSize = 32;

using Sha256Digest = std::array<std::uint8_t, kSha256DigestSize>;

// Copying a Sha256 forks its midstate: absorb a common prefix once, then
// copy the object and finish each copy with a different suffix (see
// mle::ComputationContext, which derives the tag and the RCE secondary key
// from one pass over the input).
class Sha256 {
 public:
  /// Implementation selection. kAuto picks the hardware path when the CPU
  /// supports it; kPortable forces the scalar path (used by the cross-check
  /// tests).
  enum class Impl { kAuto, kPortable };

  explicit Sha256(Impl impl = Impl::kAuto);

  /// Reset to the initial state; allows object reuse.
  void reset();

  /// Absorb more input.
  void update(ByteView data);

  /// Same result as `a.update(data); b.update(data)`. When both states take
  /// the hardware path and `data` spans at least two blocks, the two
  /// compressions run interleaved in one pass over `data`; otherwise this
  /// is exactly the two update calls. The states may hold different
  /// amounts of buffered input.
  static void update_pair(Sha256& a, Sha256& b, ByteView data);

  /// Finalize and return the digest. The object must be reset() before reuse.
  Sha256Digest finish();

  /// One-shot convenience.
  static Sha256Digest digest(ByteView data);

  /// Bytes of an exported midstate with no partial block buffered: eight
  /// big-endian state words and the big-endian u64 count of bytes absorbed.
  static constexpr std::size_t kMidstateFixedSize = 32 + 8;

  /// export_midstate's size for this state: kMidstateFixedSize plus the
  /// buffered partial block (the absorbed byte count mod 64).
  std::size_t midstate_size() const { return kMidstateFixedSize + buffer_len_; }

  /// Writes the midstate into `out`, which must hold exactly
  /// midstate_size() bytes.
  void export_midstate(std::span<std::uint8_t> out) const;

  /// True iff `bytes` is a midstate export_midstate could have written: its
  /// length agrees with the byte count it encodes.
  static bool valid_midstate(ByteView bytes);

  /// The state export_midstate wrote as `bytes` (kAuto implementation);
  /// nullopt unless valid_midstate(bytes).
  static std::optional<Sha256> import_midstate(ByteView bytes);

  /// One-shot over multiple segments, equivalent to hashing their
  /// concatenation. (Callers that need unambiguous multi-field hashing must
  /// length-prefix the fields themselves; see mle/tag.cc.)
  static Sha256Digest digest_parts(std::initializer_list<ByteView> parts);

 private:
  /// Runs the compression function over `n` consecutive 64-byte blocks.
  void compress(const std::uint8_t* blocks, std::size_t n);
  /// Fills a partial block from `data` (compressing it once whole); returns
  /// the bytes taken, 0 when no block was partial.
  std::size_t top_up(ByteView data);
  /// With no partial block buffered: compresses the whole blocks of `data`
  /// and buffers the rest. Does not count bits.
  void absorb_blocks(ByteView data);

  std::uint32_t state_[8];
  std::uint64_t bit_count_;
  std::uint8_t buffer_[64];
  std::size_t buffer_len_;
  bool use_hw_;
};

/// Owned-buffer view of a digest (for APIs traveling in Bytes).
inline Bytes to_bytes(const Sha256Digest& d) { return Bytes(d.begin(), d.end()); }

// Re-expose the speed:: byte helpers so this overload does not hide them for
// code living inside speed::crypto.
using speed::to_bytes;

namespace hw {
/// True when the SHA extensions (with SSSE3 and SSE4.1) are usable on this
/// CPU, i.e. when Sha256{} takes the hardware path.
bool sha256_available();
}  // namespace hw

}  // namespace speed::crypto
