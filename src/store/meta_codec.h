// Compact codec for spilled ResultStore metadata records.
//
// PR 10 replaces the pointer-heavy per-entry `std::unordered_map` node with a
// two-tier layout: a fixed 32-byte open-addressed slot stays resident in EPC
// (store/meta_index.h) while the full record — tag, owner, challenge r,
// wrapped key [k], result-blob MAC and locator — is sealed and spilled to
// the blob backend, to be faulted back in on demand. This codec defines that
// spilled record's plaintext layout.
//
// Two layers, same trust split as the WAL (store/wal_codec.h):
//
//   * the *plaintext record* (this codec): a versioned canonical encoding of
//     one dictionary entry. Unlike the WAL codec the variable fields carry
//     u16 length prefixes capped at kMaxMetaVarBytes, so a tampered length
//     can never make the enclave allocate more than a few KiB while decoding
//     (alloc-bomb guard, asserted in tests/meta_codec_test.cc). Golden byte
//     vectors pin the layout;
//   * the *sealed record* the backend stores: the plaintext sealed with the
//     store enclave's sealing key (AES-GCM) under the kMetaDomain AAD. The
//     host can shuffle or destroy sealed spill blobs but never read or forge
//     one; a swapped blob decodes to the wrong tag and the index's full-tag
//     confirm check rejects it.
//
// The resident slot packs the spill blob's BlobRef into a single u64
// locator (pack_loc/unpack_loc): 19 bits of segment, 44 bits of offset —
// enough for 2^19 segments of 16 TiB each, with bit 63 reserved for the
// index's kPinnedLocBit. Refs outside that range (never produced by the
// in-tree backends) fail pack_loc and the entry is pinned resident instead
// of spilled.
#pragma once

#include <cstdint>
#include <optional>

#include "common/bytes.h"
#include "serialize/wire.h"
#include "store/blob_backend.h"

namespace speed::store {

/// Format version of the plaintext record (first byte). Bump on any layout
/// or meaning change (v2: blob_digest holds a BlobMac, no longer a SHA-256
/// digest); decode_meta_record rejects unknown versions loudly.
inline constexpr std::uint8_t kMetaFormatVersion = 2;

/// Domain label bound into every sealed spill record's AAD (with version).
inline constexpr std::string_view kMetaDomain = "speed-store-meta";

/// Upper bound on each variable-length field (challenge, wrapped key). The
/// store rejects PUTs above it; the decoder enforces it *before* allocating,
/// so a bit-flipped length prefix cannot trigger a giant allocation inside
/// the enclave.
inline constexpr std::size_t kMaxMetaVarBytes = 4096;

/// The full metadata for one stored entry — everything the resident 32-byte
/// slot does not carry.
struct MetaRecord {
  serialize::Tag tag{};
  serialize::AppId owner{};
  Bytes challenge;                     ///< r
  Bytes wrapped_key;                   ///< [k]
  BlobMac blob_digest{};               ///< MAC of [res]: GMAC tag ‖ IV ‖ 0[4]
  std::uint64_t blob_bytes = 0;
  BlobRef blob;  ///< where the backend stored [res]

  friend bool operator==(const MetaRecord&, const MetaRecord&) = default;
};

/// Canonical plaintext encoding (versioned; layout notes in the .cc).
/// Throws ProtocolError when a variable field exceeds kMaxMetaVarBytes —
/// callers validate request sizes before building a record.
Bytes encode_meta_record(const MetaRecord& rec);

/// Throws SerializationError on truncation, trailing bytes, an unsupported
/// version, or a length prefix above kMaxMetaVarBytes (checked before any
/// allocation).
MetaRecord decode_meta_record(ByteView data);

/// AAD for sealing spill records (domain + format version).
Bytes meta_seal_aad();

/// Packs a spill-blob BlobRef into the resident slot's u64 locator:
/// segment in bits [44,63), offset in bits [0,44); bit 63 stays clear
/// (reserved for kPinnedLocBit). Returns nullopt when the ref does not fit
/// (entry must stay pinned resident instead).
std::optional<std::uint64_t> pack_loc(const BlobRef& ref);

/// Inverse of pack_loc; `length` restores the BlobRef's byte length (kept
/// separately in the slot as spill_len).
BlobRef unpack_loc(std::uint64_t loc, std::uint64_t length);

}  // namespace speed::store
