// On-disk codec for ResultStore metadata WAL records.
//
// Two layers, split along the trust boundary:
//
//   * the *plaintext record* (this codec): a versioned, canonical encoding
//     of one dictionary mutation — insert of tag -> (r, [k], blob MAC,
//     BlobRef, owner, hits) or erase of a tag. Golden byte vectors for this
//     format are checked in under tests/wal_codec_test.cc, so any format
//     change fails loudly instead of silently corrupting old logs;
//   * the *sealed record* the backend persists: the plaintext encrypted
//     with the store enclave's sealing key (AES-GCM), with AAD binding the
//     record's sequence number and the previous record's GCM tag. The tags
//     therefore form a MAC chain: dropping, reordering, splicing, or
//     tampering with any record breaks authentication at that point and
//     recovery truncates there. Only same-measurement store enclaves on the
//     same platform can read or extend the log.
//
// The chain AAD (chain_aad) is part of the on-disk contract: changing it
// orphans every existing log, which is exactly the loud failure we want.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.h"
#include "crypto/gcm.h"
#include "serialize/wire.h"
#include "store/blob_backend.h"

namespace speed::store {

/// Format version of the plaintext record encoding (first byte of every
/// record). Bump on any layout or meaning change (v2: blob_digest holds a
/// BlobMac, no longer a SHA-256 digest); decode_wal_record rejects unknown
/// versions with a distinct error message. The version is also bound into
/// chain_aad, so a log of another version fails its chain check at record 0
/// and recovery drops it as a torn tail.
inline constexpr std::uint8_t kWalFormatVersion = 2;

/// Domain label sealed into every record's AAD (with the version).
inline constexpr std::string_view kWalDomain = "speed-store-wal";

/// The previous-record link: the 16-byte GCM tag of the preceding sealed
/// record (zero for the first record).
using WalChainTag = std::array<std::uint8_t, crypto::kGcmTagSize>;

struct WalRecord {
  enum class Op : std::uint8_t { kInsert = 1, kErase = 2 };

  Op op = Op::kInsert;
  serialize::Tag tag{};

  // Insert-only fields (ignored/empty for erase).
  serialize::AppId owner{};
  Bytes challenge;                     ///< r
  Bytes wrapped_key;                   ///< [k]
  BlobMac blob_digest{};               ///< MAC of [res]: GMAC tag ‖ IV ‖ 0[4]
  std::uint64_t blob_bytes = 0;
  BlobRef ref;          ///< where the backend stored [res]
  std::uint64_t hits = 0;

  friend bool operator==(const WalRecord&, const WalRecord&) = default;
};

/// Canonical plaintext encoding (versioned; see format notes in the .cc).
Bytes encode_wal_record(const WalRecord& rec);

/// Throws SerializationError on truncation, trailing bytes, unknown op, or
/// an unsupported format version (distinct "unsupported version" message).
WalRecord decode_wal_record(ByteView data);

/// AAD binding a sealed record into the chain at position `seq` after the
/// record whose GCM tag was `prev`.
Bytes chain_aad(std::uint64_t seq, const WalChainTag& prev);

/// The chain link a sealed record contributes: its trailing GCM tag.
/// Precondition: `sealed` is a gcm_encrypt envelope (>= iv + tag bytes).
WalChainTag chain_tag_of(ByteView sealed);

}  // namespace speed::store
