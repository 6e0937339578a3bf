// Spilled-metadata record codec: property round trips, checked-in golden
// byte vectors pinning the spill format, a decode fuzzer over truncated and
// bit-flipped records, and the pack_loc/unpack_loc locator range contract.
//
// The sealed layer (AES-GCM) normally rejects any host tampering before this
// codec ever sees modified bytes, but the decoder must stand on its own: a
// records-format bug plus a sealing bug must not compose into an enclave
// crash or a giant allocation. Hence the fuzzer demands that every corrupted
// input either decodes cleanly or throws SerializationError — nothing else —
// and that a hostile length prefix can never allocate past kMaxMetaVarBytes.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "common/error.h"
#include "store/meta_codec.h"
#include "store/meta_index.h"
#include "test_seed.h"

namespace speed::store {
namespace {

std::string to_hex(ByteView data) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(data.size() * 2);
  for (const std::uint8_t b : data) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0x0f]);
  }
  return out;
}

Bytes from_hex(const std::string& hex) {
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(
        std::stoul(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

/// Fixed, human-auditable record used by the golden vectors (mirrors the WAL
/// codec's golden_insert so the two layouts are easy to diff by eye).
MetaRecord golden_record() {
  MetaRecord rec;
  for (std::size_t i = 0; i < rec.tag.size(); ++i) {
    rec.tag[i] = static_cast<std::uint8_t>(i);
  }
  rec.owner.fill(0xaa);
  rec.challenge = {0x01, 0x02, 0x03, 0x04};
  rec.wrapped_key = {0x05, 0x06, 0x07};
  rec.blob_digest.fill(0xbb);
  rec.blob_bytes = 0x1122334455667788ull;
  rec.blob.segment = 7;
  rec.blob.offset = 4096;
  rec.blob.length = 512;
  return rec;
}

// Golden vector for spill format version 2. Regenerate ONLY on an
// intentional, version-bumped format change: the failure output prints the
// new actual hex. Note the u16 (not u32) length prefixes — that cap is the
// decoder's alloc-bomb guard.
constexpr const char* kGoldenRecordHex =
    "02"                                                                // ver
    "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"  // tag
    "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"  // own
    "0400"      // challenge_len
    "01020304"  // challenge
    "0300"      // wrapped_key_len
    "050607"    // wrapped_key
    "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb"  // dig
    "8877665544332211"   // blob_bytes
    "07000000"           // blob.segment
    "0010000000000000"   // blob.offset
    "0002000000000000";  // blob.length

// AAD binding the sealed spill record to the domain + format version.
constexpr const char* kGoldenAadHex =
    "10000000"                          // var-bytes length (16)
    "73706565642d73746f72652d6d657461"  // "speed-store-meta"
    "02";                               // format version

TEST(MetaCodecTest, GoldenRecordVector) {
  const Bytes encoded = encode_meta_record(golden_record());
  EXPECT_EQ(to_hex(encoded), kGoldenRecordHex)
      << "spilled meta record layout changed — if intentional, bump "
         "kMetaFormatVersion and regenerate this vector (existing sealed "
         "spill blobs become unreadable!)";
  // The checked-in bytes decode to the exact record (guards against a
  // compensating encode+decode change).
  EXPECT_EQ(decode_meta_record(from_hex(kGoldenRecordHex)), golden_record());
}

TEST(MetaCodecTest, GoldenSealAadVector) {
  EXPECT_EQ(to_hex(meta_seal_aad()), kGoldenAadHex)
      << "spill sealing AAD changed — this orphans every sealed spill "
         "record; if intentional, bump kMetaFormatVersion and regenerate";
}

TEST(MetaCodecTest, PropertyRoundTrip) {
  SPEED_SEEDED_RNG(rng, 0x3e7ac0dec001ull);
  for (int i = 0; i < 500; ++i) {
    MetaRecord rec;
    Bytes tag = rng.bytes(rec.tag.size());
    std::copy(tag.begin(), tag.end(), rec.tag.begin());
    Bytes owner = rng.bytes(rec.owner.size());
    std::copy(owner.begin(), owner.end(), rec.owner.begin());
    // Exercise empty, tiny, and cap-sized variable fields.
    rec.challenge = rng.bytes(rng.below(kMaxMetaVarBytes + 1));
    rec.wrapped_key = rng.bytes(rng.below(kMaxMetaVarBytes + 1));
    Bytes digest = rng.bytes(rec.blob_digest.size());
    std::copy(digest.begin(), digest.end(), rec.blob_digest.begin());
    rec.blob_bytes = rng();
    rec.blob.segment = static_cast<std::uint32_t>(rng());
    rec.blob.offset = rng();
    rec.blob.length = rng();
    EXPECT_EQ(decode_meta_record(encode_meta_record(rec)), rec) << "i=" << i;
  }
}

TEST(MetaCodecTest, EncodeRejectsOversizedVarFields) {
  MetaRecord rec = golden_record();
  rec.challenge.assign(kMaxMetaVarBytes + 1, 0x42);
  EXPECT_THROW(encode_meta_record(rec), ProtocolError);
  rec = golden_record();
  rec.wrapped_key.assign(kMaxMetaVarBytes + 1, 0x42);
  EXPECT_THROW(encode_meta_record(rec), ProtocolError);
}

TEST(MetaCodecTest, DecodeRejectsUnknownVersionTrailingBytesAndLengthBomb) {
  Bytes encoded = encode_meta_record(golden_record());
  // Unknown version.
  Bytes bad = encoded;
  bad[0] = kMetaFormatVersion + 1;
  EXPECT_THROW(decode_meta_record(bad), SerializationError);
  // Trailing garbage.
  bad = encoded;
  bad.push_back(0x00);
  EXPECT_THROW(decode_meta_record(bad), SerializationError);
  // Hostile length prefix: 0xffff far exceeds kMaxMetaVarBytes and must be
  // rejected by the cap check before any take/allocation. The challenge
  // length prefix sits right after version + tag + owner.
  bad = encoded;
  const std::size_t challenge_len_at = 1 + 32 + 32;
  bad[challenge_len_at] = 0xff;
  bad[challenge_len_at + 1] = 0xff;
  EXPECT_THROW(decode_meta_record(bad), SerializationError);
}

TEST(MetaCodecTest, DecodeFuzzTruncationAndBitFlips) {
  const Bytes encoded = encode_meta_record(golden_record());
  // Every truncated prefix must throw SerializationError — never crash,
  // never succeed (the layout has no optional tail).
  for (std::size_t len = 0; len < encoded.size(); ++len) {
    EXPECT_THROW(
        decode_meta_record(ByteView(encoded.data(), len)),
        SerializationError)
        << "truncated to " << len << " bytes";
  }
  // Every single-bit flip either decodes (flip landed in a raw field and the
  // sealed layer is what would catch it) or throws SerializationError.
  // Anything else — another exception type, a crash, an allocation beyond
  // the cap — is a decoder bug.
  std::size_t rejected = 0;
  for (std::size_t byte = 0; byte < encoded.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes flipped = encoded;
      flipped[byte] ^= static_cast<std::uint8_t>(1u << bit);
      try {
        const MetaRecord rec = decode_meta_record(flipped);
        EXPECT_LE(rec.challenge.size(), kMaxMetaVarBytes);
        EXPECT_LE(rec.wrapped_key.size(), kMaxMetaVarBytes);
        EXPECT_NE(rec, golden_record()) << "flip was observable yet decoded "
                                           "to the original record";
      } catch (const SerializationError&) {
        ++rejected;
      }
    }
  }
  // Sanity: the version byte alone guarantees some flips are rejected.
  EXPECT_GE(rejected, 8u);
}

TEST(MetaCodecTest, PackLocRoundTripAndRange) {
  SPEED_SEEDED_RNG(rng, 0x3e7ac0dec002ull);
  constexpr std::uint32_t kMaxSegment = (std::uint32_t{1} << 19) - 1;
  constexpr std::uint64_t kMaxOffset = (std::uint64_t{1} << 44) - 1;
  for (int i = 0; i < 1000; ++i) {
    BlobRef ref;
    ref.segment = static_cast<std::uint32_t>(rng.below(kMaxSegment + 1));
    ref.offset = rng.below(kMaxOffset + 1);
    ref.length = rng.below(std::uint64_t{1} << 32);
    const auto loc = pack_loc(ref);
    ASSERT_TRUE(loc.has_value()) << "i=" << i;
    // Valid locators never collide with the pinned-entry namespace.
    EXPECT_EQ(*loc & kPinnedLocBit, 0u) << "i=" << i;
    const BlobRef back = unpack_loc(*loc, ref.length);
    EXPECT_EQ(back.segment, ref.segment);
    EXPECT_EQ(back.offset, ref.offset);
    EXPECT_EQ(back.length, ref.length);
  }
  // Exact boundaries.
  BlobRef edge{.segment = kMaxSegment, .offset = kMaxOffset, .length = 1};
  const auto packed = pack_loc(edge);
  ASSERT_TRUE(packed.has_value());
  EXPECT_EQ(*packed & kPinnedLocBit, 0u);
  EXPECT_EQ(unpack_loc(*packed, 1).segment, kMaxSegment);
  EXPECT_EQ(unpack_loc(*packed, 1).offset, kMaxOffset);
  // One past either bound does not fit; the store pins such entries.
  EXPECT_EQ(pack_loc({.segment = kMaxSegment + 1, .offset = 0, .length = 1}),
            std::nullopt);
  EXPECT_EQ(pack_loc({.segment = 0, .offset = kMaxOffset + 1, .length = 1}),
            std::nullopt);
}

}  // namespace
}  // namespace speed::store
