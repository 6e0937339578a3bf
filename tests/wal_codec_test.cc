// WAL record codec: property-based round trips plus checked-in golden byte
// vectors pinning the on-disk format. If an intentional layout change lands,
// bump kWalFormatVersion and regenerate the vectors here — these tests
// exist to make silent format drift impossible.
#include <gtest/gtest.h>

#include <string>

#include "store/wal_codec.h"
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

/// Fixed, human-auditable insert record used by the golden vectors.
WalRecord golden_insert() {
  WalRecord rec;
  rec.op = WalRecord::Op::kInsert;
  for (std::size_t i = 0; i < rec.tag.size(); ++i) {
    rec.tag[i] = static_cast<std::uint8_t>(i);
  }
  rec.owner.fill(0xaa);
  rec.challenge = {0x01, 0x02, 0x03, 0x04};
  rec.wrapped_key = {0x05, 0x06, 0x07};
  rec.blob_digest.fill(0xbb);
  rec.blob_bytes = 0x1122334455667788ull;
  rec.ref.segment = 7;
  rec.ref.offset = 4096;
  rec.ref.length = 512;
  rec.hits = 3;
  return rec;
}

WalRecord golden_erase() {
  WalRecord rec;
  rec.op = WalRecord::Op::kErase;
  for (std::size_t i = 0; i < rec.tag.size(); ++i) {
    rec.tag[i] = static_cast<std::uint8_t>(0xff - i);
  }
  return rec;
}

// Golden vectors for on-disk format version 2. Regenerate ONLY on an
// intentional, version-bumped format change: the test failure output prints
// the new actual hex.
constexpr const char* kGoldenInsertHex =
    "0201000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
    "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
    "040000000102030403000000050607"
    "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb"
    "8877665544332211"
    "07000000"
    "0010000000000000"
    "0002000000000000"
    "0300000000000000";
constexpr const char* kGoldenEraseHex =
    "0202fffefdfcfbfaf9f8f7f6f5f4f3f2f1f0efeeedecebeae9e8e7e6e5e4e3e2e1e0";
constexpr const char* kGoldenChainAadHex =
    "0f00000073706565642d73746f72652d77616c"  // var "speed-store-wal"
    "02"                                       // format version
    "2a00000000000000"                         // seq = 42
    "101112131415161718191a1b1c1d1e1f";        // prev GCM tag

TEST(WalCodecTest, GoldenInsertVector) {
  const Bytes encoded = encode_wal_record(golden_insert());
  EXPECT_EQ(to_hex(encoded), kGoldenInsertHex)
      << "on-disk WAL insert layout changed — if intentional, bump "
         "kWalFormatVersion and regenerate this vector";
  // And the checked-in bytes decode to the exact record (guards against a
  // compensating encode+decode change).
  EXPECT_EQ(decode_wal_record(from_hex(kGoldenInsertHex)), golden_insert());
}

TEST(WalCodecTest, GoldenEraseVector) {
  const Bytes encoded = encode_wal_record(golden_erase());
  EXPECT_EQ(to_hex(encoded), kGoldenEraseHex)
      << "on-disk WAL erase layout changed — if intentional, bump "
         "kWalFormatVersion and regenerate this vector";
  EXPECT_EQ(decode_wal_record(from_hex(kGoldenEraseHex)), golden_erase());
}

TEST(WalCodecTest, GoldenChainAadVector) {
  WalChainTag prev{};
  for (std::size_t i = 0; i < prev.size(); ++i) {
    prev[i] = static_cast<std::uint8_t>(0x10 + i);
  }
  EXPECT_EQ(to_hex(chain_aad(42, prev)), kGoldenChainAadHex)
      << "chain AAD layout changed — this orphans every existing log; if "
         "intentional, bump kWalFormatVersion and regenerate";
}

TEST(WalCodecTest, PropertyRoundTrip) {
  SPEED_SEEDED_RNG(rng, 0xc0dec0de01ull);
  for (int i = 0; i < 500; ++i) {
    WalRecord rec;
    if (rng.below(4) == 0) {
      rec.op = WalRecord::Op::kErase;
      Bytes tag = rng.bytes(rec.tag.size());
      std::copy(tag.begin(), tag.end(), rec.tag.begin());
    } else {
      rec.op = WalRecord::Op::kInsert;
      Bytes tag = rng.bytes(rec.tag.size());
      std::copy(tag.begin(), tag.end(), rec.tag.begin());
      Bytes owner = rng.bytes(rec.owner.size());
      std::copy(owner.begin(), owner.end(), rec.owner.begin());
      rec.challenge = rng.bytes(rng.below(128));
      rec.wrapped_key = rng.bytes(rng.below(128));
      Bytes digest = rng.bytes(rec.blob_digest.size());
      std::copy(digest.begin(), digest.end(), rec.blob_digest.begin());
      rec.blob_bytes = rng();
      rec.ref.segment = static_cast<std::uint32_t>(rng());
      rec.ref.offset = rng();
      rec.ref.length = rng();
      rec.hits = rng();
    }
    const Bytes encoded = encode_wal_record(rec);
    EXPECT_EQ(decode_wal_record(encoded), rec);
  }
}

TEST(WalCodecTest, UnsupportedVersionFailsLoudly) {
  Bytes encoded = encode_wal_record(golden_insert());
  encoded[0] = kWalFormatVersion + 1;
  try {
    decode_wal_record(encoded);
    FAIL() << "future-version record must not decode";
  } catch (const SerializationError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported format version"),
              std::string::npos)
        << e.what();
  }
}

TEST(WalCodecTest, UnknownOpRejected) {
  Bytes encoded = encode_wal_record(golden_erase());
  encoded[1] = 9;
  EXPECT_THROW(decode_wal_record(encoded), SerializationError);
}

TEST(WalCodecTest, EveryTruncationThrows) {
  const Bytes encoded = encode_wal_record(golden_insert());
  for (std::size_t len = 0; len < encoded.size(); ++len) {
    EXPECT_THROW(decode_wal_record(ByteView(encoded.data(), len)),
                 SerializationError)
        << "prefix of " << len << " bytes decoded";
  }
}

TEST(WalCodecTest, TrailingBytesRejected) {
  Bytes encoded = encode_wal_record(golden_erase());
  encoded.push_back(0x00);
  EXPECT_THROW(decode_wal_record(encoded), SerializationError);
}

TEST(WalCodecTest, ChainTagIsTrailingGcmTag) {
  Bytes sealed;
  for (int i = 0; i < 64; ++i) sealed.push_back(static_cast<std::uint8_t>(i));
  const WalChainTag tag = chain_tag_of(sealed);
  for (std::size_t i = 0; i < tag.size(); ++i) {
    EXPECT_EQ(tag[i], 64 - tag.size() + i);
  }
}

}  // namespace
}  // namespace speed::store
