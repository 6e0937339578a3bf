// Crypto substrate tests: NIST/RFC vectors for SHA-256, HMAC, AES, AES-GCM,
// cross-checks between each hardware GCM width and the scalar path, and DRBG
// sanity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <ostream>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/error.h"
#include "crypto/aes.h"
#include "crypto/drbg.h"
#include "crypto/gcm.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace speed::crypto {
namespace {

// The known-answer tests run on both compression functions: kAuto is the
// SHA-NI path where the CPU has it, kPortable is the scalar reference.
constexpr Sha256::Impl kSha256Impls[] = {Sha256::Impl::kAuto,
                                         Sha256::Impl::kPortable};

std::string sha256_hex(std::string_view msg, Sha256::Impl impl) {
  Sha256 h(impl);
  h.update(as_bytes(msg));
  return hex_encode(to_bytes(h.finish()));
}

// ---------------------------------------------------------------- SHA-256

TEST(Sha256Test, Fips180EmptyString) {
  for (const Sha256::Impl impl : kSha256Impls) {
    EXPECT_EQ(sha256_hex("", impl),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  }
}

TEST(Sha256Test, Fips180Abc) {
  for (const Sha256::Impl impl : kSha256Impls) {
    EXPECT_EQ(sha256_hex("abc", impl),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  }
}

TEST(Sha256Test, Fips180TwoBlockMessage) {
  for (const Sha256::Impl impl : kSha256Impls) {
    EXPECT_EQ(
        sha256_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                   impl),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  }
}

TEST(Sha256Test, MillionAs) {
  for (const Sha256::Impl impl : kSha256Impls) {
    Sha256 h(impl);
    const std::string chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i) h.update(as_bytes(chunk));
    EXPECT_EQ(hex_encode(to_bytes(h.finish())),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
  }
}

TEST(Sha256Test, HwAndPortablePathsAgree) {
  if (!hw::sha256_available()) GTEST_SKIP() << "no SHA extensions on this machine";
  Drbg rng(to_bytes("sha256-crosscheck"));
  for (std::size_t len :
       {0u, 1u, 55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u, 1000u, 4096u, 65537u}) {
    const Bytes msg = rng.bytes(len);
    Sha256 portable(Sha256::Impl::kPortable);
    portable.update(msg);
    const Sha256Digest expected = portable.finish();

    // One-shot, and split off the block grid so the hardware path also runs
    // a buffered partial block followed by a multi-block run.
    EXPECT_EQ(Sha256::digest(msg), expected) << "len " << len;
    const std::size_t split = len * 5 / 7;
    Sha256 hw_split;
    hw_split.update(ByteView(msg).first(split));
    hw_split.update(ByteView(msg).subspan(split));
    EXPECT_EQ(hw_split.finish(), expected) << "len " << len << " split " << split;
  }
}

TEST(Sha256Test, UpdatePairMatchesTwoUpdates) {
  // update_pair must leave both states exactly where a.update(data);
  // b.update(data) would. Lane a holds `la` buffered bytes and lane b
  // `lb` (after two whole blocks), for every (la, lb) in (0..63)², so the
  // two lanes walk different block grids over `data`. Combinations with a
  // portable lane take the two-update fallback; at the longest lengths they
  // run a corner sample of the grid.
  Drbg rng(to_bytes("sha256-update-pair"));
  const Bytes prefix = rng.bytes(128 + 63);
  using Impl = Sha256::Impl;
  std::vector<std::pair<Impl, Impl>> combos = {{Impl::kPortable, Impl::kPortable}};
  if (hw::sha256_available()) {
    combos.insert(combos.end(), {{Impl::kAuto, Impl::kAuto},
                                 {Impl::kAuto, Impl::kPortable},
                                 {Impl::kPortable, Impl::kAuto}});
  }
  const auto absorbed = [&](Impl impl, std::size_t n) {
    Sha256 h(impl);
    h.update(ByteView(prefix).first(n));
    return h;
  };
  const auto lane_b = [](std::size_t lb) { return 128 + lb; };
  std::vector<std::size_t> all(64);
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  const std::vector<std::size_t> corners = {0, 1, 31, 63};

  for (const std::size_t len :
       {0u, 1u, 63u, 64u, 65u, 127u, 128u, 129u, 4095u, 65539u, 1048579u}) {
    const Bytes data = rng.bytes(len);
    for (const auto& [impl_a, impl_b] : combos) {
      const bool both_hw = impl_a == Impl::kAuto && impl_b == Impl::kAuto;
      const bool full = len <= 4095 || (both_hw && len <= 65539);
      const std::vector<std::size_t>& grid = full ? all : corners;
      // The oracle digest of a lane depends on that lane alone.
      std::vector<Sha256Digest> want_a(64), want_b(64);
      for (const std::size_t l : grid) {
        Sha256 a = absorbed(impl_a, l);
        a.update(data);
        want_a[l] = a.finish();
        Sha256 b = absorbed(impl_b, lane_b(l));
        b.update(data);
        want_b[l] = b.finish();
      }
      for (const std::size_t la : grid) {
        for (const std::size_t lb : grid) {
          Sha256 a = absorbed(impl_a, la);
          Sha256 b = absorbed(impl_b, lane_b(lb));
          Sha256::update_pair(a, b, data);
          ASSERT_EQ(a.finish(), want_a[la])
              << "len " << len << " la " << la << " lb " << lb;
          ASSERT_EQ(b.finish(), want_b[lb])
              << "len " << len << " la " << la << " lb " << lb;
        }
      }
    }
  }

  // The same state as both lanes absorbs the data twice, as two updates do.
  const Bytes data = rng.bytes(300);
  Sha256 twice;
  twice.update(data);
  twice.update(data);
  Sha256 paired;
  Sha256::update_pair(paired, paired, data);
  EXPECT_EQ(paired.finish(), twice.finish());
}

TEST(Sha256Test, StreamingMatchesOneShot) {
  // Chop a message at every possible split point; digests must agree.
  const std::string msg =
      "The quick brown fox jumps over the lazy dog, 0123456789, repeatedly "
      "and at length so that block boundaries are crossed.";
  const Sha256Digest expected = Sha256::digest(as_bytes(msg));
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.update(as_bytes(std::string_view(msg).substr(0, split)));
    h.update(as_bytes(std::string_view(msg).substr(split)));
    EXPECT_EQ(h.finish(), expected) << "split at " << split;
  }
}

TEST(Sha256Test, DigestPartsEqualsConcatenation) {
  const Bytes a = to_bytes("hello "), b = to_bytes("enclave "), c = to_bytes("world");
  EXPECT_EQ(Sha256::digest_parts({a, b, c}),
            Sha256::digest(concat(a, b, c)));
}

TEST(Sha256Test, ExactBlockBoundaryLengths) {
  // 55/56/63/64/65 bytes straddle the padding edge cases.
  for (std::size_t n : {55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const std::string msg(n, 'x');
    Sha256 h;
    for (char ch : msg) h.update(as_bytes(std::string_view(&ch, 1)));
    EXPECT_EQ(h.finish(), Sha256::digest(as_bytes(msg))) << "len " << n;
  }
}

TEST(Sha256Test, ExportedMidstateFinishesLikeTheOriginal) {
  // Every buffered-tail length, on both compression functions: a state
  // rebuilt from its export finishes to the original's digest, also after
  // more input, and an export whose length disagrees with its byte count
  // is refused.
  for (const Sha256::Impl impl : kSha256Impls) {
    for (std::size_t n : {0u, 1u, 55u, 63u, 64u, 65u, 127u, 1000u}) {
      const std::string msg(n, 'm');
      Sha256 h(impl);
      h.update(as_bytes(msg));
      Bytes exported(h.midstate_size());
      h.export_midstate(exported);
      EXPECT_EQ(exported.size(), Sha256::kMidstateFixedSize + n % 64);
      ASSERT_TRUE(Sha256::valid_midstate(exported)) << "len " << n;
      auto back = Sha256::import_midstate(exported);
      ASSERT_TRUE(back.has_value()) << "len " << n;
      Sha256 twin = *back;
      h.update(as_bytes("suffix"));
      twin.update(as_bytes("suffix"));
      EXPECT_EQ(twin.finish(), h.finish()) << "len " << n;

      Bytes longer = exported;
      longer.push_back(0);
      EXPECT_FALSE(Sha256::import_midstate(longer).has_value());
      EXPECT_FALSE(Sha256::import_midstate(
                       ByteView(exported).first(exported.size() > 39 ? 39 : 0))
                       .has_value());
    }
  }
  Bytes huge(Sha256::kMidstateFixedSize, 0xff);  // count past 2^61 bytes
  EXPECT_FALSE(Sha256::valid_midstate(huge));
}

// ------------------------------------------------------------ HMAC-SHA256

TEST(HmacTest, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const auto mac = HmacSha256::mac(key, as_bytes("Hi There"));
  EXPECT_EQ(hex_encode(to_bytes(mac)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  const auto mac = HmacSha256::mac(as_bytes("Jefe"),
                                   as_bytes("what do ya want for nothing?"));
  EXPECT_EQ(hex_encode(to_bytes(mac)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);
  const auto mac = HmacSha256::mac(
      key, as_bytes("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(hex_encode(to_bytes(mac)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, VerifyAcceptsAndRejects) {
  const Bytes key = to_bytes("some-key");
  const Bytes msg = to_bytes("some message");
  auto mac = HmacSha256::mac(key, msg);
  EXPECT_TRUE(HmacSha256::verify(key, msg, ByteView(mac.data(), mac.size())));
  mac[0] ^= 1;
  EXPECT_FALSE(HmacSha256::verify(key, msg, ByteView(mac.data(), mac.size())));
}

TEST(HmacTest, DeriveKeyIsLabelSeparated) {
  const Bytes key = to_bytes("master");
  const Bytes ctx = to_bytes("ctx");
  // Derived keys are secret-typed: operator== is deleted, so compare with
  // the constant-time helper.
  EXPECT_FALSE(ct_equal(derive_key(key, "seal", ctx),
                        derive_key(key, "report", ctx)));
  EXPECT_TRUE(ct_equal(derive_key(key, "seal", ctx),
                       derive_key(key, "seal", ctx)));
  EXPECT_EQ(derive_key(key, "seal", ctx, 40).size(), 40u);
}

// -------------------------------------------------------------------- AES

TEST(AesTest, Fips197Aes128Vector) {
  // FIPS 197 Appendix C.1.
  const Bytes key = hex_decode("000102030405060708090a0b0c0d0e0f");
  const Bytes pt = hex_decode("00112233445566778899aabbccddeeff");
  const Aes aes(key);
  std::uint8_t ct[16];
  aes.encrypt_block(pt.data(), ct);
  EXPECT_EQ(hex_encode(ByteView(ct, 16)), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(AesTest, Fips197Aes256Vector) {
  // FIPS 197 Appendix C.3.
  const Bytes key =
      hex_decode("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const Bytes pt = hex_decode("00112233445566778899aabbccddeeff");
  const Aes aes(key);
  std::uint8_t ct[16];
  aes.encrypt_block(pt.data(), ct);
  EXPECT_EQ(hex_encode(ByteView(ct, 16)), "8ea2b7ca516745bfeafc49904b496089");
}

TEST(AesTest, RejectsBadKeySize) {
  const Bytes key(17, 0);
  EXPECT_THROW(Aes{key}, CryptoError);
}

// ---------------------------------------------------------------- AES-GCM

struct GcmVector {
  const char* name;
  const char* key;
  const char* iv;
  const char* aad;
  const char* pt;
  const char* ct;
  const char* tag;
};

// gtest prints GetParam() into each listed test name, and ctest registers that
// name. Without this overload the struct prints as its raw bytes: string
// pointers that move with every relink and every address-space layout.
void PrintTo(const GcmVector& v, std::ostream* os) {
  *os << "AES-" << std::strlen(v.key) * 4;
}

// McGrew & Viega GCM spec test cases (the ones with 96-bit IVs).
const GcmVector kGcmVectors[] = {
    {"tc1_empty", "00000000000000000000000000000000", "000000000000000000000000",
     "", "", "", "58e2fccefa7e3061367f1d57a4e7455a"},
    {"tc2_oneblock", "00000000000000000000000000000000",
     "000000000000000000000000", "", "00000000000000000000000000000000",
     "0388dace60b6a392f328c2b971b2fe78", "ab6e47d42cec13bdf53a67b21257bddf"},
    {"tc3_fourblocks", "feffe9928665731c6d6a8f9467308308",
     "cafebabefacedbaddecaf888", "",
     "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a721c3c0c9"
     "5956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
     "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e21d514b"
     "25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985",
     "4d5c2af327cd64a62cf35abd2ba6fab4"},
    {"tc4_with_aad", "feffe9928665731c6d6a8f9467308308",
     "cafebabefacedbaddecaf888", "feedfacedeadbeeffeedfacedeadbeefabaddad2",
     "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a721c3c0c9"
     "5956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
     "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e21d514b"
     "25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091",
     "5bc94fbc3221a5db94fae95ae7121a47"},
    // AES-256 case (spec test case 14 variant).
    {"tc_aes256_empty",
     "0000000000000000000000000000000000000000000000000000000000000000",
     "000000000000000000000000", "", "", "",
     "530f8afbc74536b9a963b4f1c4cb738b"},
    {"tc_aes256_oneblock",
     "0000000000000000000000000000000000000000000000000000000000000000",
     "000000000000000000000000", "", "00000000000000000000000000000000",
     "cea7403d4d606b6e074ec5d3baf39d18", "d0d1c8a799996bf0265b98b5d48ab919"},
};

void expect_seal_matches(const GcmVector& v, AesGcm::Impl impl) {
  const AesGcm gcm(hex_decode(v.key), impl);
  const Bytes sealed =
      gcm.seal(hex_decode(v.iv), hex_decode(v.aad), hex_decode(v.pt));
  const std::string expected = std::string(v.ct) + v.tag;
  EXPECT_EQ(hex_encode(sealed), expected);
}

void expect_open_round_trips(const GcmVector& v, AesGcm::Impl impl) {
  const AesGcm gcm(hex_decode(v.key), impl);
  const Bytes sealed = hex_decode(std::string(v.ct) + v.tag);
  const auto opened = gcm.open(hex_decode(v.iv), hex_decode(v.aad), sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, hex_decode(v.pt));
}

void expect_tamper_fails(const GcmVector& v, AesGcm::Impl impl) {
  const AesGcm gcm(hex_decode(v.key), impl);
  Bytes sealed = hex_decode(std::string(v.ct) + v.tag);
  sealed[sealed.size() / 2] ^= 0x01;
  EXPECT_FALSE(gcm.open(hex_decode(v.iv), hex_decode(v.aad), sealed).has_value());
}

class GcmVectorTest : public ::testing::TestWithParam<GcmVector> {};

TEST_P(GcmVectorTest, SealMatchesVector) {
  expect_seal_matches(GetParam(), AesGcm::Impl::kAuto);
}

TEST_P(GcmVectorTest, OpenRoundTrips) {
  expect_open_round_trips(GetParam(), AesGcm::Impl::kAuto);
}

TEST_P(GcmVectorTest, TamperedCiphertextFailsAuth) {
  expect_tamper_fails(GetParam(), AesGcm::Impl::kAuto);
}

INSTANTIATE_TEST_SUITE_P(McGrewViega, GcmVectorTest,
                         ::testing::ValuesIn(kGcmVectors),
                         [](const auto& info) { return info.param.name; });

// The same vectors on the portable reference, which kAuto bypasses for both
// key sizes wherever the CPU has AES-NI.
class GcmPortableVectorTest : public ::testing::TestWithParam<GcmVector> {};

TEST_P(GcmPortableVectorTest, SealMatchesVector) {
  expect_seal_matches(GetParam(), AesGcm::Impl::kPortable);
}

TEST_P(GcmPortableVectorTest, OpenRoundTrips) {
  expect_open_round_trips(GetParam(), AesGcm::Impl::kPortable);
}

TEST_P(GcmPortableVectorTest, TamperedCiphertextFailsAuth) {
  expect_tamper_fails(GetParam(), AesGcm::Impl::kPortable);
}

INSTANTIATE_TEST_SUITE_P(McGrewViega, GcmPortableVectorTest,
                         ::testing::ValuesIn(kGcmVectors),
                         [](const auto& info) { return info.param.name; });

// Vectors long enough to reach the hardware path's 8-block and 16-block
// groups (the ones above stop at 64 bytes), for both key sizes, with the
// *_wide_group_* lengths on either side of a 256-byte group. Plaintext and
// AAD are counters, p(n, s)[i] = (s + 31 i) mod 256, with s = 0 for the
// plaintext and 0x55 for the AAD; the ciphertext is pinned by its SHA-256.
// Generated with the Python `cryptography` package, 48.0.0:
//   python3 -c "from cryptography.hazmat.primitives.ciphers.aead import AESGCM; import hashlib; p=lambda n,s: bytes((s+31*i)%256 for i in range(n)); o=AESGCM(bytes.fromhex(KEY)).encrypt(bytes.fromhex(IV), p(PT_LEN,0), p(AAD_LEN,0x55)); print(hashlib.sha256(o[:-16]).hexdigest(), o[-16:].hex())"
// The gmac_* vectors are the same command with PT_LEN = 0: a GMAC of a long
// AAD, the shape of the store's blob MAC, which takes the hardware path's
// AAD groups (the ciphertext digest is then SHA-256 of nothing).
struct GcmLongVector {
  const char* name;
  const char* key;
  const char* iv;
  std::size_t aad_len;
  std::size_t pt_len;
  const char* ct_sha256;
  const char* tag;
};

void PrintTo(const GcmLongVector& v, std::ostream* os) {
  *os << v.pt_len << " B, AAD " << v.aad_len << " B";
}

const GcmLongVector kGcmLongVectors[] = {
    {"one_group", "000102030405060708090a0b0c0d0e0f",
     "cafebabefacedbaddecaf888", 0, 128,
     "bc5fd7254f0168bbc9268c2fd7e584d27d8fa34fc72f3e47ae97accfe19cf916",
     "e59a0873d55505729acadc4623b2634f"},
    {"two_groups_and_tail", "feffe9928665731c6d6a8f9467308308",
     "0a1b2c3d4e5f60718293a4b5", 20, 300,
     "fad10c5b985f3ed5c8ca424fd8aebf4700d37928cdcbd27f01d127155d69e50e",
     "5179857a803484aacd935cb984603ee0"},
    {"four_kib_plus_five", "8f3a61c2d05e4b97a1c3e5f70921b4d6",
     "ffeeddccbbaa998877665544", 13, 4101,
     "b9769fba7f3e08cf74d47bd97d9842f2041140f52e1a8330f4e07a3d0e84c9e1",
     "0a4dac785087abc5a2a4d8e7f8bd68e2"},
    {"gmac_one_group", "00112233445566778899aabbccddeeff",
     "101112131415161718191a1b", 128, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "22381198842066b6ec795e1de7379388"},
    {"gmac_two_groups_and_tail", "feffe9928665731c6d6a8f9467308308",
     "cafebabefacedbaddecaf888", 300, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "63be8439393daed9d59be1d3af061d2f"},
    {"gmac_four_kib_plus_five", "8f3a61c2d05e4b97a1c3e5f70921b4d6",
     "0a1b2c3d4e5f60718293a4b5", 4101, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "1c76e86b9182b913f0d1f9deb2d4b367"},
    {"gmac_sixty_four_kib_plus_three", "2b7e151628aed2a6abf7158809cf4f3c",
     "f0e1d2c3b4a5968778695a4b", 65539, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "042db55d3a0bb337f07cdc22fbbdedea"},
    {"wide_group_minus_one", "000102030405060708090a0b0c0d0e0f",
     "101112131415161718191a1b", 0, 255,
     "c6986c320308021c05034ad1e8a45565cd89b15bcb8f38b80d0eee958ba20f4e",
     "1ab38e456e2c19a08cc60c32d1b31906"},
    {"wide_group_exact", "feffe9928665731c6d6a8f9467308308",
     "cafebabefacedbaddecaf888", 256, 256,
     "4adc9a0c5d934bfa15fb4d9420071c6efcd12c6f8b1a10b7decf607334d1cb36",
     "5e041f829cd9a73cf8d6177eedbc40ee"},
    {"wide_group_plus_one", "2b7e151628aed2a6abf7158809cf4f3c",
     "f0e1d2c3b4a5968778695a4b", 20, 257,
     "da2383f0422475b9efd5bf1b5ae9c3b2d63c1129ac1c44812ea9ee5fe62c7785",
     "6401dbe9e898bfb4e2ec9658efa98eed"},
    {"three_wide_groups_and_a_group", "8f3a61c2d05e4b97a1c3e5f70921b4d6",
     "ffeeddccbbaa998877665544", 257, 913,
     "f204cb72e9bc8dea38afacb2e07777ed0446a00b4987a742f6c82fff22794215",
     "a433a87a0effada4119faccdc241647c"},
    {"gmac_wide_group_minus_one", "000102030405060708090a0b0c0d0e0f",
     "101112131415161718191a1b", 255, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "011b8d1a5530817f186ba9fd1e92c9de"},
    {"gmac_wide_group_exact", "feffe9928665731c6d6a8f9467308308",
     "cafebabefacedbaddecaf888", 256, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "061af092877475f75d71257d39f2fe25"},
    {"gmac_wide_group_plus_one", "2b7e151628aed2a6abf7158809cf4f3c",
     "f0e1d2c3b4a5968778695a4b", 257, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "16092983d4eddcc7e342fa2a3dfae23a"},
    {"gmac_three_wide_groups_and_a_group", "8f3a61c2d05e4b97a1c3e5f70921b4d6",
     "ffeeddccbbaa998877665544", 913, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "ba871b39b57c13725ad06486a3fa6aeb"},
    {"aes256_one_group",
     "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
     "cafebabefacedbaddecaf888", 0, 128,
     "e34a96d490f26604e3e6f5d50c0cb07569911c77e79fab6ac58271a7e4b9821b",
     "07e36114325490491f292bb10787d6c1"},
    {"aes256_wide_groups_and_tail",
     "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
     "0a1b2c3d4e5f60718293a4b5", 13, 4101,
     "a8d0169f54847335bcebbb68018ec1aef440443cb2b6c9c6d6f49c7fb801fd12",
     "e48de175a619b50a5f706e00c84804f1"},
    {"aes256_wide_group_plus_one",
     "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308",
     "cafebabefacedbaddecaf888", 255, 257,
     "ef8751054d7717171c59b02e3263d3ee8c5a4d21033a50f6c038f9c4dbb0faeb",
     "013e7aedcdd28a412dd0627c385942f8"},
    {"gmac_aes256_one_group",
     "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
     "101112131415161718191a1b", 128, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "291ac4657123b88d16a4acf5844fdcf6"},
    {"gmac_aes256_wide_groups_and_tail",
     "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
     "0a1b2c3d4e5f60718293a4b5", 4101, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "6a88de13a7ab2dcb25e12f17e80c6ef9"},
};

Bytes counter_pattern(std::size_t n, std::uint8_t start) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(start + 31 * i);
  }
  return out;
}

constexpr AesGcm::Impl kGcmImpls[] = {AesGcm::Impl::kAuto,
                                      AesGcm::Impl::kPortable};

class GcmLongVectorTest : public ::testing::TestWithParam<GcmLongVector> {
 protected:
  Bytes key() const { return hex_decode(GetParam().key); }
  Bytes iv() const { return hex_decode(GetParam().iv); }
  Bytes aad() const { return counter_pattern(GetParam().aad_len, 0x55); }
  Bytes pt() const { return counter_pattern(GetParam().pt_len, 0); }

  /// Seal on `impl` and check the result against the known answer.
  Bytes sealed_known_answer(AesGcm::Impl impl) const {
    const Bytes sealed = AesGcm(key(), impl).seal(iv(), aad(), pt());
    const ByteView ct = ByteView(sealed).first(GetParam().pt_len);
    EXPECT_EQ(hex_encode(to_bytes(Sha256::digest(ct))), GetParam().ct_sha256);
    EXPECT_EQ(hex_encode(ByteView(sealed).last(kGcmTagSize)), GetParam().tag);
    return sealed;
  }
};

TEST_P(GcmLongVectorTest, SealMatchesVector) {
  for (const AesGcm::Impl impl : kGcmImpls) {
    SCOPED_TRACE(impl == AesGcm::Impl::kAuto ? "auto" : "portable");
    sealed_known_answer(impl);
  }
}

TEST_P(GcmLongVectorTest, OpenRoundTrips) {
  for (const AesGcm::Impl impl : kGcmImpls) {
    SCOPED_TRACE(impl == AesGcm::Impl::kAuto ? "auto" : "portable");
    const Bytes sealed = sealed_known_answer(impl);
    const auto opened = AesGcm(key(), impl).open(iv(), aad(), sealed);
    ASSERT_TRUE(opened.has_value());
    EXPECT_EQ(*opened, pt());
  }
}

TEST_P(GcmLongVectorTest, TamperedCiphertextFailsAuth) {
  for (const AesGcm::Impl impl : kGcmImpls) {
    SCOPED_TRACE(impl == AesGcm::Impl::kAuto ? "auto" : "portable");
    Bytes sealed = sealed_known_answer(impl);
    sealed[sealed.size() / 2] ^= 0x01;
    EXPECT_FALSE(AesGcm(key(), impl).open(iv(), aad(), sealed).has_value());
  }
}

TEST_P(GcmLongVectorTest, TamperedAadFailsAuth) {
  Bytes changed = aad();
  if (changed.empty()) {
    changed.push_back(0);  // a longer AAD is a changed one too
  } else {
    changed.back() ^= 0x80;
  }
  for (const AesGcm::Impl impl : kGcmImpls) {
    SCOPED_TRACE(impl == AesGcm::Impl::kAuto ? "auto" : "portable");
    const Bytes sealed = sealed_known_answer(impl);
    EXPECT_FALSE(AesGcm(key(), impl).open(iv(), changed, sealed).has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(MultiGroup, GcmLongVectorTest,
                         ::testing::ValuesIn(kGcmLongVectors),
                         [](const auto& info) { return info.param.name; });

/// The widest GCM kernel this CPU can run, asked of the CPU directly rather
/// than through hw::gcm_width(), the gate under test.
hw::GcmWidth cpu_widest() {
  hw::GcmWidth widest = hw::GcmWidth::kPortable;
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("aes") && __builtin_cpu_supports("pclmul") &&
      __builtin_cpu_supports("ssse3")) {
    widest = hw::GcmWidth::kAesni;
    if (__builtin_cpu_supports("vaes") &&
        __builtin_cpu_supports("vpclmulqdq") &&
        __builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512bw")) {
      widest = hw::GcmWidth::kVaes512;
    }
  }
#endif
  return widest;
}

/// The hardware kernels this CPU runs: AES-NI alone, and, where the CPU has
/// VAES and AVX-512, 16-block groups followed by the AES-NI loops' tail.
std::vector<hw::GcmWidth> hw_widths() {
  std::vector<hw::GcmWidth> widths;
  if (cpu_widest() >= hw::GcmWidth::kAesni) {
    widths.push_back(hw::GcmWidth::kAesni);
  }
  if (cpu_widest() >= hw::GcmWidth::kVaes512) {
    widths.push_back(hw::GcmWidth::kVaes512);
  }
  return widths;
}

constexpr std::size_t kGcmKeySizes[] = {kAes128KeySize, kAes256KeySize};

TEST(GcmTest, HwAndScalarPathsAgree) {
  const std::vector<hw::GcmWidth> widths = hw_widths();
  if (widths.empty()) GTEST_SKIP() << "no AES-NI on this machine";
  Drbg rng(to_bytes("gcm-crosscheck"));
  const auto check = [&](std::size_t len, std::size_t aad_len) {
    for (const std::size_t key_len : kGcmKeySizes) {
      SCOPED_TRACE(testing::Message() << "AES-" << key_len * 8 << " len "
                                      << len << " aad " << aad_len);
      const Bytes key = rng.bytes(key_len);
      const Bytes iv = rng.bytes(12);
      const Bytes aad = rng.bytes(aad_len);
      const Bytes pt = rng.bytes(len);

      // The portable implementation is the reference.
      const AesGcm portable(key, AesGcm::Impl::kPortable);
      const Bytes sealed = portable.seal(iv, aad, pt);
      ASSERT_EQ(sealed.size(), len + 16);
      const Bytes want_ct(sealed.begin(),
                          sealed.begin() + static_cast<long>(len));
      const ByteView want_tag = ByteView(sealed).last(16);

      for (const hw::GcmWidth width : widths) {
        SCOPED_TRACE(hw::gcm_width_name(width));
        std::uint8_t hw_tag[16];
        Bytes hw_ct(len);
        hw::gcm_encrypt(width, key, iv.data(), aad, pt, hw_ct.data(), hw_tag);
        EXPECT_EQ(hw_ct, want_ct);
        EXPECT_TRUE(ct_equal(want_tag, ByteView(hw_tag, 16)));

        // In place: the ciphertext overwrites the plaintext it came from.
        Bytes buffer = pt;
        std::uint8_t in_place_tag[16];
        hw::gcm_encrypt(width, key, iv.data(), aad, buffer, buffer.data(),
                        in_place_tag);
        EXPECT_EQ(buffer, want_ct);
        EXPECT_TRUE(ct_equal(want_tag, ByteView(in_place_tag, 16)));

        // And each side must decrypt the other's ciphertext.
        Bytes recovered(len);
        ASSERT_TRUE(hw::gcm_decrypt(width, key, iv.data(), aad, want_ct,
                                    want_tag.data(), recovered.data()));
        EXPECT_EQ(recovered, pt);
        Bytes hw_sealed = hw_ct;
        hw_sealed.insert(hw_sealed.end(), hw_tag, hw_tag + 16);
        const auto opened = portable.open(iv, aad, hw_sealed);
        ASSERT_TRUE(opened.has_value());
        EXPECT_EQ(*opened, pt);
      }
    }
  };
  // Lengths straddle the 16-byte block, the 128-byte group and the 256-byte
  // wide group; AAD lengths rotate through block edges up to 257 bytes.
  constexpr std::size_t kAadLens[] = {0,  1,  12, 13,  15,  16,  17,  31,
                                      32, 33, 100, 128, 129, 200, 255, 257};
  std::size_t round = 0;
  for (std::size_t len :
       {0u, 1u, 15u, 16u, 17u, 63u, 64u, 100u, 127u, 128u, 129u, 255u, 256u,
        257u, 383u, 384u, 385u, 511u, 512u, 513u, 1000u, 1023u, 1025u, 4111u,
        65536u, (1u << 20) + 3u}) {
    check(len, kAadLens[round++ % std::size(kAadLens)]);
  }
  // AADs of 8-block groups and of 256·k±1 bytes, alone (a GMAC) and before
  // a multi-group plaintext, so AAD and payload share one power table.
  for (std::size_t aad_len :
       {3 * 128u, 3 * 128u + 9u, 255u, 257u, 3 * 256u - 1u, 3 * 256u + 1u}) {
    for (std::size_t len : {0u, 1025u}) check(len, aad_len);
  }
}

TEST(GcmTest, HwDecryptZeroesPlaintextOnTagMismatch) {
  const std::vector<hw::GcmWidth> widths = hw_widths();
  if (widths.empty()) GTEST_SKIP() << "no AES-NI on this machine";
  Drbg rng(to_bytes("gcm-wipe-on-failure"));
  for (const hw::GcmWidth width : widths) {
    for (const std::size_t key_len : kGcmKeySizes) {
      for (std::size_t len : {100u, 300u, 65536u}) {
        SCOPED_TRACE(testing::Message() << hw::gcm_width_name(width) << " AES-"
                                        << key_len * 8 << " len " << len);
        const Bytes key = rng.bytes(key_len);
        const Bytes iv = rng.bytes(12);
        const Bytes aad = rng.bytes(13);
        const Bytes pt = rng.bytes(len);
        Bytes ct(len);
        std::uint8_t tag[16];
        hw::gcm_encrypt(width, key, iv.data(), aad, pt, ct.data(), tag);
        tag[7] ^= 0x10;

        Bytes out(len, 0xA5);
        EXPECT_FALSE(hw::gcm_decrypt(width, key, iv.data(), aad, ct, tag,
                                     out.data()));
        EXPECT_EQ(out, Bytes(len, 0)) << "a failed decrypt must release nothing";
      }
    }
  }
}

// A gate that fell back silently would pass every kAuto vector above on
// the narrower loop. So wherever the CPU reports the wide loop's features,
// kAuto must take it, for both key sizes.
TEST(GcmTest, AutoTakesTheWidestKernelTheCpuReports) {
  const hw::GcmWidth want = cpu_widest();
  EXPECT_STREQ(hw::gcm_width_name(hw::gcm_width()), hw::gcm_width_name(want));
  Drbg rng(to_bytes("gcm-dispatch"));
  for (const std::size_t key_len : kGcmKeySizes) {
    SCOPED_TRACE(testing::Message() << "AES-" << key_len * 8);
    EXPECT_STREQ(hw::gcm_width_name(AesGcm(rng.bytes(key_len)).width()),
                 hw::gcm_width_name(want));
    EXPECT_EQ(AesGcm(rng.bytes(key_len), AesGcm::Impl::kPortable).width(),
              hw::GcmWidth::kPortable);
  }
}

TEST(GcmTest, InPlaceSealMatchesOutOfPlace) {
  Drbg rng(to_bytes("gcm-in-place"));
  for (const AesGcm::Impl impl : kGcmImpls) {
    for (std::size_t len :
         {0u, 1u, 15u, 16u, 127u, 128u, 129u, (1u << 20) + 3u}) {
      for (std::size_t aad_len : {0u, 13u, 200u}) {
        SCOPED_TRACE(testing::Message()
                     << "portable " << (impl == AesGcm::Impl::kPortable)
                     << " len " << len << " aad " << aad_len);
        const Bytes key = rng.bytes(16);
        const Bytes iv = rng.bytes(12);
        const Bytes aad = rng.bytes(aad_len);
        const Bytes pt = rng.bytes(len);
        const AesGcm gcm(key, impl);
        const Bytes expected = gcm.seal(iv, aad, pt);

        Bytes buffer = pt;
        buffer.resize(len + kGcmTagSize);
        gcm.seal_into(iv, aad, ByteView(buffer).first(len), buffer);
        EXPECT_EQ(buffer, expected);
      }
    }
  }
}

TEST(GcmTest, SealIntoRejectsPartialOverlap) {
  Drbg rng(to_bytes("gcm-overlap"));
  const AesGcm gcm(rng.bytes(16));
  const Bytes iv = rng.bytes(12);
  Bytes buffer = rng.bytes(64 + 1 + kGcmTagSize);
  const ByteView pt = ByteView(buffer).first(64);
  EXPECT_THROW(gcm.seal_into(iv, {}, pt,
                             std::span(buffer).subspan(1, 64 + kGcmTagSize)),
               CryptoError);
}

TEST(GcmTest, OpenIntoZeroesOutputOnTagMismatch) {
  Drbg rng(to_bytes("gcm-open-into"));
  for (const AesGcm::Impl impl : kGcmImpls) {
    for (const std::size_t key_len : kGcmKeySizes) {
      for (std::size_t len : {100u, 300u, 65536u}) {
        SCOPED_TRACE(testing::Message()
                     << "portable " << (impl == AesGcm::Impl::kPortable)
                     << " AES-" << key_len * 8 << " len " << len);
        const AesGcm gcm(rng.bytes(key_len), impl);
        const Bytes iv = rng.bytes(12);
        const Bytes aad = rng.bytes(13);
        const Bytes pt = rng.bytes(len);
        Bytes sealed = gcm.seal(iv, aad, pt);

        Bytes out(len, 0xA5);
        ASSERT_TRUE(gcm.open_into(iv, aad, sealed, out));
        EXPECT_EQ(out, pt);

        sealed[len + 7] ^= 0x10;  // a tag byte
        std::fill(out.begin(), out.end(), 0xA5);
        EXPECT_FALSE(gcm.open_into(iv, aad, sealed, out));
        EXPECT_EQ(out, Bytes(len, 0)) << "a failed open must release nothing";
      }
    }
  }
}

TEST(GcmTest, EnvelopeHelpersRoundTrip) {
  Drbg rng(to_bytes("envelope"));
  const Bytes key = rng.bytes(16);
  const Bytes aad = to_bytes("associated");
  const Bytes pt = rng.bytes(777);
  const Bytes env = gcm_encrypt(key, aad, pt, rng);
  EXPECT_EQ(env.size(), gcm_envelope_size(pt.size()));
  const auto out = gcm_decrypt(key, aad, env);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, pt);
}

TEST(GcmTest, EnvelopeWrongKeyFails) {
  Drbg rng(to_bytes("envelope2"));
  const Bytes key = rng.bytes(16);
  Bytes key2 = key;
  key2[0] ^= 1;
  const Bytes env = gcm_encrypt(key, {}, to_bytes("secret"), rng);
  EXPECT_FALSE(gcm_decrypt(key2, {}, env).has_value());
}

TEST(GcmTest, EnvelopeWrongAadFails) {
  Drbg rng(to_bytes("envelope3"));
  const Bytes key = rng.bytes(16);
  const Bytes env = gcm_encrypt(key, as_bytes("aad-a"), to_bytes("secret"), rng);
  EXPECT_FALSE(gcm_decrypt(key, as_bytes("aad-b"), env).has_value());
}

TEST(GcmTest, TruncatedEnvelopeFailsGracefully) {
  Drbg rng(to_bytes("envelope4"));
  const Bytes key = rng.bytes(16);
  const Bytes env = gcm_encrypt(key, {}, to_bytes("x"), rng);
  for (std::size_t cut = 0; cut < kGcmIvSize + kGcmTagSize; ++cut) {
    EXPECT_FALSE(gcm_decrypt(key, {}, ByteView(env).first(cut)).has_value());
  }
}

// ------------------------------------------------------------------- DRBG

TEST(DrbgTest, DeterministicWithSameSeed) {
  Drbg a(to_bytes("seed"));
  Drbg b(to_bytes("seed"));
  EXPECT_EQ(a.bytes(1000), b.bytes(1000));
}

TEST(DrbgTest, DifferentSeedsDiffer) {
  Drbg a(to_bytes("seed-a"));
  Drbg b(to_bytes("seed-b"));
  EXPECT_NE(a.bytes(64), b.bytes(64));
}

TEST(DrbgTest, StreamIsStateful) {
  Drbg a(to_bytes("seed"));
  const Bytes first = a.bytes(32);
  const Bytes second = a.bytes(32);
  EXPECT_NE(first, second);
}

TEST(DrbgTest, OutputLooksBalanced) {
  // Crude sanity: bit frequency of 64KB should be near 50%.
  Drbg a(to_bytes("balance"));
  const Bytes data = a.bytes(64 * 1024);
  std::size_t ones = 0;
  for (std::uint8_t b : data) ones += static_cast<std::size_t>(__builtin_popcount(b));
  const double frac = static_cast<double>(ones) / (data.size() * 8);
  EXPECT_GT(frac, 0.49);
  EXPECT_LT(frac, 0.51);
}

TEST(DrbgTest, SystemBytesProducesRequestedLength) {
  EXPECT_EQ(Drbg::system_bytes(0).size(), 0u);
  EXPECT_EQ(Drbg::system_bytes(17).size(), 17u);
  EXPECT_NE(Drbg::system_bytes(16), Drbg::system_bytes(16));
}

}  // namespace
}  // namespace speed::crypto
