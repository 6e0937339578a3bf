// Hardware AES-GCM (128- and 256-bit keys) using AES-NI and PCLMULQDQ, with
// a VAES + VPCLMULQDQ loop in zmm registers where the CPU has AVX-512.
//
// This translation unit is compiled with -maes -mpclmul -mssse3; callers must
// gate on hw::gcm_width() before invoking gcm_encrypt and gcm_decrypt. The
// zmm loop is compiled through a function-level target attribute (as the
// SHA-NI kernel in sha256.cc is), so nothing else in this file needs AVX.
//
// Each call is one stitched pass over the payload, in up to three loops:
//   * on kVaes512, whole 256-byte groups: sixteen CTR blocks in four zmm
//     registers run through the AES rounds while the carry-less products of
//     the previous (encrypt) or current (decrypt) group's sixteen ciphertext
//     blocks with H^16..H^1 accumulate unreduced, and the sum is reduced once
//     per group;
//   * whole 128-byte groups the same way, eight blocks in xmm registers
//     against H^8..H^1: everything on kAesni, the rest of a wide pass;
//   * one block at a time for the tail, so a short message pays for no
//     power table.
// The aggregated reduction is Gueron and Kounavis's ("Carry-Less
// Multiplication and Its Usage for Computing the GCM Mode"), on
// byte-reflected operands with H stored times x, so that a reduction is two
// carry-less products and no bit shift (see reduce below).
// H^2..H^8 are computed only when the AAD or the payload has a full 128-byte
// group, H^9..H^16 only when a wide pass has a full 256-byte group. The
// AAD's full groups take the same aggregated GHASH, one reduction per group,
// so a long AAD (the store's blob MAC: a GMAC with the blob as AAD and no
// plaintext) costs a fraction of an AES pass. AES-128 runs 10 rounds and
// AES-256 14, in every loop.
//
// Decryption loads every ciphertext block into a register once and feeds
// that register to both GHASH and the keystream XOR: a buffer the enclave
// does not own cannot present one value to the MAC and another to the
// plaintext. On a tag mismatch the plaintext written so far is zeroed before
// returning false. The round keys, the H-power table, E(J0), the expected
// tag and the partial-block spills are wiped before every return; the zmm
// loop broadcasts each round key and loads each power vector from that same
// wiped state as it uses them, and stores no copy of its own.
//
// Correctness is pinned by NIST/McGrew-Viega and multi-group vectors and by
// a differential test of each width against the portable scalar
// implementation.
#include "crypto/gcm.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#include <wmmintrin.h>

#include <algorithm>
#include <cstring>
#include <type_traits>
#include <utility>

#include "common/error.h"

namespace speed::crypto::hw {

namespace {

constexpr std::size_t kLanes = 8;
constexpr std::size_t kGroupBytes = 16 * kLanes;
/// A wide group: four zmm registers of four blocks each.
constexpr std::size_t kQuads = 4;
constexpr std::size_t kWideLanes = 4 * kQuads;
constexpr std::size_t kWideGroupBytes = 16 * kWideLanes;
constexpr int kMaxRounds = 14;

const __m128i kByteReverse =
    _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
// Reverses only the trailing 32-bit counter, so that in the swapped form the
// big-endian GCM counter is a little-endian lane _mm_add_epi32 can step
// (mod 2^32, exactly GCM's inc32).
const __m128i kCounterSwap =
    _mm_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 15, 14, 13, 12);
const __m128i kCounterOne = _mm_set_epi32(1, 0, 0, 0);

inline __m128i reflect(__m128i x) { return _mm_shuffle_epi8(x, kByteReverse); }

inline __m128i load(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

inline void store(std::uint8_t* p, __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

/// Calls `f(i)` for every lane i with i a compile-time constant, so each
/// lane of a group stays in its own register.
template <typename F>
inline void each_lane(F&& f) {
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    (f(std::integral_constant<std::size_t, I>{}), ...);
  }(std::make_index_sequence<kLanes>{});
}

/// One key-schedule step: `key` (the round key Nk words back) xor its
/// shifted prefixes, xor word `kWord` of aeskeygenassist(`prev`) broadcast.
/// Word 3 is RotWord + SubWord + Rcon (every AES-128 step, AES-256's even
/// round keys); word 2 is SubWord alone (AES-256's odd round keys).
template <int Rcon, int kWord>
inline __m128i expand_step(__m128i key, __m128i prev) {
  __m128i kga = _mm_aeskeygenassist_si128(prev, Rcon);
  kga = _mm_shuffle_epi32(kga, kWord * 0x55);
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  return _mm_xor_si128(key, kga);
}

/// 256-bit carry-less product (or a sum of them) before reduction: `lo` and
/// `hi` are the outer 64x64 products, `mid` the two cross terms.
struct Wide {
  __m128i lo = _mm_setzero_si128();
  __m128i mid = _mm_setzero_si128();
  __m128i hi = _mm_setzero_si128();
};

inline void clmul_acc(Wide& acc, __m128i a, __m128i b) {
  acc.lo = _mm_xor_si128(acc.lo, _mm_clmulepi64_si128(a, b, 0x00));
  acc.hi = _mm_xor_si128(acc.hi, _mm_clmulepi64_si128(a, b, 0x11));
  acc.mid = _mm_xor_si128(acc.mid, _mm_clmulepi64_si128(a, b, 0x10));
  acc.mid = _mm_xor_si128(acc.mid, _mm_clmulepi64_si128(a, b, 0x01));
}

// GHASH runs on byte-reflected blocks. Read with bit i of the 128-bit
// register as the coefficient of x^i, a reflected value is the GCM value
// with its coefficients reversed, and GCM's field becomes GF(2)[x] modulo
// G = x^128 + x^127 + x^126 + x^121 + 1, in which the reflected product of
// GCM values a and b is a·b·x^-127. So every power of H is stored times x
// (see times_x), and reduce() returns T·x^-128 for the carry-less product
// T: the product with a stored power is then exactly the reflected GCM
// product, with no bit shift.
const __m128i kGfPoly =  // high qword: x^63 + x^62 + x^57; all: G - x^128
    _mm_set_epi64x(static_cast<long long>(0xc200000000000000ULL), 1);

/// T·x^-128 mod G, for T = hi·x^128 + mid·x^64 + lo. Each of the two steps
/// adds the multiple of G that clears T's low 64 bits and drops them: the
/// low qword q times G is q·(x^127 + x^126 + x^121) (a product with kGfPoly's
/// high qword, at x^-64) plus q·x^128 (q moved to the high qword). The steps
/// are linear, so reducing a sum of products equals summing the reduced
/// products.
inline __m128i reduce(const Wide& w) {
  const __m128i mid = _mm_xor_si128(
      w.mid, _mm_xor_si128(_mm_clmulepi64_si128(kGfPoly, w.lo, 0x01),
                           _mm_shuffle_epi32(w.lo, 0x4e)));
  return _mm_xor_si128(
      w.hi, _mm_xor_si128(_mm_clmulepi64_si128(kGfPoly, mid, 0x01),
                          _mm_shuffle_epi32(mid, 0x4e)));
}

/// x·h mod G: a 128-bit shift left by one, folding a carry out of bit 127
/// back in as G - x^128.
inline __m128i times_x(__m128i h) {
  const __m128i carry = _mm_srai_epi32(_mm_shuffle_epi32(h, 0xff), 31);
  const __m128i shifted = _mm_or_si128(
      _mm_slli_epi64(h, 1), _mm_slli_si128(_mm_srli_epi64(h, 63), 8));
  return _mm_xor_si128(shifted, _mm_and_si128(carry, kGfPoly));
}

/// GF(2^128) multiply of a reflected value by a stored power (or of two
/// stored powers, giving the stored form of their product).
inline __m128i gfmul(__m128i a, __m128i b) {
  Wide w;
  clmul_acc(w, a, b);
  return reduce(w);
}

/// J0 = IV ‖ 0x00000001, the pre-counter block for a 96-bit IV.
inline __m128i make_j0(const std::uint8_t iv[12]) {
  std::uint8_t j0[16] = {0};
  std::memcpy(j0, iv, 12);
  j0[15] = 1;
  return load(j0);
}

/// Everything derived from the key for one call. It lives in memory, which
/// the destructor wipes on every return path; the running counter and GHASH
/// state live in Pass, which the compiler keeps in registers.
struct KeyState {
  __m128i rk[kMaxRounds + 1];
  int rounds;  ///< 10 (AES-128) or 14 (AES-256); rk[rounds] is the last key
  /// H^16..H^1, reflected and stored times x (see reduce), in descending
  /// order, so that the four entries from hpow[4q] load as the zmm power
  /// vector of a wide group's quad q. H^1 always; H^2..H^8 and H^9..H^16 on
  /// demand (see compute_powers).
  __m128i hpow[kWideLanes] = {};
  std::size_t powers = 1;  ///< H^1..H^powers computed
  __m128i ej0;             ///< E(J0), the tag mask
  std::uint8_t expected_tag[16] = {};
  std::uint8_t spill[16] = {};  ///< partial-block keystream / data

  KeyState(ByteView key, const std::uint8_t iv[12]) {
    rk[0] = load(key.data());
    if (key.size() == kAes128KeySize) {
      rounds = 10;
      rk[1] = expand_step<0x01, 3>(rk[0], rk[0]);
      rk[2] = expand_step<0x02, 3>(rk[1], rk[1]);
      rk[3] = expand_step<0x04, 3>(rk[2], rk[2]);
      rk[4] = expand_step<0x08, 3>(rk[3], rk[3]);
      rk[5] = expand_step<0x10, 3>(rk[4], rk[4]);
      rk[6] = expand_step<0x20, 3>(rk[5], rk[5]);
      rk[7] = expand_step<0x40, 3>(rk[6], rk[6]);
      rk[8] = expand_step<0x80, 3>(rk[7], rk[7]);
      rk[9] = expand_step<0x1b, 3>(rk[8], rk[8]);
      rk[10] = expand_step<0x36, 3>(rk[9], rk[9]);
    } else {
      rounds = 14;
      rk[1] = load(key.data() + 16);
      rk[2] = expand_step<0x01, 3>(rk[0], rk[1]);
      rk[3] = expand_step<0x00, 2>(rk[1], rk[2]);
      rk[4] = expand_step<0x02, 3>(rk[2], rk[3]);
      rk[5] = expand_step<0x00, 2>(rk[3], rk[4]);
      rk[6] = expand_step<0x04, 3>(rk[4], rk[5]);
      rk[7] = expand_step<0x00, 2>(rk[5], rk[6]);
      rk[8] = expand_step<0x08, 3>(rk[6], rk[7]);
      rk[9] = expand_step<0x00, 2>(rk[7], rk[8]);
      rk[10] = expand_step<0x10, 3>(rk[8], rk[9]);
      rk[11] = expand_step<0x00, 2>(rk[9], rk[10]);
      rk[12] = expand_step<0x20, 3>(rk[10], rk[11]);
      rk[13] = expand_step<0x00, 2>(rk[11], rk[12]);
      rk[14] = expand_step<0x40, 3>(rk[12], rk[13]);
    }
    hpow[kWideLanes - 1] =
        times_x(reflect(encrypt_block(_mm_setzero_si128())));
    ej0 = encrypt_block(make_j0(iv));
  }
  ~KeyState() { secure_zero(this, sizeof(*this)); }
  KeyState(const KeyState&) = delete;
  KeyState& operator=(const KeyState&) = delete;

  __m128i encrypt_block(__m128i block) const {
    block = _mm_xor_si128(block, rk[0]);
    for (int r = 1; r < rounds; ++r) block = _mm_aesenc_si128(block, rk[r]);
    return _mm_aesenclast_si128(block, rk[rounds]);
  }

  /// H^k as stored: reflected, times x.
  __m128i h(std::size_t k) const { return hpow[kWideLanes - k]; }

  /// H^1..H^n for n = kLanes or kWideLanes, each power at most once per
  /// call (the AAD and the payload share them). H^9..H^16 are H^8 times
  /// H^1..H^8: eight independent products, not a chain.
  void compute_powers(std::size_t n) {
    for (std::size_t k = powers + 1; k <= n; ++k) {
      const std::size_t step = k > kLanes ? kLanes : 1;
      hpow[kWideLanes - k] = gfmul(h(k - step), h(step));
    }
    powers = std::max(powers, n);
  }
};

// ---- The VAES + VPCLMULQDQ loop ----------------------------------------
//
// Every function below carries the AVX-512 target itself; the
// noinline entries (wide_ghash, wide_crypt) keep it out of the AES-NI entry
// points, which must run on CPUs without it. The helpers take arrays of
// four zmm registers indexed in fully unrolled loops rather than lambdas,
// which would each need the target too.
#define SPEED_VAES_TARGET target("vaes,vpclmulqdq,avx512f,avx512bw")
#define SPEED_VAES_INLINE __attribute__((SPEED_VAES_TARGET, always_inline)) inline

/// A Wide with four independent 256-bit sums, one per 128-bit lane.
struct Wide4 {
  __m512i lo;
  __m512i mid;
  __m512i hi;
};

// The zero-masked forms with an all-ones mask compile to the plain
// instructions; the plain intrinsics pass GCC 12 an undefined source that
// it then warns is used uninitialized.
SPEED_VAES_INLINE __m512i broadcast(__m128i x) {
  return _mm512_maskz_broadcast_i32x4(0xFFFF, x);
}

SPEED_VAES_INLINE __m512i load4(const std::uint8_t* p) {
  return _mm512_loadu_si512(p);
}

SPEED_VAES_INLINE void store4(std::uint8_t* p, __m512i v) {
  _mm512_storeu_si512(p, v);
}

SPEED_VAES_INLINE void clmul_acc4(Wide4& acc, __m512i a, __m512i b) {
  acc.lo = _mm512_xor_si512(acc.lo, _mm512_clmulepi64_epi128(a, b, 0x00));
  acc.hi = _mm512_xor_si512(acc.hi, _mm512_clmulepi64_epi128(a, b, 0x11));
  // 0x96: a ^ b ^ c.
  acc.mid = _mm512_ternarylogic_epi64(acc.mid,
                                      _mm512_clmulepi64_epi128(a, b, 0x10),
                                      _mm512_clmulepi64_epi128(a, b, 0x01),
                                      0x96);
}

/// XOR of a zmm register's four 128-bit lanes.
SPEED_VAES_INLINE __m128i fold_lanes(__m512i v) {
  const __m256i h =
      _mm256_xor_si256(_mm512_maskz_extracti64x4_epi64(0xFF, v, 0),
                       _mm512_maskz_extracti64x4_epi64(0xFF, v, 1));
  return _mm_xor_si128(_mm256_castsi256_si128(h),
                       _mm256_extracti128_si256(h, 1));
}

/// Adds the products of quad q's ciphertext `c` with its four powers.
SPEED_VAES_INLINE void fold_quad(Wide4& acc, const KeyState& ks,
                                 std::size_t q, __m512i c) {
  clmul_acc4(acc,
             _mm512_shuffle_epi8(c, broadcast(kByteReverse)),
             _mm512_loadu_si512(&ks.hpow[4 * q]));
}

/// y <- (y ^ c0)·H^16 ^ c1·H^15 ^ ... ^ c15·H, reduced once, from `acc`
/// (the sum of c_j·H^(16-j)). Only y·H^16 waits for the previous group, so
/// the chain from one group's y to the next is one product and one
/// reduction.
SPEED_VAES_INLINE __m128i close_group(const Wide4& acc, const KeyState& ks,
                                      __m128i y) {
  Wide w;
  w.lo = fold_lanes(acc.lo);
  w.mid = fold_lanes(acc.mid);
  w.hi = fold_lanes(acc.hi);
  clmul_acc(w, y, ks.h(kWideLanes));
  return reduce(w);
}

SPEED_VAES_INLINE __m128i ghash16(const KeyState& ks, const __m512i c[kQuads],
                                  __m128i y) {
  Wide4 acc{};
#pragma GCC unroll 4
  for (std::size_t q = 0; q < kQuads; ++q) fold_quad(acc, ks, q, c[q]);
  return close_group(acc, ks, y);
}

SPEED_VAES_INLINE void aes_round16(__m512i b[kQuads], __m128i rk) {
  const __m512i k = broadcast(rk);
#pragma GCC unroll 4
  for (std::size_t q = 0; q < kQuads; ++q) b[q] = _mm512_aesenc_epi128(b[q], k);
}

/// Rounds `from`..rounds-1 and the last round.
SPEED_VAES_INLINE void aes_finish16(const KeyState& ks, __m512i b[kQuads],
                                    int from) {
  for (int r = from; r < ks.rounds; ++r) aes_round16(b, ks.rk[r]);
  const __m512i k = broadcast(ks.rk[ks.rounds]);
#pragma GCC unroll 4
  for (std::size_t q = 0; q < kQuads; ++q) {
    b[q] = _mm512_aesenclast_epi128(b[q], k);
  }
}

/// Sixteen counter blocks into `b` from `ctr` (four per register, in
/// kCounterSwap form), whitened with round key 0; `ctr` advances by sixteen.
SPEED_VAES_INLINE void start16(const KeyState& ks, __m512i b[kQuads],
                               __m512i& ctr) {
  const __m512i swap = broadcast(kCounterSwap);
  const __m512i four = _mm512_set_epi32(4, 0, 0, 0, 4, 0, 0, 0, 4, 0, 0, 0,
                                        4, 0, 0, 0);
  const __m512i k0 = broadcast(ks.rk[0]);
#pragma GCC unroll 4
  for (std::size_t q = 0; q < kQuads; ++q) {
    b[q] = _mm512_xor_si512(_mm512_shuffle_epi8(ctr, swap), k0);
    ctr = _mm512_add_epi32(ctr, four);
  }
}

/// Sixteen keystream blocks into `b`, with the GHASH of the group `c`
/// stitched into the first four rounds (one quad's products per round);
/// returns the updated y.
SPEED_VAES_INLINE __m128i aes16_ghash(const KeyState& ks, __m512i b[kQuads],
                                      __m512i& ctr, const __m512i c[kQuads],
                                      __m128i y) {
  Wide4 acc{};
  start16(ks, b, ctr);
#pragma GCC unroll 4
  for (std::size_t q = 0; q < kQuads; ++q) {
    aes_round16(b, ks.rk[q + 1]);
    fold_quad(acc, ks, q, c[q]);
  }
  aes_finish16(ks, b, kQuads + 1);
  return close_group(acc, ks, y);
}

/// GHASH `groups` whole 256-byte groups of AAD at `src` into `y`.
__attribute__((SPEED_VAES_TARGET, noinline, flatten)) __m128i wide_ghash(
    const KeyState& ks, __m128i y, const std::uint8_t* src,
    std::size_t groups) {
  for (std::size_t g = 0; g < groups; ++g, src += kWideGroupBytes) {
    __m512i c[kQuads];
#pragma GCC unroll 4
    for (std::size_t q = 0; q < kQuads; ++q) c[q] = load4(src + 64 * q);
    y = ghash16(ks, c, y);
  }
  return y;
}

/// Encrypt (kEncrypt) or decrypt `groups` whole 256-byte groups from `src`
/// into `out` (which may equal `src`), with counters from inc32(`ctr`)
/// (kCounterSwap form) and the running GHASH `y`; returns y after the last
/// group. As in Pass::crypt, encryption hashes a group during the next
/// group's rounds and decryption during its own, and GHASH never reads
/// `out` back.
template <bool kEncrypt>
__attribute__((SPEED_VAES_TARGET, noinline, flatten)) __m128i wide_crypt(
    const KeyState& ks, __m128i ctr, __m128i y, const std::uint8_t* src,
    std::uint8_t* out, std::size_t groups) {
  __m512i next = _mm512_add_epi32(
      broadcast(ctr),
      _mm512_set_epi32(4, 0, 0, 0, 3, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0));
  __m512i c[kQuads] = {};  // this group's ciphertext, one register per quad
  for (std::size_t g = 0; g < groups; ++g) {
    const std::size_t off = g * kWideGroupBytes;
    __m512i b[kQuads] = {};
    if constexpr (kEncrypt) {
      if (g == 0) {
        start16(ks, b, next);
        aes_finish16(ks, b, 1);
      } else {
        y = aes16_ghash(ks, b, next, c, y);
      }
#pragma GCC unroll 4
      for (std::size_t q = 0; q < kQuads; ++q) {
        c[q] = _mm512_xor_si512(b[q], load4(src + off + 64 * q));
        store4(out + off + 64 * q, c[q]);
      }
    } else {
#pragma GCC unroll 4
      for (std::size_t q = 0; q < kQuads; ++q) c[q] = load4(src + off + 64 * q);
      y = aes16_ghash(ks, b, next, c, y);
#pragma GCC unroll 4
      for (std::size_t q = 0; q < kQuads; ++q) {
        store4(out + off + 64 * q, _mm512_xor_si512(c[q], b[q]));
      }
    }
  }
  if (kEncrypt && groups > 0) y = ghash16(ks, c, y);
  return y;
}

#undef SPEED_VAES_INLINE
#undef SPEED_VAES_TARGET

/// Streams the GCM data pass: CTR keystream from inc32(J0) and GHASH over
/// the ciphertext, with the aggregated loops for full groups.
class Pass {
 public:
  /// `wide` runs whole 256-byte groups on the zmm loop first.
  Pass(KeyState& ks, const std::uint8_t iv[12], bool wide)
      : ks_(ks),
        ctr_(_mm_shuffle_epi8(make_j0(iv), kCounterSwap)),
        wide_(wide) {}

  /// GHASH `aad`: full 256-byte groups on a wide pass and full 8-block
  /// groups with one reduction each, then the rest one block at a time
  /// with its final block zero-padded.
  void absorb_aad(ByteView aad) {
    const std::size_t wide_groups = wide_groups_in(aad);
    if (wide_groups > 0) {
      y_ = wide_ghash(ks_, y_, aad.data(), wide_groups);
      aad = aad.subspan(wide_groups * kWideGroupBytes);
    }
    const std::uint8_t* src = aad.data();
    const std::size_t groups = aad.size() / kGroupBytes;
    if (groups > 0) ks_.compute_powers(kLanes);
    for (std::size_t g = 0; g < groups; ++g) {
      __m128i c[kLanes];
      each_lane([&](auto i) { c[i] = load(src + g * kGroupBytes + 16 * i); });
      ghash_group(c);
    }
    std::size_t off = groups * kGroupBytes;
    for (; off + 16 <= aad.size(); off += 16) absorb(load(src + off));
    if (off < aad.size()) {
      std::uint8_t padded[16] = {0};
      std::memcpy(padded, src + off, aad.size() - off);
      absorb(load(padded));
    }
  }

  /// Encrypt (kEncrypt) or decrypt `in` into `out`; `out` may equal `in`.
  /// Encryption hashes each group's ciphertext during the next group's AES
  /// rounds (it only exists once those rounds finish); decryption hashes a
  /// group during its own rounds. GHASH never reads `out` back.
  template <bool kEncrypt>
  void crypt(ByteView in, std::uint8_t* out) {
    const std::size_t wide_groups = wide_groups_in(in);
    if (wide_groups > 0) {
      y_ = wide_crypt<kEncrypt>(ks_, ctr_, y_, in.data(), out, wide_groups);
      // inc32 is mod 2^32, and so is the cast of the block count.
      ctr_ = _mm_add_epi32(
          ctr_, _mm_set_epi32(static_cast<int>(kWideLanes * wide_groups), 0,
                              0, 0));
      in = in.subspan(wide_groups * kWideGroupBytes);
      out += wide_groups * kWideGroupBytes;
    }
    const std::uint8_t* src = in.data();
    const std::size_t groups = in.size() / kGroupBytes;
    if (groups > 0) ks_.compute_powers(kLanes);
    __m128i c[kLanes] = {};  // this group's ciphertext, one register per block
    for (std::size_t g = 0; g < groups; ++g) {
      const std::size_t off = g * kGroupBytes;
      __m128i b[kLanes] = {};
      if constexpr (kEncrypt) {
        if (g == 0) {
          aes_group(b);
        } else {
          aes_group_ghash(b, c);
        }
        each_lane([&](auto i) {
          c[i] = _mm_xor_si128(b[i], load(src + off + 16 * i));
          store(out + off + 16 * i, c[i]);
        });
      } else {
        each_lane([&](auto i) { c[i] = load(src + off + 16 * i); });
        aes_group_ghash(b, c);
        each_lane([&](auto i) {
          store(out + off + 16 * i, _mm_xor_si128(c[i], b[i]));
        });
      }
    }
    if (kEncrypt && groups > 0) ghash_group(c);
    std::size_t off = groups * kGroupBytes;
    for (; off + 16 <= in.size(); off += 16) {
      const __m128i in_blk = load(src + off);
      const __m128i out_blk =
          _mm_xor_si128(in_blk, ks_.encrypt_block(next_counter()));
      absorb(kEncrypt ? out_blk : in_blk);
      store(out + off, out_blk);
    }
    if (off < in.size()) {
      // The partial block goes through the spill buffer, zero-padded for
      // GHASH, with the keystream past `take` cleared before it is hashed.
      const std::size_t take = in.size() - off;
      std::memset(ks_.spill, 0, sizeof(ks_.spill));
      std::memcpy(ks_.spill, src + off, take);
      const __m128i in_blk = load(ks_.spill);
      store(ks_.spill,
            _mm_xor_si128(in_blk, ks_.encrypt_block(next_counter())));
      std::memset(ks_.spill + take, 0, sizeof(ks_.spill) - take);
      absorb(kEncrypt ? load(ks_.spill) : in_blk);
      std::memcpy(out + off, ks_.spill, take);
    }
  }

  /// Absorb the length block and return the tag.
  __m128i finish(std::uint64_t aad_len, std::uint64_t data_len) {
    // The length block is big-endian: aad bits in bytes 0-7, data bits in
    // bytes 8-15. _mm_set_epi64x takes (high=bytes 8-15, low=bytes 0-7).
    absorb(_mm_set_epi64x(
        static_cast<long long>(__builtin_bswap64(data_len * 8)),
        static_cast<long long>(__builtin_bswap64(aad_len * 8))));
    return _mm_xor_si128(reflect(y_), ks_.ej0);
  }

 private:
  /// Whole 256-byte groups of `data` for the zmm loop: none unless this is
  /// a wide pass. Computes H^1..H^16 when there is one.
  std::size_t wide_groups_in(ByteView data) {
    const std::size_t groups = wide_ ? data.size() / kWideGroupBytes : 0;
    if (groups > 0) ks_.compute_powers(kWideLanes);
    return groups;
  }

  __m128i next_counter() {
    ctr_ = _mm_add_epi32(ctr_, kCounterOne);
    return _mm_shuffle_epi8(ctr_, kCounterSwap);
  }

  void absorb(__m128i block) {
    y_ = gfmul(_mm_xor_si128(y_, reflect(block)), ks_.h(1));
  }

  /// Load the group's eight counter blocks, whitened with round key 0.
  void start_group(__m128i b[kLanes]) {
    each_lane([&](auto i) { b[i] = _mm_xor_si128(next_counter(), ks_.rk[0]); });
  }

  static void aes_round(__m128i b[kLanes], __m128i rk) {
    each_lane([&](auto i) { b[i] = _mm_aesenc_si128(b[i], rk); });
  }

  /// Rounds `from`..rounds-1 and the last round.
  void aes_finish(__m128i b[kLanes], int from) const {
    for (int r = from; r < ks_.rounds; ++r) aes_round(b, ks_.rk[r]);
    const __m128i last = ks_.rk[ks_.rounds];
    each_lane([&](auto i) { b[i] = _mm_aesenclast_si128(b[i], last); });
  }

  /// Product of ciphertext block I of a group with H^(8-I), block 0
  /// carrying the running GHASH state.
  template <std::size_t I>
  void fold(Wide& acc, __m128i c) const {
    __m128i x = reflect(c);
    if constexpr (I == 0) x = _mm_xor_si128(x, y_);
    clmul_acc(acc, x, ks_.h(kLanes - I));
  }

  /// Eight keystream blocks into `b`.
  void aes_group(__m128i b[kLanes]) {
    start_group(b);
    aes_finish(b, 1);
  }

  /// y <- (y ^ c0)·H^8 ^ c1·H^7 ^ ... ^ c7·H, reduced once.
  void ghash_group(const __m128i c[kLanes]) {
    Wide acc;
    each_lane([&](auto i) { fold<i>(acc, c[i]); });
    y_ = reduce(acc);
  }

  /// Eight keystream blocks into `b`, with the GHASH of `c` stitched into
  /// the AES rounds: one block's products per round, one reduction.
  void aes_group_ghash(__m128i b[kLanes], const __m128i c[kLanes]) {
    Wide acc;
    start_group(b);
    each_lane([&](auto i) {
      aes_round(b, ks_.rk[i + 1]);
      fold<i>(acc, c[i]);
    });
    aes_finish(b, kLanes + 1);
    y_ = reduce(acc);
  }

  KeyState& ks_;
  __m128i ctr_;  ///< current counter block, in kCounterSwap form
  __m128i y_ = _mm_setzero_si128();
  const bool wide_;
};

void check_key(ByteView key) {
  if (key.size() != kAes128KeySize && key.size() != kAes256KeySize) {
    throw CryptoError("hw::gcm: key must be 16 or 32 bytes");
  }
}

}  // namespace

GcmWidth gcm_width() {
  static const GcmWidth width = [] {
    if (!__builtin_cpu_supports("aes") || !__builtin_cpu_supports("pclmul") ||
        !__builtin_cpu_supports("ssse3")) {
      return GcmWidth::kPortable;
    }
    // The avx512 checks include the OS having enabled the zmm state. The
    // loop uses no EVEX xmm/ymm forms, so it does not need avx512vl.
    if (__builtin_cpu_supports("vaes") &&
        __builtin_cpu_supports("vpclmulqdq") &&
        __builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512bw")) {
      return GcmWidth::kVaes512;
    }
    return GcmWidth::kAesni;
  }();
  return width;
}

// flatten inlines every helper and lane lambda into the entry point; left
// to the inliner's heuristics, a group's blocks can end up passed through
// memory, which measured ~1.5x slower. It cannot inline wide_ghash or
// wide_crypt, whose wider target this function lacks.
[[gnu::flatten]] void gcm_encrypt(GcmWidth width, ByteView key,
                                  const std::uint8_t iv[12], ByteView aad,
                                  ByteView pt, std::uint8_t* ct,
                                  std::uint8_t tag[16]) {
  check_key(key);
  KeyState ks(key, iv);
  Pass pass(ks, iv, width == GcmWidth::kVaes512);
  pass.absorb_aad(aad);
  pass.crypt</*kEncrypt=*/true>(pt, ct);
  store(tag, pass.finish(aad.size(), pt.size()));
}

[[gnu::flatten]] bool gcm_decrypt(GcmWidth width, ByteView key,
                                  const std::uint8_t iv[12], ByteView aad,
                                  ByteView ct, const std::uint8_t tag[16],
                                  std::uint8_t* pt) {
  check_key(key);
  KeyState ks(key, iv);
  Pass pass(ks, iv, width == GcmWidth::kVaes512);
  pass.absorb_aad(aad);
  pass.crypt</*kEncrypt=*/false>(ct, pt);
  store(ks.expected_tag, pass.finish(aad.size(), ct.size()));
  if (ct_equal(ByteView(ks.expected_tag, 16), ByteView(tag, 16))) return true;
  secure_zero(pt, ct.size());
  return false;
}

}  // namespace speed::crypto::hw

#else  // non-x86 fallback

namespace speed::crypto::hw {
GcmWidth gcm_width() { return GcmWidth::kPortable; }
void gcm_encrypt(GcmWidth, ByteView, const std::uint8_t*, ByteView, ByteView,
                 std::uint8_t*, std::uint8_t*) {}
bool gcm_decrypt(GcmWidth, ByteView, const std::uint8_t*, ByteView, ByteView,
                 const std::uint8_t*, std::uint8_t*) {
  return false;
}
}  // namespace speed::crypto::hw

#endif
