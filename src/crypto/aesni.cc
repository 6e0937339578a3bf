// Hardware AES-GCM-128 using AES-NI and PCLMULQDQ.
//
// This translation unit is compiled with -maes -mpclmul -mssse3; callers must
// gate on hw::gcm128_available() before invoking the gcm128_* functions.
//
// Each call is one stitched pass over the payload. A call whose AAD or
// payload has at least one full 8-block group computes H^1..H^8 once; every
// payload group then runs eight CTR blocks through the AES rounds while the
// carry-less products of eight ciphertext blocks with H^8..H^1 accumulate
// unreduced, and the sum is reduced once per group (the aggregated reduction
// of Gueron and Kounavis, "Carry-Less Multiplication and Its Usage for
// Computing the GCM Mode"; gfmul below is that white paper's
// shift-left-by-1 variant on byte-reflected operands). The AAD's full groups
// take the same aggregated GHASH, one reduction per group, so a long AAD
// (the store's blob MAC: a GMAC with the blob as AAD and no plaintext) costs
// a fraction of an AES pass. The tails take one block at a time, so a short
// message pays for no power table.
//
// Decryption loads every ciphertext block into a register once and feeds
// that register to both GHASH and the keystream XOR: a buffer the enclave
// does not own cannot present one value to the MAC and another to the
// plaintext. On a tag mismatch the plaintext written so far is zeroed before
// returning false. The round keys, the H-power table, E(J0), the expected
// tag and the partial-block spills are wiped before every return.
//
// Correctness is pinned by NIST/McGrew-Viega and multi-group vectors and by
// a differential test against the portable scalar implementation.
#include "crypto/gcm.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#include <wmmintrin.h>

#include <cstring>
#include <type_traits>
#include <utility>

namespace speed::crypto::hw {

namespace {

constexpr std::size_t kLanes = 8;
constexpr std::size_t kGroupBytes = 16 * kLanes;

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

template <int Rcon>
inline __m128i expand_step(__m128i key) {
  __m128i kga = _mm_aeskeygenassist_si128(key, Rcon);
  kga = _mm_shuffle_epi32(kga, _MM_SHUFFLE(3, 3, 3, 3));
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

/// Shift-left-by-1 and reduction modulo x^128 + x^7 + x^2 + x + 1 (Intel
/// white paper, Fig. 8). Both steps are linear, so reducing a sum of
/// products equals summing the reduced products.
inline __m128i reduce(const Wide& w) {
  __m128i tmp2, tmp3, tmp4, tmp5, tmp6, tmp7, tmp8, tmp9;
  tmp3 = _mm_xor_si128(w.lo, _mm_slli_si128(w.mid, 8));
  tmp6 = _mm_xor_si128(w.hi, _mm_srli_si128(w.mid, 8));

  // Shift the 256-bit product left by one bit (the operands are reflected,
  // so the carry-less product is off by a factor of x).
  tmp7 = _mm_srli_epi32(tmp3, 31);
  tmp8 = _mm_srli_epi32(tmp6, 31);
  tmp3 = _mm_slli_epi32(tmp3, 1);
  tmp6 = _mm_slli_epi32(tmp6, 1);

  tmp9 = _mm_srli_si128(tmp7, 12);
  tmp8 = _mm_slli_si128(tmp8, 4);
  tmp7 = _mm_slli_si128(tmp7, 4);
  tmp3 = _mm_or_si128(tmp3, tmp7);
  tmp6 = _mm_or_si128(tmp6, tmp8);
  tmp6 = _mm_or_si128(tmp6, tmp9);

  tmp7 = _mm_slli_epi32(tmp3, 31);
  tmp8 = _mm_slli_epi32(tmp3, 30);
  tmp9 = _mm_slli_epi32(tmp3, 25);

  tmp7 = _mm_xor_si128(tmp7, tmp8);
  tmp7 = _mm_xor_si128(tmp7, tmp9);
  tmp8 = _mm_srli_si128(tmp7, 4);
  tmp7 = _mm_slli_si128(tmp7, 12);
  tmp3 = _mm_xor_si128(tmp3, tmp7);

  tmp2 = _mm_srli_epi32(tmp3, 1);
  tmp4 = _mm_srli_epi32(tmp3, 2);
  tmp5 = _mm_srli_epi32(tmp3, 7);
  tmp2 = _mm_xor_si128(tmp2, tmp4);
  tmp2 = _mm_xor_si128(tmp2, tmp5);
  tmp2 = _mm_xor_si128(tmp2, tmp8);
  tmp3 = _mm_xor_si128(tmp3, tmp2);
  return _mm_xor_si128(tmp6, tmp3);
}

/// GF(2^128) multiply on byte-reflected operands.
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
  __m128i rk[11];
  __m128i hpow[kLanes] = {};  ///< hpow[i] = H^(i+1), reflected; [1..] on demand
  bool have_powers = false;   ///< hpow[1..] computed
  __m128i ej0;                ///< E(J0), the tag mask
  std::uint8_t expected_tag[16] = {};
  std::uint8_t spill[16] = {};  ///< partial-block keystream / data

  KeyState(const std::uint8_t key[16], const std::uint8_t iv[12]) {
    rk[0] = load(key);
    rk[1] = expand_step<0x01>(rk[0]);
    rk[2] = expand_step<0x02>(rk[1]);
    rk[3] = expand_step<0x04>(rk[2]);
    rk[4] = expand_step<0x08>(rk[3]);
    rk[5] = expand_step<0x10>(rk[4]);
    rk[6] = expand_step<0x20>(rk[5]);
    rk[7] = expand_step<0x40>(rk[6]);
    rk[8] = expand_step<0x80>(rk[7]);
    rk[9] = expand_step<0x1b>(rk[8]);
    rk[10] = expand_step<0x36>(rk[9]);
    hpow[0] = reflect(encrypt_block(_mm_setzero_si128()));
    ej0 = encrypt_block(make_j0(iv));
  }
  ~KeyState() { secure_zero(this, sizeof(*this)); }
  KeyState(const KeyState&) = delete;
  KeyState& operator=(const KeyState&) = delete;

  __m128i encrypt_block(__m128i block) const {
    block = _mm_xor_si128(block, rk[0]);
    for (int r = 1; r < 10; ++r) block = _mm_aesenc_si128(block, rk[r]);
    return _mm_aesenclast_si128(block, rk[10]);
  }

  /// H^2..H^8, at most once per call (the AAD and the payload share them).
  void compute_powers() {
    if (have_powers) return;
    for (std::size_t i = 1; i < kLanes; ++i) {
      hpow[i] = gfmul(hpow[i - 1], hpow[0]);
    }
    have_powers = true;
  }
};

/// Streams the GCM data pass: CTR keystream from inc32(J0) and GHASH over
/// the ciphertext, with the aggregated 8-block loop for full groups.
class Pass {
 public:
  Pass(KeyState& ks, const std::uint8_t iv[12])
      : ks_(ks), ctr_(_mm_shuffle_epi8(make_j0(iv), kCounterSwap)) {}

  /// GHASH `aad`: full 8-block groups with one reduction each, then the
  /// rest one block at a time with its final block zero-padded.
  void absorb_aad(ByteView aad) {
    const std::uint8_t* src = aad.data();
    const std::size_t groups = aad.size() / kGroupBytes;
    if (groups > 0) ks_.compute_powers();
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
    const std::uint8_t* src = in.data();
    const std::size_t groups = in.size() / kGroupBytes;
    if (groups > 0) ks_.compute_powers();
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
  __m128i next_counter() {
    ctr_ = _mm_add_epi32(ctr_, kCounterOne);
    return _mm_shuffle_epi8(ctr_, kCounterSwap);
  }

  void absorb(__m128i block) {
    y_ = gfmul(_mm_xor_si128(y_, reflect(block)), ks_.hpow[0]);
  }

  /// Load the group's eight counter blocks, whitened with round key 0.
  void start_group(__m128i b[kLanes]) {
    each_lane([&](auto i) { b[i] = _mm_xor_si128(next_counter(), ks_.rk[0]); });
  }

  static void aes_round(__m128i b[kLanes], __m128i rk) {
    each_lane([&](auto i) { b[i] = _mm_aesenc_si128(b[i], rk); });
  }

  static void aes_last(__m128i b[kLanes], __m128i rk) {
    each_lane([&](auto i) { b[i] = _mm_aesenclast_si128(b[i], rk); });
  }

  /// Product of ciphertext block I of a group with H^(8-I), block 0
  /// carrying the running GHASH state.
  template <std::size_t I>
  void fold(Wide& acc, __m128i c) const {
    __m128i x = reflect(c);
    if constexpr (I == 0) x = _mm_xor_si128(x, y_);
    clmul_acc(acc, x, ks_.hpow[kLanes - 1 - I]);
  }

  /// Eight keystream blocks into `b`.
  void aes_group(__m128i b[kLanes]) {
    start_group(b);
    for (int r = 1; r < 10; ++r) aes_round(b, ks_.rk[r]);
    aes_last(b, ks_.rk[10]);
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
    aes_round(b, ks_.rk[9]);
    aes_last(b, ks_.rk[10]);
    y_ = reduce(acc);
  }

  KeyState& ks_;
  __m128i ctr_;  ///< current counter block, in kCounterSwap form
  __m128i y_ = _mm_setzero_si128();
};

}  // namespace

bool gcm128_available() {
  static const bool ok = __builtin_cpu_supports("aes") &&
                         __builtin_cpu_supports("pclmul") &&
                         __builtin_cpu_supports("ssse3");
  return ok;
}

// flatten inlines every helper and lane lambda into the entry point; left
// to the inliner's heuristics, a group's blocks can end up passed through
// memory, which measured ~1.5x slower.
[[gnu::flatten]] void gcm128_encrypt(const std::uint8_t key[16],
                                    const std::uint8_t iv[12], ByteView aad,
                                    ByteView pt, std::uint8_t* ct,
                                    std::uint8_t tag[16]) {
  KeyState ks(key, iv);
  Pass pass(ks, iv);
  pass.absorb_aad(aad);
  pass.crypt</*kEncrypt=*/true>(pt, ct);
  store(tag, pass.finish(aad.size(), pt.size()));
}

[[gnu::flatten]] bool gcm128_decrypt(const std::uint8_t key[16],
                                    const std::uint8_t iv[12], ByteView aad,
                                    ByteView ct, const std::uint8_t tag[16],
                                    std::uint8_t* pt) {
  KeyState ks(key, iv);
  Pass pass(ks, iv);
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
bool gcm128_available() { return false; }
void gcm128_encrypt(const std::uint8_t*, const std::uint8_t*, ByteView,
                    ByteView, std::uint8_t*, std::uint8_t*) {}
bool gcm128_decrypt(const std::uint8_t*, const std::uint8_t*, ByteView,
                    ByteView, const std::uint8_t*, std::uint8_t*) {
  return false;
}
}  // namespace speed::crypto::hw

#endif
