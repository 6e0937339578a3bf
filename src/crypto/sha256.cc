#include "crypto/sha256.h"

#include <algorithm>
#include <cstring>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#define SPEED_SHA256_X86 1
#endif

namespace speed::crypto {

namespace {

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

inline std::uint32_t load_be32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

inline void store_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

void compress_portable(std::uint32_t state[8], const std::uint8_t* blocks,
                       std::size_t n) {
  for (; n > 0; --n, blocks += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) w[i] = load_be32(blocks + 4 * i);
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#ifdef SPEED_SHA256_X86

// The SHA-NI kernel is compiled through function-level target attributes
// rather than a per-file -msha: the rest of this file, and every inline
// function it instantiates, stays baseline x86 code, so the linker can never
// pick an SHA-NI build of a shared inline function for a CPU without it.
#define SPEED_SHA_NI_INLINE \
  __attribute__((target("sha,sse4.1"), always_inline)) inline

/// Quad-round I (rounds 4I..4I+3). w[I % 4] holds message words 4I..4I+3;
/// the four registers rotate through the 16-word schedule window:
/// sha256msg2 finishes the words of quad I+1 from quads I-3 to I, and
/// sha256msg1 starts the words of quad I+3 from quads I-1 and I.
template <int I>
SPEED_SHA_NI_INLINE void quad_round(__m128i& abef, __m128i& cdgh,
                                    __m128i (&w)[4]) {
  __m128i wk = _mm_add_epi32(
      w[I % 4], _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * I)));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  if constexpr (I >= 3 && I <= 14) {
    __m128i& next = w[(I + 1) % 4];
    next = _mm_add_epi32(next, _mm_alignr_epi8(w[I % 4], w[(I + 3) % 4], 4));
    next = _mm_sha256msg2_epu32(next, w[I % 4]);
  }
  wk = _mm_shuffle_epi32(wk, 0x0E);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
  if constexpr (I >= 1 && I <= 12) {
    w[(I + 3) % 4] = _mm_sha256msg1_epu32(w[(I + 3) % 4], w[I % 4]);
  }
}

template <int... I>
SPEED_SHA_NI_INLINE void all_rounds(__m128i& abef, __m128i& cdgh,
                                    __m128i (&w)[4],
                                    std::integer_sequence<int, I...>) {
  (quad_round<I>(abef, cdgh, w), ...);
}

/// The 64 rounds of two independent blocks, quad-round by quad-round: each
/// lane's sha256rnds2 chain waits on its own previous result, so issuing the
/// other lane's quad in between keeps the SHA unit busy.
template <int... I>
SPEED_SHA_NI_INLINE void all_rounds_x2(__m128i& abef_a, __m128i& cdgh_a,
                                       __m128i (&wa)[4], __m128i& abef_b,
                                       __m128i& cdgh_b, __m128i (&wb)[4],
                                       std::integer_sequence<int, I...>) {
  ((quad_round<I>(abef_a, cdgh_a, wa), quad_round<I>(abef_b, cdgh_b, wb)),
   ...);
}

/// Message words are big-endian; pshufb swaps the bytes of each lane.
SPEED_SHA_NI_INLINE __m128i bswap32_mask() {
  return _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
}

/// The block's sixteen message words, four per register. Written out
/// rather than looped: GCC keeps a looped fill in a stack array.
SPEED_SHA_NI_INLINE void load_block(const std::uint8_t* block, __m128i bswap32,
                                    __m128i (&w)[4]) {
  const auto* in = reinterpret_cast<const __m128i*>(block);
  w[0] = _mm_shuffle_epi8(_mm_loadu_si128(in), bswap32);
  w[1] = _mm_shuffle_epi8(_mm_loadu_si128(in + 1), bswap32);
  w[2] = _mm_shuffle_epi8(_mm_loadu_si128(in + 2), bswap32);
  w[3] = _mm_shuffle_epi8(_mm_loadu_si128(in + 3), bswap32);
}

/// sha256rnds2 keeps the working variables as {A,B,E,F} and {C,D,G,H}
/// (lanes listed high to low); regroup the state's {A..D}, {E..H} words.
SPEED_SHA_NI_INLINE void load_state(const std::uint32_t state[8],
                                    __m128i& abef, __m128i& cdgh) {
  const __m128i cdab = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  abef = _mm_alignr_epi8(cdab, efgh, 8);
  cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
}

SPEED_SHA_NI_INLINE void store_state(std::uint32_t state[8], __m128i abef,
                                     __m128i cdgh) {
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

#undef SPEED_SHA_NI_INLINE

__attribute__((target("sha,sse4.1"))) void compress_sha_ni(
    std::uint32_t state[8], const std::uint8_t* blocks, std::size_t n) {
  const __m128i bswap32 = bswap32_mask();
  __m128i abef, cdgh;
  load_state(state, abef, cdgh);
  for (; n > 0; --n, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];
    load_block(blocks, bswap32, w);
    all_rounds(abef, cdgh, w, std::make_integer_sequence<int, 16>{});
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }
  store_state(state, abef, cdgh);
}

/// compress_sha_ni over two states at once: `n` blocks from `a` into
/// `state_a` and `n` blocks from `b` into `state_b`.
__attribute__((target("sha,sse4.1"))) void compress_sha_ni_x2(
    std::uint32_t state_a[8], const std::uint8_t* a, std::uint32_t state_b[8],
    const std::uint8_t* b, std::size_t n) {
  const __m128i bswap32 = bswap32_mask();
  __m128i abef_a, cdgh_a, abef_b, cdgh_b;
  load_state(state_a, abef_a, cdgh_a);
  load_state(state_b, abef_b, cdgh_b);
  for (; n > 0; --n, a += 64, b += 64) {
    const __m128i abef_a_in = abef_a;
    const __m128i cdgh_a_in = cdgh_a;
    const __m128i abef_b_in = abef_b;
    const __m128i cdgh_b_in = cdgh_b;
    __m128i wa[4], wb[4];
    load_block(a, bswap32, wa);
    load_block(b, bswap32, wb);
    all_rounds_x2(abef_a, cdgh_a, wa, abef_b, cdgh_b, wb,
                  std::make_integer_sequence<int, 16>{});
    abef_a = _mm_add_epi32(abef_a, abef_a_in);
    cdgh_a = _mm_add_epi32(cdgh_a, cdgh_a_in);
    abef_b = _mm_add_epi32(abef_b, abef_b_in);
    cdgh_b = _mm_add_epi32(cdgh_b, cdgh_b_in);
  }
  store_state(state_a, abef_a, cdgh_a);
  store_state(state_b, abef_b, cdgh_b);
}

#endif  // SPEED_SHA256_X86

}  // namespace

#ifdef SPEED_SHA256_X86
bool hw::sha256_available() {
  static const bool ok = [] {
    unsigned a = 0, b = 0, c = 0, d = 0;
    if (__get_cpuid(1, &a, &b, &c, &d) == 0 || (c & bit_SSSE3) == 0 ||
        (c & bit_SSE4_1) == 0) {
      return false;
    }
    return __get_cpuid_count(7, 0, &a, &b, &c, &d) != 0 && (b & bit_SHA) != 0;
  }();
  return ok;
}
#else
bool hw::sha256_available() { return false; }
#endif

Sha256::Sha256(Impl impl)
    : use_hw_(impl == Impl::kAuto && hw::sha256_available()) {
  reset();
}

void Sha256::reset() {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
  bit_count_ = 0;
  buffer_len_ = 0;
}

void Sha256::compress(const std::uint8_t* blocks, std::size_t n) {
#ifdef SPEED_SHA256_X86
  if (use_hw_) {
    compress_sha_ni(state_, blocks, n);
    return;
  }
#endif
  compress_portable(state_, blocks, n);
}

std::size_t Sha256::top_up(ByteView data) {
  if (buffer_len_ == 0) return 0;
  const std::size_t take = std::min(data.size(), 64 - buffer_len_);
  std::memcpy(buffer_ + buffer_len_, data.data(), take);
  buffer_len_ += take;
  if (buffer_len_ == 64) {
    compress(buffer_, 1);
    buffer_len_ = 0;
  }
  return take;
}

void Sha256::absorb_blocks(ByteView data) {
  // Every whole block in one call, so the kernel keeps the state in
  // registers across blocks.
  const std::size_t blocks = data.size() / 64;
  if (blocks > 0) compress(data.data(), blocks);
  const ByteView tail = data.subspan(64 * blocks);
  if (!tail.empty()) {
    std::memcpy(buffer_, tail.data(), tail.size());
    buffer_len_ = tail.size();
  }
}

void Sha256::update(ByteView data) {
  if (data.empty()) return;  // an empty span may carry a null data()
  bit_count_ += static_cast<std::uint64_t>(data.size()) * 8;
  absorb_blocks(data.subspan(top_up(data)));
}

void Sha256::update_pair(Sha256& a, Sha256& b, ByteView data) {
#ifdef SPEED_SHA256_X86
  // Under two blocks a lane may have no whole block left after its top-up.
  if (a.use_hw_ && b.use_hw_ && &a != &b && data.size() >= 128) {
    const std::uint64_t bits = static_cast<std::uint64_t>(data.size()) * 8;
    a.bit_count_ += bits;
    b.bit_count_ += bits;
    // The lanes sit at different offsets mod 64, so each tops up its own
    // partial block and then walks its own block grid over `data`.
    const ByteView rest_a = data.subspan(a.top_up(data));
    const ByteView rest_b = data.subspan(b.top_up(data));
    const std::size_t both = std::min(rest_a.size(), rest_b.size()) / 64;
    compress_sha_ni_x2(a.state_, rest_a.data(), b.state_, rest_b.data(), both);
    // The longer lane may have one more whole block; both keep their tails.
    a.absorb_blocks(rest_a.subspan(64 * both));
    b.absorb_blocks(rest_b.subspan(64 * both));
    return;
  }
#endif
  a.update(data);
  b.update(data);
}

Sha256Digest Sha256::finish() {
  const std::uint64_t bits = bit_count_;
  // Append 0x80 then zero-pad to 56 mod 64, then the 64-bit big-endian length.
  std::uint8_t pad[72] = {0x80};
  const std::size_t pad_len =
      (buffer_len_ < 56) ? (56 - buffer_len_) : (120 - buffer_len_);
  update(ByteView(pad, pad_len));
  std::uint8_t len_be[8];
  for (int i = 0; i < 8; ++i) {
    len_be[i] = static_cast<std::uint8_t>(bits >> (56 - 8 * i));
  }
  // update() would double-count the length bytes in bit_count_, but we've
  // already captured `bits`, so it is harmless.
  update(ByteView(len_be, 8));

  Sha256Digest out;
  for (int i = 0; i < 8; ++i) store_be32(out.data() + 4 * i, state_[i]);
  return out;
}

Sha256Digest Sha256::digest(ByteView data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Sha256Digest Sha256::digest_parts(std::initializer_list<ByteView> parts) {
  Sha256 h;
  for (ByteView p : parts) h.update(p);
  return h.finish();
}

}  // namespace speed::crypto
