#include "crypto/gcm.h"

#include <cstring>

#include "common/error.h"
#include "crypto/drbg.h"

namespace speed::crypto {

namespace {

// ---- Portable scalar GHASH (SP 800-38D, right-shift bitwise method) ----
//
// Values are 128-bit GF(2^128) elements in the GCM "reflected" polynomial
// basis, held as two big-endian 64-bit halves.
struct U128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
};

U128 load_u128(const std::uint8_t b[16]) {
  U128 v;
  for (int i = 0; i < 8; ++i) v.hi = (v.hi << 8) | b[i];
  for (int i = 8; i < 16; ++i) v.lo = (v.lo << 8) | b[i];
  return v;
}

void store_u128(const U128& v, std::uint8_t b[16]) {
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v.hi >> (56 - 8 * i));
  for (int i = 0; i < 8; ++i) b[8 + i] = static_cast<std::uint8_t>(v.lo >> (56 - 8 * i));
}

U128 gf_mult(const U128& x, const U128& h) {
  U128 z;
  U128 v = h;
  for (int i = 0; i < 128; ++i) {
    const std::uint64_t bit =
        (i < 64) ? (x.hi >> (63 - i)) & 1 : (x.lo >> (127 - i)) & 1;
    if (bit) {
      z.hi ^= v.hi;
      z.lo ^= v.lo;
    }
    const std::uint64_t lsb = v.lo & 1;
    v.lo = (v.lo >> 1) | (v.hi << 63);
    v.hi >>= 1;
    if (lsb) v.hi ^= 0xe100000000000000ULL;  // x^128 + x^7 + x^2 + x + 1
  }
  return z;
}

class Ghash {
 public:
  explicit Ghash(const std::uint8_t h[16]) : h_(load_u128(h)) {}

  /// Absorb data, zero-padding the final partial block of this segment
  /// (GCM pads AAD and ciphertext segments independently).
  void absorb_padded(ByteView data) {
    std::size_t off = 0;
    while (off < data.size()) {
      std::uint8_t block[16] = {0};
      const std::size_t take = std::min<std::size_t>(16, data.size() - off);
      std::memcpy(block, data.data() + off, take);
      absorb_block(block);
      off += take;
    }
  }

  void absorb_lengths(std::uint64_t aad_len, std::uint64_t data_len) {
    std::uint8_t block[16];
    const std::uint64_t aad_bits = aad_len * 8;
    const std::uint64_t data_bits = data_len * 8;
    for (int i = 0; i < 8; ++i) {
      block[i] = static_cast<std::uint8_t>(aad_bits >> (56 - 8 * i));
      block[8 + i] = static_cast<std::uint8_t>(data_bits >> (56 - 8 * i));
    }
    absorb_block(block);
  }

  void digest(std::uint8_t out[16]) const { store_u128(y_, out); }

 private:
  void absorb_block(const std::uint8_t block[16]) {
    const U128 b = load_u128(block);
    y_.hi ^= b.hi;
    y_.lo ^= b.lo;
    y_ = gf_mult(y_, h_);
  }

  U128 h_;
  U128 y_;
};

void inc32(std::uint8_t block[16]) {
  for (int i = 15; i >= 12; --i) {
    if (++block[i] != 0) break;
  }
}

/// CTR-mode keystream application starting from counter block `ctr`
/// (which is advanced past the processed blocks).
void ctr_crypt(const Aes& cipher, std::uint8_t ctr[16], ByteView in,
               std::uint8_t* out) {
  std::size_t off = 0;
  std::uint8_t keystream[16];
  while (off < in.size()) {
    cipher.encrypt_block(ctr, keystream);
    inc32(ctr);
    const std::size_t take = std::min<std::size_t>(16, in.size() - off);
    for (std::size_t i = 0; i < take; ++i) out[off + i] = in[off + i] ^ keystream[i];
    off += take;
  }
  secure_zero(keystream, sizeof(keystream));
}

void make_j0(ByteView iv, std::uint8_t j0[16]) {
  if (iv.size() != kGcmIvSize) throw CryptoError("AesGcm: IV must be 12 bytes");
  std::memcpy(j0, iv.data(), kGcmIvSize);
  j0[12] = j0[13] = j0[14] = 0;
  j0[15] = 1;
}

void scalar_gcm(ByteView key, ByteView iv, ByteView aad, ByteView data,
                bool encrypting, std::uint8_t* out, std::uint8_t tag[16]) {
  const Aes cipher(key);

  std::uint8_t h[16];
  const std::uint8_t zero[16] = {0};
  cipher.encrypt_block(zero, h);

  std::uint8_t j0[16];
  make_j0(iv, j0);
  std::uint8_t ej0[16];
  cipher.encrypt_block(j0, ej0);

  std::uint8_t ctr[16];
  std::memcpy(ctr, j0, 16);
  inc32(ctr);
  ctr_crypt(cipher, ctr, data, out);

  // GHASH runs over the *ciphertext*: what we just produced when encrypting,
  // the input when decrypting.
  const ByteView ct = encrypting ? ByteView(out, data.size()) : data;
  Ghash ghash(h);
  ghash.absorb_padded(aad);
  ghash.absorb_padded(ct);
  ghash.absorb_lengths(aad.size(), ct.size());
  ghash.digest(tag);
  for (int i = 0; i < 16; ++i) tag[i] ^= ej0[i];

  // h, E(j0), and the counter chain are all key-derived; scrub them.
  secure_zero(h, sizeof(h));
  secure_zero(j0, sizeof(j0));
  secure_zero(ej0, sizeof(ej0));
  secure_zero(ctr, sizeof(ctr));
}

/// True when the two ranges share at least one byte.
bool overlaps(ByteView a, std::span<const std::uint8_t> b) {
  if (a.empty() || b.empty()) return false;
  const auto a0 = reinterpret_cast<std::uintptr_t>(a.data());
  const auto b0 = reinterpret_cast<std::uintptr_t>(b.data());
  return a0 < b0 + b.size() && b0 < a0 + a.size();
}

}  // namespace

const char* hw::gcm_width_name(GcmWidth width) {
  switch (width) {
    case GcmWidth::kVaes512:
      return "vaes512";
    case GcmWidth::kAesni:
      return "aesni";
    case GcmWidth::kPortable:
      break;
  }
  return "portable";
}

AesGcm::AesGcm(ByteView key, Impl impl) : key_(secret::Buffer::copy_of(key)) {
  if (key.size() != kAes128KeySize && key.size() != kAes256KeySize) {
    throw CryptoError("AesGcm: key must be 16 or 32 bytes");
  }
  width_ = impl == Impl::kAuto ? hw::gcm_width() : hw::GcmWidth::kPortable;
}

AesGcm::AesGcm(const secret::Buffer& key, Impl impl)
    : AesGcm(key.reveal_for(secret::Purpose::of("aes_key_schedule")), impl) {}

Bytes AesGcm::seal(ByteView iv, ByteView aad, ByteView plaintext) const {
  Bytes out(plaintext.size() + kGcmTagSize);
  seal_into(iv, aad, plaintext, out);
  return out;
}

void AesGcm::seal_into(ByteView iv, ByteView aad, ByteView plaintext,
                       std::span<std::uint8_t> out) const {
  if (out.size() != plaintext.size() + kGcmTagSize) {
    throw CryptoError("AesGcm: output must hold ciphertext and tag");
  }
  if (out.data() != plaintext.data() && overlaps(plaintext, out)) {
    throw CryptoError("AesGcm: output overlaps plaintext other than in place");
  }
  const ByteView key = key_.reveal_for(secret::Purpose::of("aes_key_schedule"));
  std::uint8_t* tag = out.data() + plaintext.size();
  if (width_ != hw::GcmWidth::kPortable) {
    if (iv.size() != kGcmIvSize) throw CryptoError("AesGcm: IV must be 12 bytes");
    hw::gcm_encrypt(width_, key, iv.data(), aad, plaintext, out.data(), tag);
  } else {
    scalar_gcm(key, iv, aad, plaintext, /*encrypting=*/true, out.data(), tag);
  }
}

bool AesGcm::open_into(ByteView iv, ByteView aad, ByteView ciphertext_and_tag,
                       std::span<std::uint8_t> out) const {
  if (ciphertext_and_tag.size() < kGcmTagSize) {
    secure_zero(out.data(), out.size());
    return false;
  }
  const ByteView ct = ciphertext_and_tag.first(ciphertext_and_tag.size() - kGcmTagSize);
  const ByteView tag = ciphertext_and_tag.last(kGcmTagSize);
  if (out.size() != ct.size()) {
    throw CryptoError("AesGcm: output must hold exactly the ciphertext");
  }
  if (overlaps(ciphertext_and_tag, out)) {
    throw CryptoError("AesGcm: output overlaps ciphertext");
  }

  const ByteView key = key_.reveal_for(secret::Purpose::of("aes_key_schedule"));
  if (width_ != hw::GcmWidth::kPortable) {
    if (iv.size() != kGcmIvSize) throw CryptoError("AesGcm: IV must be 12 bytes");
    // A failed decrypt has already zeroed `out`.
    return hw::gcm_decrypt(width_, key, iv.data(), aad, ct, tag.data(),
                           out.data());
  }
  std::uint8_t expected_tag[16];
  scalar_gcm(key, iv, aad, ct, /*encrypting=*/false, out.data(), expected_tag);
  if (!ct_equal(ByteView(expected_tag, 16), tag)) {
    secure_zero(out.data(), out.size());
    return false;
  }
  return true;
}

std::optional<Bytes> AesGcm::open(ByteView iv, ByteView aad,
                                  ByteView ciphertext_and_tag) const {
  if (ciphertext_and_tag.size() < kGcmTagSize) return std::nullopt;
  Bytes pt(ciphertext_and_tag.size() - kGcmTagSize);
  if (!open_into(iv, aad, ciphertext_and_tag, pt)) return std::nullopt;
  return pt;
}

namespace {

// One body for each pair of envelope overloads (plain and secret keys).
template <typename Key>
void seal_after_iv(const Key& key, ByteView aad, ByteView plaintext,
                   std::span<std::uint8_t> envelope) {
  if (envelope.size() != gcm_envelope_size(plaintext.size())) {
    throw CryptoError("gcm envelope: size must be IV + plaintext + tag");
  }
  const AesGcm gcm(key);
  gcm.seal_into(envelope.first(kGcmIvSize), aad, plaintext,
                envelope.subspan(kGcmIvSize));
}

template <typename Key>
Bytes seal_envelope(const Key& key, ByteView aad, ByteView plaintext,
                    Drbg& drbg) {
  Bytes envelope(gcm_envelope_size(plaintext.size()));
  drbg.fill(std::span(envelope).first(kGcmIvSize));
  seal_after_iv(key, aad, plaintext, envelope);
  return envelope;
}

template <typename Key>
std::optional<Bytes> open_envelope(const Key& key, ByteView aad,
                                   ByteView envelope) {
  if (envelope.size() < kGcmIvSize + kGcmTagSize) return std::nullopt;
  const AesGcm gcm(key);
  return gcm.open(envelope.first(kGcmIvSize), aad,
                  envelope.subspan(kGcmIvSize));
}

}  // namespace

Bytes gcm_encrypt(ByteView key, ByteView aad, ByteView plaintext, Drbg& drbg) {
  return seal_envelope(key, aad, plaintext, drbg);
}

std::optional<Bytes> gcm_decrypt(ByteView key, ByteView aad, ByteView envelope) {
  return open_envelope(key, aad, envelope);
}

Bytes gcm_encrypt(const secret::Buffer& key, ByteView aad, ByteView plaintext,
                  Drbg& drbg) {
  return seal_envelope(key, aad, plaintext, drbg);
}

std::optional<Bytes> gcm_decrypt(const secret::Buffer& key, ByteView aad,
                                 ByteView envelope) {
  return open_envelope(key, aad, envelope);
}

void gcm_encrypt_into(const secret::Buffer& key, ByteView aad,
                      ByteView plaintext, std::span<std::uint8_t> envelope) {
  seal_after_iv(key, aad, plaintext, envelope);
}

bool gcm_decrypt_into(const secret::Buffer& key, ByteView aad,
                      ByteView envelope, std::span<std::uint8_t> plaintext) {
  if (envelope.size() != gcm_envelope_size(plaintext.size())) {
    throw CryptoError("gcm envelope: size must be IV + plaintext + tag");
  }
  const AesGcm gcm(key);
  return gcm.open_into(envelope.first(kGcmIvSize), aad,
                       envelope.subspan(kGcmIvSize), plaintext);
}

}  // namespace speed::crypto
