// AES-GCM authenticated encryption (NIST SP 800-38D).
//
// SPEED protects every result ciphertext [res] with AES-GCM-128 (§II-D): the
// GCM tag is what makes the Fig. 3 verification protocol work — decrypting
// with a wrongly recovered key fails authentication (⊥) instead of yielding
// garbage. AES-GCM-256 is used by the SGX simulator's sealing facility
// (metadata spills, fault-ins and WAL records).
//
// Two implementations are provided and selected at runtime:
//   * a hardware path for 128- and 256-bit keys alike, matching the SGX SDK
//     crypto library the paper used. It is one stitched pass per payload
//     byte (aesni.cc): on CPUs with VAES, VPCLMULQDQ and AVX-512, whole
//     256-byte groups run sixteen CTR blocks at a time in zmm registers;
//     the rest, and everything on CPUs with only AES-NI and PCLMULQDQ, runs
//     eight blocks per group in xmm registers. Each group's GHASH products
//     are accumulated and reduced once per group (aggregated reduction),
//     and a long AAD is hashed the same way. A decrypt fetches each
//     ciphertext block once, and on a tag mismatch it zeroes the plaintext
//     it wrote;
//   * a portable scalar path for either key size: the reference, and the
//     fallback on CPUs without AES-NI/PCLMULQDQ.
// Both are validated against NIST vectors and against each other in tests.
// seal_into and the envelope helpers write into the caller's final buffer,
// so sealing a payload costs one allocation and no copy. seal_into may also
// seal in place (the output starts exactly at the plaintext): both
// implementations read each block before they write it, so a frame can be
// encoded after its header and sealed where it lies, with no second buffer.
// open_into decrypts into a caller's buffer; decryption is never in place,
// because the scalar path hashes the ciphertext after it has decrypted it.
#pragma once

#include <optional>
#include <span>

#include "common/bytes.h"
#include "common/secret.h"
#include "crypto/aes.h"

namespace speed::crypto {

inline constexpr std::size_t kGcmIvSize = 12;
inline constexpr std::size_t kGcmTagSize = 16;
inline constexpr std::size_t kAes128KeySize = 16;
inline constexpr std::size_t kAes256KeySize = 32;

namespace hw {
/// The AES-GCM kernels, narrowest first: the portable scalar path; AES-NI +
/// PCLMULQDQ in 8-block groups; and VAES + VPCLMULQDQ on zmm registers in
/// 16-block groups, with the 8-block and 1-block loops for what is left.
enum class GcmWidth { kPortable, kAesni, kVaes512 };
/// The widest kernel this CPU runs (checked once); AesGcm's kAuto takes it.
GcmWidth gcm_width();
/// "portable", "aesni" or "vaes512".
const char* gcm_width_name(GcmWidth width);
}  // namespace hw

class AesGcm {
 public:
  /// Implementation selection. kAuto picks the widest hardware path the CPU
  /// supports, for either key size; kPortable forces the scalar path (used
  /// by the cross-check tests and on machines without AES-NI).
  enum class Impl { kAuto, kPortable };

  /// `key` must be 16 or 32 bytes.
  explicit AesGcm(ByteView key, Impl impl = Impl::kAuto);
  /// GCM keys are key material; this overload keeps the reveal inside the
  /// crypto core (audited in gcm.cc) and wipes the copy on destruction.
  explicit AesGcm(const secret::Buffer& key, Impl impl = Impl::kAuto);

  /// Encrypt + authenticate. `iv` must be 12 bytes and unique per key.
  /// Returns ciphertext ‖ 16-byte tag.
  Bytes seal(ByteView iv, ByteView aad, ByteView plaintext) const;

  /// seal() into `out`, which must hold exactly plaintext.size() + 16
  /// bytes (ciphertext ‖ tag). `out` either starts exactly at `plaintext`
  /// (an in-place seal: out.data() == plaintext.data()) or does not overlap
  /// it; any other overlap throws CryptoError. With an empty plaintext `out`
  /// is the 16-byte tag alone: a GMAC of `aad`.
  void seal_into(ByteView iv, ByteView aad, ByteView plaintext,
                 std::span<std::uint8_t> out) const;

  /// Verify + decrypt `ciphertext ‖ tag` into `out`, which must hold
  /// exactly the ciphertext's size and must not overlap the input. Returns
  /// false on authentication failure (the ⊥ of the paper's verification
  /// protocol), with `out` zeroed.
  bool open_into(ByteView iv, ByteView aad, ByteView ciphertext_and_tag,
                 std::span<std::uint8_t> out) const;

  /// open_into() a fresh buffer; nullopt on authentication failure.
  std::optional<Bytes> open(ByteView iv, ByteView aad,
                            ByteView ciphertext_and_tag) const;

  /// The kernel seal and open run on: hw::gcm_width() under kAuto,
  /// kPortable under kPortable.
  hw::GcmWidth width() const { return width_; }

 private:
  secret::Buffer key_;
  hw::GcmWidth width_;
};

/// Envelope helpers used throughout SPEED: encrypt with a fresh random IV and
/// return iv ‖ ciphertext ‖ tag (what the paper denotes [res], "covering its
/// authentication code and initialization vector", §III-B).
class Drbg;  // fwd
Bytes gcm_encrypt(ByteView key, ByteView aad, ByteView plaintext, Drbg& drbg);
Bytes gcm_encrypt(const secret::Buffer& key, ByteView aad, ByteView plaintext,
                  Drbg& drbg);
std::optional<Bytes> gcm_decrypt(ByteView key, ByteView aad, ByteView envelope);
std::optional<Bytes> gcm_decrypt(const secret::Buffer& key, ByteView aad,
                                 ByteView envelope);
/// gcm_encrypt for a caller that draws the IV itself, such as an enclave
/// that draws it under its DRBG lock and seals outside the lock: `envelope`
/// holds gcm_envelope_size(plaintext.size()) bytes (anything else throws
/// CryptoError) and starts with a fresh random IV; the ciphertext and tag
/// are written after it.
void gcm_encrypt_into(const secret::Buffer& key, ByteView aad,
                      ByteView plaintext, std::span<std::uint8_t> envelope);

/// gcm_decrypt into `plaintext`, which must hold exactly the envelope's
/// plaintext: envelope.size() == gcm_envelope_size(plaintext.size()), or
/// CryptoError. Returns false on authentication failure, with `plaintext`
/// zeroed. Must not overlap the envelope.
bool gcm_decrypt_into(const secret::Buffer& key, ByteView aad,
                      ByteView envelope, std::span<std::uint8_t> plaintext);

/// Size of gcm_encrypt's envelope for a given plaintext length.
inline constexpr std::size_t gcm_envelope_size(std::size_t plaintext_len) {
  return kGcmIvSize + plaintext_len + kGcmTagSize;
}

namespace hw {
/// One-shot hardware GCM with a 16- or 32-byte key (anything else throws
/// CryptoError) on `width`, which must be kAesni or kVaes512 and no wider
/// than gcm_width(). `ct` must hold pt.size() bytes and may equal `pt`.
void gcm_encrypt(GcmWidth width, ByteView key, const std::uint8_t iv[12],
                 ByteView aad, ByteView pt, std::uint8_t* ct,
                 std::uint8_t tag[16]);
/// Returns false on tag mismatch, with `pt` zeroed; `pt` holds ct.size()
/// bytes on success. Each ciphertext byte is read once.
bool gcm_decrypt(GcmWidth width, ByteView key, const std::uint8_t iv[12],
                 ByteView aad, ByteView ct, const std::uint8_t tag[16],
                 std::uint8_t* pt);
}  // namespace hw

}  // namespace speed::crypto
