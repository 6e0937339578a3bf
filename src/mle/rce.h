// Result encryption schemes.
//
// ResultCipher is the paper's main design (§III-C): a computation-flavoured
// randomized convergent encryption. The initial computation picks a fresh
// AES-128 key k and a random challenge r, encrypts the result under k with
// AES-GCM, and wraps k as [k] = k XOR h where h = Hash(func, m, r). Any
// application that *can perform the same computation* — owns the same code
// and input — recomputes h and recovers k; anyone else fails the GCM
// authenticity check (the ⊥ of Fig. 3). No system-wide key exists.
//
// BasicResultCipher is the strawman of §III-B: one shared system key.
// It is kept as the ablation baseline (bench_ablation_schemes) and to
// demonstrate the single-point-of-compromise contrast in tests.
#pragma once

#include <optional>
#include <span>

#include "common/bytes.h"
#include "common/secret.h"
#include "crypto/drbg.h"
#include "mle/tag.h"
#include "serialize/wire.h"

namespace speed::mle {

inline constexpr std::size_t kResultKeySize = 16;   ///< AES-128
inline constexpr std::size_t kChallengeSize = 32;   ///< |r|

class ResultCipher {
 public:
  /// Algorithm 1, lines 5-9: protect a freshly computed result.
  /// `drbg` supplies k and r (callers inside an enclave pass its trusted
  /// randomness). The returned payload is safe to store outside enclaves.
  static serialize::EntryPayload protect(const FunctionIdentity& fn,
                                         ByteView input, ByteView result,
                                         crypto::Drbg& drbg);
  /// Same, with the tag already derived (the runtime computed it for the
  /// duplicate check and should not hash the input a second time).
  static serialize::EntryPayload protect(const Tag& tag,
                                         const FunctionIdentity& fn,
                                         ByteView input, ByteView result,
                                         crypto::Drbg& drbg);
  /// Same, from a (func, m) midstate: the secondary key reuses the hash work
  /// already spent deriving the tag, so `input` is never hashed twice.
  static serialize::EntryPayload protect(const ComputationContext& ctx,
                                         ByteView result, crypto::Drbg& drbg);

  /// Algorithm 2, lines 4-6 + the Fig. 3 verification: recover the result
  /// from a stored payload. Returns nullopt iff the caller's (func, m) does
  /// not match the payload's — or the payload was tampered with. The
  /// recovered plaintext is secret until the runtime deliberately releases
  /// it to the application (an audited escape in dedup_runtime.cc).
  static std::optional<secret::Buffer> recover(
      const FunctionIdentity& fn, ByteView input,
      const serialize::EntryPayload& entry);
  /// Same, with the tag already derived.
  static std::optional<secret::Buffer> recover(
      const Tag& tag, const FunctionIdentity& fn, ByteView input,
      const serialize::EntryPayload& entry);
  /// Same, from a (func, m) midstate (see protect above).
  static std::optional<secret::Buffer> recover(
      const ComputationContext& ctx, const serialize::EntryPayload& entry);

  // Split-phase helpers used by the Table I microbenchmarks, which time
  // "Key Gen." (pick + wrap k) and "Key Rec." (recover k) separately from
  // result encryption/decryption.
  struct WrappedKey {
    secret::Buffer key;        ///< k (kept inside the enclave)
    secret::Buffer challenge;  ///< r (published only via an audited release)
    Bytes wrapped_key;         ///< [k] — protocol-public
  };
  static WrappedKey generate_key(const FunctionIdentity& fn, ByteView input,
                                 crypto::Drbg& drbg);
  static secret::Buffer recover_key(const FunctionIdentity& fn, ByteView input,
                                    ByteView challenge, ByteView wrapped_key);
  // Midstate variants for the streaming path: a ChunkPlan derives tag and h
  // for every chunk from one forked midstate, so per-chunk key wrap/unwrap
  // must not re-hash the chunk (mirrors the ctx protect/recover overloads).
  static WrappedKey generate_key(const ComputationContext& ctx,
                                 crypto::Drbg& drbg);
  static secret::Buffer recover_key(const ComputationContext& ctx,
                                    ByteView challenge, ByteView wrapped_key);
  // Result encryption is AEAD-bound to the computation tag (already derived
  // on the runtime's hot path — Algorithm 1/2 line 1 — so it is passed in
  // rather than re-derived from the full input).
  static Bytes encrypt_result(const Tag& tag, const secret::Buffer& key,
                              ByteView result, crypto::Drbg& drbg);
  static std::optional<secret::Buffer> decrypt_result(const Tag& tag,
                                                      const secret::Buffer& key,
                                                      ByteView result_ct);
  /// decrypt_result into a caller's buffer, which must hold exactly the
  /// plaintext (result_ct.size() == crypto::gcm_envelope_size(out.size()),
  /// else CryptoError): no allocation per result. False on authentication
  /// failure, with `out` zeroed.
  static bool decrypt_result_into(const Tag& tag, const secret::Buffer& key,
                                  ByteView result_ct,
                                  std::span<std::uint8_t> out);
};

/// §III-B basic design: every application shares `system_key`.
class BasicResultCipher {
 public:
  /// Absorbs `system_key` into the secret domain (the source is emptied).
  explicit BasicResultCipher(Bytes system_key);

  serialize::EntryPayload protect(const FunctionIdentity& fn, ByteView input,
                                  ByteView result, crypto::Drbg& drbg) const;
  std::optional<secret::Buffer> recover(
      const FunctionIdentity& fn, ByteView input,
      const serialize::EntryPayload& entry) const;

 private:
  secret::Buffer system_key_;
};

}  // namespace speed::mle
