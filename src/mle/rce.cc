#include "mle/rce.h"

#include <array>

#include "common/error.h"
#include "crypto/gcm.h"

namespace speed::mle {

namespace {

using SecondaryKey = secret::Bytes<crypto::kSha256DigestSize>;

/// The result ciphertext is AEAD-bound to the computation tag, so a
/// malicious store cannot transplant a payload from one tag onto another
/// without tripping authentication (cache-poisoning defence, §III-D).
ByteView tag_aad(const Tag& tag) { return ByteView(tag.data(), tag.size()); }

/// [k] = k XOR h[0..16): the wrap mask is the first |k| bytes of the
/// 32-byte secondary key h. Both operands are secret; the XOR itself is the
/// deliberate protocol step that makes [k] publishable, hence the audited
/// reveals.
Bytes wrap_key(const secret::Buffer& key, const SecondaryKey& h) {
  const ByteView k = key.reveal_for(secret::Purpose::of("rce_key_wrap"));
  const ByteView mask = h.reveal_for(secret::Purpose::of("rce_key_wrap"));
  return xor_bytes(k, mask.first(k.size()));
}

/// k = [k] XOR h[0..16): the unwrap direction lands back in the secret
/// domain without an intermediate plain copy surviving (absorb moves the
/// vector).
secret::Buffer unwrap_key(ByteView wrapped_key, const SecondaryKey& h) {
  const ByteView mask = h.reveal_for(secret::Purpose::of("rce_key_wrap"));
  return secret::Buffer::absorb(
      xor_bytes(wrapped_key, mask.first(wrapped_key.size())));
}

/// [k] = (k ‖ 0¹²⁸) XOR h: the checked wrap masks k with h[0..16) exactly as
/// wrap_key does and publishes h[16..32) as the check half.
Bytes wrap_key_checked(const secret::Buffer& key, const SecondaryKey& h) {
  Bytes padded(kCheckedWrapSize, 0);
  const ByteView k = key.reveal_for(secret::Purpose::of("rce_key_wrap"));
  std::copy(k.begin(), k.end(), padded.begin());
  Bytes out =
      xor_bytes(padded, h.reveal_for(secret::Purpose::of("rce_key_wrap")));
  secure_zero(padded.data(), padded.size());
  return out;
}

/// r feeds h = Hash(func, m, r); r itself is published alongside the payload
/// (§III-C), so exposing it to the hash is a deliberate protocol step.
ByteView challenge_view(const secret::Buffer& challenge) {
  return challenge.reveal_for(secret::Purpose::of("rce_skey_input"));
}

}  // namespace

ResultCipher::WrappedKey ResultCipher::generate_key(const FunctionIdentity& fn,
                                                    ByteView input,
                                                    crypto::Drbg& drbg) {
  WrappedKey out;
  out.key = drbg.secret_bytes(kResultKeySize);        // k <- KeyGen(1^λ)
  out.challenge = drbg.secret_bytes(kChallengeSize);  // r <-R- {0,1}*
  const auto h = derive_secondary_key(fn, input, challenge_view(out.challenge));
  out.wrapped_key = wrap_key(out.key, h);             // [k] = k ⊕ h
  return out;
}

secret::Buffer ResultCipher::recover_key(const FunctionIdentity& fn,
                                         ByteView input, ByteView challenge,
                                         ByteView wrapped_key) {
  if (wrapped_key.size() != kResultKeySize) {
    throw CryptoError("recover_key: wrapped key must be 16 bytes");
  }
  const auto h = derive_secondary_key(fn, input, challenge);
  return unwrap_key(wrapped_key, h);                  // k = [k] ⊕ h
}

ResultCipher::WrappedKey ResultCipher::generate_key(
    const ComputationContext& ctx, crypto::Drbg& drbg) {
  WrappedKey out;
  out.key = drbg.secret_bytes(kResultKeySize);        // k <- KeyGen(1^λ)
  out.challenge = drbg.secret_bytes(kChallengeSize);  // r <-R- {0,1}*
  const auto h = ctx.secondary_key(challenge_view(out.challenge));
  out.wrapped_key = wrap_key(out.key, h);             // [k] = k ⊕ h
  return out;
}

secret::Buffer ResultCipher::recover_key(const ComputationContext& ctx,
                                         ByteView challenge,
                                         ByteView wrapped_key) {
  if (wrapped_key.size() != kResultKeySize) {
    throw CryptoError("recover_key: wrapped key must be 16 bytes");
  }
  const auto h = ctx.secondary_key(challenge);
  return unwrap_key(wrapped_key, h);                  // k = [k] ⊕ h
}

ResultCipher::WrappedKey ResultCipher::generate_checked_key(
    const ComputationContext& ctx, crypto::Drbg& drbg) {
  WrappedKey out;
  out.key = drbg.secret_bytes(kResultKeySize);        // k <- KeyGen(1^λ)
  out.challenge = drbg.secret_bytes(kChallengeSize);  // r <-R- {0,1}*
  const auto h = ctx.secondary_key(challenge_view(out.challenge));
  out.wrapped_key = wrap_key_checked(out.key, h);     // [k] = (k ‖ 0) ⊕ h
  return out;
}

std::optional<secret::Buffer> ResultCipher::recover_checked_key(
    const ComputationContext& ctx, ByteView challenge, ByteView wrapped_key) {
  if (wrapped_key.size() != kCheckedWrapSize) return std::nullopt;
  const auto h = ctx.secondary_key(challenge);
  secret::Buffer unwrapped = unwrap_key(wrapped_key, h);  // k ‖ check
  const std::array<std::uint8_t, kCheckedWrapSize - kResultKeySize> zero{};
  const ByteView check =
      unwrapped.reveal_for(secret::Purpose::of("rce_key_wrap"))
          .subspan(kResultKeySize);
  if (!ct_equal(check, ByteView(zero))) return std::nullopt;
  return secret::Buffer::copy_of(
      unwrapped.reveal_for(secret::Purpose::of("rce_key_wrap"))
          .first(kResultKeySize));
}

Bytes ResultCipher::encrypt_result(const Tag& tag, const secret::Buffer& key,
                                   ByteView result, crypto::Drbg& drbg) {
  return crypto::gcm_encrypt(key, tag_aad(tag), result, drbg);
}

std::optional<secret::Buffer> ResultCipher::decrypt_result(
    const Tag& tag, const secret::Buffer& key, ByteView result_ct) {
  auto pt = crypto::gcm_decrypt(key, tag_aad(tag), result_ct);
  if (!pt) return std::nullopt;
  return secret::Buffer::absorb(std::move(*pt));
}

bool ResultCipher::decrypt_result_into(const Tag& tag,
                                       const secret::Buffer& key,
                                       ByteView result_ct,
                                       std::span<std::uint8_t> out) {
  return crypto::gcm_decrypt_into(key, tag_aad(tag), result_ct, out);
}

serialize::EntryPayload ResultCipher::protect(const FunctionIdentity& fn,
                                              ByteView input, ByteView result,
                                              crypto::Drbg& drbg) {
  return protect(derive_tag(fn, input), fn, input, result, drbg);
}

serialize::EntryPayload ResultCipher::protect(const Tag& tag,
                                              const FunctionIdentity& fn,
                                              ByteView input, ByteView result,
                                              crypto::Drbg& drbg) {
  WrappedKey wk = generate_key(fn, input, drbg);
  serialize::EntryPayload entry;
  entry.wrapped_key = std::move(wk.wrapped_key);
  entry.result_ct = encrypt_result(tag, wk.key, result, drbg);
  entry.challenge = std::move(wk.challenge)
                        .release_for(secret::Purpose::of("rce_challenge_publish"));
  return entry;  // wk.key wipes itself on scope exit
}

serialize::EntryPayload ResultCipher::protect(const ComputationContext& ctx,
                                              ByteView result,
                                              crypto::Drbg& drbg) {
  secret::Buffer key = drbg.secret_bytes(kResultKeySize);        // k
  secret::Buffer challenge = drbg.secret_bytes(kChallengeSize);  // r
  const auto h = ctx.secondary_key(challenge_view(challenge));
  serialize::EntryPayload entry;
  entry.wrapped_key = wrap_key(key, h);           // [k] = k ⊕ h
  entry.result_ct = encrypt_result(ctx.tag(), key, result, drbg);
  entry.challenge = std::move(challenge).release_for(
      secret::Purpose::of("rce_challenge_publish"));
  return entry;  // key wipes itself on scope exit
}

std::optional<secret::Buffer> ResultCipher::recover(
    const ComputationContext& ctx, const serialize::EntryPayload& entry) {
  if (entry.wrapped_key.size() != kResultKeySize) return std::nullopt;
  const auto h = ctx.secondary_key(entry.challenge);
  const secret::Buffer key = unwrap_key(entry.wrapped_key, h);  // k = [k] ⊕ h
  return decrypt_result(ctx.tag(), key, entry.result_ct);
}

std::optional<secret::Buffer> ResultCipher::recover(
    const FunctionIdentity& fn, ByteView input,
    const serialize::EntryPayload& entry) {
  return recover(derive_tag(fn, input), fn, input, entry);
}

std::optional<secret::Buffer> ResultCipher::recover(
    const Tag& tag, const FunctionIdentity& fn, ByteView input,
    const serialize::EntryPayload& entry) {
  if (entry.wrapped_key.size() != kResultKeySize) return std::nullopt;
  const secret::Buffer key =
      recover_key(fn, input, entry.challenge, entry.wrapped_key);
  return decrypt_result(tag, key, entry.result_ct);
}

BasicResultCipher::BasicResultCipher(Bytes system_key)
    : system_key_(secret::Buffer::absorb(std::move(system_key))) {
  if (system_key_.size() != kResultKeySize &&
      system_key_.size() != crypto::kAes256KeySize) {
    throw CryptoError("BasicResultCipher: key must be 16 or 32 bytes");
  }
}

serialize::EntryPayload BasicResultCipher::protect(const FunctionIdentity& fn,
                                                   ByteView input,
                                                   ByteView result,
                                                   crypto::Drbg& drbg) const {
  serialize::EntryPayload entry;
  // No challenge / wrapped key in the basic design: the key is implicit.
  entry.result_ct = crypto::gcm_encrypt(
      system_key_, tag_aad(derive_tag(fn, input)), result, drbg);
  return entry;
}

std::optional<secret::Buffer> BasicResultCipher::recover(
    const FunctionIdentity& fn, ByteView input,
    const serialize::EntryPayload& entry) const {
  if (!entry.challenge.empty() || !entry.wrapped_key.empty()) {
    return std::nullopt;  // not a basic-scheme payload
  }
  auto pt = crypto::gcm_decrypt(system_key_, tag_aad(derive_tag(fn, input)),
                                entry.result_ct);
  if (!pt) return std::nullopt;
  return secret::Buffer::absorb(std::move(*pt));
}

}  // namespace speed::mle
