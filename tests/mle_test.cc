// Tests for the computation-MLE core: tag derivation and the RCE result
// cipher, including the Fig. 3 verification semantics ("wrong code or wrong
// input => cannot decrypt") and the basic single-key ablation scheme.
#include <gtest/gtest.h>

#include "crypto/drbg.h"
#include "mle/rce.h"
#include "mle/tag.h"

namespace speed::mle {
namespace {

FunctionIdentity make_fn(std::string_view family = "zlib",
                         std::string_view version = "1.2.11",
                         std::string_view sig = "bytes deflate(bytes)",
                         std::string_view code = "deflate-code-bytes") {
  FunctionIdentity fn;
  fn.descriptor = {std::string(family), std::string(version), std::string(sig)};
  fn.code_measurement = sgx::measure_library(family, version, as_bytes(code));
  return fn;
}

TEST(TagTest, DeterministicAcrossCalls) {
  const FunctionIdentity fn = make_fn();
  const Bytes input = to_bytes("input data");
  EXPECT_EQ(derive_tag(fn, input), derive_tag(fn, input));
}

TEST(TagTest, DiffersByInput) {
  const FunctionIdentity fn = make_fn();
  EXPECT_NE(derive_tag(fn, as_bytes("input-a")),
            derive_tag(fn, as_bytes("input-b")));
}

TEST(TagTest, DiffersByFunctionCode) {
  const Bytes input = to_bytes("same input");
  EXPECT_NE(derive_tag(make_fn("zlib", "1.2.11", "f", "code-v1"), input),
            derive_tag(make_fn("zlib", "1.2.11", "f", "code-v2"), input))
      << "same name, different code must not deduplicate";
}

TEST(TagTest, DiffersBySignature) {
  const Bytes input = to_bytes("same input");
  EXPECT_NE(derive_tag(make_fn("zlib", "1.2.11", "deflate"), input),
            derive_tag(make_fn("zlib", "1.2.11", "inflate"), input));
}

TEST(TagTest, FieldBoundariesAreUnambiguous) {
  // (func="ab", input="c") vs (func="a", input="bc") style splits.
  FunctionIdentity f1 = make_fn("lib", "1", "sig");
  const Tag t = derive_tag(f1, as_bytes("ab"));
  EXPECT_FALSE(ct_equal(derive_secondary_key(f1, as_bytes("a"), as_bytes("b")),
                        ByteView(t.data(), t.size())))
      << "tags and secondary keys are domain-separated";
}

TEST(TagTest, MidstateMatchesNaiveDoubleHash) {
  // ComputationContext absorbs (func, m) once and forks the SHA-256 midstate
  // for t and h. The result must be identical to hashing everything from
  // scratch per derivation — with the same length-prefixed encoding.
  const FunctionIdentity fn = make_fn();
  crypto::Drbg drbg(to_bytes("midstate"));
  for (const std::size_t size : {std::size_t{0}, std::size_t{1},
                                 std::size_t{55}, std::size_t{64},
                                 std::size_t{1000}, std::size_t{1 << 16}}) {
    const Bytes input = drbg.bytes(size);
    const Bytes challenge = drbg.bytes(kChallengeSize);

    const auto absorb = [](crypto::Sha256& h, ByteView part) {
      std::uint8_t len[4];
      const auto n = static_cast<std::uint32_t>(part.size());
      for (int i = 0; i < 4; ++i) {
        len[i] = static_cast<std::uint8_t>(n >> (8 * i));
      }
      h.update(ByteView(len, 4));
      h.update(part);
    };
    crypto::Sha256 naive_tag;
    naive_tag.update(as_bytes("speed-comp-v2"));
    absorb(naive_tag, fn.unique_value());
    absorb(naive_tag, input);
    absorb(naive_tag, as_bytes("tag"));
    crypto::Sha256 naive_skey;
    naive_skey.update(as_bytes("speed-comp-v2"));
    absorb(naive_skey, fn.unique_value());
    absorb(naive_skey, input);
    absorb(naive_skey, as_bytes("skey"));
    absorb(naive_skey, challenge);

    const ComputationContext ctx(fn, input);
    EXPECT_EQ(ctx.tag(), naive_tag.finish()) << "input size " << size;
    const auto naive_h = naive_skey.finish();
    EXPECT_TRUE(ct_equal(ctx.secondary_key(challenge),
                         ByteView(naive_h.data(), naive_h.size())))
        << "input size " << size;
    // Forking must not consume the midstate: derive repeatedly.
    EXPECT_EQ(ctx.tag(), derive_tag(fn, input));
    EXPECT_TRUE(ct_equal(ctx.secondary_key(challenge),
                         derive_secondary_key(fn, input, challenge)));
  }
}

TEST(RceTest, ContextPathMatchesFreeFunctions) {
  // The ctx-based protect/recover (one pass over m) interoperates with the
  // derive-internally overloads both ways.
  crypto::Drbg drbg(to_bytes("ctx"));
  const FunctionIdentity fn = make_fn();
  const Bytes input = to_bytes("shared input");
  const Bytes result = to_bytes("shared result");
  const ComputationContext ctx(fn, input);

  const auto from_ctx = ResultCipher::protect(ctx, result, drbg);
  const auto via_free = ResultCipher::recover(fn, input, from_ctx);
  ASSERT_TRUE(via_free.has_value());
  EXPECT_TRUE(ct_equal(*via_free, ByteView(result)));

  const auto from_free = ResultCipher::protect(fn, input, result, drbg);
  const auto via_ctx = ResultCipher::recover(ctx, from_free);
  ASSERT_TRUE(via_ctx.has_value());
  EXPECT_TRUE(ct_equal(*via_ctx, ByteView(result)));
}

TEST(TagTest, SecondaryKeyDependsOnChallenge) {
  const FunctionIdentity fn = make_fn();
  const Bytes input = to_bytes("m");
  EXPECT_FALSE(ct_equal(derive_secondary_key(fn, input, as_bytes("r1")),
                        derive_secondary_key(fn, input, as_bytes("r2"))));
  EXPECT_TRUE(ct_equal(derive_secondary_key(fn, input, as_bytes("r1")),
                       derive_secondary_key(fn, input, as_bytes("r1"))));
}

// ------------------------------------------------------------- ResultCipher

TEST(RceTest, ProtectRecoverRoundTrip) {
  crypto::Drbg drbg(to_bytes("rce-test"));
  const FunctionIdentity fn = make_fn();
  const Bytes input = to_bytes("the input");
  const Bytes result = to_bytes("the computed result");
  const auto entry = ResultCipher::protect(fn, input, result, drbg);
  const auto recovered = ResultCipher::recover(fn, input, entry);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_TRUE(ct_equal(*recovered, ByteView(result)));
}

TEST(RceTest, CrossApplicationRecovery) {
  // Two independent "applications" (different DRBGs) with the same code and
  // input: whoever stores first, the other recovers. No shared key involved.
  crypto::Drbg drbg_a(to_bytes("app-a"));
  const FunctionIdentity fn = make_fn();
  const Bytes input = to_bytes("shared input");
  const Bytes result = to_bytes("shared result");
  const auto entry = ResultCipher::protect(fn, input, result, drbg_a);

  // App B recreates the identity from its own descriptor + library code.
  const FunctionIdentity fn_b = make_fn();
  const auto recovered = ResultCipher::recover(fn_b, input, entry);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_TRUE(ct_equal(*recovered, ByteView(result)));
}

TEST(RceTest, WrongInputCannotDecrypt) {
  crypto::Drbg drbg(to_bytes("seed"));
  const FunctionIdentity fn = make_fn();
  const auto entry =
      ResultCipher::protect(fn, as_bytes("input-1"), as_bytes("res"), drbg);
  EXPECT_FALSE(ResultCipher::recover(fn, as_bytes("input-2"), entry).has_value())
      << "Fig. 3: without m, decryption must return bot";
}

TEST(RceTest, WrongCodeCannotDecrypt) {
  crypto::Drbg drbg(to_bytes("seed"));
  const Bytes input = to_bytes("same input");
  const auto entry = ResultCipher::protect(make_fn("zlib", "1.2.11", "f", "v1"),
                                           input, as_bytes("res"), drbg);
  EXPECT_FALSE(ResultCipher::recover(make_fn("zlib", "1.2.11", "f", "v2"),
                                     input, entry)
                   .has_value())
      << "Fig. 3: without func's code, decryption must return bot";
}

TEST(RceTest, TamperedPayloadRejected) {
  crypto::Drbg drbg(to_bytes("seed"));
  const FunctionIdentity fn = make_fn();
  const Bytes input = to_bytes("in");
  const auto entry = ResultCipher::protect(fn, input, as_bytes("result"), drbg);

  auto tampered_ct = entry;
  tampered_ct.result_ct[tampered_ct.result_ct.size() / 2] ^= 1;
  EXPECT_FALSE(ResultCipher::recover(fn, input, tampered_ct).has_value());

  auto tampered_r = entry;
  tampered_r.challenge[0] ^= 1;
  EXPECT_FALSE(ResultCipher::recover(fn, input, tampered_r).has_value());

  auto tampered_k = entry;
  tampered_k.wrapped_key[0] ^= 1;
  EXPECT_FALSE(ResultCipher::recover(fn, input, tampered_k).has_value());

  auto bad_key_len = entry;
  bad_key_len.wrapped_key.pop_back();
  EXPECT_FALSE(ResultCipher::recover(fn, input, bad_key_len).has_value());
}

TEST(RceTest, PayloadIsRandomizedPerStore) {
  // RCE is randomized: protecting the same computation twice yields
  // different ciphertexts and challenges (only the *tag* coincides).
  crypto::Drbg drbg(to_bytes("seed"));
  const FunctionIdentity fn = make_fn();
  const Bytes input = to_bytes("in"), result = to_bytes("res");
  const auto e1 = ResultCipher::protect(fn, input, result, drbg);
  const auto e2 = ResultCipher::protect(fn, input, result, drbg);
  EXPECT_NE(e1.challenge, e2.challenge);
  EXPECT_NE(e1.wrapped_key, e2.wrapped_key);
  EXPECT_NE(e1.result_ct, e2.result_ct);
  EXPECT_EQ(derive_tag(fn, input), derive_tag(fn, input));
}

TEST(RceTest, CheckedWrapOpensOnlyUnderItsOwnContent) {
  // The checked wrap of chunk and manifest entries: [k] is 32 bytes, and it
  // unwraps — to the very k that protected the entry — only under the
  // context that wrapped it.
  crypto::Drbg drbg(to_bytes("checked"));
  const FunctionIdentity fn = make_fn();
  const ComputationContext ctx(fn, to_bytes("chunk bytes"), Domain::kChunk);
  const ComputationContext other(fn, to_bytes("other bytes"), Domain::kChunk);
  const auto wk = ResultCipher::generate_checked_key(ctx, drbg);
  ASSERT_EQ(wk.wrapped_key.size(), kCheckedWrapSize);
  const ByteView r = wk.challenge.reveal_for(secret::Purpose::of("test"));

  const auto k = ResultCipher::recover_checked_key(ctx, r, wk.wrapped_key);
  ASSERT_TRUE(k.has_value());
  EXPECT_TRUE(ct_equal(*k, wk.key));
  EXPECT_FALSE(
      ResultCipher::recover_checked_key(other, r, wk.wrapped_key).has_value());

  // A flipped bit anywhere in [k] or r fails the check instead of yielding
  // a wrong key, and so does a per-call 16-byte wrap.
  for (const std::size_t at : {0u, 15u, 16u, 31u}) {
    Bytes tampered = wk.wrapped_key;
    tampered[at] ^= 0x01;
    EXPECT_EQ(ResultCipher::recover_checked_key(ctx, r, tampered).has_value(),
              at < kResultKeySize)
        << "byte " << at;  // only the check half is checked
  }
  Bytes other_r(r.begin(), r.end());
  other_r[0] ^= 0x01;
  EXPECT_FALSE(
      ResultCipher::recover_checked_key(ctx, other_r, wk.wrapped_key)
          .has_value());
  const auto plain = ResultCipher::generate_key(ctx, drbg);
  EXPECT_FALSE(ResultCipher::recover_checked_key(
                   ctx, plain.challenge.reveal_for(secret::Purpose::of("test")),
                   plain.wrapped_key)
                   .has_value());
}

TEST(TagTest, UnwrapMaterialRebuildsTheContext) {
  // A context rebuilt from its unwrap material derives the same tag and
  // the same secondary keys; bytes that are no midstate are refused.
  const FunctionIdentity fn = make_fn();
  for (std::size_t n : {0u, 1u, 63u, 64u, 4097u}) {
    const ComputationContext ctx(fn, Bytes(n, 0x3c), Domain::kChunk);
    const secret::Buffer material = ctx.unwrap_material();
    EXPECT_TRUE(valid_unwrap_material(
        material.reveal_for(secret::Purpose::of("test"))));
    const auto back = ComputationContext::from_unwrap_material(material);
    ASSERT_TRUE(back.has_value()) << "len " << n;
    EXPECT_EQ(back->tag(), ctx.tag());
    EXPECT_TRUE(ct_equal(back->secondary_key(as_bytes("r")),
                         ctx.secondary_key(as_bytes("r"))));
  }
  EXPECT_FALSE(ComputationContext::from_unwrap_material(
                   secret::Buffer::copy_of(Bytes(kResultKeySize, 0)))
                   .has_value());
}

TEST(RceTest, SplitPhaseMatchesOneShot) {
  crypto::Drbg drbg(to_bytes("split"));
  const FunctionIdentity fn = make_fn();
  const Bytes input = to_bytes("input");
  const Bytes result = to_bytes("result");

  const auto wk = ResultCipher::generate_key(fn, input, drbg);
  EXPECT_EQ(wk.key.size(), kResultKeySize);
  EXPECT_EQ(wk.challenge.size(), kChallengeSize);

  // The split-phase helpers speak secret types end to end; the test reveals
  // the challenge like the runtime's payload boundary would.
  const secret::Buffer recovered_key = ResultCipher::recover_key(
      fn, input,
      wk.challenge.reveal_for(secret::Purpose::of("test_vector_check")),
      wk.wrapped_key);
  EXPECT_TRUE(ct_equal(recovered_key, wk.key)) << "k = [k] XOR h round-trips";

  const Tag tag = derive_tag(fn, input);
  const Bytes ct = ResultCipher::encrypt_result(tag, wk.key, result, drbg);
  const auto pt = ResultCipher::decrypt_result(tag, recovered_key, ct);
  ASSERT_TRUE(pt.has_value());
  EXPECT_TRUE(ct_equal(*pt, ByteView(result)));

  // The tag-aware one-shot paths agree with the derive-internally ones.
  const auto entry = ResultCipher::protect(tag, fn, input, result, drbg);
  const auto rec = ResultCipher::recover(tag, fn, input, entry);
  ASSERT_TRUE(rec.has_value());
  EXPECT_TRUE(ct_equal(*rec, ByteView(result)));
  const auto rec2 = ResultCipher::recover(fn, input, entry);
  ASSERT_TRUE(rec2.has_value());
  EXPECT_TRUE(ct_equal(*rec2, *rec));
}

TEST(RceTest, EntryBoundToTagNotTransplantable) {
  // A malicious store cannot serve computation B's payload for computation
  // A's tag: the AEAD is bound to the tag, and the secondary key differs.
  crypto::Drbg drbg(to_bytes("seed"));
  const FunctionIdentity fn = make_fn();
  const auto entry_b =
      ResultCipher::protect(fn, as_bytes("input-b"), as_bytes("res-b"), drbg);
  EXPECT_FALSE(ResultCipher::recover(fn, as_bytes("input-a"), entry_b).has_value());
}

// Property sweep: round trip across result sizes including empty and
// block-boundary cases.
class RceSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RceSizeSweep, RoundTripsAtSize) {
  crypto::Drbg drbg(to_bytes("sweep"));
  const FunctionIdentity fn = make_fn();
  const Bytes input = drbg.bytes(64);
  const Bytes result = drbg.bytes(GetParam());
  const auto entry = ResultCipher::protect(fn, input, result, drbg);
  const auto recovered = ResultCipher::recover(fn, input, entry);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_TRUE(ct_equal(*recovered, ByteView(result)));
}

INSTANTIATE_TEST_SUITE_P(Sizes, RceSizeSweep,
                         ::testing::Values(0, 1, 15, 16, 17, 255, 4096, 65537));

// -------------------------------------------------------- BasicResultCipher

TEST(BasicSchemeTest, RoundTripWithSharedKey) {
  crypto::Drbg drbg(to_bytes("basic"));
  const BasicResultCipher cipher(drbg.bytes(16));
  const FunctionIdentity fn = make_fn();
  const Bytes input = to_bytes("in"), result = to_bytes("res");
  const auto entry = cipher.protect(fn, input, result, drbg);
  EXPECT_TRUE(entry.challenge.empty());
  const auto recovered = cipher.recover(fn, input, entry);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_TRUE(ct_equal(*recovered, ByteView(result)));
}

TEST(BasicSchemeTest, SinglePointOfCompromise) {
  // The §III-B discussion: any holder of the system key decrypts everything,
  // even without owning the computation. This is exactly what the RCE
  // scheme prevents.
  crypto::Drbg drbg(to_bytes("compromise"));
  const Bytes system_key = drbg.bytes(16);
  const BasicResultCipher victim(system_key);
  const FunctionIdentity fn = make_fn();
  const auto entry = victim.protect(fn, as_bytes("in"), as_bytes("res"), drbg);

  const BasicResultCipher attacker(system_key);  // stolen key, no computation
  EXPECT_TRUE(attacker.recover(fn, as_bytes("in"), entry).has_value());
}

TEST(BasicSchemeTest, DifferentSystemKeyFails) {
  crypto::Drbg drbg(to_bytes("basic2"));
  const BasicResultCipher a(drbg.bytes(16));
  const BasicResultCipher b(drbg.bytes(16));
  const FunctionIdentity fn = make_fn();
  const auto entry = a.protect(fn, as_bytes("in"), as_bytes("res"), drbg);
  EXPECT_FALSE(b.recover(fn, as_bytes("in"), entry).has_value());
}

TEST(BasicSchemeTest, RejectsRcePayloads) {
  crypto::Drbg drbg(to_bytes("basic3"));
  const BasicResultCipher cipher(drbg.bytes(16));
  const FunctionIdentity fn = make_fn();
  const auto rce_entry =
      ResultCipher::protect(fn, as_bytes("in"), as_bytes("res"), drbg);
  EXPECT_FALSE(cipher.recover(fn, as_bytes("in"), rce_entry).has_value());
}

}  // namespace
}  // namespace speed::mle
