// Computation tags and key material derivation (paper §III-B/C).
//
// A computation is the pair (function, input). Its *tag* t = Hash(func, m)
// identifies duplicates; its *secondary key* h = Hash(func, m, r) protects
// the per-result random key in the RCE wrap. "func" is represented by a
// FunctionIdentity: the developer-supplied descriptor plus the code
// measurement of the trusted library that provides the function — resolved
// by DedupRuntime against the enclave's TrustedLibraryRegistry, so that the
// tag binds actual code, not just a name (§IV-B).
//
// All hash inputs go through the canonical length-prefixed codec, making the
// (descriptor, measurement, input[, challenge]) -> digest mapping injective.
//
// Both digests share the prefix (func, m); ComputationContext absorbs that
// prefix into a SHA-256 midstate once, then forks the midstate per
// derivation (domain separation moves to a length-prefixed *suffix* label),
// so a large input m is hashed exactly once per call instead of once for t
// and again for h.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/bytes.h"
#include "common/secret.h"
#include "crypto/sha256.h"
#include "serialize/function_descriptor.h"
#include "serialize/wire.h"
#include "sgx/measurement.h"

namespace speed::mle {

using serialize::Tag;

/// Hash-domain of a computation context. Whole-call tags, per-chunk tags and
/// whole-stream tags live in disjoint domains: a chunk whose bytes happen to
/// equal some whole input must not collide with that input's call tag, or the
/// store would serve one's result for the other. The domain picks the raw
/// label absorbed first into the midstate (the labels diverge within their
/// first eight bytes, so the raw encoding stays injective).
enum class Domain : std::uint8_t {
  kCall,    ///< "speed-comp-v2"   — one tag per function call (the default)
  kChunk,   ///< "speed-chunk-v1"  — one tag per content-defined chunk
  kStream,  ///< "speed-stream-v1" — one tag per whole chunked stream
};

struct FunctionIdentity {
  serialize::FunctionDescriptor descriptor;
  sgx::Measurement code_measurement{};

  /// The "universally unique value for function identification" of §IV-B.
  Bytes unique_value() const {
    serialize::Encoder enc;
    enc.var_bytes(descriptor.canonical());
    enc.raw(ByteView(code_measurement.data(), code_measurement.size()));
    return enc.take();
  }

  friend bool operator==(const FunctionIdentity&,
                         const FunctionIdentity&) = default;
};

/// SHA-256 midstate over the common (func, m) prefix of both derivations.
/// The runtime builds one context per call and derives the tag plus any
/// number of secondary keys from it; each derivation copies the midstate
/// and absorbs only its own small suffix. The secondary key still requires
/// knowing (func, m) — the midstate never leaves the enclave, and the tag
/// alone (which the store learns) does not determine it.
class ComputationContext {
 public:
  ComputationContext(const FunctionIdentity& fn, ByteView input,
                     Domain domain = Domain::kCall);

  /// t <- Hash(func, m). Algorithm 1/2, line 1.
  Tag tag() const;

  /// h <- Hash(func, m, r). Algorithm 1 line 6 / Algorithm 2 line 4.
  /// h wraps the per-result key k, so it is born secret and only meets k
  /// inside the audited RCE XOR (mle/rce.cc).
  secret::Bytes<crypto::kSha256DigestSize> secondary_key(
      ByteView challenge) const;

 private:
  friend class ChunkTagger;
  friend class ContextBuilder;
  struct FromMidstate {};
  ComputationContext(FromMidstate, const crypto::Sha256& midstate)
      : midstate_(midstate) {}

  crypto::Sha256 midstate_;  ///< absorbed: label ‖ len(uv) ‖ uv ‖ len(m) ‖ m
};

/// Builds a ComputationContext over an input that arrives in parts, without
/// concatenating it: the streaming data path walks the chunked input once,
/// and ChunkTagger::context feeds each chunk both to its own per-chunk
/// context and to the whole-stream context accumulating here. The finished
/// context is byte-for-byte the one ComputationContext(fn, whole_input,
/// domain) would produce, so stream tags are independent of how the walk
/// was split.
class ContextBuilder {
 public:
  ContextBuilder(const FunctionIdentity& fn, std::uint64_t total_bytes,
                 Domain domain);

  /// Consumes the builder. Throws if the absorbed bytes don't sum to the
  /// declared total (the length prefix was already committed to the hash).
  ComputationContext finish() &&;

 private:
  friend class ChunkTagger;
  /// Counts `n` more bytes against the declared total (throws past it) and
  /// returns the midstate they must be absorbed into.
  crypto::Sha256& claim(std::size_t n);

  crypto::Sha256 midstate_;
  std::uint64_t remaining_;
};

/// Derives many same-function contexts cheaply: the (domain-label, func)
/// prefix is absorbed once at construction, then each chunk forks that
/// midstate and absorbs only its own bytes. For a plan of N chunks this
/// saves N-1 hashes of the function identity — and keeps every chunk tag in
/// the chunk domain, disjoint from whole-call tags by construction.
class ChunkTagger {
 public:
  explicit ChunkTagger(const FunctionIdentity& fn,
                       Domain domain = Domain::kChunk);

  /// Context for one chunk of a stream: fork the (label, func) midstate,
  /// absorb the chunk, and absorb the same bytes into `stream` in the same
  /// pass (crypto::Sha256::update_pair). The result equals
  /// ComputationContext(fn, chunk, domain) without re-hashing the function
  /// identity, and `stream` has absorbed `chunk` as its next part.
  ComputationContext context(ByteView chunk, ContextBuilder& stream) const;

 private:
  crypto::Sha256 prefix_;  ///< absorbed: label ‖ len(uv) ‖ uv
};

/// t <- Hash(func, m). Algorithm 1/2, line 1.
Tag derive_tag(const FunctionIdentity& fn, ByteView input);

/// h <- Hash(func, m, r). Algorithm 1 line 6 / Algorithm 2 line 4.
secret::Bytes<crypto::kSha256DigestSize> derive_secondary_key(
    const FunctionIdentity& fn, ByteView input, ByteView challenge);

}  // namespace speed::mle
