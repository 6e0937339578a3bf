// Stream manifest — the sealed entry tying a chunk list to its stream tag.
//
// A chunked put stores each chunk as its own RCE-protected entry, then
// stores one manifest entry under the whole-stream tag. The manifest
// plaintext lists, per chunk, either
//
//   * a *ref*: (chunk tag, size, unwrap material) — the chunk's entry lives
//     under its own tag, and the material (the chunk context's SHA-256
//     midstate, mle::ComputationContext::unwrap_material) turns any
//     writer's header (r, [k]) for that tag into its k, through the checked
//     wrap of mle/rce.h. So get() opens whichever writer's entry a replica
//     serves; or
//   * an *inline* copy of the chunk bytes — the fallback when a chunk's PUT
//     was rejected or its stored entry fails the check (a store keeps the
//     first write for a tag, so a foreign entry cannot be replaced; inlining
//     keeps get() correct without it).
//
// Version 1 manifests pinned one writer's k_i per ref instead; they still
// decode (their 16-byte keys come back as pinned keys) and still read.
//
// The unwrap material opens every chunk, so the manifest is itself
// protected with RCE under the *stream-domain* context over the raw input
// before leaving the enclave: recovering it requires either performing the
// same computation on the same whole input (put-side dedup) or holding the
// stream handle's unwrap material (get-side). Binding it to the raw input —
// not to the chunk-tag list — matters: the store observes chunk tags and
// function identities are public, so a tag-list-derived key would let a
// malicious store unwrap the manifest and with it every chunk key.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/secret.h"
#include "serialize/wire.h"

namespace speed::chunk {

struct ManifestEntry {
  bool inlined = false;

  // Ref kind: the chunk entry lives in the store under `tag`.
  serialize::Tag tag{};
  std::uint32_t size = 0;  ///< plaintext chunk size
  /// The chunk context's unwrap material; from a version 1 manifest, the
  /// pinned k_i instead (mle::kResultKeySize bytes, which no unwrap
  /// material is).
  secret::Buffer key;

  // Inline kind: the chunk rides inside the manifest itself.
  Bytes inline_bytes;
};

struct Manifest {
  std::uint64_t total_bytes = 0;
  std::vector<ManifestEntry> entries;
};

/// Serialize the manifest plaintext, version 2 (unwrap material is revealed
/// into it — the audited "stream_manifest_build" escape; the caller must
/// RCE-protect the returned bytes before they leave the enclave).
Bytes encode_manifest(const Manifest& manifest);

/// Parse a recovered manifest plaintext, version 2 or 1; keys land back in
/// the secret domain. Throws SerializationError on malformed input,
/// including a version 2 ref whose unwrap material has an impossible length
/// or a version 1 ref whose key is not mle::kResultKeySize bytes.
Manifest decode_manifest(ByteView plaintext);

}  // namespace speed::chunk
