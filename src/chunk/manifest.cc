#include "chunk/manifest.h"

#include "common/error.h"
#include "mle/rce.h"
#include "serialize/codec.h"

namespace speed::chunk {

namespace {

/// Version 2 refs carry unwrap material; version 1 refs pinned k_i.
constexpr std::uint8_t kManifestVersion = 2;
constexpr std::uint8_t kManifestVersionPinned = 1;
constexpr std::uint8_t kKindRef = 0;
constexpr std::uint8_t kKindInline = 1;

/// Floor on the wire size of one entry (kind byte + the smaller variant's
/// fixed fields); bounds the count-prefix check against allocation bombs.
constexpr std::size_t kMinEntryWire = 1 + 4;

}  // namespace

Bytes encode_manifest(const Manifest& manifest) {
  serialize::Encoder enc;
  enc.u8(kManifestVersion);
  enc.u64(manifest.total_bytes);
  enc.u32(static_cast<std::uint32_t>(manifest.entries.size()));
  for (const ManifestEntry& e : manifest.entries) {
    if (e.inlined) {
      enc.u8(kKindInline);
      enc.var_bytes(e.inline_bytes);
    } else {
      enc.u8(kKindRef);
      enc.raw(ByteView(e.tag.data(), e.tag.size()));
      enc.u32(e.size);
      enc.var_bytes(
          e.key.reveal_for(secret::Purpose::of("stream_manifest_build")));
    }
  }
  return enc.take();
}

Manifest decode_manifest(ByteView plaintext) {
  serialize::Decoder dec(plaintext);
  const std::uint8_t version = dec.u8();
  if (version != kManifestVersion && version != kManifestVersionPinned) {
    throw SerializationError("manifest: unknown version");
  }
  Manifest m;
  m.total_bytes = dec.u64();
  const std::uint32_t n = dec.u32();
  if (n > dec.remaining() / kMinEntryWire) {
    throw SerializationError("manifest: entry count exceeds frame");
  }
  m.entries.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ManifestEntry e;
    const std::uint8_t kind = dec.u8();
    if (kind == kKindRef) {
      const ByteView t = dec.raw(e.tag.size());
      std::copy(t.begin(), t.end(), e.tag.begin());
      e.size = dec.u32();
      Bytes key = dec.var_bytes();
      if (version == kManifestVersion ? !mle::valid_unwrap_material(key)
                                      : key.size() != mle::kResultKeySize) {
        throw SerializationError("manifest: malformed chunk key");
      }
      e.key = secret::Buffer::absorb(std::move(key));
    } else if (kind == kKindInline) {
      e.inlined = true;
      e.inline_bytes = dec.var_bytes();
    } else {
      throw SerializationError("manifest: unknown entry kind");
    }
    m.entries.push_back(std::move(e));
  }
  dec.expect_done();
  return m;
}

}  // namespace speed::chunk
