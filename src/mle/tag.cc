#include "mle/tag.h"

#include <limits>

#include "common/error.h"

namespace speed::mle {

namespace {

void absorb_len(crypto::Sha256& h, std::uint32_t n) {
  std::uint8_t len[4];
  for (int i = 0; i < 4; ++i) len[i] = static_cast<std::uint8_t>(n >> (8 * i));
  h.update(ByteView(len, 4));
}

/// Absorb one length-prefixed part, keeping the multi-part encoding
/// injective regardless of how the parts are split.
void absorb_part(crypto::Sha256& h, ByteView part) {
  absorb_len(h, static_cast<std::uint32_t>(part.size()));
  h.update(part);
}

/// Raw (unprefixed) leading label; the three labels diverge at their eighth
/// byte ("speed-co" / "speed-ch" / "speed-st"), so no label is a prefix of
/// another and the overall encoding stays injective across domains.
ByteView domain_label(Domain domain) {
  switch (domain) {
    case Domain::kCall:
      return as_bytes("speed-comp-v2");
    case Domain::kChunk:
      return as_bytes("speed-chunk-v1");
    case Domain::kStream:
      return as_bytes("speed-stream-v1");
  }
  throw CryptoError("unknown tag domain");
}

}  // namespace

ComputationContext::ComputationContext(const FunctionIdentity& fn,
                                       ByteView input, Domain domain) {
  // Shared prefix of both derivations. Domain separation between the tag and
  // the secondary key happens in the (length-prefixed) suffix labels below,
  // so the expensive part — hashing a potentially huge m — runs once.
  midstate_.update(domain_label(domain));
  absorb_part(midstate_, fn.unique_value());
  absorb_part(midstate_, input);
}

ChunkTagger::ChunkTagger(const FunctionIdentity& fn, Domain domain) {
  prefix_.update(domain_label(domain));
  absorb_part(prefix_, fn.unique_value());
}

ComputationContext ChunkTagger::context(ByteView chunk,
                                        ContextBuilder& stream) const {
  crypto::Sha256 h = prefix_;  // fork; the member prefix stays reusable
  absorb_len(h, static_cast<std::uint32_t>(chunk.size()));
  crypto::Sha256::update_pair(h, stream.claim(chunk.size()), chunk);
  return ComputationContext(ComputationContext::FromMidstate{}, h);
}

ContextBuilder::ContextBuilder(const FunctionIdentity& fn,
                               std::uint64_t total_bytes, Domain domain)
    : remaining_(total_bytes) {
  if (total_bytes > std::numeric_limits<std::uint32_t>::max()) {
    throw CryptoError("ContextBuilder: input exceeds the u32 codec limit");
  }
  midstate_.update(domain_label(domain));
  absorb_part(midstate_, fn.unique_value());
  // Commit the input's length prefix now; ChunkTagger::context streams
  // the raw bytes.
  absorb_len(midstate_, static_cast<std::uint32_t>(total_bytes));
}

crypto::Sha256& ContextBuilder::claim(std::size_t n) {
  if (n > remaining_) {
    throw CryptoError("ContextBuilder: more bytes than declared");
  }
  remaining_ -= n;
  return midstate_;
}

ComputationContext ContextBuilder::finish() && {
  if (remaining_ != 0) {
    throw CryptoError("ContextBuilder: fewer bytes than declared");
  }
  return ComputationContext(ComputationContext::FromMidstate{}, midstate_);
}

Tag ComputationContext::tag() const {
  crypto::Sha256 h = midstate_;  // fork the midstate; the member stays reusable
  absorb_part(h, as_bytes("tag"));
  return h.finish();
}

secret::Bytes<crypto::kSha256DigestSize> ComputationContext::secondary_key(
    ByteView challenge) const {
  crypto::Sha256 h = midstate_;
  absorb_part(h, as_bytes("skey"));
  absorb_part(h, challenge);
  crypto::Sha256Digest d = h.finish();
  auto out = secret::Bytes<crypto::kSha256DigestSize>::copy_of(
      ByteView(d.data(), d.size()));
  secure_zero(d.data(), d.size());
  return out;
}

Tag derive_tag(const FunctionIdentity& fn, ByteView input) {
  return ComputationContext(fn, input).tag();
}

secret::Bytes<crypto::kSha256DigestSize> derive_secondary_key(
    const FunctionIdentity& fn, ByteView input, ByteView challenge) {
  return ComputationContext(fn, input).secondary_key(challenge);
}

}  // namespace speed::mle
