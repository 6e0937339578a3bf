// ChunkPlan — the tag-per-chunk refactoring of the dedup API.
//
// The whole-call path derives one (tag, context) pair per call. A ChunkPlan
// derives one per content-defined chunk plus one for the whole stream, in
// two passes over the input: the chunker finds every cut point first, then
// one hashing pass derives every context:
//
//   * each chunk's context forks a shared (domain, func) midstate
//     (mle::ChunkTagger), so the function identity is hashed once, not once
//     per chunk;
//   * the whole-stream context (mle::ContextBuilder) absorbs each chunk in
//     the same pass as the chunk's own context: one two-lane SHA-256 walk
//     (crypto::Sha256::update_pair) feeds every byte to both, so the input
//     is read once for hashing regardless of chunk count;
//   * chunk tags live in Domain::kChunk and the stream tag in
//     Domain::kStream, both disjoint from whole-call tags, so a chunk can
//     never alias a whole input's call entry in the store.
//
// Degrade rule (zero overhead for small inputs): an input that chunks to a
// single chunk is *not* a stream. The plan then carries exactly one context
// in Domain::kCall over the whole input — byte-identical to what
// DedupRuntime::execute would derive — and whole_call() tells StreamSession
// to take the existing per-call path with no manifest.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "chunk/chunker.h"
#include "common/bytes.h"
#include "mle/tag.h"

namespace speed::chunk {

class ChunkPlan {
 public:
  /// Chunk `input` and derive every context. The plan borrows
  /// `input` (chunk byte windows point into it); the caller keeps the
  /// buffer alive for the plan's lifetime.
  static ChunkPlan build(const mle::FunctionIdentity& fn, ByteView input,
                         const Chunker& chunker);

  /// True iff the input produced at most one chunk; the single context is
  /// then the whole-call context and no manifest/stream machinery applies.
  bool whole_call() const { return whole_call_; }

  std::size_t chunk_count() const { return chunks_.size(); }
  const ChunkRef& chunk(std::size_t i) const { return chunks_[i]; }

  /// The bytes of chunk i (a window into the caller's input buffer).
  ByteView chunk_bytes(std::size_t i) const {
    return input_.subspan(chunks_[i].offset, chunks_[i].size);
  }

  const mle::ComputationContext& chunk_context(std::size_t i) const {
    return contexts_[i];
  }
  const serialize::Tag& chunk_tag(std::size_t i) const { return tags_[i]; }

  /// Whole-stream context/tag (Domain::kStream). For a whole_call() plan
  /// these are the whole-call context/tag instead — the degrade path.
  const mle::ComputationContext& stream_context() const { return *stream_; }
  const serialize::Tag& stream_tag() const { return stream_tag_; }

  std::uint64_t total_bytes() const { return input_.size(); }
  ByteView input() const { return input_; }

 private:
  ChunkPlan() = default;

  ByteView input_;
  std::vector<ChunkRef> chunks_;
  std::vector<mle::ComputationContext> contexts_;  ///< per chunk, kChunk
  std::vector<serialize::Tag> tags_;               ///< per chunk
  std::optional<mle::ComputationContext> stream_;  ///< kStream (or kCall)
  serialize::Tag stream_tag_{};
  bool whole_call_ = false;
};

}  // namespace speed::chunk
