#include "chunk/chunk_plan.h"

namespace speed::chunk {

ChunkPlan ChunkPlan::build(const mle::FunctionIdentity& fn, ByteView input,
                           const Chunker& chunker) {
  ChunkPlan plan;
  plan.input_ = input;
  plan.chunks_ = chunker.split(input);

  if (plan.chunks_.size() <= 1) {
    // Degrade: one (or zero) chunks means no stream structure. Derive the
    // exact whole-call context the per-call path would — same domain, same
    // bytes — so downstream behaviour is indistinguishable from execute().
    plan.whole_call_ = true;
    plan.stream_.emplace(fn, input, mle::Domain::kCall);
    plan.stream_tag_ = plan.stream_->tag();
    return plan;
  }

  const mle::ChunkTagger tagger(fn);
  mle::ContextBuilder stream(fn, input.size(), mle::Domain::kStream);
  plan.contexts_.reserve(plan.chunks_.size());
  plan.tags_.reserve(plan.chunks_.size());
  for (const ChunkRef& c : plan.chunks_) {
    plan.contexts_.push_back(
        tagger.context(input.subspan(c.offset, c.size), stream));
    plan.tags_.push_back(plan.contexts_.back().tag());
  }
  plan.stream_.emplace(std::move(stream).finish());
  plan.stream_tag_ = plan.stream_->tag();
  return plan;
}

}  // namespace speed::chunk
