// StreamSession — chunk-granularity dedup inside the data path.
//
// The per-call API (DedupRuntime::execute) derives one tag per call, so a
// one-byte edit to a large input forfeits all reuse. A StreamSession splits
// the input with a content-defined chunker (chunk/chunker.h), dedups every
// chunk as its own RCE-protected store entry, and ties the chunk list
// together with a sealed *manifest* stored under the whole-stream tag
// (chunk/manifest.h) — the encrypt-then-dedup storage data path of Harnik
// et al. run through SPEED's computation-dedup machinery.
//
//   put(data) -> StreamHandle:
//     1. Build a ChunkPlan (one pass: per-chunk tags in Domain::kChunk, the
//        whole-stream tag in Domain::kStream).
//     2. Fast path: GET the stream tag. A recoverable manifest means some
//        client already stored this exact stream — one round trip, done.
//     3. Otherwise walk the plan in windows of `StreamConfig::window`
//        chunks: one batched GET frame per window (the micro-batcher; the
//        cluster routes each chunk to its own node), then one batched
//        PUT frame for the window's misses. Hits contribute their recovered
//        per-chunk key to the manifest; misses contribute the fresh key
//        that protected them.
//     4. Store the manifest under the stream tag; hand back a StreamHandle
//        carrying (stream tag, manifest key).
//
//   get(handle) -> bytes: fetch + decrypt the manifest with the handle key,
//     then fetch chunk entries in batched windows and decrypt each with its
//     manifest key. No knowledge of the original input is needed — the
//     handle is the capability.
//
// Degradation never loses data. A chunk whose PUT is refused (quota,
// poisoned tag, store down) is *inlined* into the manifest;
// if the manifest itself cannot be stored, the manifest is inlined into the
// handle. Worst case — store fully unreachable — the handle degrades to
// carrying the whole stream, and get() still returns the exact bytes.
//
// Inputs that chunk to a single chunk are not streams: put() follows the
// exact whole-call path (Domain::kCall context, plain GET + PUT, no
// manifest), so small-input workloads pay zero streaming overhead.
#pragma once

#include <cstdint>

#include "chunk/chunk_plan.h"
#include "chunk/chunker.h"
#include "chunk/manifest.h"
#include "mle/tag.h"
#include "runtime/dedup_runtime.h"

namespace speed::runtime {

struct StreamConfig {
  chunk::ChunkerConfig chunker;

  /// Chunk ops coalesced per batch frame: each window of the plan issues
  /// one GET frame (and one PUT frame if it had misses). A window past
  /// serialize::kMaxBatchOps ops (the store's default max_batch_entries),
  /// or PUTs past kMaxFrameBytes, ships in more than one frame.
  std::size_t window = 64;
};

/// The client capability for one stored stream. Holding the handle is
/// holding the data: the key decrypts the manifest, the manifest holds the
/// chunk keys. serialize() is the audited escape that turns it into app
/// bytes (e.g. for the C API or an index kept by a storage service).
struct StreamHandle {
  enum class Kind : std::uint8_t {
    kWholeCall,       ///< single chunk stored as a plain call entry
    kStream,          ///< manifest stored under `tag`; `key` decrypts it
    kInlineManifest,  ///< manifest rides in the handle (degraded put)
  };

  Kind kind = Kind::kWholeCall;
  serialize::Tag tag{};        ///< call tag (kWholeCall) / stream tag (kStream)
  secret::Buffer key;          ///< result key / manifest key
  std::uint64_t total_bytes = 0;
  Bytes manifest;              ///< kInlineManifest: encoded manifest plaintext

  Bytes serialize() const;
  static StreamHandle deserialize(ByteView data);
};

class StreamSession {
 public:
  /// `fn` names the stream namespace: chunk tags bind (fn, chunk bytes), so
  /// distinct services (or versions) never cross-dedup. Resolve it via
  /// DedupRuntime::resolve like any marked function.
  StreamSession(DedupRuntime& rt, mle::FunctionIdentity fn,
                StreamConfig config = {});

  /// Store `data`; returns the capability for get(). Runs inside the app
  /// enclave (one ECALL for the whole stream). Never throws for a store
  /// failure: it degrades per the scheme above and always returns a working
  /// handle.
  StreamHandle put(ByteView data);

  /// Retrieve the exact bytes of a stored stream. Throws
  /// StoreUnavailableError if a referenced entry is missing or fails
  /// authentication (a misbehaving store can deny service, never corrupt).
  Bytes get(const StreamHandle& handle);

  const StreamConfig& config() const { return config_; }

 private:
  StreamHandle put_trusted(ByteView data);
  StreamHandle put_whole_call(const chunk::ChunkPlan& plan, crypto::Drbg& drbg,
                              secret::Buffer& opened);
  Bytes get_trusted(const StreamHandle& handle);
  Bytes assemble(const chunk::Manifest& manifest);

  serialize::GetRequest make_get(const serialize::Tag& tag) const;

  DedupRuntime& rt_;
  mle::FunctionIdentity fn_;
  StreamConfig config_;
  chunk::Chunker chunker_;
};

}  // namespace speed::runtime
