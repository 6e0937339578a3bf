// Secure deduplication runtime (paper §IV-B).
//
// DedupRuntime is the trusted library linked into an application enclave.
// For every marked computation it runs the paper's main routine:
//
//   Algorithm 2 (hit):  t = Hash(func, m) -> GET -> recover k = [k] XOR h
//                       -> AES-GCM decrypt -> return res
//   Algorithm 1 (miss): compute res = func(m) -> pick r, k -> wrap, encrypt
//                       -> asynchronous PUT -> return res
//
// The whole routine executes inside the application enclave (one ECALL per
// marked call); the GET/PUT exchanges leave through OCALLs wrapping the
// transport, exactly like the prototype's synchronous GET and asynchronous
// PUT (§IV-B, §V-B). All store traffic travels in an attested secure channel.
//
// Failed recoveries — a poisoned or foreign entry that does not authenticate
// — degrade to a local recompute (the ⊥ branch of Fig. 3), preserving
// correctness against a malicious store at the cost of the speedup.
//
// The same posture extends to the transport: a crashed store, dropped
// connection, timeout, or malformed frame on the GET path degrades the call
// to `compute()` (counted in `Stats::degraded_calls`), and a failed PUT is
// counted and dropped; no store failure ever throws into the application.
// Every runtime routes its store traffic through one net::ClusterTransport —
// a single store is a one-node cluster — whose per-node net::StoreLink seals,
// ships and opens each frame on the calling thread. A failed round trip
// drops the link's connection (its sequence numbers are in an unknown state
// and are never reused); the walk retries an up node once inline, and the
// retry re-dials the node, re-running the attested handshake for a fresh
// session key. A node that keeps failing goes down, and calls skip it
// without I/O until its probe window expires (see net/cluster.h,
// docs/PROTOCOL.md §6).
#pragma once

#include <array>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>

#include "common/annotated_lock.h"
#include "mle/rce.h"
#include "mle/tag.h"
#include "net/channel.h"
#include "net/cluster.h"
#include "serialize/function_descriptor.h"
#include "serialize/wire.h"
#include "sgx/enclave.h"
#include "sgx/trusted_library.h"
#include "telemetry/registry.h"
#include "telemetry/trace.h"

namespace speed::runtime {

struct RuntimeConfig {
  /// Ship PUTs from a background thread (§V-B: "the remaining PUT operations
  /// can be processed in a separated thread for better efficiency").
  bool async_put = true;

  /// Upper bound on queued asynchronous PUTs. When the store falls behind
  /// (or dies), the oldest queued PUT is dropped — counted in
  /// `Stats::puts_dropped` — so a dead store cannot grow memory without
  /// bound. PUTs are an optimization (the result is already computed), so
  /// dropping them costs only future dedup opportunities. 0 = unbounded.
  std::size_t put_queue_capacity = 1024;

  /// Result-encryption scheme. kRce is the paper's cross-application design
  /// (§III-C); kBasicSingleKey is the §III-B strawman and requires
  /// `system_key` (16 bytes). Kept for the scheme ablation.
  enum class Scheme { kRce, kBasicSingleKey };
  Scheme scheme = Scheme::kRce;
  Bytes system_key;

  /// In-enclave hot-result cache: a tag-keyed LRU of plaintext results kept
  /// inside the application enclave, so a repeated marked call is served
  /// with zero store round trips (counted in `Stats::local_hits`). The
  /// cached plaintext never leaves the enclave and is charged against the
  /// app enclave's trusted memory. Disabling restores the pre-cache
  /// behavior exactly: every call goes to the store.
  bool local_cache = true;
  /// Byte cap on cached plaintext (plus per-entry bookkeeping). Results
  /// larger than the cap are never cached.
  std::size_t local_cache_bytes = 4ull * 1024 * 1024;

  /// Per-call request tracing: each marked call pushes a TraceRecord (stage
  /// timings, outcome, result size — never tags/keys/inputs) into a bounded
  /// ring exported via the admin endpoint's /traces.json.
  bool tracing = true;
  /// Ring receiving completed spans; nullptr = the process-global ring.
  telemetry::TraceRing* trace_ring = nullptr;

  /// Client-side micro-batching (wire protocol v2), self-clocked like a
  /// group commit. When enabled, GETs from application threads, drained
  /// async PUTs and StreamSession windows coalesce into BatchRequest frames,
  /// each paying one channel round trip — and, server-side, one enclave
  /// transition — for all its ops. A caller that finds no frame in flight
  /// ships at once; callers that arrive during that round trip queue, and
  /// when its reply lands one of them ships everything queued. So a lone
  /// caller never waits, and frames grow with load, with no timer. A frame
  /// carries at most serialize::kMaxBatchOps ops and kMaxFrameBytes sealed
  /// bytes, the store's default limits (a larger op ships alone). A frame
  /// with a single op is sent as a plain v1 message, so enabling batching
  /// against a legacy store degrades gracefully under low concurrency; only
  /// enable it when the negotiated version is >= net::kProtocolVersionBatch
  /// (see TcpAppConnection::protocol_version). Disabled by default: behavior
  /// is then bit-for-bit the pre-batching one-message-per-round-trip
  /// protocol.
  struct Batching {
    bool enabled = false;
  };
  Batching batching;
};

class DedupRuntime {
 public:
  /// A single store: `session_key` comes from a completed
  /// ChannelKeyExchange (see store::connect_app / net/handshake.h);
  /// `transport` delivers frames to the store. The connection becomes the
  /// only node of a one-node ClusterTransport, as it is, with no dial: once
  /// it fails, calls degrade to local compute for the runtime's lifetime.
  /// For a single store that reconnects, pass a one-node cluster built from
  /// a dial (store::tcp_node) to the cluster constructor instead.
  DedupRuntime(sgx::Enclave& app_enclave, secret::Buffer session_key,
               std::unique_ptr<net::Transport> transport,
               RuntimeConfig config = RuntimeConfig{});

  /// A replicated store cluster: GET/PUT route across its nodes.
  /// shared_ptr because the deployment layer (capi, examples) keeps the
  /// cluster alive across runtimes and probes it for health independently.
  DedupRuntime(sgx::Enclave& app_enclave,
               std::shared_ptr<net::ClusterTransport> cluster,
               RuntimeConfig config = RuntimeConfig{});
  ~DedupRuntime();

  DedupRuntime(const DedupRuntime&) = delete;
  DedupRuntime& operator=(const DedupRuntime&) = delete;

  /// Trusted libraries available to this application; Deduplicable
  /// descriptors must resolve against this registry.
  sgx::TrustedLibraryRegistry& libraries() { return libraries_; }

  /// Resolve a descriptor to a full function identity; throws EnclaveError
  /// if the application does not own the named library ("verify that the
  /// application indeed owns the actual code of the function", §IV-B).
  mle::FunctionIdentity resolve(const serialize::FunctionDescriptor& desc) const;

  struct Outcome {
    Bytes result;             ///< serialized result bytes
    bool deduplicated = false;  ///< true iff served from the store
  };

  /// The main routine on serialized input. `compute` is invoked only on the
  /// miss path and must return the serialized result.
  Outcome execute(const mle::FunctionIdentity& fn, ByteView input,
                  const std::function<Bytes()>& compute);

  /// Block until all queued asynchronous PUTs are delivered (or failed).
  /// `timeout_ms` bounds the wait so shutdown cannot hang on a dead store;
  /// -1 waits forever. Returns true iff the queue fully drained.
  bool flush(std::int64_t timeout_ms = -1);

  /// Point-in-time view over this runtime's telemetry cells (also exported
  /// process-wide as speed_runtime_* via the registry).
  struct Stats {
    std::uint64_t calls = 0;
    std::uint64_t local_hits = 0;       ///< served from the in-enclave cache
    std::uint64_t hits = 0;             ///< results served from the store
    std::uint64_t misses = 0;           ///< store had no entry
    std::uint64_t failed_recoveries = 0;///< entry present but not decryptable
    std::uint64_t degraded_calls = 0;   ///< store unreachable; served locally
    std::uint64_t puts_sent = 0;
    std::uint64_t puts_rejected = 0;
    std::uint64_t puts_dropped = 0;     ///< evicted from a full PUT queue

    // Streaming data path (runtime/stream_session.h).
    std::uint64_t stream_puts = 0;        ///< StreamSession::put calls
    std::uint64_t stream_gets = 0;        ///< StreamSession::get calls
    std::uint64_t stream_whole_hits = 0;  ///< whole stream deduped in one GET
    std::uint64_t stream_chunks = 0;      ///< chunks examined on the put path
    std::uint64_t stream_chunk_hits = 0;  ///< chunks served by existing entries
    std::uint64_t stream_bytes_deduped = 0;  ///< plaintext bytes not re-stored
    std::uint64_t stream_inline_chunks = 0;  ///< chunks inlined into manifests
    std::uint64_t stream_degraded = 0;    ///< puts degraded by store failures
  };
  Stats stats() const;

  sgx::Enclave& enclave() { return enclave_; }

  /// The runtime's store routing; one node for a single store. Never null.
  const std::shared_ptr<net::ClusterTransport>& cluster() const {
    return cluster_;
  }

 private:
  /// The streaming data path issues its chunk GET/PUT windows and bumps the
  /// stream metric cells through the runtime's private machinery.
  friend class StreamSession;

  /// Ship a run of ops (a chunk window, or drained async PUTs) and return
  /// their replies in input order. With batching enabled the run rides the
  /// micro-batcher in as few frames as its caps allow (split per node by the
  /// cluster); otherwise each op is a plain v1 round trip. Transport
  /// failures surface as per-op ErrorResponse{kUnavailable} — never as
  /// exceptions — so the caller can degrade op by op.
  std::vector<serialize::BatchReply> stream_ops(
      std::vector<serialize::BatchOp> ops);

  /// One request/response routed by the cluster; the request's payload
  /// moves through. Must be called from inside the enclave; throws
  /// StoreUnavailableError when the store cannot be reached.
  serialize::Message secure_round_trip(serialize::Message request);

  /// Like secure_round_trip, but routes through the micro-batcher when
  /// batching is enabled: the op may share a BatchRequest frame with other
  /// threads' ops. A per-op ErrorResponse surfaces as StoreUnavailableError,
  /// so only this call degrades.
  serialize::Message batched_round_trip(serialize::Message request);

  /// Submit `ops` to the micro-batcher and wait for their replies (in input
  /// order). Whichever caller finds no frame in flight leads: it ships the
  /// oldest pending ops that fit one frame and holds leadership through the
  /// round trip. A whole-frame transport failure is reported as
  /// ErrorResponse{kUnavailable} per op.
  std::vector<serialize::BatchReply> batch_execute(
      std::vector<serialize::BatchOp> ops);

  void enqueue_put(serialize::PutRequest put);
  void put_worker();
  void send_put(serialize::PutRequest put);

  /// Hot-result cache (guarded by cache_mu_; only touched inside ECALLs).
  /// Lookup copies the plaintext out and refreshes recency; insert evicts
  /// from the LRU tail until the new entry fits under the byte cap.
  std::optional<Bytes> cache_lookup(const mle::Tag& tag);
  void cache_insert(const mle::Tag& tag, const Bytes& result);

  sgx::Enclave& enclave_;
  std::shared_ptr<net::ClusterTransport> cluster_;
  RuntimeConfig config_;
  sgx::TrustedLibraryRegistry libraries_;
  std::optional<mle::BasicResultCipher> basic_cipher_;

  /// Lock-free metric cells; execute()'s hot path bumps these instead of
  /// taking a stats mutex.
  struct Metrics {
    telemetry::Counter calls;
    telemetry::Counter local_hits;
    telemetry::Counter hits;
    telemetry::Counter misses;
    telemetry::Counter failed_recoveries;
    telemetry::Counter degraded_calls;
    telemetry::Counter puts_sent;
    telemetry::Counter puts_rejected;
    telemetry::Counter puts_dropped;
    /// Whole-call latency, one histogram per outcome.
    std::array<telemetry::Histogram,
               static_cast<std::size_t>(telemetry::CallOutcome::kCount)>
        call_ns;
    /// Store round trips issued by this runtime (GET + PUT), timed around
    /// secure_round_trip.
    telemetry::Histogram round_trip_ns;
    /// Batch frames shipped by the micro-batcher and their op counts.
    telemetry::Counter batches;
    telemetry::Histogram batch_ops;
    /// Streaming data path (see Stats for semantics).
    telemetry::Counter stream_puts;
    telemetry::Counter stream_gets;
    telemetry::Counter stream_whole_hits;
    telemetry::Counter stream_chunks;
    telemetry::Counter stream_chunk_hits;
    telemetry::Counter stream_bytes_deduped;
    telemetry::Counter stream_inline_chunks;
    telemetry::Counter stream_degraded;
    /// Manifest plaintext size per stored stream.
    telemetry::Histogram stream_manifest_bytes;
  };
  Metrics metrics_;

  /// Micro-batcher (group commit; see RuntimeConfig::Batching). A slot sits
  /// in batch_pending_ until a leader takes it into a frame; it belongs to
  /// that leader until marked done under batch_mu_.
  struct PendingOp {
    serialize::BatchOp op;
    serialize::BatchReply reply;
    bool done = false;
  };
  /// The leader's round trip for one frame, outside batch_mu_: fills every
  /// slot's reply (the leader then marks them done).
  void ship_frame(const std::vector<PendingOp*>& frame);
  Mutex batch_mu_{LockRank::kBatch};
  CondVar batch_done_cv_;  ///< a frame landed: slots done, leadership free
  std::vector<PendingOp*> batch_pending_ GUARDED_BY(batch_mu_);  ///< FIFO
  bool batch_leader_active_ GUARDED_BY(batch_mu_) = false;  ///< frame in flight

  // Hot-result cache state. Tags are SHA-256 outputs, so the first 8 bytes
  // hash them perfectly well.
  struct TagHash {
    std::size_t operator()(const mle::Tag& t) const {
      std::size_t h;
      static_assert(sizeof(h) <= 32);
      __builtin_memcpy(&h, t.data(), sizeof(h));
      return h;
    }
  };
  struct CacheEntry {
    Bytes result;
    std::list<mle::Tag>::iterator lru_it;
  };
  Mutex cache_mu_{LockRank::kRuntimeCache};
  std::unordered_map<mle::Tag, CacheEntry, TagHash> cache_ GUARDED_BY(cache_mu_);
  std::list<mle::Tag> cache_lru_ GUARDED_BY(cache_mu_);  ///< front = MRU
  std::size_t cache_bytes_ GUARDED_BY(cache_mu_) = 0;  ///< plaintext + bookkeeping
  sgx::TrustedCharge cache_charge_;

  // Asynchronous PUT pipeline.
  Mutex queue_mu_{LockRank::kRuntimeQueue};
  CondVar queue_cv_;
  CondVar drained_cv_;
  std::deque<serialize::PutRequest> put_queue_ GUARDED_BY(queue_mu_);
  std::size_t puts_in_flight_ GUARDED_BY(queue_mu_) = 0;
  bool shutting_down_ GUARDED_BY(queue_mu_) = false;
  std::thread put_thread_;

  // Declared last: the collector reads metrics_, cache, and queue state, so
  // it must deregister before any of them is destroyed.
  telemetry::Registry::Handle telemetry_handle_;
};

}  // namespace speed::runtime
