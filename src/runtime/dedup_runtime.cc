#include "runtime/dedup_runtime.h"

#include <chrono>
#include <vector>

#include "common/error.h"
#include "crypto/gcm.h"
#include "net/secure_channel.h"

namespace speed::runtime {

using serialize::GetRequest;
using serialize::GetResponse;
using serialize::PutRequest;
using serialize::PutResponse;
using serialize::PutStatus;

namespace {

/// Exported label per CallOutcome, in enum order. Literals, not runtime
/// strings: the label whitelist (telemetry/label.h) is compile-time.
constexpr std::array<telemetry::LabelValue,
                     static_cast<std::size_t>(telemetry::CallOutcome::kCount)>
    kOutcomeLabels{
        telemetry::LabelValue::lit("local_hit"),
        telemetry::LabelValue::lit("store_hit"),
        telemetry::LabelValue::lit("miss"),
        telemetry::LabelValue::lit("failed_recovery"),
        telemetry::LabelValue::lit("degraded"),
    };

/// What a sealed batch frame carries besides its ops: the channel's frame
/// header and GCM tag, and the envelope's kind byte and u32 op count.
constexpr std::size_t kBatchFrameOverhead =
    net::SecureChannel::kFrameHeaderSize + crypto::kGcmTagSize + 1 + 4;

/// How many of `available` queued ops, oldest first (`op_at(k)` is the
/// k-th), one frame carries: at most `max_ops`, within the byte cap a
/// default store admits. An op too large for any frame still ships, alone.
template <typename OpAt>
std::size_t ops_in_frame(std::size_t available, std::size_t max_ops,
                         const OpAt& op_at) {
  std::size_t take = 0;
  std::size_t frame_bytes = kBatchFrameOverhead;
  while (take < available && take < max_ops) {
    frame_bytes += serialize::encoded_size(op_at(take));
    if (take > 0 && frame_bytes > serialize::kMaxFrameBytes) break;
    ++take;
  }
  return take;
}

}  // namespace

DedupRuntime::DedupRuntime(sgx::Enclave& app_enclave,
                           secret::Buffer session_key,
                           std::unique_ptr<net::Transport> transport,
                           RuntimeConfig config)
    : DedupRuntime(app_enclave,
                   std::make_shared<net::ClusterTransport>(
                       app_enclave,
                       net::Connection{
                           std::move(transport), std::move(session_key)}),
                   std::move(config)) {}

DedupRuntime::DedupRuntime(sgx::Enclave& app_enclave,
                           std::shared_ptr<net::ClusterTransport> cluster,
                           RuntimeConfig config)
    : enclave_(app_enclave),
      cluster_(std::move(cluster)),
      config_(std::move(config)),
      cache_charge_(app_enclave, 0) {
  if (cluster_ == nullptr) {
    throw ProtocolError("DedupRuntime: cluster transport is required");
  }
  if (config_.scheme == RuntimeConfig::Scheme::kBasicSingleKey) {
    // Move the key into the cipher's secret domain; no plain copy stays
    // behind in the stored config.
    basic_cipher_.emplace(std::move(config_.system_key));
  }
  if (config_.async_put) {
    put_thread_ = std::thread([this] { put_worker(); });
  }
  telemetry_handle_ = telemetry::Registry::global().add_collector(
      [this](telemetry::SampleSink& sink) {
        constexpr auto kOutcome = telemetry::LabelKey::of("outcome");
        sink.counter("speed_runtime_calls_total", "Marked calls executed", {},
                     metrics_.calls.value());
        const std::array<std::uint64_t, 5> outcome_counts{
            metrics_.local_hits.value(),       metrics_.hits.value(),
            metrics_.misses.value(),           metrics_.failed_recoveries.value(),
            metrics_.degraded_calls.value()};
        for (std::size_t i = 0; i < outcome_counts.size(); ++i) {
          sink.counter("speed_runtime_outcomes_total",
                       "Marked calls by how they were served",
                       {{kOutcome, kOutcomeLabels[i]}}, outcome_counts[i]);
          sink.histogram("speed_runtime_call_ns",
                         "Whole-call latency of marked calls by outcome",
                         {{kOutcome, kOutcomeLabels[i]}}, metrics_.call_ns[i]);
        }
        sink.counter("speed_runtime_puts_sent_total",
                     "PUT round trips completed", {},
                     metrics_.puts_sent.value());
        sink.counter("speed_runtime_puts_rejected_total",
                     "PUTs refused by the store or failed in flight", {},
                     metrics_.puts_rejected.value());
        sink.counter("speed_runtime_puts_dropped_total",
                     "PUTs evicted from a full async queue", {},
                     metrics_.puts_dropped.value());
        sink.histogram("speed_runtime_round_trip_ns",
                       "Secure-channel round trips issued by the runtime", {},
                       metrics_.round_trip_ns);
        sink.counter("speed_runtime_batches_total",
                     "Batch frames shipped by the micro-batcher", {},
                     metrics_.batches.value());
        sink.histogram("speed_runtime_batch_ops",
                       "Ops coalesced per shipped batch frame", {},
                       metrics_.batch_ops);
        sink.counter("speed_runtime_stream_puts_total",
                     "Streams stored via StreamSession::put", {},
                     metrics_.stream_puts.value());
        sink.counter("speed_runtime_stream_gets_total",
                     "Streams retrieved via StreamSession::get", {},
                     metrics_.stream_gets.value());
        sink.counter("speed_runtime_stream_whole_hits_total",
                     "Stream puts deduplicated whole by the stream tag", {},
                     metrics_.stream_whole_hits.value());
        sink.counter("speed_runtime_stream_chunks_total",
                     "Chunks examined on the stream put path", {},
                     metrics_.stream_chunks.value());
        sink.counter("speed_runtime_stream_chunk_hits_total",
                     "Chunks served by existing store entries", {},
                     metrics_.stream_chunk_hits.value());
        sink.counter("speed_runtime_stream_bytes_deduped_total",
                     "Plaintext bytes not re-stored thanks to chunk dedup", {},
                     metrics_.stream_bytes_deduped.value());
        sink.counter("speed_runtime_stream_inline_chunks_total",
                     "Chunks inlined into manifests (PUT refused/poisoned)", {},
                     metrics_.stream_inline_chunks.value());
        sink.counter("speed_runtime_stream_degraded_total",
                     "Stream puts degraded by store failures", {},
                     metrics_.stream_degraded.value());
        sink.histogram("speed_runtime_stream_manifest_bytes",
                       "Manifest plaintext size per stored stream", {},
                       metrics_.stream_manifest_bytes);
        {
          MutexLock lock(cache_mu_);
          sink.gauge("speed_runtime_cache_bytes",
                     "In-enclave hot-result cache footprint", {},
                     static_cast<std::int64_t>(cache_bytes_));
          sink.gauge("speed_runtime_cache_entries",
                     "In-enclave hot-result cache entries", {},
                     static_cast<std::int64_t>(cache_.size()));
        }
        {
          MutexLock lock(queue_mu_);
          sink.gauge("speed_runtime_put_queue_depth",
                     "Asynchronous PUTs waiting to ship", {},
                     static_cast<std::int64_t>(put_queue_.size()));
        }
      });
}

DedupRuntime::~DedupRuntime() {
  if (put_thread_.joinable()) {
    {
      MutexLock lock(queue_mu_);
      shutting_down_ = true;
    }
    queue_cv_.notify_all();
    put_thread_.join();
  }
}

mle::FunctionIdentity DedupRuntime::resolve(
    const serialize::FunctionDescriptor& desc) const {
  const auto measurement = libraries_.lookup(desc.family, desc.version);
  if (!measurement.has_value()) {
    throw EnclaveError("DedupRuntime: application does not own trusted library " +
                       desc.family + "/" + desc.version);
  }
  return mle::FunctionIdentity{desc, *measurement};
}

std::vector<serialize::BatchReply> DedupRuntime::batch_execute(
    std::vector<serialize::BatchOp> ops) {
  // Group commit: every caller queues its ops in the shared pending list. A
  // caller that finds no frame in flight leads: it ships the oldest pending
  // ops and keeps leadership through its round trip, while later callers
  // queue. When the reply lands, one waiting caller leads the next frame
  // with everything queued by then. The round trip is the batching window.
  std::vector<PendingOp> slots(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) slots[i].op = std::move(ops[i]);
  const auto slots_done = [&slots]() {
    for (const auto& slot : slots) {
      if (!slot.done) return false;
    }
    return true;
  };

  ScopedLock lock(batch_mu_);
  for (auto& slot : slots) batch_pending_.push_back(&slot);
  while (!slots_done()) {
    if (batch_leader_active_) {
      batch_done_cv_.wait(batch_mu_);
      continue;
    }
    const std::size_t take = ops_in_frame(
        batch_pending_.size(), max_frame_ops(),
        [&pending = batch_pending_](std::size_t k)
            -> const serialize::BatchOp& { return pending[k]->op; });
    const auto end =
        batch_pending_.begin() + static_cast<std::ptrdiff_t>(take);
    const std::vector<PendingOp*> frame(batch_pending_.begin(), end);
    batch_pending_.erase(batch_pending_.begin(), end);
    batch_leader_active_ = true;
    lock.unlock();
    ship_frame(frame);
    lock.lock();
    for (PendingOp* slot : frame) slot->done = true;
    batch_leader_active_ = false;
    batch_done_cv_.notify_all();
  }

  std::vector<serialize::BatchReply> replies;
  replies.reserve(slots.size());
  for (auto& slot : slots) replies.push_back(std::move(slot.reply));
  return replies;
}

void DedupRuntime::ship_frame(const std::vector<PendingOp*>& frame) {
  metrics_.batches.inc();
  metrics_.batch_ops.record(frame.size());

  // The ops move into the routed list: no slot reads its op again, only its
  // reply.
  std::string failure;
  try {
    std::vector<serialize::BatchOp> ops;
    ops.reserve(frame.size());
    for (PendingOp* slot : frame) ops.push_back(std::move(slot->op));
    const Stopwatch rtt_sw;
    std::vector<serialize::BatchReply> replies =
        cluster_->route(std::move(ops));
    metrics_.round_trip_ns.record(rtt_sw.elapsed_ns());
    for (std::size_t i = 0; i < frame.size(); ++i) {
      frame[i]->reply = std::move(replies[i]);
    }
    return;
  } catch (const std::exception& e) {
    // Whatever failed, the frame's callers must still be answered.
    failure = e.what();
  }
  for (PendingOp* slot : frame) {
    slot->reply =
        serialize::ErrorResponse{serialize::ErrorCode::kUnavailable, failure};
  }
}

DedupRuntime::Outcome DedupRuntime::execute(
    const mle::FunctionIdentity& fn, ByteView input,
    const std::function<Bytes()>& compute) {
  return enclave_.ecall([&]() -> Outcome {
    metrics_.calls.inc();

    telemetry::TraceRing* ring = nullptr;
    if (config_.tracing) {
      ring = config_.trace_ring != nullptr ? config_.trace_ring
                                           : &telemetry::TraceRing::global();
    }
    telemetry::TraceSpan span(ring);
    telemetry::CallOutcome outcome = telemetry::CallOutcome::kMiss;
    std::uint64_t result_bytes = 0;
    const Stopwatch call_sw;
    // Runs on every exit path, before `span` pushes into the ring.
    struct Finish {
      Metrics& m;
      telemetry::TraceSpan& span;
      telemetry::CallOutcome& outcome;
      std::uint64_t& result_bytes;
      const Stopwatch& sw;
      ~Finish() {
        span.set_outcome(outcome);
        span.set_result_bytes(result_bytes);
        m.call_ns[static_cast<std::size_t>(outcome)].record(sw.elapsed_ns());
      }
    } finish{metrics_, span, outcome, result_bytes, call_sw};

    // Algorithm 1/2 line 1-2: derive the tag, query the store. The context
    // absorbs (func, m) once; tag and (on the RCE paths below) the secondary
    // key h fork off the shared SHA-256 midstate.
    std::optional<mle::ComputationContext> ctx_storage;
    std::optional<mle::Tag> tag_storage;
    {
      const telemetry::TraceSpan::StageTimer t(span,
                                               telemetry::Stage::kTagDerive);
      ctx_storage.emplace(fn, input);
      tag_storage.emplace(ctx_storage->tag());
    }
    const mle::ComputationContext& ctx = *ctx_storage;
    const mle::Tag& tag = *tag_storage;

    // Hot path: a result this runtime already saw is served straight from
    // the in-enclave cache — no round trip, no decryption.
    if (config_.local_cache) {
      std::optional<Bytes> cached;
      {
        const telemetry::TraceSpan::StageTimer t(
            span, telemetry::Stage::kCacheLookup);
        cached = cache_lookup(tag);
      }
      if (cached.has_value()) {
        metrics_.local_hits.inc();
        outcome = telemetry::CallOutcome::kLocalHit;
        result_bytes = cached->size();
        return Outcome{std::move(*cached), true};
      }
    }

    GetRequest get;
    get.tag = tag;
    get.requester = enclave_.measurement();

    // The store is an accelerator, not a dependency: any transport/channel/
    // protocol failure on the GET path degrades this call to a local
    // compute, and the walk's node health and the transport's reconnect
    // restore service for later calls.
    std::vector<serialize::BatchReply> replies;
    {
      const telemetry::TraceSpan::StageTimer t(span,
                                               telemetry::Stage::kStoreGet);
      replies = batch_execute(serialize::batch_of(std::move(get)));
    }
    const auto* get_resp = std::get_if<GetResponse>(&replies.front());
    if (get_resp == nullptr) {
      // Store unreachable or talking nonsense: compute locally and skip the
      // PUT (we cannot know whether the entry exists, and the connection is
      // being re-established anyway).
      metrics_.degraded_calls.inc();
      outcome = telemetry::CallOutcome::kDegraded;
      Bytes local;
      {
        const telemetry::TraceSpan::StageTimer t(span,
                                                 telemetry::Stage::kCompute);
        local = compute();
      }
      // Still worth caching: repeats of this call ride out the outage
      // without recomputing (or waiting on the broken transport).
      if (config_.local_cache) cache_insert(tag, local);
      result_bytes = local.size();
      return Outcome{std::move(local), false};
    }

    if (get_resp->found) {
      // Algorithm 2 lines 4-6 + Fig. 3 verification.
      std::optional<secret::Buffer> result;
      {
        const telemetry::TraceSpan::StageTimer t(span,
                                                 telemetry::Stage::kRecover);
        if (basic_cipher_.has_value()) {
          result = basic_cipher_->recover(fn, input, get_resp->entry);
        } else {
          result = mle::ResultCipher::recover(ctx, get_resp->entry);
        }
      }
      if (result.has_value()) {
        // Deliberate protocol step: the recovered plaintext leaves the
        // secret domain exactly here, handed back to the application that
        // proved it could have computed it (Fig. 3). Move, not copy — the
        // store-hit hot path stays copy-free.
        Bytes plain = std::move(*result).release_for(
            secret::Purpose::of("app_result_release"));
        if (config_.local_cache) cache_insert(tag, plain);
        metrics_.hits.inc();
        outcome = telemetry::CallOutcome::kStoreHit;
        result_bytes = plain.size();
        return Outcome{std::move(plain), true};
      }
      // ⊥: entry exists but we cannot authenticate/decrypt it (poisoned or
      // foreign). Fall through to local computation.
      metrics_.failed_recoveries.inc();
      outcome = telemetry::CallOutcome::kFailedRecovery;
    } else {
      metrics_.misses.inc();
      outcome = telemetry::CallOutcome::kMiss;
    }

    // Algorithm 1 lines 4-10: compute, protect, and ship the result.
    Bytes result;
    {
      const telemetry::TraceSpan::StageTimer t(span,
                                               telemetry::Stage::kCompute);
      result = compute();
    }
    if (config_.local_cache) cache_insert(tag, result);
    result_bytes = result.size();

    if (!get_resp->found) {
      const telemetry::TraceSpan::StageTimer t(span,
                                               telemetry::Stage::kPutEnqueue);
      crypto::Drbg seeded(enclave_.random_bytes(32));
      serialize::EntryPayload entry;
      if (basic_cipher_.has_value()) {
        entry = basic_cipher_->protect(fn, input, result, seeded);
      } else {
        entry = mle::ResultCipher::protect(ctx, result, seeded);
      }
      PutRequest put;
      put.tag = tag;
      put.requester = enclave_.measurement();
      put.entry = std::move(entry);
      enqueue_put(std::move(put));
    }
    return Outcome{std::move(result), false};
  });
}

void DedupRuntime::enqueue_put(PutRequest put) {
  if (config_.async_put) {
    bool dropped = false;
    {
      MutexLock lock(queue_mu_);
      if (config_.put_queue_capacity > 0 &&
          put_queue_.size() >= config_.put_queue_capacity) {
        // Drop-oldest: newer results are likelier to be re-requested soon,
        // and a dead store must not grow this queue without bound.
        put_queue_.pop_front();
        dropped = true;
      }
      put_queue_.push_back(std::move(put));
    }
    if (dropped) metrics_.puts_dropped.inc();
    queue_cv_.notify_one();
  } else {
    count_put_reply(batch_execute(serialize::batch_of(std::move(put))).front());
  }
}

void DedupRuntime::count_put_reply(const serialize::BatchReply& reply) {
  const auto* put_resp = std::get_if<PutResponse>(&reply);
  if (put_resp == nullptr) {
    metrics_.puts_rejected.inc();  // failed in flight, or refused
    return;
  }
  metrics_.puts_sent.inc();
  if (put_resp->status != PutStatus::kStored &&
      put_resp->status != PutStatus::kAlreadyPresent) {
    metrics_.puts_rejected.inc();
  }
}

void DedupRuntime::put_worker() {
  for (;;) {
    std::vector<serialize::BatchOp> puts;
    {
      MutexLock lock(queue_mu_);
      while (!shutting_down_ && put_queue_.empty()) {
        queue_cv_.wait(queue_mu_);
      }
      if (put_queue_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      // One frame's worth per ECALL: with batching off that is one PUT, so
      // a GET never queues behind a backlog of PUT frames.
      const std::size_t take = ops_in_frame(
          put_queue_.size(), max_frame_ops(),
          [&queue = put_queue_](std::size_t k) -> const serialize::BatchOp& {
            return queue[k];
          });
      puts.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        puts.push_back(std::move(put_queue_.front()));
        put_queue_.pop_front();
      }
      puts_in_flight_ += take;
    }
    // The worker enters the enclave for the channel crypto, like any other
    // trusted-thread ECALL.
    const std::size_t taken = puts.size();
    enclave_.ecall([&] {
      for (const auto& reply : batch_execute(std::move(puts))) {
        count_put_reply(reply);
      }
    });
    {
      MutexLock lock(queue_mu_);
      puts_in_flight_ -= taken;
    }
    drained_cv_.notify_all();
  }
}

bool DedupRuntime::flush(std::int64_t timeout_ms) {
  if (!config_.async_put) return true;
  MutexLock lock(queue_mu_);
  if (timeout_ms < 0) {
    while (!put_queue_.empty() || puts_in_flight_ != 0) {
      drained_cv_.wait(queue_mu_);
    }
    return true;
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!put_queue_.empty() || puts_in_flight_ != 0) {
    if (drained_cv_.wait_until(queue_mu_, deadline) ==
        std::cv_status::timeout) {
      return put_queue_.empty() && puts_in_flight_ == 0;
    }
  }
  return true;
}

namespace {
/// Trusted-memory footprint of one cache entry: the plaintext plus the tag
/// key, LRU node, and hash-map slot.
std::size_t cache_entry_footprint(std::size_t result_bytes) {
  return result_bytes + sizeof(mle::Tag) + 3 * sizeof(void*) + 16;
}
}  // namespace

std::optional<Bytes> DedupRuntime::cache_lookup(const mle::Tag& tag) {
  MutexLock lock(cache_mu_);
  auto it = cache_.find(tag);
  if (it == cache_.end()) return std::nullopt;
  cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second.lru_it);
  return it->second.result;
}

void DedupRuntime::cache_insert(const mle::Tag& tag, const Bytes& result) {
  const std::size_t footprint = cache_entry_footprint(result.size());
  if (footprint > config_.local_cache_bytes) return;  // never cacheable
  MutexLock lock(cache_mu_);
  auto it = cache_.find(tag);
  if (it != cache_.end()) {
    // Raced insert of the same tag: keep the existing copy, refresh recency.
    cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second.lru_it);
    return;
  }
  while (cache_bytes_ + footprint > config_.local_cache_bytes &&
         !cache_lru_.empty()) {
    const mle::Tag victim = cache_lru_.back();
    auto vit = cache_.find(victim);
    cache_bytes_ -= cache_entry_footprint(vit->second.result.size());
    cache_.erase(vit);
    cache_lru_.pop_back();
  }
  cache_lru_.push_front(tag);
  cache_.emplace(tag, CacheEntry{result, cache_lru_.begin()});
  cache_bytes_ += footprint;
  cache_charge_.resize(cache_bytes_);
}

DedupRuntime::Stats DedupRuntime::stats() const {
  Stats s;
  s.calls = metrics_.calls.value();
  s.local_hits = metrics_.local_hits.value();
  s.hits = metrics_.hits.value();
  s.misses = metrics_.misses.value();
  s.failed_recoveries = metrics_.failed_recoveries.value();
  s.degraded_calls = metrics_.degraded_calls.value();
  s.puts_sent = metrics_.puts_sent.value();
  s.puts_rejected = metrics_.puts_rejected.value();
  s.puts_dropped = metrics_.puts_dropped.value();
  s.stream_puts = metrics_.stream_puts.value();
  s.stream_gets = metrics_.stream_gets.value();
  s.stream_whole_hits = metrics_.stream_whole_hits.value();
  s.stream_chunks = metrics_.stream_chunks.value();
  s.stream_chunk_hits = metrics_.stream_chunk_hits.value();
  s.stream_bytes_deduped = metrics_.stream_bytes_deduped.value();
  s.stream_inline_chunks = metrics_.stream_inline_chunks.value();
  s.stream_degraded = metrics_.stream_degraded.value();
  return s;
}

}  // namespace speed::runtime
