#include "runtime/dedup_runtime.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "common/error.h"

namespace speed::runtime {

using serialize::GetRequest;
using serialize::GetResponse;
using serialize::Message;
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

}  // namespace

DedupRuntime::DedupRuntime(sgx::Enclave& app_enclave,
                           secret::Buffer session_key,
                           std::unique_ptr<net::Transport> transport,
                           RuntimeConfig config)
    : enclave_(app_enclave),
      link_(std::in_place, app_enclave,
            net::ResilientTransport::Connection{std::move(transport),
                                                std::move(session_key)}),
      config_(std::move(config)),
      cache_charge_(app_enclave, 0) {
  init_common();
}

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
  init_common();
}

void DedupRuntime::init_common() {
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

Message DedupRuntime::secure_round_trip(const Message& request) {
  // Both paths throw when the store cannot serve; the fail-open GET path
  // degrades that to compute.
  const Stopwatch rtt_sw;
  Message response = link_.has_value()
                         ? link_->round_trip(request)
                         : cluster_->round_trip_message(request);
  metrics_.round_trip_ns.record(rtt_sw.elapsed_ns());
  return response;
}

namespace {

/// Lift a batch sub-reply back to a top-level message; a per-op error
/// becomes StoreUnavailableError so fail-open degrades exactly this call.
Message reply_to_message(serialize::BatchReply reply) {
  if (auto* get_resp = std::get_if<GetResponse>(&reply)) {
    return Message(std::move(*get_resp));
  }
  if (const auto* put_resp = std::get_if<PutResponse>(&reply)) {
    return Message(*put_resp);
  }
  const auto& err = std::get<serialize::ErrorResponse>(reply);
  throw net::StoreUnavailableError("DedupRuntime: batched op refused: " +
                                   err.detail);
}

}  // namespace

Message DedupRuntime::batched_round_trip(const Message& request) {
  if (!config_.batching.enabled) return secure_round_trip(request);
  serialize::BatchOp op;
  if (const auto* get = std::get_if<GetRequest>(&request)) {
    op = *get;
  } else if (const auto* put = std::get_if<PutRequest>(&request)) {
    op = *put;
  } else {
    return secure_round_trip(request);  // only GET/PUT are batchable
  }
  std::vector<serialize::BatchReply> replies = batch_execute({std::move(op)});
  return reply_to_message(std::move(replies.front()));
}

std::vector<serialize::BatchReply> DedupRuntime::batch_execute(
    std::vector<serialize::BatchOp> ops) {
  // Leader/follower rendezvous: every thread parks its ops in the shared
  // pending list; the first one in becomes the leader, waits briefly for
  // followers, then ships everything pending as one frame. Followers just
  // wait for their slots to complete.
  std::vector<PendingOp> slots(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) slots[i].op = std::move(ops[i]);

  // Slots are guarded by batch_mu_ by convention: they are stack-local, but
  // their addresses are shared through batch_pending_ and mutated by
  // whichever thread ends up shipping them.
  const auto slots_done = [&slots]() {
    for (const auto& slot : slots) {
      if (!slot.done) return false;
    }
    return true;
  };

  ScopedLock lock(batch_mu_);
  ++batch_inflight_;
  for (auto& slot : slots) batch_pending_.push_back(&slot);
  if (batch_pending_.size() >= config_.batching.max_ops) {
    batch_fill_cv_.notify_one();
  }
  if (batch_leader_active_) {
    // Follower. The current leader (or a later one) ships our slots.
    while (!slots_done()) batch_done_cv_.wait(batch_mu_);
  } else {
    batch_leader_active_ = true;
    if (batch_pending_.size() < config_.batching.max_ops &&
        config_.batching.flush_delay_us > 0 && batch_inflight_ > 1) {
      // Adaptive flush: flush_delay_us caps the total wait, but the leader
      // ships as soon as arrivals quiesce — a grace interval passing with no
      // new op. Fewer concurrent threads than max_ops then costs one grace
      // period, not the full delay, while a steady trickle of arrivals keeps
      // filling the frame up to the cap.
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::microseconds(config_.batching.flush_delay_us);
      const auto grace = std::chrono::microseconds(
          std::max<std::uint64_t>(config_.batching.flush_delay_us / 4, 1));
      std::size_t seen = batch_pending_.size();
      while (batch_pending_.size() < config_.batching.max_ops) {
        const auto now = std::chrono::steady_clock::now();
        if (now >= deadline) break;
        const auto slice = std::min(deadline, now + grace);
        while (batch_pending_.size() < config_.batching.max_ops &&
               batch_fill_cv_.wait_until(batch_mu_, slice) !=
                   std::cv_status::timeout) {
        }
        if (batch_pending_.size() == seen) break;  // quiesced
        seen = batch_pending_.size();
      }
    }
    std::vector<PendingOp*> shipping;
    shipping.swap(batch_pending_);
    batch_leader_active_ = false;  // late arrivals elect the next leader
    lock.unlock();

    metrics_.batches.inc();
    metrics_.batch_ops.record(shipping.size());

    // One op needs no envelope — and stays decodable by a legacy store.
    std::optional<Message> response;
    bool transport_failed = false;
    std::string failure = "store unreachable";
    // The ops are moved into the frame's message: no slot reads its op
    // again, only its reply.
    try {
      if (shipping.size() == 1) {
        response = std::visit(
            [this](auto& o) { return secure_round_trip(Message(std::move(o))); },
            shipping.front()->op);
      } else {
        serialize::BatchRequest batch;
        batch.ops.reserve(shipping.size());
        for (PendingOp* slot : shipping) {
          batch.ops.push_back(std::move(slot->op));
        }
        response = secure_round_trip(Message(std::move(batch)));
      }
    } catch (const Error& e) {
      transport_failed = true;
      failure = e.what();
    }

    lock.lock();
    if (!transport_failed && shipping.size() == 1) {
      shipping.front()->reply = serialize::to_batch_reply(std::move(*response));
    } else if (!transport_failed) {
      const auto* batch_resp = std::get_if<serialize::BatchResponse>(&*response);
      if (batch_resp != nullptr &&
          batch_resp->replies.size() == shipping.size()) {
        for (std::size_t i = 0; i < shipping.size(); ++i) {
          shipping[i]->reply = batch_resp->replies[i];
        }
      } else if (const auto* err =
                     std::get_if<serialize::ErrorResponse>(&*response)) {
        // Top-level refusal (e.g. kBatchTooLarge) applies to every op.
        for (PendingOp* slot : shipping) slot->reply = *err;
      } else {
        transport_failed = true;
        failure = "malformed batch response";
      }
    }
    if (transport_failed) {
      for (PendingOp* slot : shipping) {
        slot->reply = serialize::ErrorResponse{
            serialize::ErrorCode::kUnavailable, failure};
      }
    }
    for (PendingOp* slot : shipping) slot->done = true;
    batch_done_cv_.notify_all();
    // Our own slots may have been shipped by an earlier leader instead.
    while (!slots_done()) batch_done_cv_.wait(batch_mu_);
  }
  --batch_inflight_;  // lock is held again on both paths

  std::vector<serialize::BatchReply> replies;
  replies.reserve(slots.size());
  for (auto& slot : slots) replies.push_back(std::move(slot.reply));
  return replies;
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

    // Fail-open: the store is an accelerator, not a dependency. Any
    // transport/channel/protocol failure on the GET path degrades this call
    // to a local compute; the breaker/reconnect machinery (if present)
    // restores service for later calls.
    Message response;
    const GetResponse* get_resp = nullptr;
    {
      const telemetry::TraceSpan::StageTimer t(span,
                                               telemetry::Stage::kStoreGet);
      if (config_.fail_open) {
        try {
          response = batched_round_trip(get);
          get_resp = std::get_if<GetResponse>(&response);
        } catch (const Error&) {
          get_resp = nullptr;
        }
      } else {
        response = batched_round_trip(get);
        get_resp = std::get_if<GetResponse>(&response);
        if (get_resp == nullptr) {
          throw ProtocolError("DedupRuntime: expected GET_RESPONSE");
        }
      }
    }
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
  } else if (config_.fail_open) {
    try {
      send_put(std::move(put));
    } catch (const Error&) {
      metrics_.puts_rejected.inc();
    }
  } else {
    send_put(std::move(put));
  }
}

void DedupRuntime::send_put(PutRequest put) {
  // Moved into the message that ships it: the entry is never copied.
  const Message response = secure_round_trip(Message(std::move(put)));
  const auto* put_resp = std::get_if<PutResponse>(&response);
  if (put_resp == nullptr) {
    throw ProtocolError("DedupRuntime: expected PUT_RESPONSE");
  }
  metrics_.puts_sent.inc();
  if (put_resp->status != PutStatus::kStored &&
      put_resp->status != PutStatus::kAlreadyPresent) {
    metrics_.puts_rejected.inc();
  }
}

void DedupRuntime::send_put_batch(std::vector<PutRequest> puts) {
  if (!config_.batching.enabled || puts.size() == 1) {
    for (auto& put : puts) send_put(std::move(put));
    return;
  }
  // The whole drained run rides the micro-batcher, where it may coalesce
  // further with concurrent GETs into one frame.
  std::vector<serialize::BatchOp> ops;
  ops.reserve(puts.size());
  for (auto& put : puts) ops.emplace_back(std::move(put));
  const std::vector<serialize::BatchReply> replies =
      batch_execute(std::move(ops));
  for (const auto& reply : replies) {
    const auto* put_resp = std::get_if<PutResponse>(&reply);
    if (put_resp == nullptr) {
      metrics_.puts_rejected.inc();  // per-op error or malformed reply kind
      continue;
    }
    metrics_.puts_sent.inc();
    if (put_resp->status != PutStatus::kStored &&
        put_resp->status != PutStatus::kAlreadyPresent) {
      metrics_.puts_rejected.inc();
    }
  }
}

void DedupRuntime::put_worker() {
  for (;;) {
    std::vector<PutRequest> puts;
    {
      MutexLock lock(queue_mu_);
      while (!shutting_down_ && put_queue_.empty()) {
        queue_cv_.wait(queue_mu_);
      }
      if (put_queue_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      // Drain a run: with batching on, everything queued (up to max_ops)
      // ships in one frame under one ECALL; otherwise one PUT per ECALL,
      // the historical behavior.
      const std::size_t take =
          config_.batching.enabled
              ? std::min(put_queue_.size(),
                         std::max<std::size_t>(config_.batching.max_ops, 1))
              : 1;
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
    try {
      enclave_.ecall([&] { send_put_batch(std::move(puts)); });
    } catch (const Error&) {
      metrics_.puts_rejected.inc();
    }
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

std::vector<serialize::BatchReply> DedupRuntime::stream_ops(
    std::vector<serialize::BatchOp> ops) {
  if (ops.empty()) return {};
  if (config_.batching.enabled) return batch_execute(std::move(ops));
  // Unbatched (or v1-only peer): one plain round trip per op, failures
  // mapped to per-op error replies so the caller's degrade logic is
  // identical on both paths.
  std::vector<serialize::BatchReply> replies;
  replies.reserve(ops.size());
  for (serialize::BatchOp& op : ops) {
    try {
      replies.push_back(serialize::to_batch_reply(std::visit(
          [this](auto& o) { return secure_round_trip(Message(std::move(o))); },
          op)));
    } catch (const Error& e) {
      replies.emplace_back(serialize::ErrorResponse{
          serialize::ErrorCode::kUnavailable, e.what()});
    }
  }
  return replies;
}

}  // namespace speed::runtime
