#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "telemetry/registry.h"

namespace perfbench {

using namespace speed;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------------ metrics

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

const Metric* Metrics::find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

// -------------------------------------------------------------------- spans

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kCall: return "call";
    case SpanKind::kRoundTrip: return "round_trip";
    case SpanKind::kAsyncPut: return "async_put";
    case SpanKind::kCompute: return "compute";
    case SpanKind::kStreamPut: return "stream_put";
    case SpanKind::kStreamGet: return "stream_get";
  }
  return "?";
}

SpanLog& SpanLog::get() {
  static SpanLog log;
  return log;
}

void SpanLog::start() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.clear();
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  enabled_.store(true, std::memory_order_release);
}

std::uint64_t& SpanLog::current() {
  thread_local std::uint64_t open_call = 0;
  return open_call;
}

std::vector<Span>& SpanLog::local() {
  thread_local std::uint64_t seen_epoch = 0;
  thread_local std::vector<Span>* buffer = nullptr;
  const std::uint64_t epoch = epoch_.load(std::memory_order_acquire);
  if (seen_epoch != epoch || buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<std::vector<Span>>());
    buffer = buffers_.back().get();
    buffer->reserve(1 << 16);
    seen_epoch = epoch;
  }
  return *buffer;
}

void SpanLog::record(const Span& span) {
  if (!enabled()) return;
  local().push_back(span);
}

std::vector<Span> SpanLog::collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const auto& buffer : buffers_) {
    out.insert(out.end(), buffer->begin(), buffer->end());
  }
  std::sort(out.begin(), out.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return out;
}

Bytes TimedTransport::round_trip(ByteView request) {
  SpanLog& log = SpanLog::get();
  Span span;
  const bool traced = log.enabled();
  if (traced) {
    span.id = log.next_id();
    span.parent = SpanLog::current();
    span.kind = span.parent == 0 ? SpanKind::kAsyncPut : SpanKind::kRoundTrip;
    span.start_ns = now_ns();
  }
  Bytes response = inner_->round_trip(request);
  counters_.frames.fetch_add(1, std::memory_order_relaxed);
  counters_.tx_bytes.fetch_add(request.size(), std::memory_order_relaxed);
  counters_.rx_bytes.fetch_add(response.size(), std::memory_order_relaxed);
  if (traced) {
    span.end_ns = now_ns();
    span.tx_bytes = request.size();
    span.rx_bytes = response.size();
    log.record(span);
  }
  return response;
}

std::vector<net::ClusterNode> decorate_dials(std::vector<net::ClusterNode> nodes,
                                            FrameCounters& counters) {
  for (net::ClusterNode& node : nodes) {
    node.dial = [inner = std::move(node.dial), &counters]() {
      net::ResilientTransport::Connection conn = inner();
      conn.transport =
          std::make_unique<TimedTransport>(std::move(conn.transport), counters);
      return conn;
    };
  }
  return nodes;
}

// ----------------------------------------------------------- measurement

double quantile_us(std::vector<std::uint64_t> samples, double q) {
  if (samples.empty()) return 0;
  const std::size_t k = std::min(
      samples.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(samples.size())));
  std::nth_element(samples.begin(), samples.begin() + k, samples.end());
  return static_cast<double>(samples[k]) / 1e3;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double rss_peak_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

CpuTicks CpuTicks::read() {
  // cpu  user nice system idle iowait irq softirq steal guest guest_nice
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  CpuTicks t;
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(stat >> v)) break;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double steal_pct(const CpuTicks& before, const CpuTicks& after) {
  const std::uint64_t total = after.total - before.total;
  return total > 0 ? 100.0 * static_cast<double>(after.steal - before.steal) /
                         static_cast<double>(total)
                   : 0;
}

Slots::Slots(std::int64_t start_ns, double seconds)
    : start_ns_(start_ns),
      deadline_ns_(start_ns + static_cast<std::int64_t>(seconds * 1e9)),
      count_(std::max<std::size_t>(1, static_cast<std::size_t>(seconds))),
      kept_(count_, true) {}

std::uint32_t Slots::of(std::int64_t t_ns) const {
  const std::int64_t slot = (t_ns - start_ns_) / 1'000'000'000;
  return static_cast<std::uint32_t>(std::clamp<std::int64_t>(
      slot, 0, static_cast<std::int64_t>(count_) - 1));
}

void Slots::watch() {
  std::vector<CpuTicks> edges{CpuTicks::read()};
  for (std::size_t i = 1; i <= count_; ++i) {
    const std::int64_t edge =
        i == count_ ? deadline_ns_
                    : start_ns_ + static_cast<std::int64_t>(i) * 1'000'000'000;
    std::this_thread::sleep_for(std::chrono::nanoseconds(
        std::max<std::int64_t>(0, edge - now_ns())));
    edges.push_back(CpuTicks::read());
  }
  std::vector<std::pair<double, std::size_t>> by_steal;
  for (std::size_t i = 0; i < count_; ++i) {
    by_steal.emplace_back(steal_pct(edges[i], edges[i + 1]), i);
  }
  std::sort(by_steal.begin(), by_steal.end());
  const std::size_t keep = (count_ + 1) / 2;
  kept_.assign(count_, false);
  CpuTicks kept_sum;
  for (std::size_t k = 0; k < keep; ++k) {
    const std::size_t i = by_steal[k].second;
    kept_[i] = true;
    kept_sum.steal += edges[i + 1].steal - edges[i].steal;
    kept_sum.total += edges[i + 1].total - edges[i].total;
  }
  steal_all_ = steal_pct(edges.front(), edges.back());
  steal_kept_ = steal_pct(CpuTicks{}, kept_sum);
}

telemetry::HistogramSnapshot registry_histogram(const std::string& name) {
  telemetry::HistogramSnapshot merged;
  for (const telemetry::Family& family : telemetry::Registry::global().collect()) {
    if (family.name != name) continue;
    for (const telemetry::Sample& sample : family.samples) {
      merged.merge(sample.hist);
    }
  }
  return merged;
}

telemetry::HistogramSnapshot histogram_delta(
    const telemetry::HistogramSnapshot& after,
    const telemetry::HistogramSnapshot& before) {
  telemetry::HistogramSnapshot out = after;
  for (std::size_t i = 0; i < before.buckets.size() && i < out.buckets.size();
       ++i) {
    out.buckets[i] -= before.buckets[i];
  }
  out.count -= before.count;
  out.sum -= before.sum;
  return out;
}

RegistryHistograms RegistryHistograms::read() {
  RegistryHistograms r;
  r.store_get_ns = registry_histogram("speed_store_get_ns");
  r.store_put_ns = registry_histogram("speed_store_put_ns");
  r.cluster_walk_ns = registry_histogram("speed_cluster_walk_ns");
  r.runtime_batch_ops = registry_histogram("speed_runtime_batch_ops");
  r.manifest_bytes = registry_histogram("speed_runtime_stream_manifest_bytes");
  return r;
}

RegistryHistograms RegistryHistograms::operator-(
    const RegistryHistograms& before) const {
  RegistryHistograms r;
  r.store_get_ns = histogram_delta(store_get_ns, before.store_get_ns);
  r.store_put_ns = histogram_delta(store_put_ns, before.store_put_ns);
  r.cluster_walk_ns = histogram_delta(cluster_walk_ns, before.cluster_walk_ns);
  r.runtime_batch_ops =
      histogram_delta(runtime_batch_ops, before.runtime_batch_ops);
  r.manifest_bytes = histogram_delta(manifest_bytes, before.manifest_bytes);
  return r;
}

void LayerSnap::add(const runtime::DedupRuntime::Stats& s) {
  rt.calls += s.calls;
  rt.local_hits += s.local_hits;
  rt.hits += s.hits;
  rt.misses += s.misses;
  rt.failed_recoveries += s.failed_recoveries;
  rt.degraded_calls += s.degraded_calls;
  rt.puts_sent += s.puts_sent;
  rt.puts_rejected += s.puts_rejected;
  rt.puts_dropped += s.puts_dropped;
  rt.stream_puts += s.stream_puts;
  rt.stream_gets += s.stream_gets;
  rt.stream_whole_hits += s.stream_whole_hits;
  rt.stream_chunks += s.stream_chunks;
  rt.stream_chunk_hits += s.stream_chunk_hits;
  rt.stream_bytes_deduped += s.stream_bytes_deduped;
  rt.stream_inline_chunks += s.stream_inline_chunks;
  rt.stream_degraded += s.stream_degraded;
}

void LayerSnap::add(const store::ResultStore::Stats& s) {
  store.get_requests += s.get_requests;
  store.hits += s.hits;
  store.put_requests += s.put_requests;
  store.stored += s.stored;
  store.duplicate_puts += s.duplicate_puts;
  store.quota_rejections += s.quota_rejections;
  store.evictions += s.evictions;
  store.corrupt_blobs += s.corrupt_blobs;
  store.entries += s.entries;
  store.ciphertext_bytes += s.ciphertext_bytes;
  store.meta_spills += s.meta_spills;
  store.meta_fault_ins += s.meta_fault_ins;
  store.meta_resident_bytes += s.meta_resident_bytes;
}

void LayerSnap::add(const net::ClusterTransport::Stats& s) {
  cluster.gets += s.gets;
  cluster.puts += s.puts;
  cluster.failovers += s.failovers;
  cluster.partial_puts += s.partial_puts;
  cluster.unavailable += s.unavailable;
}

void LayerSnap::add(const FrameCounters& c) {
  frames += c.frames.load();
  tx_bytes += c.tx_bytes.load();
  rx_bytes += c.rx_bytes.load();
}

LayerSnap LayerSnap::operator-(const LayerSnap& b) const {
  LayerSnap d = *this;  // gauges keep this (the later) read
  d.app_ecalls -= b.app_ecalls;
  d.app_ocalls -= b.app_ocalls;
  d.store_ecalls -= b.store_ecalls;
  d.swapped_pages -= b.swapped_pages;
  d.frames -= b.frames;
  d.tx_bytes -= b.tx_bytes;
  d.rx_bytes -= b.rx_bytes;
  d.session_errors -= b.session_errors;
  d.rt.calls -= b.rt.calls;
  d.rt.local_hits -= b.rt.local_hits;
  d.rt.hits -= b.rt.hits;
  d.rt.misses -= b.rt.misses;
  d.rt.failed_recoveries -= b.rt.failed_recoveries;
  d.rt.degraded_calls -= b.rt.degraded_calls;
  d.rt.puts_sent -= b.rt.puts_sent;
  d.rt.puts_rejected -= b.rt.puts_rejected;
  d.rt.puts_dropped -= b.rt.puts_dropped;
  d.rt.stream_puts -= b.rt.stream_puts;
  d.rt.stream_gets -= b.rt.stream_gets;
  d.rt.stream_whole_hits -= b.rt.stream_whole_hits;
  d.rt.stream_chunks -= b.rt.stream_chunks;
  d.rt.stream_chunk_hits -= b.rt.stream_chunk_hits;
  d.rt.stream_bytes_deduped -= b.rt.stream_bytes_deduped;
  d.rt.stream_inline_chunks -= b.rt.stream_inline_chunks;
  d.rt.stream_degraded -= b.rt.stream_degraded;
  d.store.get_requests -= b.store.get_requests;
  d.store.hits -= b.store.hits;
  d.store.put_requests -= b.store.put_requests;
  d.store.stored -= b.store.stored;
  d.store.duplicate_puts -= b.store.duplicate_puts;
  d.store.quota_rejections -= b.store.quota_rejections;
  d.store.evictions -= b.store.evictions;
  d.store.corrupt_blobs -= b.store.corrupt_blobs;
  d.store.meta_spills -= b.store.meta_spills;
  d.store.meta_fault_ins -= b.store.meta_fault_ins;
  d.cluster.gets -= b.cluster.gets;
  d.cluster.puts -= b.cluster.puts;
  d.cluster.failovers -= b.cluster.failovers;
  d.cluster.partial_puts -= b.cluster.partial_puts;
  d.cluster.unavailable -= b.cluster.unavailable;
  d.hist = hist - b.hist;
  return d;
}

StageMeans stage_means(const telemetry::TraceRing& ring,
                       std::uint64_t first_id) {
  using telemetry::CallOutcome;
  using telemetry::Stage;
  const auto stage = [](const telemetry::TraceRecord& r, Stage s) {
    return static_cast<double>(r.stage_ns[static_cast<std::size_t>(s)]) / 1e3;
  };
  StageMeans m;
  double hits = 0, misses = 0;
  for (const telemetry::TraceRecord& r : ring.snapshot()) {
    if (r.id < first_id) continue;
    m.calls += 1;
    m.tag_derive_us += stage(r, Stage::kTagDerive);
    if (r.outcome == CallOutcome::kStoreHit) {
      hits += 1;
      m.recover_us += stage(r, Stage::kRecover);
    }
    if (r.outcome == CallOutcome::kMiss) {
      misses += 1;
      m.put_enqueue_us += stage(r, Stage::kPutEnqueue);
    }
    for (std::size_t s = 0; s < r.stage_ns.size(); ++s) {
      m.stages_us += static_cast<double>(r.stage_ns[s]) / 1e3;
    }
  }
  if (m.calls > 0) {
    m.tag_derive_us /= m.calls;
    m.stages_us /= m.calls;
  }
  if (hits > 0) m.recover_us /= hits;
  if (misses > 0) m.put_enqueue_us /= misses;
  return m;
}

// ------------------------------------------------------------------ probes

namespace {

/// Microseconds per MiB of `bytes` processed in `ns`.
double us_per_mib(double ns, double bytes) {
  return bytes > 0 ? (ns / 1e3) / (bytes / kMiB) : 0;
}

}  // namespace

void run_probes(const std::vector<Bytes>& inputs,
                const std::vector<Bytes>& results,
                const mle::FunctionIdentity& fn, Metrics& out) {
  // mle: tag derivation over the inputs.
  double tag_ns = 0, input_bytes = 0;
  for (const Bytes& input : inputs) {
    const std::int64_t t0 = now_ns();
    const mle::ComputationContext ctx(fn, input);
    (void)ctx.tag();
    tag_ns += static_cast<double>(now_ns() - t0);
    input_bytes += static_cast<double>(input.size());
  }
  out.set("mle.tag_derive_us_per_kib",
          input_bytes > 0 ? (tag_ns / 1e3) / (input_bytes / 1024.0) : 0,
          "us/KiB");

  // mle: RCE protect / recover over the results; net: channel wrap+unwrap.
  crypto::Drbg drbg(as_bytes("perfbench probe drbg seed"));
  Bytes key(16, 0x5a);
  net::SecureChannel client(Bytes(key), /*is_initiator=*/true);
  net::SecureChannel server(Bytes(key), /*is_initiator=*/false);
  double protect_ns = 0, recover_ns = 0, channel_ns = 0, result_bytes = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Bytes& result = results[i];
    const mle::ComputationContext ctx(fn, inputs[i % inputs.size()]);
    std::int64_t t0 = now_ns();
    const serialize::EntryPayload entry =
        mle::ResultCipher::protect(ctx, result, drbg);
    protect_ns += static_cast<double>(now_ns() - t0);
    t0 = now_ns();
    const auto recovered = mle::ResultCipher::recover(ctx, entry);
    recover_ns += static_cast<double>(now_ns() - t0);
    if (!recovered.has_value() || recovered->size() != result.size()) {
      throw std::runtime_error("probe: ResultCipher round trip failed");
    }
    t0 = now_ns();
    const Bytes frame = client.wrap(result);
    const auto plain = server.unwrap(frame);
    channel_ns += static_cast<double>(now_ns() - t0);
    if (!plain.has_value() || *plain != result) {
      throw std::runtime_error("probe: SecureChannel round trip failed");
    }
    result_bytes += static_cast<double>(result.size());
  }
  out.set("mle.protect_us_per_mib", us_per_mib(protect_ns, result_bytes),
          "us/MiB");
  out.set("mle.recover_us_per_mib", us_per_mib(recover_ns, result_bytes),
          "us/MiB");
  out.set("net.channel_wrap_us_per_mib", us_per_mib(channel_ns, result_bytes),
          "us/MiB");

  // chunk: content-defined split of the inputs.
  const chunk::Chunker chunker;
  double split_ns = 0;
  std::size_t chunks = 0;
  for (const Bytes& input : inputs) {
    const std::int64_t t0 = now_ns();
    chunks += chunker.split(input).size();
    split_ns += static_cast<double>(now_ns() - t0);
  }
  if (chunks == 0 && input_bytes > 0) {
    throw std::runtime_error("probe: chunker produced no chunks");
  }
  out.set("chunk.split_us_per_mib", us_per_mib(split_ns, input_bytes),
          "us/MiB");
}

void charge_probe(Metrics& out) {
  const sgx::CostModel model{};
  const auto error_pct = [&](std::uint64_t ns) {
    const int reps = static_cast<int>(20'000'000 / ns);  // ~20 ms per size
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < reps; ++i) sgx::charge_wait(model, ns);
    const double per = static_cast<double>(now_ns() - t0) / reps;
    return 100.0 * (per - static_cast<double>(ns)) / static_cast<double>(ns);
  };
  out.set("sgx.charge_error_pct", error_pct(model.ecall_ns), "%");
  out.set("sgx.page_swap_charge_error_pct", error_pct(model.epc_page_swap_ns),
          "%");
}

double modelled_us(std::uint64_t app_ecalls, std::uint64_t app_ocalls,
                   std::uint64_t store_ecalls, std::uint64_t swapped_pages,
                   std::uint64_t calls) {
  if (calls == 0) return 0;
  const sgx::CostModel model{};
  // Each transition is charged on the way in and on the way out.
  const double ns = 2.0 * static_cast<double>(app_ecalls + store_ecalls) *
                        static_cast<double>(model.ecall_ns) +
                    2.0 * static_cast<double>(app_ocalls) *
                        static_cast<double>(model.ocall_ns) +
                    static_cast<double>(swapped_pages) *
                        static_cast<double>(model.epc_page_swap_ns);
  return ns / 1e3 / static_cast<double>(calls);
}

// ------------------------------------------------------------ span summary

SpanSummary summarize_spans(const std::vector<Span>& spans) {
  SpanSummary s;
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;

  std::vector<std::int64_t> child_ns(spans.size(), 0);
  std::vector<std::uint64_t> rtts;
  double compute_miss_ns = 0, compute_misses = 0, stream_put_rtts = 0;
  for (const Span& span : spans) {
    if (span.kind == SpanKind::kRoundTrip || span.kind == SpanKind::kAsyncPut) {
      rtts.push_back(static_cast<std::uint64_t>(span.duration_ns()));
      s.rtt_sum_us += static_cast<double>(span.duration_ns()) / 1e3;
    }
    if (span.parent == 0) continue;
    const auto it = index.find(span.parent);
    if (it == index.end()) continue;
    const Span& parent = spans[it->second];
    child_ns[it->second] += span.duration_ns();
    if (span.kind == SpanKind::kCompute && parent.served == Served::kMiss) {
      compute_miss_ns += static_cast<double>(span.duration_ns());
      compute_misses += 1;
    }
    if (span.kind == SpanKind::kRoundTrip &&
        parent.kind == SpanKind::kStreamPut) {
      stream_put_rtts += 1;
    }
  }

  double call_ns = 0, children = 0, self_ns = 0, self_calls = 0, puts = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.kind != SpanKind::kCall && span.kind != SpanKind::kStreamPut &&
        span.kind != SpanKind::kStreamGet) {
      continue;
    }
    s.calls += 1;
    call_ns += static_cast<double>(span.duration_ns());
    children += static_cast<double>(child_ns[i]);
    if (span.kind == SpanKind::kStreamPut) puts += 1;
    if (span.served != Served::kLocalHit) {
      self_ns += static_cast<double>(span.duration_ns() - child_ns[i]);
      self_calls += 1;
    }
  }
  s.round_trips = rtts.size();
  if (s.calls > 0) {
    s.call_mean_us = call_ns / 1e3 / static_cast<double>(s.calls);
    s.children_mean_us = children / 1e3 / static_cast<double>(s.calls);
  }
  if (self_calls > 0) s.self_mean_us = self_ns / 1e3 / self_calls;
  s.rtt_p50_us = quantile_us(rtts, 0.50);
  s.rtt_p99_us = quantile_us(rtts, 0.99);
  if (compute_misses > 0) {
    s.compute_per_miss_us = compute_miss_ns / 1e3 / compute_misses;
  }
  if (puts > 0) s.rtts_per_stream_put = stream_put_rtts / puts;
  return s;
}

namespace {

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double mib(std::uint64_t bytes) { return static_cast<double>(bytes) / kMiB; }

}  // namespace

void set_layer_metrics(const LayerInputs& in, Metrics& out) {
  const LayerSnap& d = in.delta;
  const double calls = static_cast<double>(in.calls);
  const sgx::CostModel model{};
  const auto per_call = [&](std::uint64_t n) {
    return ratio(static_cast<double>(n), calls);
  };

  out.set("sgx.app_ecalls_per_call", per_call(d.app_ecalls), "count");
  out.set("sgx.app_ocalls_per_call", per_call(d.app_ocalls), "count");
  out.set("sgx.store_ecalls_per_call", per_call(d.store_ecalls), "count");
  out.set("sgx.modelled_us_per_call",
          modelled_us(d.app_ecalls, d.app_ocalls, d.store_ecalls,
                      d.swapped_pages, in.calls),
          "us");
  out.set("sgx.epc_swapped_pages", static_cast<double>(d.swapped_pages),
          "count");

  out.set("runtime.local_hit_ratio",
          ratio(static_cast<double>(d.rt.local_hits),
                static_cast<double>(d.rt.calls)),
          "fraction");
  out.set("runtime.self_us", in.spans.self_mean_us, "us");
  out.set("runtime.tag_derive_us", in.stages.tag_derive_us, "us");
  out.set("runtime.recover_us", in.stages.recover_us, "us");
  out.set("runtime.put_enqueue_us", in.stages.put_enqueue_us, "us");
  // Without batching every frame carries exactly one op.
  const double ops_per_frame = d.hist.runtime_batch_ops.count > 0
                                   ? d.hist.runtime_batch_ops.mean()
                                   : (d.frames > 0 ? 1.0 : 0.0);
  out.set("runtime.ops_per_frame", ops_per_frame, "count");
  out.set("runtime.flush_ms", in.flush_ms, "ms");
  out.set("runtime.puts_dropped", static_cast<double>(d.rt.puts_dropped),
          "count");
  out.set("runtime.puts_rejected", static_cast<double>(d.rt.puts_rejected),
          "count");

  out.set("net.round_trip_p50_us", in.spans.rtt_p50_us, "us");
  out.set("net.round_trip_p99_us", in.spans.rtt_p99_us, "us");
  out.set("net.round_trips_per_call", per_call(d.frames), "count");
  out.set("net.request_bytes_per_call", per_call(d.tx_bytes), "bytes");
  out.set("net.response_bytes_per_call", per_call(d.rx_bytes), "bytes");
  const double store_service_us =
      static_cast<double>(d.hist.store_get_ns.sum + d.hist.store_put_ns.sum) /
      1e3;
  out.set("net.outside_store_us",
          ratio(in.spans.rtt_sum_us - store_service_us,
                static_cast<double>(in.spans.round_trips)),
          "us");
  out.set("net.session_errors", static_cast<double>(d.session_errors),
          "count");

  const auto quantile_us_of = [](const telemetry::HistogramSnapshot& h,
                                 double q) {
    return static_cast<double>(h.quantile(q)) / 1e3;
  };
  out.set("store.get_p50_us", quantile_us_of(d.hist.store_get_ns, 0.5), "us");
  out.set("store.put_p50_us", quantile_us_of(d.hist.store_put_ns, 0.5), "us");
  const double gets = static_cast<double>(d.store.get_requests);
  out.set("store.hit_ratio", ratio(static_cast<double>(d.store.hits), gets),
          "fraction");
  out.set("store.meta_fault_ins_per_get",
          ratio(static_cast<double>(d.store.meta_fault_ins), gets), "count");
  out.set("store.evictions_per_put",
          ratio(static_cast<double>(d.store.evictions),
                static_cast<double>(d.store.put_requests)),
          "count");
  out.set("store.duplicate_puts", static_cast<double>(d.store.duplicate_puts),
          "count");
  out.set("store.meta_resident_mib", mib(in.after.store.meta_resident_bytes),
          "MiB");
  out.set("store.ciphertext_mib", mib(in.after.store.ciphertext_bytes), "MiB");

  const double stream_puts = static_cast<double>(d.rt.stream_puts);
  out.set("chunk.chunks_per_put",
          ratio(static_cast<double>(d.rt.stream_chunks), stream_puts), "count");
  out.set("chunk.chunk_hit_ratio",
          ratio(static_cast<double>(d.rt.stream_chunk_hits),
                static_cast<double>(d.rt.stream_chunks)),
          "fraction");
  out.set("chunk.inline_chunks", static_cast<double>(d.rt.stream_inline_chunks),
          "count");
  out.set("chunk.manifest_bytes_per_put",
          ratio(static_cast<double>(d.hist.manifest_bytes.sum), stream_puts),
          "bytes");

  out.set("cluster.walk_p50_us", quantile_us_of(d.hist.cluster_walk_ns, 0.5),
          "us");
  out.set("cluster.round_trips_per_put", in.spans.rtts_per_stream_put, "count");
  out.set("cluster.partial_puts", static_cast<double>(d.cluster.partial_puts),
          "count");
  out.set("cluster.failovers", static_cast<double>(d.cluster.failovers),
          "count");
  out.set("cluster.unavailable", static_cast<double>(d.cluster.unavailable),
          "count");

  out.set("apps.compute_us_per_miss", in.spans.compute_per_miss_us, "us");

  // Call time no span covers. Covered: the runtime's own trace stages
  // (which contain the round-trip and compute spans) for execute(), or the
  // round-trip spans for StreamSession calls, plus the modelled transitions
  // the calling thread is charged outside those spans: the call's ECALL
  // and, for StreamSession, the OCALL around every node leg.
  const double ecall_us = 2.0 * static_cast<double>(model.ecall_ns) / 1e3;
  double covered_us = 0;
  if (in.stages.calls > 0) {
    covered_us = in.stages.stages_us + ecall_us;
  } else {
    covered_us = in.spans.children_mean_us + ecall_us +
                 per_call(d.app_ocalls) * 2.0 *
                     static_cast<double>(model.ocall_ns) / 1e3;
  }
  out.set("trace.unattributed_pct",
          100.0 * ratio(in.spans.call_mean_us - covered_us,
                        in.spans.call_mean_us),
          "%");
  out.set("trace.overhead_pct",
          100.0 * (ratio(in.untraced_calls_per_s, in.traced_calls_per_s) - 1.0),
          "%");
}

Metrics count_metrics(const LayerSnap& d) {
  Metrics m;
  const auto count = [&m](const char* name, std::uint64_t v, const char* unit) {
    m.set(name, static_cast<double>(v), unit);
  };
  count("count.app_ecalls", d.app_ecalls, "count");
  count("count.app_ocalls", d.app_ocalls, "count");
  count("count.store_ecalls", d.store_ecalls, "count");
  count("count.round_trips", d.frames, "count");
  count("count.request_bytes", d.tx_bytes, "bytes");
  count("count.response_bytes", d.rx_bytes, "bytes");
  count("count.store_gets", d.store.get_requests, "count");
  count("count.store_puts", d.store.put_requests, "count");
  count("count.meta_spills", d.store.meta_spills, "count");
  count("count.meta_fault_ins", d.store.meta_fault_ins, "count");
  count("count.chunks", d.rt.stream_chunks, "count");
  return m;
}

const std::vector<std::pair<std::string, std::string>>& e2e_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"calls_per_s", "calls/s"},     {"store_hit_p50_us", "us"},
      {"store_hit_tail_us", "us"},    {"user_mib_per_s", "MiB/s"},
      {"setup_s", "s"},               {"rss_peak_mib", "MiB"},
      {"epc_peak_mib", "MiB"},
  };
  return units;
}

const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"sgx.app_ecalls_per_call", "count"},
      {"sgx.app_ocalls_per_call", "count"},
      {"sgx.store_ecalls_per_call", "count"},
      {"sgx.modelled_us_per_call", "us"},
      {"sgx.charge_error_pct", "%"},
      {"sgx.page_swap_charge_error_pct", "%"},
      {"sgx.epc_swapped_pages", "count"},
      {"runtime.local_hit_ratio", "fraction"},
      {"runtime.self_us", "us"},
      {"runtime.tag_derive_us", "us"},
      {"runtime.recover_us", "us"},
      {"runtime.put_enqueue_us", "us"},
      {"runtime.ops_per_frame", "count"},
      {"runtime.flush_ms", "ms"},
      {"runtime.puts_dropped", "count"},
      {"runtime.puts_rejected", "count"},
      {"net.round_trip_p50_us", "us"},
      {"net.round_trip_p99_us", "us"},
      {"net.round_trips_per_call", "count"},
      {"net.request_bytes_per_call", "bytes"},
      {"net.response_bytes_per_call", "bytes"},
      {"net.outside_store_us", "us"},
      {"net.channel_wrap_us_per_mib", "us/MiB"},
      {"net.session_errors", "count"},
      {"mle.tag_derive_us_per_kib", "us/KiB"},
      {"mle.protect_us_per_mib", "us/MiB"},
      {"mle.recover_us_per_mib", "us/MiB"},
      {"store.get_p50_us", "us"},
      {"store.put_p50_us", "us"},
      {"store.hit_ratio", "fraction"},
      {"store.meta_fault_ins_per_get", "count"},
      {"store.evictions_per_put", "count"},
      {"store.duplicate_puts", "count"},
      {"store.meta_resident_mib", "MiB"},
      {"store.ciphertext_mib", "MiB"},
      {"chunk.split_us_per_mib", "us/MiB"},
      {"chunk.chunks_per_put", "count"},
      {"chunk.chunk_hit_ratio", "fraction"},
      {"chunk.inline_chunks", "count"},
      {"chunk.manifest_bytes_per_put", "bytes"},
      {"cluster.walk_p50_us", "us"},
      {"cluster.round_trips_per_put", "count"},
      {"cluster.partial_puts", "count"},
      {"cluster.failovers", "count"},
      {"cluster.unavailable", "count"},
      {"apps.compute_us_per_miss", "us"},
      {"trace.unattributed_pct", "%"},
      {"trace.overhead_pct", "%"},
      {"count.app_ecalls", "count"},
      {"count.app_ocalls", "count"},
      {"count.store_ecalls", "count"},
      {"count.round_trips", "count"},
      {"count.request_bytes", "bytes"},
      {"count.response_bytes", "bytes"},
      {"count.store_gets", "count"},
      {"count.store_puts", "count"},
      {"count.meta_spills", "count"},
      {"count.meta_fault_ins", "count"},
      {"count.chunks", "count"},
  };
  return units;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  constexpr std::size_t limit = 100000;  // bounds the file, not the summary
  if (path.empty()) return;
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;
  std::fprintf(out, "id,parent,name,start_ns,end_ns,tx_bytes,rx_bytes,served\n");
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  for (std::size_t i = 0; i < spans.size() && i < limit; ++i) {
    const Span& s = spans[i];
    std::fprintf(out, "%llu,%llu,%s,%lld,%lld,%llu,%llu,%u\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), span_name(s.kind),
                 static_cast<long long>(s.start_ns - t0),
                 static_cast<long long>(s.end_ns - t0),
                 static_cast<unsigned long long>(s.tx_bytes),
                 static_cast<unsigned long long>(s.rx_bytes),
                 static_cast<unsigned>(s.served));
  }
  std::fclose(out);
}

// -------------------------------------------------------------- workloads

std::uint64_t hash64(ByteView data) {
  std::uint64_t h = 0x243f6a8885a308d3ull ^ data.size();
  std::size_t i = 0;
  for (; i + 8 <= data.size(); i += 8) {
    std::uint64_t w;
    std::memcpy(&w, data.data() + i, 8);
    h = (h ^ w) * 0x9e3779b97f4a7c15ull;
    h ^= h >> 29;
  }
  for (; i < data.size(); ++i) {
    h = (h ^ data[i]) * 0x100000001b3ull;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  return h;
}

Bytes expand(ByteView input, std::size_t n) {
  Bytes out(n);
  std::uint64_t x = hash64(input);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // splitmix64
    std::uint64_t z = (x += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    std::memcpy(out.data() + i, &z, 8);
  }
  for (; i < n; ++i) out[i] = static_cast<std::uint8_t>(x >> (8 * (i % 8)));
  return out;
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a ^ (b + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::string host_record_json(const Options& opt) {
  const sgx::CostModel model{};
#if defined(__SANITIZE_ADDRESS__)
  const char* sanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
  const char* sanitizer = "thread";
#else
  const char* sanitizer = "none";
#endif
  std::ostringstream os;
  os << "{\"host\": {\"cores\": " << std::thread::hardware_concurrency()
     << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\""
     << ", \"lock_rank_check\": "
     << (PERFBENCH_LOCK_RANK_CHECK ? "true" : "false")
     << ", \"sanitizer\": \"" << sanitizer << "\""
     << ", \"compiler\": \"" << __VERSION__ << "\""
     << ", \"cost_model\": {\"ecall_ns\": " << model.ecall_ns
     << ", \"ocall_ns\": " << model.ocall_ns
     << ", \"epc_page_swap_ns\": " << model.epc_page_swap_ns
     << ", \"epc_usable_bytes\": " << model.epc_usable_bytes
     << ", \"wait\": \""
     << (model.wait == sgx::CostModel::Wait::kSpin ? "spin" : "sleep") << "\"}"
     << ", \"workload\": \"" << opt.workload << "\""
     << ", \"seed\": " << opt.seed << ", \"seconds\": " << opt.seconds
     << ", \"trace\": " << (opt.trace ? 1 : 0)
     << ", \"held_out_seed\": " << kHeldOutSeed
     << ", \"count_pass_seed\": " << kCountPassSeed
     << ", \"git_commit\": \"" << opt.commit << "\""
     << ", \"source_sha256\": \"" << opt.source_digest << "\"}}";
  return os.str();
}

}  // namespace perfbench
