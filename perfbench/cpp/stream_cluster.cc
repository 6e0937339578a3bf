// Workload stream_cluster: the chunked storage data path on a replicated
// store.
//
// A 3-node InprocCluster with one replica per entry, built as
// examples/cluster_deployment.cpp builds it. Two tenant enclaves, one
// closed-loop thread each, drive a StreamSession over a batching runtime in
// cluster mode. Each tenant puts a version chain of ~1 MiB blobs (a base
// blob sampled from a Zipf block pool both tenants share, then a few small
// edits per version, the workload::stream_version_chain recipe) and after
// every put reads back an earlier version by its handle.
#include <cstdio>
#include <thread>

#include "common/rng.h"
#include "harness.h"
#include "workload/stream_corpus.h"

namespace perfbench {

using namespace speed;

namespace {

constexpr char kFamily[] = "perfbench-blobs";
constexpr char kVersion[] = "1.0";
constexpr char kCode[] = "perfbench blob service v1";
constexpr char kSignature[] = "bytes put_blob(bytes)";
/// Versions each tenant keeps (bytes and handle) for its read-backs.
constexpr std::size_t kKeep = 8;
constexpr std::size_t kEditsPerVersion = 3;
constexpr std::size_t kEditBytes = 64;

workload::StreamCorpusConfig corpus_config() {
  workload::StreamCorpusConfig c;
  c.blob_bytes = 1024 * 1024;
  c.block_bytes = 4 * 1024;
  c.universe = 256;
  c.skew = 1.0;
  return c;
}

struct ClusterDeployment {
  static store::InprocClusterConfig config() {
    store::InprocClusterConfig c;
    c.nodes = 3;
    c.cluster.replicas = 1;
    // Every put adds ~0.1 MiB of new chunks and manifest per replica, so an
    // unbounded store would grow with throughput and a faster put would read
    // as a memory regression. A 16 MiB arena per node fills within the first
    // seconds of a window; LRU eviction then holds memory flat. A GET hit
    // refreshes recency, and every put GETs the chunks the kept versions
    // share, so eviction takes superseded chunks and old manifests.
    c.store.max_ciphertext_bytes = 16ull * 1024 * 1024;
    return c;
  }

  ClusterDeployment() : cluster(platform, config()) {
    for (int i = 0; i < 2; ++i) {
      enclaves.push_back(
          platform.create_enclave("perfbench-tenant-" + std::to_string(i)));
    }
  }

  sgx::Platform platform;  // default CostModel: 4 us transitions, spin
  store::InprocCluster cluster;
  std::vector<std::unique_ptr<sgx::Enclave>> enclaves;
};

/// One completed put() or get().
struct Timed {
  std::uint32_t slot = 0;
  bool get = false;
  std::uint64_t bytes = 0;
  std::uint64_t ns = 0;
};

/// The counters cover every call; the timings are filtered by slot.
struct Tally {
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t exceptions = 0;
  std::uint64_t mismatches = 0;
  std::vector<Timed> timed;

  void merge(const Tally& o) {
    puts += o.puts;
    gets += o.gets;
    exceptions += o.exceptions;
    mismatches += o.mismatches;
    timed.insert(timed.end(), o.timed.begin(), o.timed.end());
  }
  std::uint64_t calls() const { return puts + gets; }
};

/// One tenant: its runtime, stream session and version chain.
class Tenant {
 public:
  Tenant(ClusterDeployment& dep, std::size_t index, std::uint64_t seed,
         std::uint64_t set, FrameCounters* counters, bool traced)
      : enclave_(*dep.enclaves[index]),
        traced_(traced),
        pool_seed_(seed),
        chain_seed_(mix(mix(seed, index + 1), set + 1)),
        rng_(mix(chain_seed_, 0xfeed)) {
    auto nodes = dep.cluster.dial_list(enclave_);
    if (counters != nullptr) nodes = decorate_dials(std::move(nodes), *counters);
    cluster_ = std::make_shared<net::ClusterTransport>(
        enclave_, std::move(nodes), ClusterDeployment::config().cluster);
    runtime::RuntimeConfig config;
    config.tracing = traced;
    config.batching.enabled = true;
    rt_ = std::make_unique<runtime::DedupRuntime>(enclave_, cluster_, config);
    rt_->libraries().register_library(kFamily, kVersion, as_bytes(kCode));
    fn_ = rt_->resolve({kFamily, kVersion, kSignature});
    session_ = std::make_unique<runtime::StreamSession>(*rt_, fn_);
  }

  /// The next version of this tenant's chain (outside any timing).
  Bytes next_version() {
    const workload::StreamCorpusConfig cfg = corpus_config();
    if (versions_ == 0) {
      return workload::synth_stream_blob(cfg, pool_seed_, chain_seed_);
    }
    return workload::edit_stream_blob(kept_[(versions_ - 1) % kKeep].bytes,
                                      kEditsPerVersion, kEditBytes,
                                      mix(chain_seed_, versions_));
  }

  /// Put the next version, then read back an earlier one and check it.
  /// `slots` (null outside timed windows) places the timings.
  void step(Tally& tally, const Slots* slots) {
    const auto timed = [&](bool get, std::uint64_t bytes, std::int64_t t0,
                           std::int64_t t1) {
      if (slots == nullptr) return;
      tally.timed.push_back(
          {slots->of(t1), get, bytes, static_cast<std::uint64_t>(t1 - t0)});
    };
    Bytes blob = next_version();
    Span put_span;
    if (traced_) {
      put_span.id = SpanLog::get().next_id();
      SpanLog::current() = put_span.id;
    }
    std::int64_t t0 = now_ns();
    std::optional<runtime::StreamHandle> handle;
    try {
      handle = session_->put(blob);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "stream put failed: %s\n", e.what());
      ++tally.exceptions;
    }
    std::int64_t t1 = now_ns();
    SpanLog::current() = 0;
    record(put_span, SpanKind::kStreamPut, t0, t1);
    ++tally.puts;
    if (!handle.has_value()) return;
    timed(false, blob.size(), t0, t1);
    kept_[versions_ % kKeep] = Kept{std::move(blob), std::move(*handle)};
    ++versions_;
    if (versions_ < 2) return;

    const std::uint64_t older =
        1 + rng_.below(std::min<std::uint64_t>(versions_ - 1, kKeep - 1));
    const Kept& kept = kept_[(versions_ - 1 - older) % kKeep];
    Span get_span;
    if (traced_) {
      get_span.id = SpanLog::get().next_id();
      SpanLog::current() = get_span.id;
    }
    Bytes got;
    bool ok = true;
    t0 = now_ns();
    try {
      got = session_->get(kept.handle);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "stream get failed: %s\n", e.what());
      ok = false;
    }
    t1 = now_ns();
    SpanLog::current() = 0;
    record(get_span, SpanKind::kStreamGet, t0, t1);
    ++tally.gets;
    if (!ok) {
      ++tally.exceptions;
      return;
    }
    if (got != kept.bytes) ++tally.mismatches;  // get() must return put()'s bytes
    timed(true, got.size(), t0, t1);
  }

  runtime::DedupRuntime& rt() { return *rt_; }
  net::ClusterTransport& cluster() { return *cluster_; }
  sgx::Enclave& enclave() { return enclave_; }
  const mle::FunctionIdentity& fn() const { return fn_; }

 private:
  struct Kept {
    Bytes bytes;
    runtime::StreamHandle handle;
  };

  void record(Span& span, SpanKind kind, std::int64_t t0, std::int64_t t1) {
    if (!traced_) return;
    span.kind = kind;
    span.start_ns = t0;
    span.end_ns = t1;
    SpanLog::get().record(span);
  }

  sgx::Enclave& enclave_;
  const bool traced_;
  std::uint64_t pool_seed_;
  std::uint64_t chain_seed_;
  Xoshiro256 rng_;
  std::shared_ptr<net::ClusterTransport> cluster_;
  std::unique_ptr<runtime::DedupRuntime> rt_;
  mle::FunctionIdentity fn_;
  std::unique_ptr<runtime::StreamSession> session_;
  std::array<Kept, kKeep> kept_;
  std::uint64_t versions_ = 0;
};

struct Window {
  Tally total;
  std::size_t threads = 0;
  Slots slots{0, 0};
  LayerSnap before;
  LayerSnap after;
  std::vector<Span> spans;

  /// Kept-slot figures of the puts, the gets, or both (`get` unset).
  struct Sums {
    double calls = 0;
    double mib = 0;
    double busy_s = 0;
    std::vector<std::uint64_t> ns;
  };
  Sums sums(std::optional<bool> get) const {
    Sums s;
    for (const Timed& t : total.timed) {
      if (!slots.kept(t.slot) || (get.has_value() && t.get != *get)) continue;
      s.calls += 1;
      s.mib += static_cast<double>(t.bytes) / kMiB;
      s.busy_s += static_cast<double>(t.ns) / 1e9;
      s.ns.push_back(t.ns);
    }
    return s;
  }
  /// Per second of client time spent inside calls, over the threads.
  static double rate(double amount, const Sums& s, std::size_t threads) {
    return s.busy_s > 0 ? amount * static_cast<double>(threads) / s.busy_s : 0;
  }
  double calls_per_s() const {
    const Sums all = sums(std::nullopt);
    return rate(all.calls, all, threads);
  }
};

class TenantSet {
 public:
  TenantSet(ClusterDeployment& dep, std::uint64_t seed, std::uint64_t set,
            bool traced, bool counting = false)
      : dep_(dep), traced_(traced) {
    const bool decorate = traced || counting;
    for (std::size_t i = 0; i < dep.enclaves.size(); ++i) {
      tenants_.push_back(std::make_unique<Tenant>(
          dep, i, seed, set, decorate ? &counters_ : nullptr, traced));
    }
  }

  /// One tenant at a time. The base versions share chunks from the common
  /// block pool, and two tenants storing the same new chunk concurrently
  /// can leave its two replicas holding different writers' entries: both
  /// PUTs are acknowledged, and the loser's later get() fails chunk
  /// authentication (METRICS.md, "Findings"). Edits after the base are
  /// tenant-private, so the timed window is free of that race.
  void warm_up(std::size_t steps) {
    Tally tally;
    for (auto& tenant : tenants_) {
      for (std::size_t i = 0; i < steps; ++i) tenant->step(tally, nullptr);
    }
    if (tally.exceptions + tally.mismatches != 0) {
      throw std::runtime_error("warm-up: stream operations failed");
    }
  }

  Window run(double seconds) {
    Window win;
    win.threads = tenants_.size();
    win.before = snapshot();
    if (traced_) SpanLog::get().start();
    win.slots = Slots(now_ns(), seconds);
    std::vector<Tally> tallies(tenants_.size());
    std::vector<std::thread> pool;
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
      pool.emplace_back([&, i] {
        while (now_ns() < win.slots.deadline_ns()) {
          tenants_[i]->step(tallies[i], &win.slots);
        }
      });
    }
    win.slots.watch();
    for (auto& t : pool) t.join();
    if (traced_) {
      SpanLog::get().stop();
      win.spans = SpanLog::get().collect();
    }
    win.after = snapshot();
    for (const Tally& t : tallies) win.total.merge(t);
    return win;
  }

  /// Exact-count pass: one thread alternates the tenants.
  Tally run_single_thread(std::size_t steps) {
    Tally tally;
    for (std::size_t i = 0; i < steps; ++i) {
      tenants_[i % tenants_.size()]->step(tally, nullptr);
    }
    return tally;
  }

  LayerSnap snapshot() {
    LayerSnap s;
    for (auto& tenant : tenants_) {
      s.app_ecalls += tenant->enclave().ecall_count();
      s.app_ocalls += tenant->enclave().ocall_count();
      s.add(tenant->rt().stats());
      s.add(tenant->cluster().stats());
    }
    for (std::size_t n = 0; n < dep_.cluster.node_count(); ++n) {
      store::ResultStore& node = dep_.cluster.store(n);
      s.store_ecalls += node.enclave().ecall_count();
      s.add(node.stats());
    }
    s.swapped_pages = dep_.platform.epc().swapped_pages();
    s.add(counters_);
    s.hist = RegistryHistograms::read();
    return s;
  }

  Tenant& front() { return *tenants_.front(); }

 private:
  ClusterDeployment& dep_;
  const bool traced_;
  FrameCounters counters_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
};

/// Stream ops that degraded: inlined chunks/manifests or failed puts.
std::uint64_t degraded_ops(const LayerSnap& d) {
  return d.rt.stream_degraded + d.rt.stream_inline_chunks;
}

void report_window_info(const char* label, const Window& w, Metrics& info) {
  const std::string p = label;
  const LayerSnap d = w.after - w.before;
  const Window::Sums puts = w.sums(false);
  const Window::Sums gets = w.sums(true);
  info.set(p + "calls_per_s", w.calls_per_s(), "calls/s");
  info.set(p + "stream_puts", static_cast<double>(w.total.puts), "count");
  info.set(p + "stream_gets", static_cast<double>(w.total.gets), "count");
  info.set(p + "stream_put_mib_s", puts.busy_s > 0 ? puts.mib / puts.busy_s : 0,
           "MiB/s");
  info.set(p + "stream_get_mib_s", gets.busy_s > 0 ? gets.mib / gets.busy_s : 0,
           "MiB/s");
  info.set(p + "stream_put_p50_us", quantile_us(puts.ns, 0.50), "us");
  info.set(p + "stream_put_p99_us", quantile_us(puts.ns, 0.99), "us");
  info.set(p + "store_hit_samples", static_cast<double>(gets.ns.size()),
           "count");
  // The arena is capped, so held ciphertext cannot show what a put stores.
  // A traced window counts the frame bytes sent to every node instead: an
  // upper bound that includes the GETs' small requests.
  double put_bytes = 0;
  for (const Timed& t : w.total.timed) {
    if (!t.get) put_bytes += static_cast<double>(t.bytes);
  }
  if (d.tx_bytes > 0 && put_bytes > 0) {
    info.set(p + "stored_bytes_per_user_byte",
             static_cast<double>(d.tx_bytes) / put_bytes, "ratio");
  }
  const double calls = static_cast<double>(w.total.calls());
  const std::uint64_t errors =
      w.total.exceptions + w.total.mismatches + degraded_ops(d);
  info.set(p + "error_ratio",
           calls > 0 ? static_cast<double>(errors) / calls : 0, "fraction");
  info.set(p + "steal_pct", w.slots.steal_pct_all(), "%");
  info.set(p + "steal_pct_kept", w.slots.steal_pct_kept(), "%");
  info.set(p + "errors.exceptions", static_cast<double>(w.total.exceptions),
           "count");
  info.set(p + "errors.get_mismatches", static_cast<double>(w.total.mismatches),
           "count");
  info.set(p + "errors.degraded_puts", static_cast<double>(d.rt.stream_degraded),
           "count");
  info.set(p + "errors.inline_chunks",
           static_cast<double>(d.rt.stream_inline_chunks), "count");
}

}  // namespace

RunResult run_stream_cluster(const Options& opt) {
  RunResult out;
  if (opt.trace) charge_probe(out.layer);
  constexpr std::size_t kWarmupSteps = 4;

  // The measured deployment is set up first (see run_tcp).
  std::vector<double> setup_s;
  std::unique_ptr<ClusterDeployment> dep;
  std::unique_ptr<TenantSet> tenants;
  const auto set_up = [&] {
    tenants.reset();
    dep.reset();
    const std::int64_t t0 = now_ns();
    dep = std::make_unique<ClusterDeployment>();
    tenants = std::make_unique<TenantSet>(*dep, opt.seed, 0, false);
    tenants->warm_up(kWarmupSteps);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  };
  set_up();

  const auto account = [&out](const Window& w) {
    const LayerSnap d = w.after - w.before;
    out.attempted += w.total.calls();
    out.failed += w.total.exceptions + w.total.mismatches + degraded_ops(d);
    out.mismatches += w.total.mismatches;
  };

  const Window plain = tenants->run(opt.trace ? opt.seconds / 2 : opt.seconds);
  report_window_info("", plain, out.info);
  account(plain);
  out.e2e.set("calls_per_s", plain.calls_per_s(), "calls/s");
  // Every get() is served by store GETs alone: the stream's store-hit path.
  // ~500 gets land in the kept half of a 20 s window, so the tail is p95.
  const Window::Sums gets = plain.sums(true);
  out.e2e.set("store_hit_p50_us", quantile_us(gets.ns, 0.50), "us");
  out.e2e.set("store_hit_tail_us", quantile_us(gets.ns, 0.95), "us");
  const Window::Sums all = plain.sums(std::nullopt);
  out.e2e.set("user_mib_per_s", Window::rate(all.mib, all, plain.threads),
              "MiB/s");

  if (opt.trace) {
    tenants.reset();
    TenantSet traced(*dep, opt.seed, 1, /*traced=*/true);
    traced.warm_up(kWarmupSteps);
    const Window tw = traced.run(opt.seconds / 2);
    report_window_info("traced.", tw, out.info);
    account(tw);

    LayerInputs in;
    in.delta = tw.after - tw.before;
    in.after = tw.after;
    in.spans = summarize_spans(tw.spans);
    in.calls = tw.total.calls();
    in.untraced_calls_per_s = plain.calls_per_s();
    in.traced_calls_per_s = tw.calls_per_s();
    set_layer_metrics(in, out.layer);
    write_spans(opt.span_file, tw.spans);

    // Probes: blobs as inputs, the first blob's chunks as results.
    std::vector<Bytes> inputs, results;
    Tenant& t = traced.front();
    Bytes blob = t.next_version();
    for (const chunk::ChunkRef& c : chunk::Chunker().split(blob)) {
      if (results.size() == 64) break;
      results.emplace_back(blob.begin() + static_cast<std::ptrdiff_t>(c.offset),
                           blob.begin() +
                               static_cast<std::ptrdiff_t>(c.offset + c.size));
    }
    for (int i = 0; i < 4; ++i) {
      inputs.push_back(workload::edit_stream_blob(blob, kEditsPerVersion,
                                                  kEditBytes, mix(opt.seed, i)));
    }
    run_probes(inputs, results, t.fn(), out.layer);
  }

  out.e2e.set("rss_peak_mib", rss_peak_mib(), "MiB");
  out.e2e.set("epc_peak_mib",
              static_cast<double>(dep->platform.epc().peak_bytes()) / kMiB,
              "MiB");
  while (setup_s.size() < kSetups) set_up();
  out.e2e.set("setup_s", median(setup_s), "s");
  if (opt.trace) out.layer.merge(count_stream_cluster());
  return out;
}

Metrics count_stream_cluster() {
  ClusterDeployment dep;
  TenantSet tenants(dep, kCountPassSeed, 0, /*traced=*/false, /*counting=*/true);
  const LayerSnap before = tenants.snapshot();
  const Tally tally = tenants.run_single_thread(8);
  const LayerSnap d = tenants.snapshot() - before;
  if (tally.exceptions + tally.mismatches + degraded_ops(d) != 0) {
    throw std::runtime_error("count pass: stream ops failed or degraded");
  }
  return count_metrics(d);
}

}  // namespace perfbench
