// Workloads small_hits and large_misses: marked calls through DedupRuntime
// over real loopback TCP to one StoreTcpServer (8 shards).
//
//   small_hits   Fig. 6's small-op regime. A seeder enclave prewarms 64 Ki
//                entries (4 KiB inputs, 1 KiB results); three applications
//                then issue Zipf(0.99) requests over them, so every call is
//                a local-cache hit or a cross-application store hit.
//   large_misses The Init.Comp./PUT regime. Two applications issue mostly
//                first-seen inputs (256 B - 1 KiB) whose results are
//                log-uniform between 16 KiB and 1 MiB; a quarter re-request
//                an input the other application computed a few hundred
//                calls earlier. The 128 MiB ciphertext arena keeps LRU
//                eviction running.
//
// Every client is closed-loop, one thread per application enclave, with the
// default RuntimeConfig (tracing off in untraced windows) and the default
// cost model (4 us transitions, spin-charged).
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "common/rng.h"
#include "harness.h"
#include "store/tcp_server.h"

namespace perfbench {

using namespace speed;

namespace {

constexpr char kFamily[] = "perfbench-apps";
constexpr char kVersion[] = "1.0";
constexpr char kCode[] = "perfbench expander kernel v1";
constexpr char kSignature[] = "Bytes expand(Bytes)";

/// One application's request stream in one client set.
class RequestStream {
 public:
  virtual ~RequestStream() = default;
  virtual Bytes next() = 0;
};

/// What distinguishes the two TCP workloads.
class CallWorkload {
 public:
  virtual ~CallWorkload() = default;
  virtual std::size_t apps() const = 0;
  virtual store::StoreConfig store_config() const = 0;
  /// Entries the seeder stores before the applications connect.
  virtual std::size_t prewarm_entries() const = 0;
  virtual Bytes prewarm_input(std::size_t i) const = 0;
  /// Calls per application before the timed window opens.
  virtual std::size_t warmup_calls() const = 0;
  /// The marked function: pure, so it also gives the expected result.
  virtual Bytes compute(ByteView input) const = 0;
  /// The store-hit percentile reported as store_hit_tail_us: the highest
  /// with ten samples beyond it in the kept half of a 20 s window.
  virtual double tail_quantile() const = 0;
  /// `set` numbers the client sets of one run; each gets fresh streams.
  virtual std::unique_ptr<RequestStream> stream(std::size_t app,
                                                std::uint64_t set) const = 0;
};

// ----------------------------------------------------------------- small_hits

class SmallHits final : public CallWorkload {
 public:
  static constexpr std::size_t kEntries = 64 * 1024;
  static constexpr std::size_t kInputBytes = 4096;
  static constexpr std::size_t kResultBytes = 1024;

  SmallHits(std::uint64_t seed, std::size_t entries, std::size_t warmup,
            std::uint64_t resident_meta_bytes)
      : seed_(seed),
        entries_(entries),
        warmup_(warmup),
        resident_meta_bytes_(resident_meta_bytes),
        zipf_(entries, 0.99) {}

  std::size_t apps() const override { return 3; }
  store::StoreConfig store_config() const override {
    store::StoreConfig c;
    c.shards = 8;
    c.resident_meta_bytes = resident_meta_bytes_;
    // The seeder alone stores every entry: its quota must cover the arena.
    c.per_app_quota_bytes = c.max_ciphertext_bytes;
    return c;
  }
  std::size_t prewarm_entries() const override { return entries_; }
  Bytes prewarm_input(std::size_t i) const override { return input(i); }
  std::size_t warmup_calls() const override { return warmup_; }
  Bytes compute(ByteView in) const override { return expand(in, kResultBytes); }
  double tail_quantile() const override { return 0.99; }

  std::unique_ptr<RequestStream> stream(std::size_t app,
                                        std::uint64_t set) const override {
    class Zipf final : public RequestStream {
     public:
      Zipf(const SmallHits& w, std::uint64_t seed) : w_(w), rng_(seed) {}
      Bytes next() override { return w_.input(w_.zipf_(rng_)); }

     private:
      const SmallHits& w_;
      Xoshiro256 rng_;
    };
    return std::make_unique<Zipf>(*this, mix(mix(seed_, app + 1), set + 101));
  }

 private:
  Bytes input(std::size_t rank) const {
    Xoshiro256 rng(mix(seed_, 0x1000000ull + rank));
    return rng.bytes(kInputBytes);
  }

  std::uint64_t seed_;
  std::size_t entries_;
  std::size_t warmup_;
  std::uint64_t resident_meta_bytes_;
  ZipfSampler zipf_;
};

// --------------------------------------------------------------- large_misses

class LargeMisses final : public CallWorkload {
 public:
  /// Re-requests reach back [back_min, back_min + back_span) first-seen
  /// inputs of the other application.
  LargeMisses(std::uint64_t seed, std::size_t warmup, std::uint64_t back_min,
              std::uint64_t back_span)
      : seed_(seed), warmup_(warmup), back_min_(back_min), back_span_(back_span) {}

  std::size_t apps() const override { return 2; }
  store::StoreConfig store_config() const override {
    store::StoreConfig c;
    c.shards = 8;
    c.max_ciphertext_bytes = 128ull * 1024 * 1024;
    c.per_app_quota_bytes = c.max_ciphertext_bytes;
    return c;
  }
  std::size_t prewarm_entries() const override { return 0; }
  Bytes prewarm_input(std::size_t) const override { return {}; }
  std::size_t warmup_calls() const override { return warmup_; }

  /// Log-uniform result size in [16 KiB, 1 MiB], fixed by the input.
  Bytes compute(ByteView in) const override {
    const double u = static_cast<double>(hash64(in) >> 11) * 0x1.0p-53;
    const auto n = static_cast<std::size_t>(16.0 * 1024 * std::pow(64.0, u));
    return expand(in, n);
  }
  double tail_quantile() const override { return 0.98; }

  std::unique_ptr<RequestStream> stream(std::size_t app,
                                        std::uint64_t set) const override {
    // 3/4 first-seen inputs; 1/4 an input the other application reached
    // a few hundred first-seen inputs ago (a cross-application store hit
    // when its PUT has landed).
    class Mixed final : public RequestStream {
     public:
      Mixed(const LargeMisses& w, std::size_t app, std::uint64_t set)
          : w_(w), app_(app), set_(set), rng_(mix(mix(w.seed_, app + 7), set)) {}
      Bytes next() override {
        const std::uint64_t reach = w_.back_min_ + w_.back_span_;
        if (fresh_ >= reach && rng_.below(4) == 0) {
          const std::uint64_t back = w_.back_min_ + rng_.below(w_.back_span_);
          return w_.input(set_, 1 - app_, fresh_ - back);
        }
        return w_.input(set_, app_, fresh_++);
      }

     private:
      const LargeMisses& w_;
      std::size_t app_;
      std::uint64_t set_;
      Xoshiro256 rng_;
      std::uint64_t fresh_ = 0;
    };
    return std::make_unique<Mixed>(*this, app, set);
  }

 private:
  Bytes input(std::uint64_t set, std::size_t app, std::uint64_t k) const {
    Xoshiro256 rng(mix(mix(mix(seed_, set + 31), app + 17), k));
    return rng.bytes(256 + rng.below(769));
  }

  std::uint64_t seed_;
  std::size_t warmup_;
  std::uint64_t back_min_;
  std::uint64_t back_span_;
};

// ----------------------------------------------------------------- deployment

/// One platform, one sharded ResultStore served by StoreTcpServer, and the
/// application enclaves (client runtimes are built per client set).
struct Deployment {
  explicit Deployment(const CallWorkload& w)
      : store(platform, w.store_config()), server(store) {
    for (std::size_t i = 0; i < w.apps(); ++i) {
      enclaves.push_back(
          platform.create_enclave("perfbench-app-" + std::to_string(i)));
    }
  }

  sgx::Platform platform;  // default CostModel: 4 us transitions, spin
  store::ResultStore store;
  store::StoreTcpServer server;
  std::vector<std::unique_ptr<sgx::Enclave>> enclaves;
};

std::unique_ptr<runtime::DedupRuntime> connect(Deployment& dep,
                                               sgx::Enclave& enclave,
                                               runtime::RuntimeConfig config,
                                               FrameCounters* counters) {
  store::TcpAppConnection conn = store::connect_tcp_app(
      enclave, dep.store.enclave().measurement(), "127.0.0.1",
      dep.server.port());
  std::unique_ptr<net::Transport> transport = std::move(conn.transport);
  if (counters != nullptr) {
    transport = std::make_unique<TimedTransport>(std::move(transport), *counters);
  }
  auto rt = std::make_unique<runtime::DedupRuntime>(
      enclave, std::move(conn.session_key), std::move(transport),
      std::move(config));
  rt->libraries().register_library(kFamily, kVersion, as_bytes(kCode));
  return rt;
}

mle::FunctionIdentity identity(runtime::DedupRuntime& rt) {
  return rt.resolve({kFamily, kVersion, kSignature});
}

/// The seeder enclave computes and RCE-protects every prewarm entry (the
/// miss path of Algorithm 1) and hands it to the store host-side, one
/// store ECALL per PUT, from `threads` threads. The applications' store hits
/// on these entries are therefore cross-application recoveries.
void prewarm(Deployment& dep, const CallWorkload& w, std::size_t threads) {
  const std::size_t n = w.prewarm_entries();
  if (n == 0) return;
  auto seeder = dep.platform.create_enclave("perfbench-seeder");
  sgx::TrustedLibraryRegistry libraries;
  libraries.register_library(kFamily, kVersion, as_bytes(kCode));
  const mle::FunctionIdentity fn{{kFamily, kVersion, kSignature},
                                 *libraries.lookup(kFamily, kVersion)};
  std::atomic<std::size_t> refused{0};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      crypto::Drbg drbg(seeder->random_bytes(32));
      for (std::size_t i = t; i < n; i += threads) {
        const Bytes input = w.prewarm_input(i);
        serialize::PutRequest put;
        seeder->ecall([&] {
          const mle::ComputationContext ctx(fn, input);
          put.tag = ctx.tag();
          put.requester = seeder->measurement();
          put.entry = mle::ResultCipher::protect(ctx, w.compute(input), drbg);
        });
        if (dep.store.put(put).status != serialize::PutStatus::kStored) {
          refused.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  if (refused.load() != 0 || dep.store.stats().entries != n) {
    throw std::runtime_error("prewarm: the store refused seeded entries");
  }
}

// ------------------------------------------------------------------ client set

/// One completed call: when it ended, how it was served, what it took.
struct Timed {
  std::uint32_t slot = 0;
  Served served = Served::kMiss;
  std::uint32_t result_bytes = 0;
  std::uint64_t ns = 0;
};

/// What the application threads saw in a window. The counters cover every
/// call; the timings are filtered by slot.
struct Tally {
  std::uint64_t calls = 0;
  std::uint64_t local_hits = 0;
  std::uint64_t store_hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t failed_recoveries = 0;
  std::uint64_t degraded = 0;
  std::uint64_t exceptions = 0;
  std::uint64_t mismatches = 0;
  std::vector<Timed> timed;

  void merge(const Tally& o) {
    calls += o.calls;
    local_hits += o.local_hits;
    store_hits += o.store_hits;
    misses += o.misses;
    failed_recoveries += o.failed_recoveries;
    degraded += o.degraded;
    exceptions += o.exceptions;
    mismatches += o.mismatches;
    timed.insert(timed.end(), o.timed.begin(), o.timed.end());
  }
  std::uint64_t errors() const {
    return failed_recoveries + degraded + exceptions + mismatches;
  }
};

struct Window {
  Tally total;
  std::size_t threads = 0;
  Slots slots{0, 0};
  double flush_ms = 0;
  LayerSnap before;
  LayerSnap after;
  std::vector<Span> spans;
  StageMeans stages;

  /// Latencies of the kept slots' calls served as `served`.
  std::vector<std::uint64_t> latencies(Served served) const {
    std::vector<std::uint64_t> out;
    for (const Timed& t : total.timed) {
      if (t.served == served && slots.kept(t.slot)) out.push_back(t.ns);
    }
    return out;
  }
  /// Marked calls (or result MiB) per second of client time spent inside
  /// marked calls, over the kept slots.
  double per_busy_s(bool bytes) const {
    double busy_ns = 0, amount = 0;
    for (const Timed& t : total.timed) {
      if (!slots.kept(t.slot)) continue;
      busy_ns += static_cast<double>(t.ns);
      amount += bytes ? static_cast<double>(t.result_bytes) / kMiB : 1.0;
    }
    const double busy_s = busy_ns / 1e9 / static_cast<double>(threads);
    return busy_s > 0 ? amount / busy_s : 0;
  }
  double calls_per_s() const { return per_busy_s(false); }
  double user_mib_per_s() const { return per_busy_s(true); }
};

/// One runtime per application enclave plus its request stream.
class ClientSet {
 public:
  /// `counting` (the exact-count pass) decorates the transports without
  /// tracing and ships every PUT synchronously, so counts cannot depend on
  /// thread timing.
  ClientSet(Deployment& dep, const CallWorkload& w, bool traced,
            std::uint64_t set, bool counting = false)
      : dep_(dep), w_(w), traced_(traced), ring_(1u << 18) {
    runtime::RuntimeConfig config;
    config.tracing = traced;
    config.trace_ring = &ring_;
    config.async_put = !counting;
    const bool decorate = traced || counting;
    for (std::size_t a = 0; a < w.apps(); ++a) {
      clients_.push_back(connect(dep, *dep.enclaves[a], config,
                                 decorate ? &counters_ : nullptr));
      fns_.push_back(identity(*clients_.back()));
      streams_.push_back(w.stream(a, set));
    }
  }

  /// Each application runs `calls` untimed calls.
  void warm_up(std::size_t calls) {
    std::vector<std::thread> pool;
    for (std::size_t a = 0; a < clients_.size(); ++a) {
      pool.emplace_back([this, a, calls] {
        for (std::size_t i = 0; i < calls; ++i) {
          const Bytes input = streams_[a]->next();
          (void)clients_[a]->execute(fns_[a], input,
                                     [&] { return w_.compute(input); });
        }
      });
    }
    for (auto& t : pool) t.join();
  }

  /// The timed window: every application thread runs closed-loop until the
  /// deadline; results are checked between calls, outside the timing.
  Window run(double seconds) {
    Window win;
    win.threads = clients_.size();
    win.before = snapshot();
    const std::uint64_t first_trace = ring_.pushed();
    if (traced_) SpanLog::get().start();
    win.slots = Slots(now_ns(), seconds);
    std::vector<Tally> tallies(clients_.size());
    std::vector<std::thread> pool;
    for (std::size_t a = 0; a < clients_.size(); ++a) {
      pool.emplace_back([&, a] {
        while (now_ns() < win.slots.deadline_ns()) {
          drive_one(a, tallies[a], &win.slots);
        }
      });
    }
    win.slots.watch();
    for (auto& t : pool) t.join();
    const std::int64_t f0 = now_ns();
    for (auto& rt : clients_) rt->flush();
    win.flush_ms = static_cast<double>(now_ns() - f0) / 1e6;
    if (traced_) {
      SpanLog::get().stop();
      win.spans = SpanLog::get().collect();
      win.stages = stage_means(ring_, first_trace);
    }
    win.after = snapshot();
    for (const Tally& t : tallies) win.total.merge(t);
    return win;
  }

  /// The exact-count pass: one thread round-robins `calls` calls over the
  /// applications. Returns mismatches + errors.
  Tally run_single_thread(std::size_t calls) {
    Tally tally;
    for (std::size_t i = 0; i < calls; ++i) {
      drive_one(i % clients_.size(), tally, nullptr);
    }
    return tally;
  }

  LayerSnap snapshot() {
    LayerSnap s;
    for (std::size_t a = 0; a < clients_.size(); ++a) {
      s.app_ecalls += dep_.enclaves[a]->ecall_count();
      s.app_ocalls += dep_.enclaves[a]->ocall_count();
      s.add(clients_[a]->stats());
    }
    s.store_ecalls = dep_.store.enclave().ecall_count();
    s.swapped_pages = dep_.platform.epc().swapped_pages();
    s.session_errors = dep_.server.session_errors();
    s.add(dep_.store.stats());
    s.add(counters_);
    s.hist = RegistryHistograms::read();
    return s;
  }

  /// Up to 64 of this set's inputs and their results, for the probes.
  void probe_sample(std::vector<Bytes>& inputs, std::vector<Bytes>& results) {
    auto stream = w_.stream(0, 999);
    for (int i = 0; i < 64; ++i) {
      inputs.push_back(stream->next());
      results.push_back(w_.compute(inputs.back()));
    }
  }

  const mle::FunctionIdentity& fn() const { return fns_.front(); }

 private:
  /// One call of application `a`; `slots` (null in the count pass) places
  /// its timing in the window.
  void drive_one(std::size_t a, Tally& tally, const Slots* slots) {
    runtime::DedupRuntime& rt = *clients_[a];
    const Bytes input = streams_[a]->next();
    const auto compute = [&]() -> Bytes {
      if (!traced_) return w_.compute(input);
      Span span;
      span.id = SpanLog::get().next_id();
      span.parent = SpanLog::current();
      span.kind = SpanKind::kCompute;
      span.start_ns = now_ns();
      Bytes result = w_.compute(input);
      span.end_ns = now_ns();
      SpanLog::get().record(span);
      return result;
    };
    const runtime::DedupRuntime::Stats before = rt.stats();
    Span call;
    if (traced_) {
      call.id = SpanLog::get().next_id();
      SpanLog::current() = call.id;
    }
    runtime::DedupRuntime::Outcome outcome;
    bool threw = false;
    const std::int64_t t0 = now_ns();
    try {
      outcome = rt.execute(fns_[a], input, compute);
    } catch (const std::exception&) {
      threw = true;
    }
    const std::int64_t t1 = now_ns();
    SpanLog::current() = 0;
    const runtime::DedupRuntime::Stats after = rt.stats();

    ++tally.calls;
    Served served = Served::kMiss;
    if (after.local_hits > before.local_hits) {
      served = Served::kLocalHit;
      ++tally.local_hits;
    } else if (after.hits > before.hits) {
      served = Served::kStoreHit;
      ++tally.store_hits;
    } else if (after.failed_recoveries > before.failed_recoveries) {
      served = Served::kFailedRecovery;
      ++tally.failed_recoveries;
    } else if (after.degraded_calls > before.degraded_calls) {
      served = Served::kDegraded;
      ++tally.degraded;
    } else if (!threw) {
      ++tally.misses;
    }
    if (traced_) {
      call.start_ns = t0;
      call.end_ns = t1;
      call.kind = SpanKind::kCall;
      call.served = served;
      SpanLog::get().record(call);
    }
    if (threw) {
      ++tally.exceptions;
      return;
    }
    // RCE may cost a recompute, never a wrong answer.
    if (outcome.result != w_.compute(input)) ++tally.mismatches;
    if (slots != nullptr) {
      tally.timed.push_back({slots->of(t1), served,
                             static_cast<std::uint32_t>(outcome.result.size()),
                             static_cast<std::uint64_t>(t1 - t0)});
    }
  }

  Deployment& dep_;
  const CallWorkload& w_;
  const bool traced_;
  FrameCounters counters_;
  telemetry::TraceRing ring_;  // outlives the runtimes that push into it
  std::vector<std::unique_ptr<runtime::DedupRuntime>> clients_;
  std::vector<mle::FunctionIdentity> fns_;
  std::vector<std::unique_ptr<RequestStream>> streams_;
};

// -------------------------------------------------------------------- runs

void report_window_info(const char* label, const Window& w, Metrics& info) {
  const std::string p = label;
  info.set(p + "calls_per_s", w.calls_per_s(), "calls/s");
  info.set(p + "calls", static_cast<double>(w.total.calls), "count");
  info.set(p + "store_hits", static_cast<double>(w.total.store_hits), "count");
  info.set(p + "misses", static_cast<double>(w.total.misses), "count");
  const std::vector<std::uint64_t> hits = w.latencies(Served::kStoreHit);
  const std::vector<std::uint64_t> misses = w.latencies(Served::kMiss);
  info.set(p + "store_hit_samples", static_cast<double>(hits.size()), "count");
  info.set(p + "store_hit_p50_us", quantile_us(hits, 0.50), "us");
  info.set(p + "store_hit_p99_us", quantile_us(hits, 0.99), "us");
  info.set(p + "miss_p50_us", quantile_us(misses, 0.50), "us");
  info.set(p + "miss_p99_us", quantile_us(misses, 0.99), "us");
  const double calls = static_cast<double>(w.total.calls);
  info.set(p + "dedup_ratio",
           calls > 0 ? static_cast<double>(w.total.local_hits +
                                           w.total.store_hits) /
                           calls
                     : 0,
           "fraction");
  info.set(p + "error_ratio",
           calls > 0 ? static_cast<double>(w.total.errors()) / calls : 0,
           "fraction");
  info.set(p + "steal_pct", w.slots.steal_pct_all(), "%");
  info.set(p + "steal_pct_kept", w.slots.steal_pct_kept(), "%");
}

RunResult run_tcp(const Options& opt, const CallWorkload& w) {
  RunResult out;
  if (opt.trace) charge_probe(out.layer);

  // The measured deployment is set up first, so the memory peaks read after
  // its windows cover it alone; the other set-ups only time themselves.
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> dep;
  std::unique_ptr<ClientSet> clients;
  const auto set_up = [&] {
    clients.reset();
    dep.reset();
    const std::int64_t t0 = now_ns();
    dep = std::make_unique<Deployment>(w);
    prewarm(*dep, w, 3);
    const std::int64_t t1 = now_ns();
    clients = std::make_unique<ClientSet>(*dep, w, /*traced=*/false, 0);
    clients->warm_up(w.warmup_calls());
    const std::int64_t t2 = now_ns();
    setup_s.push_back(static_cast<double>(t2 - t0) / 1e9);
    out.info.set("setup.prewarm_s", static_cast<double>(t1 - t0) / 1e9, "s");
    out.info.set("setup.warmup_s", static_cast<double>(t2 - t1) / 1e9, "s");
  };
  set_up();

  const Window plain = clients->run(opt.trace ? opt.seconds / 2 : opt.seconds);
  report_window_info("", plain, out.info);
  out.attempted += plain.total.calls;
  out.failed += plain.total.errors();
  out.mismatches += plain.total.mismatches;

  out.e2e.set("calls_per_s", plain.calls_per_s(), "calls/s");
  const std::vector<std::uint64_t> hits = plain.latencies(Served::kStoreHit);
  out.e2e.set("store_hit_p50_us", quantile_us(hits, 0.50), "us");
  out.e2e.set("store_hit_tail_us", quantile_us(hits, w.tail_quantile()), "us");
  out.e2e.set("user_mib_per_s", plain.user_mib_per_s(), "MiB/s");

  if (opt.trace) {
    clients.reset();
    ClientSet traced(*dep, w, /*traced=*/true, 1);
    traced.warm_up(w.warmup_calls());
    const Window tw = traced.run(opt.seconds / 2);
    report_window_info("traced.", tw, out.info);
    out.attempted += tw.total.calls;
    out.failed += tw.total.errors();
    out.mismatches += tw.total.mismatches;

    LayerInputs in;
    in.delta = tw.after - tw.before;
    in.after = tw.after;
    in.spans = summarize_spans(tw.spans);
    in.stages = tw.stages;
    in.calls = tw.total.calls;
    in.flush_ms = tw.flush_ms;
    in.untraced_calls_per_s = plain.calls_per_s();
    in.traced_calls_per_s = tw.calls_per_s();
    set_layer_metrics(in, out.layer);
    write_spans(opt.span_file, tw.spans);

    std::vector<Bytes> inputs, results;
    traced.probe_sample(inputs, results);
    run_probes(inputs, results, traced.fn(), out.layer);
  }

  out.e2e.set("rss_peak_mib", rss_peak_mib(), "MiB");
  out.e2e.set("epc_peak_mib",
              static_cast<double>(dep->platform.epc().peak_bytes()) / kMiB,
              "MiB");
  while (setup_s.size() < kSetups) set_up();
  out.e2e.set("setup_s", median(setup_s), "s");
  return out;
}

/// Exact-count pass over a scaled-down deployment: synchronous seeding and
/// PUTs, one thread, fixed seed.
Metrics count_tcp(const CallWorkload& w, std::size_t calls) {
  Deployment dep(w);
  prewarm(dep, w, 1);
  ClientSet counted(dep, w, /*traced=*/false, 0, /*counting=*/true);
  const LayerSnap before = counted.snapshot();
  const Tally tally = counted.run_single_thread(calls);
  const LayerSnap after = counted.snapshot();
  const LayerSnap d = after - before;
  if (tally.errors() != 0) {
    throw std::runtime_error("count pass: calls failed or returned wrong bytes");
  }
  return count_metrics(d);
}

}  // namespace

RunResult run_small_hits(const Options& opt) {
  const SmallHits w(opt.seed, SmallHits::kEntries, 10000,
                    store::StoreConfig{}.resident_meta_bytes);
  RunResult out = run_tcp(opt, w);
  if (opt.trace) out.layer.merge(count_small_hits());
  return out;
}

RunResult run_large_misses(const Options& opt) {
  const LargeMisses w(opt.seed, 600, 40, 160);
  RunResult out = run_tcp(opt, w);
  if (opt.trace) out.layer.merge(count_large_misses());
  return out;
}

Metrics count_small_hits() {
  // 2 Ki entries against a 32 KiB metadata cache: the cold tail faults in.
  const SmallHits w(kCountPassSeed, 2048, 0, 32 * 1024);
  return count_tcp(w, 3000);
}

Metrics count_large_misses() {
  const LargeMisses w(kCountPassSeed, 0, 10, 30);
  return count_tcp(w, 600);
}

}  // namespace perfbench
