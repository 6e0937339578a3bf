// Shared machinery of the repository benchmark (perfbench/METRICS.md).
//
// The benchmark measures SPEED from the outside: it drives the public API of
// the real deployment objects (StoreTcpServer, DedupRuntime, StreamSession,
// InprocCluster) and records its own spans around the calls it makes into
// each layer. Nothing under src/ is instrumented for it:
//
//   * a call span around every marked call (DedupRuntime::execute or a
//     StreamSession put/get) the client threads issue;
//   * a round-trip span from TimedTransport, a net::Transport decorator the
//     benchmark slides under each runtime's (or each cluster node's)
//     connection. A round trip made while no call span is open on the thread
//     is a root span named async_put (the runtime's PUT thread);
//   * a compute span from the wrapper the benchmark hands execute() as the
//     marked function.
//
// Spans are kept in memory per thread while a traced window runs and are
// aggregated (and optionally written out) when it ends. Untraced windows
// install no decorator and record nothing.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/speed.h"
#include "telemetry/metrics.h"

namespace perfbench {

using speed::Bytes;
using speed::ByteView;

/// Seed of the exact-count pass: fixed, so its counts repeat run to run.
inline constexpr std::uint64_t kCountPassSeed = 0x5eed0c0417ull;
/// Seed reserved for confirming a performance claim; never tune against it.
inline constexpr std::uint64_t kHeldOutSeed = 9001;
/// Deployments built per run; setup_s is the median of their set-up times.
/// The first is measured; the others are built after its windows.
inline constexpr std::size_t kSetups = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool counts_only = false;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  std::string span_file;  ///< traced runs write their spans here ("" = off)
};

inline constexpr double kMiB = 1024.0 * 1024.0;

std::int64_t now_ns();

// ------------------------------------------------------------------ metrics

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Named metrics in insertion order; set() overwrites an existing name.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  void merge(const Metrics& other) {
    for (const Metric& m : other.metrics_) set(m.name, m.value, m.unit);
  }
  const Metric* find(const std::string& name) const;
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// What one workload run produced.
struct RunResult {
  Metrics e2e;    ///< end-to-end metrics of the untraced window
  Metrics layer;  ///< per-layer metrics of the traced window
  Metrics info;   ///< workload-specific end-to-end figures (printed only)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      ///< errors of every kind (see error_ratio)
  std::uint64_t mismatches = 0;  ///< wrong results: the run is not correct
};

// -------------------------------------------------------------------- spans

enum class SpanKind : std::uint8_t {
  kCall,       ///< DedupRuntime::execute
  kRoundTrip,  ///< Transport::round_trip under an open call span
  kAsyncPut,   ///< Transport::round_trip with no call span (PUT thread)
  kCompute,    ///< the marked function
  kStreamPut,  ///< StreamSession::put
  kStreamGet,  ///< StreamSession::get
};
const char* span_name(SpanKind kind);

/// How a call was served, classified from its runtime's stats() delta.
enum class Served : std::uint8_t {
  kLocalHit,
  kStoreHit,
  kMiss,
  kFailedRecovery,
  kDegraded,
  kStream,
};

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t rx_bytes = 0;
  SpanKind kind = SpanKind::kCall;
  Served served = Served::kStream;

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Process-wide span store. start() and stop() are called while no
/// recording thread runs; record() appends to a per-thread buffer.
class SpanLog {
 public:
  static SpanLog& get();

  void start();
  void stop() { enabled_.store(false, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  std::uint64_t next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  void record(const Span& span);
  /// Every recorded span, in id order.
  std::vector<Span> collect() const;

  /// The call span open on this thread (0 = none): the parent of the
  /// round-trip and compute spans it causes.
  static std::uint64_t& current();

 private:
  std::vector<Span>& local();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> epoch_{1};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

/// Frames and bytes crossing the decorated transports of one client set.
struct FrameCounters {
  std::atomic<std::uint64_t> frames{0};
  std::atomic<std::uint64_t> tx_bytes{0};
  std::atomic<std::uint64_t> rx_bytes{0};
};

/// Transport decorator: counts every round trip and, while the SpanLog is
/// enabled, records it as a span.
class TimedTransport : public speed::net::Transport {
 public:
  TimedTransport(std::unique_ptr<speed::net::Transport> inner,
                 FrameCounters& counters)
      : inner_(std::move(inner)), counters_(counters) {}

  Bytes round_trip(ByteView request) override;
  bool recover() override { return inner_->recover(); }
  void set_rekey_callback(RekeyCallback cb) override {
    inner_->set_rekey_callback(std::move(cb));
  }

 private:
  std::unique_ptr<speed::net::Transport> inner_;
  FrameCounters& counters_;
};

/// Wraps every dial of `nodes` so each node connection is a TimedTransport.
std::vector<speed::net::ClusterNode> decorate_dials(
    std::vector<speed::net::ClusterNode> nodes, FrameCounters& counters);

// ----------------------------------------------------------- measurement

/// Exact q-quantile (0..1) of `samples` in microseconds; 0 when empty.
double quantile_us(std::vector<std::uint64_t> samples, double q);
double median(std::vector<double> v);

/// Peak resident set of this process (VmHWM), MiB.
double rss_peak_mib();

/// Machine-wide CPU time from /proc/stat, in clock ticks. On a virtual
/// machine, steal is time the hypervisor gave the vCPUs to someone else: a
/// window with high steal measured a noisy neighbour, not the program.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
  static CpuTicks read();
};
/// Share of CPU time stolen between two reads, percent.
double steal_pct(const CpuTicks& before, const CpuTicks& after);

/// A timed window cut into one-second slots. On a shared virtual machine,
/// neighbours steal CPU in episodes of tens of seconds, and a spinning,
/// lock-heavy program loses several times the stolen share (a preempted
/// lock holder stalls every waiter). The end-to-end metrics are therefore
/// computed over the least-stolen half of the slots; error counts and
/// output checks still cover every call.
class Slots {
 public:
  Slots(std::int64_t start_ns, double seconds);

  /// Called on the measuring thread: sleeps to the deadline, reading the
  /// machine's steal at every slot edge, then picks the kept slots.
  void watch();

  std::int64_t deadline_ns() const { return deadline_ns_; }
  /// Slot of an instant inside the window (clamped to the last slot).
  std::uint32_t of(std::int64_t t_ns) const;
  bool kept(std::uint32_t slot) const { return kept_[slot]; }
  double steal_pct_all() const { return steal_all_; }
  double steal_pct_kept() const { return steal_kept_; }

 private:
  std::int64_t start_ns_;
  std::int64_t deadline_ns_;
  std::size_t count_;
  std::vector<bool> kept_;
  double steal_all_ = 0;
  double steal_kept_ = 0;
};

/// Process-wide registry reads: a histogram family merged over its samples,
/// and the bucket-wise difference of two such reads.
speed::telemetry::HistogramSnapshot registry_histogram(const std::string& name);
speed::telemetry::HistogramSnapshot histogram_delta(
    const speed::telemetry::HistogramSnapshot& after,
    const speed::telemetry::HistogramSnapshot& before);

/// Registry histograms read before and after a window.
struct RegistryHistograms {
  speed::telemetry::HistogramSnapshot store_get_ns;
  speed::telemetry::HistogramSnapshot store_put_ns;
  speed::telemetry::HistogramSnapshot cluster_walk_ns;
  speed::telemetry::HistogramSnapshot runtime_batch_ops;
  speed::telemetry::HistogramSnapshot manifest_bytes;

  static RegistryHistograms read();
  RegistryHistograms operator-(const RegistryHistograms& before) const;
};

/// Layer counters read from the deployment before and after a window.
/// Counters subtract; gauges (store entries, bytes held) keep the later read.
struct LayerSnap {
  std::uint64_t app_ecalls = 0;  ///< client enclaves (app threads + PUT threads)
  std::uint64_t app_ocalls = 0;
  std::uint64_t store_ecalls = 0;  ///< every store enclave of the deployment
  std::uint64_t swapped_pages = 0;
  std::uint64_t frames = 0;  ///< TimedTransport round trips
  std::uint64_t tx_bytes = 0;
  std::uint64_t rx_bytes = 0;
  std::uint64_t session_errors = 0;  ///< StoreTcpServer sessions lost
  speed::runtime::DedupRuntime::Stats rt;       ///< summed over clients
  speed::store::ResultStore::Stats store;       ///< summed over stores
  speed::net::ClusterTransport::Stats cluster;  ///< summed over clients
  RegistryHistograms hist;

  void add(const speed::runtime::DedupRuntime::Stats& s);
  void add(const speed::store::ResultStore::Stats& s);
  void add(const speed::net::ClusterTransport::Stats& s);
  void add(const FrameCounters& c);
  LayerSnap operator-(const LayerSnap& before) const;
};

/// The runtime's own per-call trace stages, averaged.
struct StageMeans {
  double calls = 0;
  double tag_derive_us = 0;   ///< over every traced call
  double recover_us = 0;      ///< over store hits
  double put_enqueue_us = 0;  ///< over misses
  double stages_us = 0;       ///< mean sum of every stage per call
};
/// Means over the ring's records with id >= `first_id` (the timed window:
/// pass the ring's pushed() count read when the window opened).
StageMeans stage_means(const speed::telemetry::TraceRing& ring,
                       std::uint64_t first_id);

// ------------------------------------------------------------------ probes

/// Times public functions of the mle, net and chunk layers on a sample of
/// the workload's own inputs and results; sets the *_per_kib / *_per_mib
/// per-layer metrics.
void run_probes(const std::vector<Bytes>& inputs,
                const std::vector<Bytes>& results,
                const speed::mle::FunctionIdentity& fn, Metrics& out);

/// Times sgx::charge_wait from outside at each size the default cost model
/// charges (a transition and a page swap); sets sgx.charge_error_pct and
/// sgx.page_swap_charge_error_pct.
void charge_probe(Metrics& out);

/// Per-call modelled SGX time: transitions and page swaps at model cost.
double modelled_us(std::uint64_t app_ecalls, std::uint64_t app_ocalls,
                   std::uint64_t store_ecalls, std::uint64_t swapped_pages,
                   std::uint64_t calls);

// ------------------------------------------------------------ span summary

/// Span-derived per-layer metrics common to every workload.
struct SpanSummary {
  std::uint64_t calls = 0;
  std::uint64_t round_trips = 0;
  double call_mean_us = 0;
  double self_mean_us = 0;        ///< non-local-hit calls: call - children
  double children_mean_us = 0;    ///< round trips + compute, per call
  double rtt_p50_us = 0;
  double rtt_p99_us = 0;
  double rtt_sum_us = 0;
  double compute_per_miss_us = 0;
  double rtts_per_stream_put = 0;
};
SpanSummary summarize_spans(const std::vector<Span>& spans);

/// Everything one traced window measured, turned into per-layer metrics.
struct LayerInputs {
  LayerSnap delta;  ///< after - before
  LayerSnap after;
  SpanSummary spans;
  StageMeans stages;  ///< zero for StreamSession workloads (no runtime spans)
  std::uint64_t calls = 0;
  double flush_ms = 0;
  double untraced_calls_per_s = 0;
  double traced_calls_per_s = 0;
};
/// Sets every per-layer metric the window determines (probe, charge and
/// count metrics are set by their own functions).
void set_layer_metrics(const LayerInputs& in, Metrics& out);

/// The count.* metrics of an exact-count pass window.
Metrics count_metrics(const LayerSnap& delta);

/// Per-layer metric names and units, in BENCHMARK.json order. A metric a
/// workload's window does not touch reads 0 (the layer is bypassed).
const std::vector<std::pair<std::string, std::string>>& layer_metric_units();
/// End-to-end metric names and units, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& e2e_metric_units();

/// Writes the first 100 000 spans as CSV (id,parent,name,start,end,...).
void write_spans(const std::string& path, const std::vector<Span>& spans);

// -------------------------------------------------------------- workloads

/// A pure, cheap deterministic expander: `n` bytes derived from `input`.
Bytes expand(ByteView input, std::size_t n);
std::uint64_t hash64(ByteView data);
/// Derives a seed from two values (workload seed, stream or index).
std::uint64_t mix(std::uint64_t a, std::uint64_t b);

/// JSON object describing the host, build and run: the host record.
std::string host_record_json(const Options& opt);

RunResult run_small_hits(const Options& opt);
RunResult run_large_misses(const Options& opt);
RunResult run_stream_cluster(const Options& opt);

/// Exact-count pass: a short single-thread run with kCountPassSeed whose
/// counts repeat exactly. Keys are the count.* metric names.
Metrics count_small_hits();
Metrics count_large_misses();
Metrics count_stream_cluster();

}  // namespace perfbench
