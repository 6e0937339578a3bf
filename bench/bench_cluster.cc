// Replicated cluster overhead and availability (docs/PROTOCOL.md §8).
//
// Part 1 (scale matrix): closed-loop PUT and GET throughput through the
// ClusterTransport walk for N = 1, 3, 5 store nodes (r = min(1, N-1)
// replicas). Every PUT pays one attested round trip per ring owner (full
// quorum before the ack); every GET normally pays one (found on the
// primary). The interesting number is the replication tax: N=1/r=0 is the
// single-store baseline the other rows are compared against.
//
// Part 2 (kill-one availability trace): N = 3, r = 1. A fixed GET workload
// over preloaded entries runs in windows; partway through, one node is
// killed mid-traffic, and later restarted + rejoined. Each window reports
// the fraction of GETs that found their (acked) entry — the acceptance bar
// is >99% availability across the whole trace, including the windows where
// a node is down, plus zero acked-entry misses after the heal.
//
// Enclave transition costs are zeroed so the measured variable is the
// cluster routing + crypto itself, not the simulated SGX switch tax.
//
// Output: human-readable tables on stdout, machine-readable JSON to the
// path given as argv[1] (default: BENCH_cluster.json in the working dir).
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "store/inproc_cluster.h"

namespace {

using namespace speed;

constexpr std::size_t kPuts = 400;
constexpr std::size_t kGets = 2000;
constexpr std::size_t kPayloadBytes = 256;

serialize::Tag nth_tag(std::uint64_t n) {
  // Fill the whole tag (splitmix64 per 8-byte lane): rendezvous placement
  // reads tag bytes beyond the first word, so a counter packed into one
  // lane would put every entry on the same ring owners.
  serialize::Tag t{};
  for (std::size_t lane = 0; lane < t.size() / 8; ++lane) {
    std::uint64_t x = n + 0x9E3779B97F4A7C15ull * (lane + 1);
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    x ^= x >> 31;
    for (std::size_t i = 0; i < 8; ++i) {
      t[lane * 8 + i] = static_cast<std::uint8_t>(x >> (8 * i));
    }
  }
  return t;
}

/// Zero switch/paging costs: the measured variable is the cluster walk.
sgx::CostModel routing_model() {
  sgx::CostModel m;
  m.ecall_ns = 0;
  m.ocall_ns = 0;
  m.epc_page_swap_ns = 0;
  return m;
}

struct Bed {
  explicit Bed(std::size_t nodes, std::size_t replicas)
      : platform(routing_model()) {
    store::InprocClusterConfig cc;
    cc.nodes = nodes;
    cc.cluster.replicas = replicas;
    cluster.emplace(platform, cc);
    app = platform.create_enclave("bench-cluster-app");
    transport = cluster->connect(*app);
  }

  serialize::PutRequest put_request(std::uint64_t n) {
    serialize::PutRequest put;
    put.tag = nth_tag(n);
    put.requester = app->measurement();
    put.entry.challenge = Bytes(32, 0x21);
    put.entry.wrapped_key = Bytes(16, 0x42);
    put.entry.result_ct = Bytes(kPayloadBytes, 0x99);
    return put;
  }

  /// One op routed as a list of one.
  serialize::BatchReply route_one(serialize::BatchOp op) {
    return app->ecall([&] {
      return transport->route(serialize::batch_of(std::move(op))).front();
    });
  }

  bool get_found(std::uint64_t n) {
    serialize::GetRequest get;
    get.tag = nth_tag(n);
    get.requester = app->measurement();
    const serialize::BatchReply reply = route_one(get);
    const auto* resp = std::get_if<serialize::GetResponse>(&reply);
    return resp != nullptr && resp->found;
  }

  sgx::Platform platform;
  std::optional<store::InprocCluster> cluster;
  std::unique_ptr<sgx::Enclave> app;
  std::shared_ptr<net::ClusterTransport> transport;
};

struct ScalePoint {
  std::size_t nodes;
  std::size_t replicas;
  double put_ops_per_sec;
  double get_ops_per_sec;
  bench::LatencySummary get_latency;
};

ScalePoint run_scale(std::size_t nodes, std::size_t replicas) {
  Bed bed(nodes, replicas);
  ScalePoint p{};
  p.nodes = nodes;
  p.replicas = replicas;

  {
    Stopwatch sw;
    for (std::uint64_t n = 0; n < kPuts; ++n) {
      (void)bed.route_one(bed.put_request(n));
    }
    p.put_ops_per_sec = 1000.0 * kPuts / sw.elapsed_ms();
  }

  bench::LatencyRecorder rec;
  Xoshiro256 rng(0xBE7C7ull);
  {
    Stopwatch sw;
    for (std::size_t i = 0; i < kGets; ++i) {
      const std::uint64_t n = rng.below(kPuts);
      rec.time([&] { bed.get_found(n); });
    }
    p.get_ops_per_sec = 1000.0 * kGets / sw.elapsed_ms();
  }
  p.get_latency = bench::summarize(rec.snapshot());
  return p;
}

struct Window {
  std::string phase;
  std::size_t ok = 0;
  std::size_t ops = 0;
};

struct Trace {
  std::vector<Window> windows;
  std::uint64_t failovers = 0;
  std::uint64_t read_repairs = 0;
  double availability = 0;  ///< found / attempted over the whole trace
};

Trace run_availability_trace() {
  constexpr std::size_t kWindowOps = 250;
  constexpr std::size_t kKillWindow = 4;
  constexpr std::size_t kRestartWindow = 8;
  constexpr std::size_t kWindows = 12;

  Bed bed(3, 1);
  for (std::uint64_t n = 0; n < kPuts; ++n) {
    (void)bed.route_one(bed.put_request(n));
  }

  Trace trace;
  Xoshiro256 rng(0xA7A11ull);
  std::size_t found_total = 0;
  for (std::size_t w = 0; w < kWindows; ++w) {
    if (w == kKillWindow) bed.cluster->kill(1);
    if (w == kRestartWindow) {
      if (bed.cluster->restart(1)) bed.cluster->rejoin(1);
      bed.cluster->anti_entropy_round();
    }
    Window win;
    win.phase = w < kKillWindow      ? "healthy"
                : w < kRestartWindow ? "node-1-down"
                                     : "healed";
    win.ops = kWindowOps;
    for (std::size_t i = 0; i < kWindowOps; ++i) {
      if (bed.get_found(rng.below(kPuts))) ++win.ok;
    }
    found_total += win.ok;
    trace.windows.push_back(std::move(win));
  }
  trace.failovers = bed.transport->stats().failovers;
  trace.read_repairs = bed.transport->stats().read_repairs;
  trace.availability =
      static_cast<double>(found_total) / (kWindows * kWindowOps);
  return trace;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_cluster.json";

  std::printf(
      "=== Replicated cluster: routing overhead and availability ===\n"
      "(%zu-byte payloads; PUT acked only at full r+1 quorum; N=1/r=0 is "
      "the single-store baseline)\n\n",
      kPayloadBytes);

  const std::vector<std::pair<std::size_t, std::size_t>> matrix = {
      {1, 0}, {3, 1}, {5, 1}};
  std::vector<ScalePoint> points;
  TablePrinter table(
      {"Nodes", "Replicas", "PUT ops/s", "GET ops/s", "GET p99 (us)"});
  for (const auto& [nodes, replicas] : matrix) {
    ScalePoint p = run_scale(nodes, replicas);
    table.add_row({std::to_string(p.nodes), std::to_string(p.replicas),
                   TablePrinter::fmt(p.put_ops_per_sec, 0),
                   TablePrinter::fmt(p.get_ops_per_sec, 0),
                   TablePrinter::fmt(p.get_latency.p99_us, 1)});
    points.push_back(std::move(p));
  }
  table.print();

  std::printf("\n--- Kill-one-node availability trace (N=3, r=1) ---\n");
  const Trace trace = run_availability_trace();
  TablePrinter trace_table({"Window", "Phase", "Found", "Ops"});
  for (std::size_t w = 0; w < trace.windows.size(); ++w) {
    const Window& win = trace.windows[w];
    trace_table.add_row({std::to_string(w), win.phase, std::to_string(win.ok),
                         std::to_string(win.ops)});
  }
  trace_table.print();
  std::printf(
      "\navailability: %.4f (acceptance bar: > 0.99)\n"
      "failovers: %llu   read repairs: %llu\n",
      trace.availability, static_cast<unsigned long long>(trace.failovers),
      static_cast<unsigned long long>(trace.read_repairs));

  std::string json = "{\"host\": " + bench::host_json() + ", \"scale\": [";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ScalePoint& p = points[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"nodes\": %zu, \"replicas\": %zu, "
                  "\"put_ops_per_sec\": %.1f, \"get_ops_per_sec\": %.1f, "
                  "\"get_latency\": ",
                  i ? ", " : "", p.nodes, p.replicas, p.put_ops_per_sec,
                  p.get_ops_per_sec);
    json += buf;
    json += p.get_latency.json();
    json += "}";
  }
  json += "], \"availability_trace\": {\"windows\": [";
  for (std::size_t w = 0; w < trace.windows.size(); ++w) {
    const Window& win = trace.windows[w];
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"phase\": \"%s\", \"ok\": %zu, \"ops\": %zu}",
                  w ? ", " : "", win.phase.c_str(), win.ok, win.ops);
    json += buf;
  }
  char tail[192];
  std::snprintf(tail, sizeof(tail),
                "], \"availability\": %.4f, \"failovers\": %llu, "
                "\"read_repairs\": %llu}}",
                trace.availability,
                static_cast<unsigned long long>(trace.failovers),
                static_cast<unsigned long long>(trace.read_repairs));
  json += tail;

  if (FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("\nJSON written to %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "warning: could not write %s\n", json_path.c_str());
  }
  return 0;
}
