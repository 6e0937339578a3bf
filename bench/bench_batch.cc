// Batched wire protocol benchmark (docs/PROTOCOL.md §9).
//
// Measures GET throughput against a live StoreTcpServer (epoll event loop,
// 8 shards) as the client thread count and the client micro-batch size
// (RuntimeConfig::Batching::max_ops) sweep. The batch size is how many
// concurrent GETs share one secure frame, one socket round trip, and —
// server-side — one enclave crossing.
//
// batch=1 is the exact v1 wire protocol: one message per frame, one
// crossing per message — the baseline every other point is compared
// against. The store-enclave crossing count is read before/after each run,
// so `store_ecalls_per_op` reports the measured per-op transition cost, not
// a model-derived estimate.
//
// Usage: bench_batch RESULTS.json [--smoke]
//   --smoke (or SPEED_BENCH_SMOKE=1) runs a two-point, ~2 s variant for CI.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "store/tcp_server.h"

namespace {

using namespace speed;

// Store-side emulation: full transition costs, parked waits (so client
// threads overlap where locks allow), and a small in-enclave service time —
// the small-op regime where the transition tax dominates and batching is
// supposed to pay.
sgx::CostModel store_model() {
  sgx::CostModel m;
  m.wait = sgx::CostModel::Wait::kSleep;
  m.ecall_ns = 4000;
  m.ocall_ns = 4000;
  m.epc_page_swap_ns = 0;
  m.store_service_ns = 0;
  return m;
}

struct RunPoint {
  std::size_t threads = 0;
  std::size_t batch = 0;  ///< 1 = batching disabled (v1 per-op protocol)
  std::uint64_t ops = 0;
  double seconds = 0;
  double ops_per_sec = 0;
  bench::LatencySummary latency;
  double store_ecalls_per_op = 0;

  std::string json() const {
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "{\"threads\": %zu, \"batch\": %zu, "
        "\"ops\": %llu, \"seconds\": %.3f, \"ops_per_sec\": %.0f, "
        "\"store_ecalls_per_op\": %.4f, \"latency\": ",
        threads, batch, static_cast<unsigned long long>(ops), seconds,
        ops_per_sec, store_ecalls_per_op);
    return std::string(buf) + latency.json() + "}";
  }
};

/// One configuration: fresh platform/store/server, `kTags` entries seeded
/// through a setup runtime, then `threads` client threads re-executing the
/// same inputs (local cache off) so every call is a store GET hit.
RunPoint run_point(std::size_t threads, std::size_t batch,
                   std::size_t ops_per_thread) {
  sgx::Platform platform(store_model());
  store::StoreConfig store_config;
  store_config.shards = 8;
  store::ResultStore result_store(platform, store_config);
  store::StoreTcpServer server(result_store, 0);

  constexpr std::size_t kTags = 64;
  const auto connect = [&](sgx::Enclave& app) {
    return store::connect_tcp_app(app,
                                  result_store.enclave().measurement(),
                                  "127.0.0.1", server.port());
  };
  const auto make_runtime = [&](sgx::Enclave& app, bool batching) {
    auto conn = connect(app);
    runtime::RuntimeConfig config;
    config.local_cache = false;  // every call must reach the store
    config.tracing = false;
    if (batching) {
      config.batching.enabled = true;
      config.batching.max_ops = batch;
      // The leader's quiesce grace is flush_delay/4; 400us keeps the cap
      // tight while the grace (100us) still spans the arrival jitter of
      // threads woken by the previous frame's replies. Overridable for
      // tuning sweeps.
      config.batching.flush_delay_us = 400;
      if (const char* env = std::getenv("SPEED_BENCH_FLUSH_US")) {
        config.batching.flush_delay_us =
            static_cast<std::uint64_t>(std::atoll(env));
      }
    }
    auto rt = std::make_unique<runtime::DedupRuntime>(
        app, std::move(conn.session_key), std::move(conn.transport), config);
    rt->libraries().register_library("lib", "1", as_bytes("code"));
    return rt;
  };
  const auto input_for = [](std::size_t i) {
    Bytes in(32, 0);
    in[0] = static_cast<std::uint8_t>(i);
    in[1] = static_cast<std::uint8_t>(i >> 8);
    return in;
  };
  const auto compute = [](const Bytes& in) { return concat(in, in); };

  // Seed the store: one miss per tag through a plain setup connection.
  {
    auto app = platform.create_enclave("bench-batch-seeder");
    auto rt = make_runtime(*app, /*batching=*/false);
    runtime::Deduplicable<Bytes(const Bytes&)> f(*rt, {"lib", "1", "f"},
                                                 compute);
    for (std::size_t i = 0; i < kTags; ++i) (void)f(input_for(i));
    rt->flush();
  }

  // Measurement: `threads` application threads share ONE runtime (and so
  // one connection/secure channel) — the micro-batcher's coalescing unit.
  auto app = platform.create_enclave("bench-batch-app");
  auto rt = make_runtime(*app, /*batching=*/batch > 1);
  runtime::Deduplicable<Bytes(const Bytes&)> f(*rt, {"lib", "1", "f"},
                                               compute);

  const std::uint64_t ecalls_before = result_store.enclave().ecall_count();

  std::vector<bench::LatencyRecorder> recorders(threads);
  std::vector<std::thread> workers;
  Stopwatch wall;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Xoshiro256 rng(0xBA7C4000ull + t);
      for (std::size_t i = 0; i < ops_per_thread; ++i) {
        const Bytes in = input_for(rng() % kTags);
        recorders[t].time([&] { (void)f(in); });
      }
    });
  }
  for (auto& w : workers) w.join();
  const double elapsed_ms = wall.elapsed_ms();

  RunPoint point;
  point.threads = threads;
  point.batch = batch;
  point.ops = threads * ops_per_thread;
  point.seconds = elapsed_ms / 1e3;
  point.ops_per_sec = point.ops / (elapsed_ms / 1e3);
  point.latency = bench::summarize(recorders);
  point.store_ecalls_per_op =
      static_cast<double>(result_store.enclave().ecall_count() -
                          ecalls_before) /
      static_cast<double>(point.ops);
  const std::uint64_t hits = rt->stats().hits;
  if (hits != point.ops) {
    std::fprintf(stderr,
                 "bench_batch: WARNING %llu/%llu calls were store hits "
                 "(degraded or missed)\n",
                 static_cast<unsigned long long>(hits),
                 static_cast<unsigned long long>(point.ops));
  }
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: bench_batch RESULTS.json [--smoke]\n");
    return 1;
  }
  const bool smoke =
      (argc > 2 && std::strcmp(argv[2], "--smoke") == 0) ||
      std::getenv("SPEED_BENCH_SMOKE") != nullptr;

  const std::size_t ops_per_thread = smoke ? 200 : 4000;
  const std::vector<std::size_t> batches =
      smoke ? std::vector<std::size_t>{1, 16}
            : std::vector<std::size_t>{1, 2, 4, 8, 16, 32};
  const std::vector<std::size_t> thread_counts =
      smoke ? std::vector<std::size_t>{8} : std::vector<std::size_t>{1, 8};

  std::vector<RunPoint> points;
  for (const std::size_t threads : thread_counts) {
    for (const std::size_t batch : batches) {
      points.push_back(run_point(threads, batch, ops_per_thread));
      std::printf("threads=%zu batch=%zu %9.0f ops/s  %.3f ecalls/op\n",
                  threads, batch, points.back().ops_per_sec,
                  points.back().store_ecalls_per_op);
    }
  }

  // Headline ratio: batched GET throughput vs the v1 per-op protocol at the
  // highest thread count (the acceptance gate is >= 2x at batch >= 16).
  double baseline = 0, best_batched = 0;
  const std::size_t top_threads = thread_counts.back();
  for (const RunPoint& p : points) {
    if (p.threads != top_threads) continue;
    if (p.batch == 1) baseline = p.ops_per_sec;
    if (p.batch >= 16) best_batched = std::max(best_batched, p.ops_per_sec);
  }
  const double speedup = baseline > 0 ? best_batched / baseline : 0;
  std::printf("batch>=16 vs v1 per-op @ %zu threads: %.2fx\n", top_threads,
              speedup);

  std::string json = "{\n  \"bench\": \"batch\",\n";
  json += "  \"smoke\": " + std::string(smoke ? "true" : "false") + ",\n";
  json += "  \"model\": {\"ecall_ns\": 4000, \"ocall_ns\": 4000, "
          "\"store_service_ns\": 0, \"wait\": \"sleep\"},\n";
  json += "  \"store_shards\": 8,\n";
  json += "  \"speedup_batch16_vs_v1\": " + std::to_string(speedup) + ",\n";
  json += "  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    json += "    " + points[i].json();
    json += (i + 1 < points.size()) ? ",\n" : "\n";
  }
  json += "  ]\n}\n";

  std::FILE* out = std::fopen(argv[1], "w");
  if (out == nullptr) {
    std::perror("bench_batch: fopen");
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), out);
  std::fclose(out);
  bench::write_telemetry_snapshot(argv[1]);
  std::printf("wrote %s\n", argv[1]);
  return speedup >= 2.0 || smoke ? 0 : 2;
}
