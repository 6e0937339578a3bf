// Shared scaffolding for the figure/table regeneration harnesses.
//
// Each bench binary wires up the same deployment the paper evaluates: one
// platform with the realistic SGX cost model, one encrypted ResultStore, and
// application enclaves talking to it through attested secure channels. The
// timing helpers below implement the paper's three measurement modes:
//
//   Baseline    — the ported function runs inside the app enclave, no SPEED.
//   Init.Comp.  — first execution through SPEED (miss path, including the
//                 secure storing of the result, i.e. flush of the async PUT).
//   Subsq.Comp. — repeated execution through SPEED (hit path).
#pragma once

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "common/annotated_lock.h"
#include "common/clock.h"
#include "common/table.h"
#include "crypto/gcm.h"
#include "crypto/sha256.h"
#include "runtime/speed.h"
#include "telemetry/exposition.h"
#include "telemetry/metrics.h"

namespace speed::bench {

/// The host block every recorded BENCH_*.json carries, so a number is never
/// read without the machine and build it came from: core count, CMake build
/// type (SPEED_BUILD_TYPE, set by speed_add_bench), run-time lock-rank
/// checking, whether the hardware SHA-256 path ran, and the AES-GCM kernel
/// AesGcm's kAuto ran ("vaes512", "aesni" or "portable").
inline std::string host_json() {
  std::string out = "{\"cores\": ";
  out += std::to_string(std::thread::hardware_concurrency());
  out += ", \"build_type\": \"" SPEED_BUILD_TYPE "\"";
  out += std::string(", \"lock_rank_check\": ") +
         (lock_rank_check_enabled() ? "true" : "false");
  out += std::string(", \"sha_ni\": ") +
         (crypto::hw::sha256_available() ? "true" : "false");
  out += std::string(", \"gcm\": \"") +
         crypto::hw::gcm_width_name(crypto::hw::gcm_width()) + "\"";
  return out + "}";
}

inline sgx::CostModel realistic_model() {
  return sgx::CostModel{};  // defaults documented in sgx/cost_model.h
}

struct Testbed {
  explicit Testbed(const std::string& app_identity,
                   sgx::CostModel model = realistic_model(),
                   runtime::RuntimeConfig config = runtime::RuntimeConfig{})
      : platform(model),
        store(platform),
        enclave(platform.create_enclave(app_identity)),
        connection(store::connect_app(store, *enclave)),
        rt(*enclave, std::move(connection.session_key), std::move(connection.transport),
           std::move(config)) {}

  sgx::Platform platform;
  store::ResultStore store;
  std::unique_ptr<sgx::Enclave> enclave;
  store::AppConnection connection;
  runtime::DedupRuntime rt;
};

/// Mean wall-clock milliseconds of `fn` over `trials` runs.
inline double time_ms(int trials, const std::function<void()>& fn) {
  double total = 0;
  for (int t = 0; t < trials; ++t) {
    Stopwatch sw;
    fn();
    total += sw.elapsed_ms();
  }
  return total / trials;
}

inline std::string pct(double value, double baseline) {
  return TablePrinter::fmt(100.0 * value / baseline, 1) + "%";
}

/// Per-sample latency summary backed by the production telemetry histogram,
/// so benches and the exported speed_* metrics report percentiles from one
/// implementation. One recorder per worker thread, merged at the end —
/// merging is exact (see telemetry/metrics.h), so the merged quantiles are
/// identical to single-recorder quantiles over the union of samples.
class LatencyRecorder {
 public:
  void record_ns(std::uint64_t ns) { hist_.record(ns); }

  /// Time one call and record it.
  template <typename Fn>
  void time(Fn&& fn) {
    Stopwatch sw;
    fn();
    record_ns(sw.elapsed_ns());
  }

  telemetry::HistogramSnapshot snapshot() const { return hist_.snapshot(); }

 private:
  telemetry::Histogram hist_;
};

struct LatencySummary {
  std::uint64_t count = 0;
  double mean_us = 0;
  double p50_us = 0;
  double p95_us = 0;
  double p99_us = 0;
  double max_us = 0;

  std::string json() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"count\": %llu, \"mean_us\": %.2f, \"p50_us\": %.2f, "
                  "\"p95_us\": %.2f, \"p99_us\": %.2f, \"max_us\": %.2f}",
                  static_cast<unsigned long long>(count), mean_us, p50_us,
                  p95_us, p99_us, max_us);
    return buf;
  }
};

inline LatencySummary summarize(const telemetry::HistogramSnapshot& s) {
  LatencySummary out;
  out.count = s.count;
  out.mean_us = s.mean() / 1000.0;
  out.p50_us = static_cast<double>(s.quantile(0.50)) / 1000.0;
  out.p95_us = static_cast<double>(s.quantile(0.95)) / 1000.0;
  out.p99_us = static_cast<double>(s.quantile(0.99)) / 1000.0;
  out.max_us = static_cast<double>(s.max) / 1000.0;
  return out;
}

/// Merge per-thread recorders and summarize the union.
inline LatencySummary summarize(const std::vector<LatencyRecorder>& recorders) {
  telemetry::HistogramSnapshot merged;
  for (const auto& r : recorders) merged.merge(r.snapshot());
  return summarize(merged);
}

/// Write the process-wide telemetry snapshot next to a bench's JSON output
/// (e.g. BENCH_fig6.json -> BENCH_fig6.telemetry.json). Returns the path.
inline std::string write_telemetry_snapshot(const std::string& results_path) {
  std::string path = results_path;
  const auto dot = path.rfind(".json");
  if (dot != std::string::npos && dot == path.size() - 5) {
    path.replace(dot, 5, ".telemetry.json");
  } else {
    path += ".telemetry.json";
  }
  const std::string json = telemetry::snapshot_json();
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return {};
  std::fwrite(json.data(), 1, json.size(), out);
  std::fclose(out);
  return path;
}

}  // namespace speed::bench
