// Process-wide metrics registry.
//
// The registry is a rendezvous, not a datastore: components (a ResultStore,
// a DedupRuntime, a ResilientTransport, the SGX platform) own their metric
// cells (telemetry/metrics.h) and register a *collector* — a callback that
// emits the cells' current values as named, labelled samples. A scrape runs
// every collector and merges samples that share (name, labels): counters
// and gauges add, histograms merge bucket-wise. Two stores in one process
// therefore export one `speed_store_*` series per shard index, exactly the
// Prometheus process-wide model, while each component keeps its private
// cells for the exact per-instance Stats views the tests assert on.
//
// Collectors deregister via RAII handles; a component must declare its
// Handle after the cells it reads so deregistration (which waits out any
// in-flight scrape) happens before the cells are destroyed.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/annotated_lock.h"
#include "telemetry/label.h"
#include "telemetry/metrics.h"

namespace speed::telemetry {

enum class MetricType { kCounter, kGauge, kHistogram };

/// One exported time series at scrape time.
struct Sample {
  LabelSet labels;
  std::int64_t value = 0;   ///< counters / gauges
  HistogramSnapshot hist;   ///< histograms
};

/// All samples sharing a metric name.
struct Family {
  std::string name;
  std::string help;
  MetricType type = MetricType::kCounter;
  std::vector<Sample> samples;
};

/// What a collector writes into. Merging by (name, labels) happens here.
class SampleSink {
 public:
  void counter(MetricName name, const char* help, LabelSet labels,
               std::uint64_t value);
  void gauge(MetricName name, const char* help, LabelSet labels,
             std::int64_t value);
  void histogram(MetricName name, const char* help, LabelSet labels,
                 const Histogram& h);

  std::vector<Family> take_families();

 private:
  Sample& upsert(MetricName name, const char* help, MetricType type,
                 LabelSet&& labels);

  std::vector<Family> families_;
  std::map<std::string, std::size_t> index_;  ///< name -> families_ slot
};

class Registry {
 public:
  using Collector = std::function<void(SampleSink&)>;

  /// The process-wide registry every component registers with by default.
  static Registry& global();

  /// RAII deregistration. Destroying the handle blocks until any in-flight
  /// scrape finishes, so a collector never runs against a dead component.
  class Handle {
   public:
    Handle() = default;
    Handle(Handle&& other) noexcept { *this = std::move(other); }
    Handle& operator=(Handle&& other) noexcept;
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;
    ~Handle() { reset(); }

    void reset();

   private:
    friend class Registry;
    Handle(Registry* registry, std::uint64_t id)
        : registry_(registry), id_(id) {}
    Registry* registry_ = nullptr;
    std::uint64_t id_ = 0;
  };

  [[nodiscard]] Handle add_collector(Collector collector);

  /// Run all collectors and return the merged families, sorted by name.
  std::vector<Family> collect() const;

 private:
  friend class Handle;
  void remove_collector(std::uint64_t id);

  // Rank 450: acquired under StoreLink::mu_ (a node dial constructs a
  // ResilientTransport, which registers its collector) and held
  // across collector callbacks that take the runtime cache/queue locks —
  // see docs/LOCK_ORDER.md.
  mutable Mutex mu_{LockRank::kTelemetryRegistry};
  std::uint64_t next_id_ GUARDED_BY(mu_) = 1;
  std::map<std::uint64_t, Collector> collectors_ GUARDED_BY(mu_);
};

}  // namespace speed::telemetry
