#include "net/resilient.h"

#include <chrono>
#include <thread>

#include "common/clock.h"

namespace speed::net {

ResilientTransport::ResilientTransport(std::unique_ptr<Transport> initial,
                                       ReconnectFn reconnect,
                                       ResilienceConfig config)
    : inner_(std::move(initial)),
      reconnect_(std::move(reconnect)),
      config_(config),
      jitter_state_(config.jitter_seed | 1u) {
  if (inner_ == nullptr) {
    throw StoreUnavailableError("ResilientTransport: initial transport is null");
  }
  telemetry_handle_ = telemetry::Registry::global().add_collector(
      [this](telemetry::SampleSink& sink) {
        sink.counter("speed_transport_round_trips_total",
                     "Successful store round trips", {}, round_trips_.value());
        sink.counter("speed_transport_failures_total",
                     "Failed round trips and recoveries", {},
                     failures_.value());
        sink.counter("speed_transport_reconnects_total",
                     "Successful reconnect + re-handshake cycles", {},
                     reconnects_.value());
        sink.counter("speed_transport_reconnect_failures_total",
                     "Individual failed reconnect attempts", {},
                     reconnect_failures_.value());
        sink.histogram("speed_transport_round_trip_ns",
                       "Latency of successful store round trips", {}, rtt_ns_);
      });
}

void ResilientTransport::set_rekey_callback(RekeyCallback cb) {
  MutexLock lock(mu_);
  rekey_ = std::move(cb);
}

ResilientTransport::Stats ResilientTransport::stats() const {
  Stats s;
  s.round_trips = round_trips_.value();
  s.failures = failures_.value();
  s.reconnects = reconnects_.value();
  s.reconnect_failures = reconnect_failures_.value();
  return s;
}

// mu_ is deliberately held across the inner round trip: a reconnect swaps
// inner_, and no round trip may run on a transport being replaced.
// lockdiscipline-allow: LD004 a reconnect must not swap the transport mid-trip
Bytes ResilientTransport::round_trip(ByteView request) {
  MutexLock lock(mu_);
  if (!inner_healthy_) {
    // The frame was sealed for a connection that has since died; a fresh
    // connection carries a fresh key, so this frame can never be delivered.
    failures_.inc();
    throw StoreUnavailableError(
        "ResilientTransport: connection dead, frame bound to stale channel");
  }
  try {
    Stopwatch sw;
    Bytes response = inner_->round_trip(request);
    rtt_ns_.record(sw.elapsed_ns());
    round_trips_.inc();
    return response;
  } catch (const Error& e) {
    inner_healthy_ = false;
    failures_.inc();
    throw StoreUnavailableError(std::string("ResilientTransport: ") + e.what());
  }
}

bool ResilientTransport::recover() {
  std::unique_ptr<Transport> retired;  // destroyed after mu_ is released
  MutexLock lock(mu_);
  // The caller's channel is unusable even if the socket still looks alive
  // (e.g. the store answered garbage): only a re-handshake restores service.
  inner_healthy_ = false;
  if (try_reconnect_locked(retired)) return true;
  failures_.inc();
  return false;
}

// Backoff sleeps and the dial both run under mu_: concurrent callers must
// observe either the dead transport or the fully swapped-in fresh one.
// lockdiscipline-allow: LD004 a reconnect swaps the transport atomically
bool ResilientTransport::try_reconnect_locked(
    std::unique_ptr<Transport>& retired) {
  if (!reconnect_) return false;
  std::uint64_t delay_ms = config_.backoff_initial_ms;
  for (int attempt = 0; attempt < config_.reconnect_attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(
          jittered_locked(delay_ms, config_.backoff_jitter)));
      delay_ms = std::min(delay_ms * 2, config_.backoff_max_ms);
    }
    try {
      Connection fresh = reconnect_();
      if (fresh.transport == nullptr) {
        reconnect_failures_.inc();
        continue;
      }
      retired = std::move(inner_);  // destroyed by the caller, outside mu_
      inner_ = std::move(fresh.transport);
      inner_healthy_ = true;
      reconnects_.inc();
      if (rekey_ && !fresh.session_key.empty()) {
        rekey_(std::move(fresh.session_key));
      }
      return true;
    } catch (const Error&) {
      reconnect_failures_.inc();
    }
  }
  return false;
}

std::uint64_t ResilientTransport::jittered_locked(std::uint64_t ms,
                                                  double fraction) {
  // xorshift64: deterministic jitter, reproducible across runs.
  jitter_state_ ^= jitter_state_ << 13;
  jitter_state_ ^= jitter_state_ >> 7;
  jitter_state_ ^= jitter_state_ << 17;
  if (ms == 0 || fraction <= 0.0) return ms;
  const auto span =
      static_cast<std::uint64_t>(static_cast<double>(ms) * fraction);
  if (span == 0) return ms;
  // ms +/- span, never below zero.
  const std::uint64_t offset = jitter_state_ % (2 * span + 1);
  return ms - span + offset;
}

}  // namespace speed::net
