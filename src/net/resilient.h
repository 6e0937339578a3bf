// Fault-tolerant Transport decorator: reconnect, backoff, circuit breaker.
//
// SPEED's dedup store is an accelerator, never a correctness dependency, so
// the transport to it must fail fast and recover quietly instead of
// propagating socket errors into application calls. ResilientTransport wraps
// any Transport with the three standard resilience mechanisms:
//
//   * bounded reconnection with exponential backoff + deterministic jitter —
//     the reconnect hook re-runs the attested handshake, so every recovered
//     connection carries a *fresh* channel key (stale sequence numbers from
//     the dead connection can never collide with the new channel);
//   * a circuit breaker: after `breaker_threshold` consecutive failures the
//     store is bypassed entirely (round_trip/recover fail immediately,
//     letting the runtime go straight to local compute) until
//     `breaker_cooldown_ms` elapses, when one half-open probe is admitted;
//   * failure classification: all underlying errors surface as
//     StoreUnavailableError, the single degrade-to-compute signal.
//
// Division of labor with StoreLink (net/store_link.h): the link wraps
// frames under its SecureChannel key *before* they reach the transport, so
// a frame in flight is bound to the connection that existed when it was
// wrapped. A failed round trip therefore fails the *current* call (the
// runtime degrades to local compute and the link is poisoned); recovery
// happens on the *next* call, when the link sees the poison and asks the
// transport to recover() — which reconnects, re-handshakes, and stages the
// fresh session key through the rekey callback.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>

#include "common/annotated_lock.h"
#include "common/bytes.h"
#include "net/channel.h"
#include "telemetry/registry.h"

namespace speed::net {

struct ResilienceConfig {
  /// Reconnect attempts per recovery before reporting failure.
  int reconnect_attempts = 3;
  /// Backoff between reconnect attempts: initial delay, doubled per attempt
  /// up to the max, with +/- `backoff_jitter` fractional jitter.
  std::uint64_t backoff_initial_ms = 2;
  std::uint64_t backoff_max_ms = 100;
  double backoff_jitter = 0.2;
  /// Consecutive failed round trips / recoveries that open the breaker.
  int breaker_threshold = 5;
  /// How long an open breaker rejects immediately before half-opening.
  std::uint64_t breaker_cooldown_ms = 250;
  /// Fractional +/- jitter applied to the cooldown each time the breaker
  /// opens. A fleet of clients that tripped on the same store failure would
  /// otherwise half-open in lockstep and thundering-herd the recovering
  /// node; jitter spreads their probes across the window.
  double breaker_cooldown_jitter = 0.2;
  /// Seed for the deterministic jitter stream (reproducible tests).
  std::uint64_t jitter_seed = 0x5eedu;
};

class ResilientTransport : public Transport {
 public:
  /// What a successful reconnect yields: a live transport and the fresh
  /// session key from the re-run attested handshake.
  struct Connection {
    std::unique_ptr<Transport> transport;
    secret::Buffer session_key;
  };
  /// Re-establishes the connection (e.g. re-runs store::connect_tcp_app).
  /// Throws or returns a null transport on failure.
  using ReconnectFn = std::function<Connection()>;

  ResilientTransport(std::unique_ptr<Transport> initial, ReconnectFn reconnect,
                     ResilienceConfig config = ResilienceConfig{});

  Bytes round_trip(ByteView request) override;
  bool recover() override;
  void set_rekey_callback(RekeyCallback cb) override;

  enum class BreakerState { kClosed, kOpen, kHalfOpen };
  BreakerState breaker_state() const;

  /// Point-in-time view over this instance's telemetry cells (the cells are
  /// also exported process-wide as speed_transport_* via the registry).
  struct Stats {
    std::uint64_t round_trips = 0;        ///< successful round trips
    std::uint64_t failures = 0;           ///< failed round trips + recoveries
    std::uint64_t short_circuits = 0;     ///< rejected by an open breaker
    std::uint64_t reconnects = 0;         ///< successful reconnections
    std::uint64_t reconnect_failures = 0; ///< individual failed attempts
    std::uint64_t breaker_opens = 0;
  };
  Stats stats() const;

  const ResilienceConfig& config() const { return config_; }

  /// The jittered cooldown chosen when the breaker last opened (test hook
  /// for the anti-thundering-herd behavior). 0 if it never opened.
  std::uint64_t current_cooldown_ms() const;

 private:
  /// True if the breaker admits traffic now (may flip open -> half-open).
  bool admit_locked() REQUIRES(mu_);
  /// One bounded reconnect cycle; on success swaps in the new transport,
  /// stages the fresh key, closes the breaker. The displaced transport is
  /// moved into `retired`, NOT destroyed here: its teardown can deregister
  /// telemetry collectors (Registry::mu_, rank 450 — below this lock), and a
  /// concurrent scrape holding the registry lock may be calling our breaker
  /// collector, which needs mu_ — destroying under mu_ would deadlock.
  /// Callers declare `retired` before their MutexLock so it dies after
  /// mu_ is released.
  bool try_reconnect_locked(std::unique_ptr<Transport>& retired) REQUIRES(mu_);
  void on_failure_locked() REQUIRES(mu_);
  std::uint64_t jittered_locked(std::uint64_t ms, double fraction) REQUIRES(mu_);

  // 500: held across the inner transport's round trip (that serialization
  // makes breaker accounting exact) and across reconnect backoff — the
  // documented LD004 exception (docs/LOCK_ORDER.md).
  mutable Mutex mu_{LockRank::kTransport};
  std::unique_ptr<Transport> inner_ GUARDED_BY(mu_);
  bool inner_healthy_ GUARDED_BY(mu_) = true;
  ReconnectFn reconnect_;
  RekeyCallback rekey_ GUARDED_BY(mu_);
  ResilienceConfig config_;
  int consecutive_failures_ GUARDED_BY(mu_) = 0;
  BreakerState state_ GUARDED_BY(mu_) = BreakerState::kClosed;
  std::chrono::steady_clock::time_point opened_at_ GUARDED_BY(mu_){};
  std::uint64_t current_cooldown_ms_ GUARDED_BY(mu_) = 0;  ///< jittered, set per open
  std::uint64_t jitter_state_ GUARDED_BY(mu_);

  telemetry::Counter round_trips_;
  telemetry::Counter failures_;
  telemetry::Counter short_circuits_;
  telemetry::Counter reconnects_;
  telemetry::Counter reconnect_failures_;
  telemetry::Counter breaker_opens_;
  telemetry::Histogram rtt_ns_;
  // Declared after the cells it reads (destroyed, i.e. deregistered, first).
  telemetry::Registry::Handle telemetry_handle_;
};

}  // namespace speed::net
