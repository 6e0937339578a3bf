// Fault-tolerant Transport decorator: reconnect with backoff.
//
// SPEED's dedup store is an accelerator, never a correctness dependency, so
// the transport to it must fail fast and recover quietly instead of
// propagating socket errors into application calls. ResilientTransport wraps
// any Transport with:
//
//   * bounded reconnection with exponential backoff + deterministic jitter —
//     the reconnect hook re-runs the attested handshake, so every recovered
//     connection carries a *fresh* channel key (stale sequence numbers from
//     the dead connection can never collide with the new channel);
//   * failure classification: all underlying errors surface as
//     StoreUnavailableError, the single degrade-to-compute signal.
//
// When to try is not its decision: the ClusterTransport walk
// (net/cluster.h) keeps each node's health and skips a down node without
// I/O until its probe window expires — one failure detector per node, also
// for a single store, which is a one-node cluster.
//
// Division of labor with StoreLink (net/store_link.h): the link wraps
// frames under its SecureChannel key *before* they reach the transport, so
// a frame in flight is bound to the connection that existed when it was
// wrapped. A failed round trip therefore fails that attempt and poisons the
// link; the next attempt — the walk's inline retry, or a later call — sees
// the poison and asks the transport to recover(), which reconnects,
// re-handshakes, and stages the fresh session key through the rekey
// callback.
#pragma once

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

  /// Fails fast once the connection has died: the frame was sealed for it,
  /// and only recover() installs a new one.
  Bytes round_trip(ByteView request) override;
  /// One bounded reconnect cycle; true once a fresh connection is in.
  bool recover() override;
  void set_rekey_callback(RekeyCallback cb) override;

  /// Point-in-time view over this instance's telemetry cells (the cells are
  /// also exported process-wide as speed_transport_* via the registry).
  struct Stats {
    std::uint64_t round_trips = 0;        ///< successful round trips
    std::uint64_t failures = 0;           ///< failed round trips + recoveries
    std::uint64_t reconnects = 0;         ///< successful reconnections
    std::uint64_t reconnect_failures = 0; ///< individual failed attempts
  };
  Stats stats() const;

  const ResilienceConfig& config() const { return config_; }

 private:
  /// One bounded reconnect cycle; on success swaps in the new transport and
  /// stages the fresh key. The displaced transport is moved into `retired`,
  /// NOT destroyed here: its teardown can deregister telemetry collectors
  /// (Registry::mu_, rank 450 — below this lock). Callers declare `retired`
  /// before their MutexLock so it dies after mu_ is released.
  bool try_reconnect_locked(std::unique_ptr<Transport>& retired) REQUIRES(mu_);
  std::uint64_t jittered_locked(std::uint64_t ms, double fraction) REQUIRES(mu_);

  // 500: held across the inner transport's round trip and across reconnect
  // backoff, so no round trip runs on a transport a reconnect is replacing
  // — the documented LD004 exception (docs/LOCK_ORDER.md).
  mutable Mutex mu_{LockRank::kTransport};
  std::unique_ptr<Transport> inner_ GUARDED_BY(mu_);
  bool inner_healthy_ GUARDED_BY(mu_) = true;
  ReconnectFn reconnect_;
  RekeyCallback rekey_ GUARDED_BY(mu_);
  ResilienceConfig config_;
  std::uint64_t jitter_state_ GUARDED_BY(mu_);

  telemetry::Counter round_trips_;
  telemetry::Counter failures_;
  telemetry::Counter reconnects_;
  telemetry::Counter reconnect_failures_;
  telemetry::Histogram rtt_ns_;
  // Declared after the cells it reads (destroyed, i.e. deregistered, first).
  telemetry::Registry::Handle telemetry_handle_;
};

}  // namespace speed::net
