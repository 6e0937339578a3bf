// Transport between DedupRuntime and ResultStore.
//
// The paper deploys the store on the same machine as the applications and
// speaks a synchronous request/response protocol through OCALLs (§IV-B).
// Transport is that abstraction: round_trip() sends one framed request and
// blocks for the response. LoopbackTransport is the in-process deployment
// (with optional injected latency to model a socket hop); it serializes
// concurrent callers like a single connection would.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>

#include "common/annotated_lock.h"
#include "common/bytes.h"
#include "common/clock.h"
#include "common/error.h"
#include "common/secret.h"

namespace speed::net {

/// The transport cannot currently reach the store: connection dead, node
/// down inside its probe window, or reconnection failed. The DedupRuntime
/// treats this as a degrade-to-compute signal, never as an application
/// error.
class StoreUnavailableError : public Error {
 public:
  explicit StoreUnavailableError(const std::string& what) : Error(what) {}
};

class Transport {
 public:
  /// Invoked with the fresh session key after a transport re-ran the
  /// attested handshake, so the client can rebuild its SecureChannel. The
  /// key stays in the secret domain end to end.
  using RekeyCallback = std::function<void(secret::Buffer session_key)>;

  virtual ~Transport() = default;

  /// Send `request`, block until the peer's response arrives.
  virtual Bytes round_trip(ByteView request) = 0;

  /// Called by a client whose secure channel over this transport has become
  /// unusable (failed round trip, MAC failure, stale sequence numbers).
  /// A recovering transport re-establishes the connection, re-runs the
  /// attested handshake, reports the new key through the rekey callback, and
  /// returns true. The default transport cannot recover.
  virtual bool recover() { return false; }

  /// Register the rekey callback (no-op for transports that never rekey).
  virtual void set_rekey_callback(RekeyCallback) {}
};

/// In-process transport delivering requests to a handler function.
class LoopbackTransport : public Transport {
 public:
  using Handler = std::function<Bytes(ByteView)>;

  explicit LoopbackTransport(Handler handler, std::uint64_t one_way_ns = 0)
      : handler_(std::move(handler)), one_way_ns_(one_way_ns) {}

  // The handler call runs under mu_ on purpose: one frame in flight at a
  // time, exactly like a single connection.
  // lockdiscipline-allow: LD004 the lock IS the wire serialization
  Bytes round_trip(ByteView request) override {
    round_trips_.fetch_add(1, std::memory_order_relaxed);
    MutexLock lock(mu_);
    if (one_way_ns_ > 0) busy_wait_ns(one_way_ns_);
    Bytes response = handler_(request);
    if (one_way_ns_ > 0) busy_wait_ns(one_way_ns_);
    return response;
  }

  /// Frames that actually crossed this transport — the runtime's local
  /// result cache is asserted against this staying flat on repeated calls.
  std::uint64_t round_trips() const {
    return round_trips_.load(std::memory_order_relaxed);
  }

 private:
  Handler handler_ GUARDED_BY(mu_);
  std::uint64_t one_way_ns_;
  Mutex mu_{LockRank::kTransportLink};  // ranks with TcpTransport (510)
  std::atomic<std::uint64_t> round_trips_{0};
};

}  // namespace speed::net
