// Transport between DedupRuntime and ResultStore.
//
// The paper deploys the store on the same machine as the applications and
// speaks a synchronous request/response protocol through OCALLs (§IV-B).
// Transport is that abstraction: round_trip() sends one framed request and
// blocks for the response. LoopbackTransport is the in-process deployment
// (with optional injected latency to model a socket hop); it serializes
// concurrent callers like a single connection would. A transport is one
// connection and never reconnects: the StoreLink over it drops it after a
// failure and dials a fresh one (net/store_link.h).
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
  /// Unused: see recover().
  using RekeyCallback = std::function<void(secret::Buffer session_key)>;

  virtual ~Transport() = default;

  /// Send `request`, block until the peer's response arrives.
  virtual Bytes round_trip(ByteView request) = 0;

  /// Unused. Nothing in src/ calls or overrides recover() or
  /// set_rekey_callback(): a StoreLink replaces a failed connection by
  /// dialing a new one (net/store_link.h). They remain only because the
  /// benchmark harness's TimedTransport (perfbench/cpp/harness.h) overrides
  /// them; delete all three with those overrides.
  virtual bool recover() { return false; }
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
