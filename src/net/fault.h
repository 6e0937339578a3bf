// Deterministic fault injection for resilience testing.
//
// FaultInjectingTransport wraps any Transport and consults a schedule on
// every round trip: the schedule maps the (0-based) call index to a fault.
// Faults model the store failure modes a deployment actually sees:
//
//   kTimeout    — the deadline expired (throws TcpTimeout); the response
//                 may still be in flight, so the connection is unusable;
//   kDisconnect — the peer died / the socket broke (throws TcpError);
//   kGarbage    — the host answered bytes that are not a channel frame
//                 (returned verbatim; the caller's unwrap fails);
//   kTruncate   — the real response, cut in half mid-frame.
//
// Schedules are plain functions, so tests compose them freely; the helpers
// cover the common "always" and "fail a window of calls, then recover"
// shapes. The injector is thread-safe and counts every decision.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>

#include "common/annotated_lock.h"
#include "common/bytes.h"
#include "net/channel.h"
#include "net/tcp.h"

namespace speed::net {

class FaultInjectingTransport : public Transport {
 public:
  enum class Fault { kNone, kTimeout, kDisconnect, kGarbage, kTruncate };

  using Schedule = std::function<Fault(std::uint64_t call_index)>;

  explicit FaultInjectingTransport(std::unique_ptr<Transport> inner,
                                   Schedule schedule = Schedule{})
      : inner_(std::move(inner)), schedule_(std::move(schedule)) {}

  /// Every call gets the same fault.
  static Schedule always(Fault f) {
    return [f](std::uint64_t) { return f; };
  }

  /// Calls in [from, to) fail with `f`; everything else is healthy — the
  /// "store dies after K calls, later recovers" shape.
  static Schedule fail_window(std::uint64_t from, std::uint64_t to, Fault f) {
    return [from, to, f](std::uint64_t i) {
      return (i >= from && i < to) ? f : Fault::kNone;
    };
  }

  /// Replace the schedule mid-test (e.g. to clear a fault).
  void set_schedule(Schedule schedule) {
    MutexLock lock(mu_);
    schedule_ = std::move(schedule);
  }

  Bytes round_trip(ByteView request) override {
    // The schedule decision is taken under mu_; the lock is released before
    // forwarding to the inner transport.
    Fault fault = Fault::kNone;
    {
      MutexLock lock(mu_);
      const std::uint64_t index = calls_++;
      if (schedule_) fault = schedule_(index);
      if (fault != Fault::kNone) ++injected_;
    }
    switch (fault) {
      case Fault::kNone:
        return inner_->round_trip(request);
      case Fault::kTimeout:
        throw TcpTimeout("injected: round-trip deadline exceeded");
      case Fault::kDisconnect:
        throw TcpError("injected: connection reset by peer");
      case Fault::kGarbage: {
        // Not forwarded: the "response" never saw the store. Deterministic
        // junk that cannot authenticate under any channel key.
        Bytes junk(48);
        for (std::size_t i = 0; i < junk.size(); ++i) {
          junk[i] = static_cast<std::uint8_t>(0xa5u ^ (i * 7));
        }
        return junk;
      }
      case Fault::kTruncate: {
        Bytes real = inner_->round_trip(request);
        real.resize(real.size() / 2);
        return real;
      }
    }
    throw TcpError("unreachable fault kind");
  }

  std::uint64_t calls() const { return calls_; }
  std::uint64_t injected() const { return injected_; }

 private:
  std::unique_ptr<Transport> inner_;
  // 505: stacked between the StoreLink strand (200) and the wire (510).
  Mutex mu_{LockRank::kTransportInject};
  Schedule schedule_ GUARDED_BY(mu_);
  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> injected_{0};
};

}  // namespace speed::net
