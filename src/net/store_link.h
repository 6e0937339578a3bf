// Client end of one attested store connection (docs/PROTOCOL.md §6).
//
// A StoreLink holds a Transport and the SecureChannel keyed by that
// connection's attested handshake. round_trip() seals the request inside
// the enclave, ships the frame through one OCALL, and opens the reply, all
// under the link's strand: the channel's sequence numbers admit no
// interleaving. It is the only client code that seals or opens a store
// frame, and the only code that makes or remakes a store connection.
// ClusterTransport holds one per node; a single store is its one node.
//
// Buffers. The link keeps one frame buffer and one plaintext buffer under
// the strand. A request is encoded straight after the frame header and
// sealed in place; the reply is opened into the plaintext buffer and decoded
// from a view of it. Both live inside the enclave and grow to the largest
// frame the link has carried, so a round trip allocates only the reply the
// transport receives and what the decoded message owns.
//
// Failure rule. A transport error, or a reply that fails the channel check,
// drops the link's connection: the client cannot know which sequence
// numbers the store consumed, so the key never wraps another frame. A link
// with no connection dials on its next round_trip(): one `dial` call inside
// one OCALL, which re-runs the attested handshake, and a fresh channel under
// the session key it returns. A failed dial leaves the link with no
// connection. A link without a dial (the single store's adopted
// connection) never reconnects: once its connection is dropped, every
// round_trip() throws StoreUnavailableError without I/O. The link never
// resends a frame and never waits; whether and when to call it again is the
// ClusterTransport walk's node health.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "common/annotated_lock.h"
#include "common/secret.h"
#include "net/channel.h"
#include "net/secure_channel.h"
#include "serialize/wire.h"
#include "sgx/enclave.h"
#include "telemetry/metrics.h"

namespace speed::net {

/// A live store connection: its transport and the session key from its
/// attested handshake.
struct Connection {
  std::unique_ptr<Transport> transport;
  secret::Buffer session_key;
};

/// Makes a fresh connection, re-running the attested handshake (e.g. a
/// store::connect_tcp_app or connect_app closure). Throws, or returns a
/// null transport, on failure.
using DialFn = std::function<Connection()>;

/// Kept only for the benchmark harness (perfbench/), which spells the
/// connection type `ResilientTransport::Connection`; new code says
/// Connection.
struct ResilientTransport {
  using Connection = net::Connection;
};

class StoreLink {
 public:
  /// A link over `initial`, or with no connection when `initial.transport`
  /// is null. Constructing it makes no I/O. Throws ProtocolError when given
  /// neither a transport nor a dial.
  StoreLink(sgx::Enclave& enclave, Connection initial, DialFn dial = {});

  StoreLink(const StoreLink&) = delete;
  StoreLink& operator=(const StoreLink&) = delete;

  /// Dial now if the link has no connection and can dial: the same one dial
  /// inside one OCALL that round_trip() would make, not counted in stats().
  /// Returns whether the link has a connection; a failed dial returns false.
  bool connect();

  /// One request/response over the attested channel. Must be called from
  /// inside `enclave`. Throws whatever the dial or transport throws,
  /// ProtocolError when the reply fails the channel check, and
  /// StoreUnavailableError when the link has no connection and cannot dial.
  serialize::Message round_trip(const serialize::Message& request);

  /// Dials that round_trip() made for a link with no connection.
  struct Stats {
    std::uint64_t reconnects = 0;          ///< dials that connected
    std::uint64_t reconnect_failures = 0;  ///< dials that failed
  };
  Stats stats() const {
    return {reconnects_.value(), reconnect_failures_.value()};
  }

  /// Bytes the link keeps between round trips: its request frame and reply
  /// plaintext buffers.
  std::size_t kept_bytes() const {
    MutexLock lock(mu_);
    return frame_.capacity() + plain_.capacity();
  }

 private:
  /// One dial inside one OCALL; on success adopts the connection and keys a
  /// fresh channel from its session key. Throws what the dial throws, and
  /// StoreUnavailableError when it yields no transport.
  void dial_locked() REQUIRES(mu_);
  void install_locked(Connection conn) REQUIRES(mu_);

  sgx::Enclave& enclave_;
  const DialFn dial_;

  /// The strand: held across wrap -> OCALL -> unwrap, and across the dial
  /// OCALL that precedes them.
  mutable Mutex mu_{LockRank::kRuntimeChannel};
  std::unique_ptr<Transport> transport_ GUARDED_BY(mu_);  ///< null: none
  std::optional<SecureChannel> channel_ GUARDED_BY(mu_);
  Bytes frame_ GUARDED_BY(mu_);  ///< header ‖ request, sealed in place
  Bytes plain_ GUARDED_BY(mu_);  ///< the last reply's plaintext (a prefix)

  telemetry::Counter reconnects_;
  telemetry::Counter reconnect_failures_;
};

}  // namespace speed::net
