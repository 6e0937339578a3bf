// ResultStore served over TCP (separate-process deployment).
//
// Connection protocol:
//   1. client sends its handshake hello (encoded HandshakeMessage);
//   2. server verifies it inside the store enclave, replies with its hello;
//   3. every further frame is a secure-channel frame carrying one wire
//      request (or, for v2 peers, a batch of them); the server replies with
//      one secure frame per request frame, in order.
//
// Architecture (docs/PROTOCOL.md §9): one acceptor thread and L event loops,
// L = std::thread::hardware_concurrency() (at least 1). The acceptor gives
// each new socket to the loop with the fewest live connections, by writing
// the fd number into that loop's wake pipe. A loop owns its sockets outright
// and runs every frame to completion on its own thread: the handshake (or
// StoreSession::handle_frame_into, on a view of the read buffer, sealing
// the reply straight into the connection's write buffer), then the flush.
// No frame crosses a thread or takes a server lock, and replies leave in
// arrival order, as the secure channel's sequence numbers require. A
// connection's memory is its read buffer, its write buffer and its
// session's plaintext buffer, all kept across frames (docs/PROTOCOL.md §9
// gives their bounds).
//
// Backpressure: while a connection's unsent replies exceed max_frame_bytes,
// its loop neither reads nor serves it, so a client that never reads cannot
// grow server memory. Each readiness event reads at most one chunk (or the
// rest of one frame), so a client that pipelines without pause cannot starve
// the other connections on its loop.
//
// A connection that fails attestation or violates the channel (tamper/replay)
// is dropped, costing only itself; the counters below record each one.
//
// Client side: connect_tcp_app makes one attested connection; tcp_node
// makes a cluster member whose StoreLink dials host:port and re-dials it
// after the connection fails (a single store is then a one-node cluster).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/cluster.h"
#include "net/tcp.h"
#include "store/store_session.h"
#include "telemetry/admin_server.h"

namespace speed::store {

struct StoreServerConfig {
  /// Largest frame the server will buffer. The length prefix is checked
  /// before any payload allocation, so a hostile length cannot balloon
  /// memory; an oversized frame earns a clean wire error, then the
  /// connection closes. 0 = the transport-level 256 MB cap only. The same
  /// bound caps a connection's unsent replies: above it, the connection is
  /// neither read nor served until the socket drains.
  std::size_t max_frame_bytes = serialize::kMaxFrameBytes;
  /// Cap on sub-requests per batch frame (clean wire error beyond it).
  /// 0 = unlimited.
  std::size_t max_batch_entries = serialize::kMaxBatchOps;
};

class StoreTcpServer {
 public:
  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts serving. When
  /// `admin_port` is set, also serves the plaintext telemetry endpoint
  /// (telemetry::AdminServer — /metrics, /snapshot.json, /traces.json) on
  /// 127.0.0.1:*admin_port (0 = ephemeral, read back with admin_port()).
  StoreTcpServer(ResultStore& store, std::uint16_t port = 0,
                 std::optional<std::uint16_t> admin_port = std::nullopt,
                 StoreServerConfig config = StoreServerConfig{});
  ~StoreTcpServer();

  StoreTcpServer(const StoreTcpServer&) = delete;
  StoreTcpServer& operator=(const StoreTcpServer&) = delete;

  std::uint16_t port() const { return listener_.port(); }
  /// 0 when the server was started without an admin endpoint.
  std::uint16_t admin_port() const {
    return admin_ != nullptr ? admin_->port() : 0;
  }

  const StoreServerConfig& config() const { return config_; }

  /// Stop serving: close the listener and every connection, join the
  /// acceptor and the loops.
  void stop();

  std::uint64_t connections_accepted() const { return accepted_.load(); }
  std::uint64_t connections_rejected() const { return rejected_.load(); }
  /// Sessions that died after a successful handshake: client gone mid-frame,
  /// channel violation, or a send to a half-closed peer. Each costs only its
  /// own connection; the loops and other sessions are unaffected.
  std::uint64_t session_errors() const { return session_errors_.load(); }
  /// Frames refused for exceeding max_frame_bytes.
  std::uint64_t oversized_frames() const { return oversized_frames_.load(); }

 private:
  class Loop;  // one epoll set, its wake pipe and the connections it owns

  void accept_loop();

  ResultStore& store_;
  StoreServerConfig config_;
  net::TcpListener listener_;

  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> session_errors_{0};
  std::atomic<std::uint64_t> oversized_frames_{0};

  std::vector<std::unique_ptr<Loop>> loops_;  ///< fixed after construction
  std::thread acceptor_;
  std::unique_ptr<telemetry::AdminServer> admin_;
  // Declared after the counters and loops it reads (deregisters first).
  telemetry::Registry::Handle telemetry_handle_;
};

/// Client side: connect an application enclave to a remote store over TCP,
/// performing the attested handshake. `store_measurement` pins the store
/// identity the client is willing to talk to.
struct TcpAppConnection {
  secret::Buffer session_key;
  std::unique_ptr<net::Transport> transport;
  /// Wire-protocol version negotiated with the store (min of both hellos);
  /// batch frames require >= net::kProtocolVersionBatch.
  std::uint8_t protocol_version = net::kProtocolVersionLegacy;
};

TcpAppConnection connect_tcp_app(sgx::Enclave& app,
                                 const sgx::Measurement& store_measurement,
                                 const std::string& host, std::uint16_t port);

/// The store at host:port as a cluster member: its dial runs
/// connect_tcp_app (a fresh attested handshake, so a restarted store is
/// re-attested and yields a fresh channel key), and bounds every round trip
/// of the connection by `deadline_ms` (-1 = no deadline). A one-node
/// ClusterTransport over it is the production-posture client of a single
/// store: crashes, restarts and network faults degrade calls to local
/// compute, and the node's link re-dials once the store is back.
net::ClusterNode tcp_node(sgx::Enclave& app,
                          const sgx::Measurement& store_measurement,
                          const std::string& host, std::uint16_t port,
                          std::int64_t deadline_ms = -1);

}  // namespace speed::store
