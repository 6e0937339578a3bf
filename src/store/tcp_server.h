// ResultStore served over TCP (separate-process deployment).
//
// Connection protocol:
//   1. client sends its handshake hello (encoded HandshakeMessage);
//   2. server verifies it inside the store enclave, replies with its hello;
//   3. every further frame is a secure-channel frame carrying one wire
//      request (or, for v2 peers, a batch of them); the server replies with
//      one secure frame per request frame, in order.
//
// Architecture (docs/PROTOCOL.md §9): a single epoll event loop owns every
// socket — nonblocking reads into per-connection buffers, frame parsing,
// nonblocking writes — and a small worker pool executes the decrypted
// requests against the sharded store. Each connection is a strand: exactly
// one worker drains its parsed-frame inbox at a time, so secure-channel
// sequence numbers stay aligned with delivery order while frames from many
// connections (and pipelined frames within one) execute concurrently.
//
// Connections that fail attestation or violate the channel (tamper/replay)
// are dropped, costing only themselves — identical containment to the old
// thread-per-connection server, measured by the same counters.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/annotated_lock.h"
#include "net/resilient.h"
#include "net/tcp.h"
#include "store/store_session.h"
#include "telemetry/admin_server.h"

namespace speed::store {

struct StoreServerConfig {
  /// Worker threads executing decrypted requests against the store.
  std::size_t workers = 4;
  /// Largest frame the server will buffer. The length prefix is checked
  /// before any payload allocation, so a hostile length cannot balloon
  /// memory; an oversized frame earns a clean wire error, then the
  /// connection closes. 0 = the transport-level 256 MB cap only.
  std::size_t max_frame_bytes = 4ull * 1024 * 1024;
  /// Cap on sub-requests per batch frame (clean wire error beyond it).
  /// 0 = unlimited.
  std::size_t max_batch_entries = 4096;
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

  /// Stop serving: close every connection, join the loop and workers.
  void stop();

  std::uint64_t connections_accepted() const { return accepted_.load(); }
  std::uint64_t connections_rejected() const { return rejected_.load(); }
  /// Sessions that died after a successful handshake: client gone mid-frame,
  /// channel violation, or a send to a half-closed peer. Each costs only its
  /// own connection; the event loop and other sessions are unaffected.
  std::uint64_t session_errors() const { return session_errors_.load(); }
  /// Frames refused for exceeding max_frame_bytes.
  std::uint64_t oversized_frames() const { return oversized_frames_.load(); }

 private:
  /// Per-connection state. The fd and epoll interest are owned by the loop
  /// thread; everything under `mu` is shared with the worker draining the
  /// strand.
  struct Conn {
    explicit Conn(int fd) : fd(fd) {}
    const int fd;

    // ---- loop-thread-only ----
    Bytes rbuf;                ///< unparsed input bytes
    std::size_t roff = 0;      ///< parse cursor into rbuf
    bool want_write = false;   ///< EPOLLOUT currently armed
    bool read_closed = false;  ///< EOF seen / reading abandoned
    bool closed = false;       ///< fd closed, awaiting map erase
    std::uint32_t interest = 0;  ///< epoll mask currently registered

    // ---- shared (guarded by mu) ----
    // 840: the strand lock. The pool rendezvous locks (850) may be taken
    // while a conn lock is held (reevaluate enqueues under conn->mu), so
    // conn ranks strictly below them; no path holds two conn locks at once.
    Mutex mu{LockRank::kServerConn};
    std::deque<Bytes> inbox GUARDED_BY(mu);  ///< parsed frames awaiting the strand
    Bytes wbuf GUARDED_BY(mu);            ///< encoded responses awaiting the socket
    std::size_t woff GUARDED_BY(mu) = 0;  ///< send cursor into wbuf
    bool processing GUARDED_BY(mu) = false;  ///< a worker owns the strand now
    bool handshaken GUARDED_BY(mu) = false;
    bool oversized GUARDED_BY(mu) = false;  ///< frame over the limit arrived
    bool oversized_handled GUARDED_BY(mu) = false;
    bool abort GUARDED_BY(mu) = false;  ///< stop processing; drop remaining inbox
    bool close_after_flush GUARDED_BY(mu) = false;
    bool error_counted GUARDED_BY(mu) = false;  ///< session_errors_ bumped once
    std::optional<StoreSession> session GUARDED_BY(mu);
  };

  void loop();
  void worker_loop();
  void process_conn(const std::shared_ptr<Conn>& conn);
  void handle_frame_on_worker(const std::shared_ptr<Conn>& conn, Bytes frame);
  void handle_oversize_on_worker(const std::shared_ptr<Conn>& conn);

  // Loop-thread helpers.
  void accept_ready();
  void handle_readable(const std::shared_ptr<Conn>& conn);
  void parse_frames(const std::shared_ptr<Conn>& conn);
  void flush_conn(const std::shared_ptr<Conn>& conn);
  void update_interest(const std::shared_ptr<Conn>& conn);
  /// Schedule pending inbox work onto the pool and/or close a drained
  /// connection whose close_after_flush flag is set.
  void reevaluate(const std::shared_ptr<Conn>& conn);
  void close_conn(const std::shared_ptr<Conn>& conn);

  /// Worker -> loop: responses or flags changed; re-evaluate this conn.
  void notify_loop(const std::shared_ptr<Conn>& conn);

  ResultStore& store_;
  StoreServerConfig config_;
  net::TcpListener listener_;
  int epoll_fd_ = -1;
  int event_fd_ = -1;

  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> session_errors_{0};
  std::atomic<std::uint64_t> oversized_frames_{0};

  /// All live connections, keyed by fd (loop thread only).
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;

  /// Worker pool rendezvous (850: above every conn lock).
  Mutex ready_mu_{LockRank::kServerPool};
  CondVar ready_cv_;
  std::deque<std::shared_ptr<Conn>> ready_ GUARDED_BY(ready_mu_);

  /// Conns the workers finished touching, drained by the loop on eventfd.
  Mutex completed_mu_{LockRank::kServerPool};
  std::vector<std::shared_ptr<Conn>> completed_ GUARDED_BY(completed_mu_);

  std::thread loop_thread_;
  std::vector<std::thread> workers_;
  std::unique_ptr<telemetry::AdminServer> admin_;
  // Declared after the counters it reads (deregisters first).
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

/// Like connect_tcp_app, but the transport is wrapped in a
/// ResilientTransport whose reconnect hook re-dials host:port and re-runs
/// the attested handshake (yielding a fresh channel key each time), and
/// every round trip is bounded by `deadline_ms` (-1 = no deadline). This is
/// the production-posture client: store crashes, restarts, and network
/// faults degrade calls to local compute instead of failing them.
TcpAppConnection connect_tcp_app_resilient(
    sgx::Enclave& app, const sgx::Measurement& store_measurement,
    const std::string& host, std::uint16_t port,
    net::ResilienceConfig resilience = net::ResilienceConfig{},
    std::int64_t deadline_ms = -1);

}  // namespace speed::store
