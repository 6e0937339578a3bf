// TCP transport: length-prefixed frames over POSIX sockets.
//
// The paper deploys the ResultStore as a separate process reachable over
// the network (and a master store on a dedicated server). This module
// provides the socket plumbing: a framed connection, a blocking listener,
// and a Transport implementation the DedupRuntime can use unchanged —
// everything above the socket (handshake, secure channel, wire protocol)
// is identical to the in-process deployment. A TcpTransport is one socket
// and never reconnects; reconnecting is the StoreLink's job, through a dial
// such as store::tcp_node's.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "common/annotated_lock.h"
#include "common/bytes.h"
#include "common/error.h"
#include "net/channel.h"

namespace speed::net {

class TcpError : public Error {
 public:
  explicit TcpError(const std::string& what) : Error(what) {}
};

/// A send or receive deadline expired. After a timeout the byte stream is in
/// an unknown state (a late response would misalign every following frame),
/// so callers must treat the connection as dead and reconnect.
class TcpTimeout : public TcpError {
 public:
  explicit TcpTimeout(const std::string& what) : TcpError(what) {}
};

/// A connected socket speaking u32-length-prefixed frames. Closes on
/// destruction. Frames are capped at 256 MB to bound allocation.
///
/// Deadlines: every frame operation polls the fd before each syscall, so a
/// peer that stops draining (send) or stops talking (recv) raises TcpTimeout
/// instead of parking the thread forever. Timeouts apply per frame; -1
/// blocks indefinitely (the historical behavior and the default).
class FramedSocket {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  explicit FramedSocket(int fd) : fd_(fd) {}
  ~FramedSocket();

  FramedSocket(FramedSocket&& other) noexcept
      : fd_(other.fd_),
        send_timeout_ms_(other.send_timeout_ms_),
        recv_timeout_ms_(other.recv_timeout_ms_) {
    other.fd_ = -1;
  }
  FramedSocket& operator=(FramedSocket&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = other.fd_;
      send_timeout_ms_ = other.send_timeout_ms_;
      recv_timeout_ms_ = other.recv_timeout_ms_;
      other.fd_ = -1;
    }
    return *this;
  }
  FramedSocket(const FramedSocket&) = delete;
  FramedSocket& operator=(const FramedSocket&) = delete;

  /// Per-frame timeouts in milliseconds; -1 = block forever.
  void set_timeouts(std::int64_t send_ms, std::int64_t recv_ms) {
    send_timeout_ms_ = send_ms;
    recv_timeout_ms_ = recv_ms;
  }
  std::int64_t send_timeout_ms() const { return send_timeout_ms_; }
  std::int64_t recv_timeout_ms() const { return recv_timeout_ms_; }

  void send_frame(ByteView payload);
  /// Blocks for one frame; throws TcpError on EOF or malformed length.
  Bytes recv_frame();
  /// Like recv_frame but returns nullopt on orderly EOF before any byte.
  std::optional<Bytes> try_recv_frame();

  /// Deadline-bound variants sharing one absolute budget across the header
  /// and payload (used by TcpTransport's per-round-trip deadline).
  void send_frame(ByteView payload, TimePoint deadline);
  Bytes recv_frame(TimePoint deadline);
  std::optional<Bytes> try_recv_frame(TimePoint deadline);

  bool valid() const { return fd_ >= 0; }
  void close();

  /// Underlying descriptor (-1 when closed). For event-loop servers that
  /// multiplex many sockets; frame helpers above stay usable alongside.
  int fd() const { return fd_; }

  /// Give up ownership of the descriptor (the event loop takes over its
  /// lifecycle); this socket becomes invalid without closing the fd.
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

  /// Half-close both directions without releasing the fd: unblocks a peer
  /// (or our own other thread) sitting in recv(). Safe to call from a
  /// different thread than the one using the socket.
  void shutdown();

 private:
  void send_frame_impl(ByteView payload,
                       const std::optional<TimePoint>& deadline);
  std::optional<Bytes> try_recv_frame_impl(
      const std::optional<TimePoint>& deadline);

  int fd_;
  std::int64_t send_timeout_ms_ = -1;
  std::int64_t recv_timeout_ms_ = -1;
};

/// Connect to host:port (IPv4 dotted or "localhost").
FramedSocket tcp_connect(const std::string& host, std::uint16_t port);

/// Blocking accept loop owner. Binds to 127.0.0.1.
class TcpListener {
 public:
  /// `port` 0 picks an ephemeral port (see port()).
  explicit TcpListener(std::uint16_t port);
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  std::uint16_t port() const { return port_; }

  /// Blocks for the next connection; throws TcpError once closed. Retries
  /// EINTR and transient per-connection failures (ECONNABORTED) internally —
  /// a signal or an aborted dial never kills the accept loop.
  FramedSocket accept();

  /// Nonblocking accept for event-loop servers (call set_nonblocking()
  /// first): returns nullopt when no connection is pending (EAGAIN) or the
  /// attempt was retriable (EINTR/ECONNABORTED); throws TcpError only once
  /// the listener is closed or genuinely broken.
  std::optional<FramedSocket> try_accept();

  /// Switch the listening socket to O_NONBLOCK (for try_accept + epoll).
  void set_nonblocking();

  /// Listening descriptor for epoll registration (-1 once closed).
  int fd() const { return fd_.load(); }

  /// Unblocks pending accept() calls. Safe to call from another thread
  /// while accept() is blocked (the usual server-shutdown shape).
  void close();

 private:
  std::atomic<int> fd_;
  std::uint16_t port_;
};

/// Transport over a framed TCP connection: one in-flight request at a time,
/// like the prototype's synchronous OCALL-driven exchange.
///
/// `deadline_ms` bounds one whole round trip (request out + response in);
/// -1 keeps the historical block-forever behavior. A round trip that blows
/// its deadline throws TcpTimeout, and the connection must then be
/// abandoned: the response may still arrive later and would misalign the
/// frame stream (a StoreLink drops it, and re-dials when it has a dial).
class TcpTransport : public Transport {
 public:
  explicit TcpTransport(FramedSocket socket, std::int64_t deadline_ms = -1)
      : socket_(std::move(socket)), deadline_ms_(deadline_ms) {}

  void set_deadline_ms(std::int64_t ms) {
    MutexLock lock(mu_);
    deadline_ms_ = ms;
  }

  // Holding mu_ across the socket I/O is the point: one in-flight round
  // trip per connection, so a second caller queues rather than interleaving
  // frames.
  // lockdiscipline-allow: LD004 the lock IS the wire serialization
  Bytes round_trip(ByteView request) override {
    MutexLock lock(mu_);
    if (deadline_ms_ < 0) {
      socket_.send_frame(request);
      return socket_.recv_frame();
    }
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(deadline_ms_);
    socket_.send_frame(request, deadline);
    return socket_.recv_frame(deadline);
  }

  /// Raw socket escape hatch for tests that corrupt the byte stream
  /// deliberately. Bypasses mu_ — never use it while round trips are in
  /// flight on another thread.
  FramedSocket& socket() { return socket_; }

 private:
  FramedSocket socket_;  // serialized by mu_ on the round-trip path
  std::int64_t deadline_ms_ GUARDED_BY(mu_);
  Mutex mu_{LockRank::kTransportLink};  // innermost transport (510)
};

}  // namespace speed::net
