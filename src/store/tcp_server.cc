#include "store/tcp_server.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

namespace speed::store {

namespace {

/// Transport-level frame cap (matches FramedSocket); config.max_frame_bytes
/// only tightens it.
constexpr std::size_t kTransportMaxFrame = 256u * 1024 * 1024;

/// Compact consumed rbuf/wbuf prefixes once the cursor passes this, so a
/// long-lived pipelined connection does not hold on to dead bytes.
constexpr std::size_t kCompactThreshold = 256u * 1024;

std::uint32_t le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// Append a u32-length-prefixed frame to `out` (same framing FramedSocket
/// speaks on the client side).
void append_frame(Bytes& out, ByteView payload) {
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
  }
  out.insert(out.end(), payload.begin(), payload.end());
}

}  // namespace

StoreTcpServer::StoreTcpServer(ResultStore& store, std::uint16_t port,
                               std::optional<std::uint16_t> admin_port,
                               StoreServerConfig config)
    : store_(store), config_(config), listener_(port) {
  if (config_.workers == 0) config_.workers = 1;

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    throw net::TcpError(std::string("epoll_create1: ") + std::strerror(errno));
  }
  event_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (event_fd_ < 0) {
    const int err = errno;
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    throw net::TcpError(std::string("eventfd: ") + std::strerror(err));
  }
  listener_.set_nonblocking();
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listener_.fd();
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listener_.fd(), &ev);
  ev = {};
  ev.events = EPOLLIN;
  ev.data.fd = event_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev);

  if (admin_port.has_value()) {
    admin_ = std::make_unique<telemetry::AdminServer>(*admin_port);
  }
  telemetry_handle_ = telemetry::Registry::global().add_collector(
      [this](telemetry::SampleSink& sink) {
        constexpr auto kResult = telemetry::LabelKey::of("result");
        sink.counter("speed_server_connections_total",
                     "Store TCP connections by handshake result",
                     {{kResult, telemetry::LabelValue::lit("accepted")}},
                     accepted_.load(std::memory_order_relaxed));
        sink.counter("speed_server_connections_total",
                     "Store TCP connections by handshake result",
                     {{kResult, telemetry::LabelValue::lit("rejected")}},
                     rejected_.load(std::memory_order_relaxed));
        sink.counter("speed_server_session_errors_total",
                     "Sessions that died after a successful handshake", {},
                     session_errors_.load(std::memory_order_relaxed));
        sink.counter("speed_server_oversized_frames_total",
                     "Frames refused for exceeding max_frame_bytes", {},
                     oversized_frames_.load(std::memory_order_relaxed));
      });

  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  loop_thread_ = std::thread([this] { loop(); });
}

StoreTcpServer::~StoreTcpServer() { stop(); }

void StoreTcpServer::stop() {
  if (stopping_.exchange(true)) return;
  listener_.close();
  // Workers first: a worker finishing its frame still writes the eventfd,
  // which is closed below.
  {
    MutexLock lock(ready_mu_);
  }
  ready_cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t r = ::write(event_fd_, &one, sizeof(one));
  if (loop_thread_.joinable()) loop_thread_.join();
  // Abrupt teardown of live connections: clients see EOF/RST and surface it
  // as TcpError, same as the thread-per-connection server's shutdown().
  for (auto& [fd, conn] : conns_) {
    if (!conn->closed) {
      conn->closed = true;
      ::close(fd);
    }
  }
  conns_.clear();
  if (event_fd_ >= 0) {
    ::close(event_fd_);
    event_fd_ = -1;
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
}

// ---------------------------------------------------------------------------
// Event loop (single thread; owns every fd).
// ---------------------------------------------------------------------------

void StoreTcpServer::loop() {
  const int listen_fd = listener_.fd();
  std::vector<epoll_event> events(64);
  while (!stopping_.load()) {
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd gone — only happens at teardown
    }
    for (int i = 0; i < n && !stopping_.load(); ++i) {
      const int fd = events[i].data.fd;
      if (fd == listen_fd) {
        accept_ready();
        continue;
      }
      if (fd == event_fd_) {
        std::uint64_t drained = 0;
        while (::read(event_fd_, &drained, sizeof(drained)) > 0) {
        }
        std::vector<std::shared_ptr<Conn>> done;
        {
          MutexLock lock(completed_mu_);
          done.swap(completed_);
        }
        for (const auto& conn : done) {
          if (conn->closed) continue;
          flush_conn(conn);
          update_interest(conn);
          reevaluate(conn);
        }
        continue;
      }
      const auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      const std::shared_ptr<Conn> conn = it->second;
      if ((events[i].events & EPOLLOUT) != 0 && !conn->closed) {
        flush_conn(conn);
      }
      if ((events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0 &&
          !conn->closed && !conn->read_closed) {
        handle_readable(conn);
      }
      if (!conn->closed) {
        update_interest(conn);
        reevaluate(conn);
      }
    }
  }
}

void StoreTcpServer::accept_ready() {
  for (;;) {
    std::optional<net::FramedSocket> socket;
    try {
      socket = listener_.try_accept();
    } catch (const net::TcpError&) {
      return;  // listener closed (stop) — the loop exits on stopping_
    }
    if (!socket.has_value()) return;
    const int fd = socket->release();
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    auto conn = std::make_shared<Conn>(fd);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    conn->interest = EPOLLIN;
    conns_.emplace(fd, std::move(conn));
  }
}

void StoreTcpServer::handle_readable(const std::shared_ptr<Conn>& conn) {
  bool eof = false;
  bool read_error = false;
  std::uint8_t buf[64 * 1024];
  while (!conn->read_closed) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->rbuf.insert(conn->rbuf.end(), buf, buf + n);
      // Parse as we go: an oversized length prefix flips read_closed before
      // the payload is ever buffered, let alone allocated whole.
      parse_frames(conn);
      continue;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    read_error = true;
    break;
  }
  if (!eof && !read_error) return;

  conn->read_closed = true;
  const bool mid_frame = (conn->rbuf.size() - conn->roff) > 0 || read_error;
  MutexLock lock(conn->mu);
  conn->close_after_flush = true;
  if (!conn->handshaken) {
    // Disconnect before the handshake completed. If a hello frame is already
    // parsed (or being processed), the worker decides accepted/rejected;
    // otherwise this mirrors the blocking server, where recv_frame failing
    // during the hello counted the connection as rejected.
    if (!conn->error_counted && conn->inbox.empty() && !conn->processing &&
        !conn->oversized) {
      ++rejected_;
      conn->error_counted = true;
    }
  } else if (mid_frame && !conn->error_counted) {
    ++session_errors_;  // client died mid-frame after a good handshake
    conn->error_counted = true;
  }
}

void StoreTcpServer::parse_frames(const std::shared_ptr<Conn>& conn) {
  const std::size_t max_frame =
      config_.max_frame_bytes > 0 && config_.max_frame_bytes < kTransportMaxFrame
          ? config_.max_frame_bytes
          : kTransportMaxFrame;
  std::vector<Bytes> frames;
  bool oversize = false;
  for (;;) {
    const std::size_t avail = conn->rbuf.size() - conn->roff;
    if (avail < 4) break;
    const std::uint8_t* p = conn->rbuf.data() + conn->roff;
    const std::uint32_t len = le32(p);
    if (len > max_frame) {
      oversize = true;
      break;
    }
    if (avail < 4u + len) break;
    frames.emplace_back(p + 4, p + 4 + len);
    conn->roff += 4u + len;
  }
  if (conn->roff == conn->rbuf.size()) {
    conn->rbuf.clear();
    conn->roff = 0;
  } else if (conn->roff > kCompactThreshold) {
    conn->rbuf.erase(conn->rbuf.begin(),
                     conn->rbuf.begin() + static_cast<std::ptrdiff_t>(conn->roff));
    conn->roff = 0;
  }
  if (oversize) {
    ++oversized_frames_;
    conn->read_closed = true;  // refuse the rest of the stream
  }
  if (frames.empty() && !oversize) return;
  MutexLock lock(conn->mu);
  for (auto& f : frames) conn->inbox.push_back(std::move(f));
  if (oversize) conn->oversized = true;
}

void StoreTcpServer::flush_conn(const std::shared_ptr<Conn>& conn) {
  if (conn->closed) return;
  MutexLock lock(conn->mu);
  bool write_failed = false;
  while (conn->woff < conn->wbuf.size()) {
    const ssize_t n = ::send(conn->fd, conn->wbuf.data() + conn->woff,
                             conn->wbuf.size() - conn->woff, MSG_NOSIGNAL);
    if (n > 0) {
      conn->woff += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    write_failed = true;
    break;
  }
  if (conn->woff == conn->wbuf.size()) {
    conn->wbuf.clear();
    conn->woff = 0;
  } else if (conn->woff > kCompactThreshold) {
    conn->wbuf.erase(conn->wbuf.begin(),
                     conn->wbuf.begin() + static_cast<std::ptrdiff_t>(conn->woff));
    conn->woff = 0;
  }
  if (write_failed) {
    // Peer is gone; responses are undeliverable. Matches the blocking
    // server's send_frame throwing out of the serve loop.
    if (!conn->error_counted) {
      if (conn->handshaken) {
        ++session_errors_;
      } else {
        ++rejected_;
      }
      conn->error_counted = true;
    }
    conn->abort = true;
    conn->close_after_flush = true;
    conn->wbuf.clear();
    conn->woff = 0;
  }
}

void StoreTcpServer::update_interest(const std::shared_ptr<Conn>& conn) {
  if (conn->closed) return;
  bool residual;
  {
    MutexLock lock(conn->mu);
    residual = conn->woff < conn->wbuf.size();
  }
  conn->want_write = residual;
  std::uint32_t mask = 0;
  if (!conn->read_closed) mask |= EPOLLIN;
  if (conn->want_write) mask |= EPOLLOUT;
  if (mask == conn->interest) return;
  conn->interest = mask;
  epoll_event ev{};
  ev.events = mask;
  ev.data.fd = conn->fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void StoreTcpServer::reevaluate(const std::shared_ptr<Conn>& conn) {
  if (conn->closed) return;
  bool close_now = false;
  {
    MutexLock lock(conn->mu);
    const bool pending =
        !conn->abort && (!conn->inbox.empty() ||
                         (conn->oversized && !conn->oversized_handled));
    if (pending && !conn->processing) {
      conn->processing = true;
      {
        MutexLock ready_lock(ready_mu_);
        ready_.push_back(conn);
      }
      ready_cv_.notify_one();
      return;
    }
    close_now = conn->close_after_flush && !conn->processing && !pending &&
                conn->woff == conn->wbuf.size();
  }
  if (close_now) close_conn(conn);
}

void StoreTcpServer::close_conn(const std::shared_ptr<Conn>& conn) {
  if (conn->closed) return;
  conn->closed = true;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  conns_.erase(conn->fd);
}

// ---------------------------------------------------------------------------
// Worker pool (CPU only: handshake, unwrap, dispatch, wrap — never fds).
// ---------------------------------------------------------------------------

void StoreTcpServer::worker_loop() {
  for (;;) {
    std::shared_ptr<Conn> conn;
    {
      MutexLock lock(ready_mu_);
      while (!stopping_.load() && ready_.empty()) ready_cv_.wait(ready_mu_);
      if (stopping_.load()) return;
      conn = std::move(ready_.front());
      ready_.pop_front();
    }
    process_conn(conn);
  }
}

void StoreTcpServer::process_conn(const std::shared_ptr<Conn>& conn) {
  // Strand: this worker exclusively owns the connection's inbox until it
  // runs dry, so responses are produced — and wbuf-appended — in arrival
  // order, which the secure channel's sequence numbers require.
  for (;;) {
    Bytes frame;
    bool have_frame = false;
    bool do_oversize = false;
    {
      MutexLock lock(conn->mu);
      if (conn->abort) conn->inbox.clear();
      if (!conn->abort && !conn->inbox.empty()) {
        frame = std::move(conn->inbox.front());
        conn->inbox.pop_front();
        have_frame = true;
      } else if (!conn->abort && conn->oversized && !conn->oversized_handled) {
        conn->oversized_handled = true;
        do_oversize = true;
      } else {
        conn->processing = false;
        break;
      }
    }
    if (have_frame) {
      handle_frame_on_worker(conn, std::move(frame));
    } else if (do_oversize) {
      handle_oversize_on_worker(conn);
    }
    if (stopping_.load()) {
      MutexLock lock(conn->mu);
      conn->processing = false;
      break;
    }
  }
  notify_loop(conn);
}

void StoreTcpServer::handle_frame_on_worker(const std::shared_ptr<Conn>& conn,
                                            Bytes frame) {
  bool first;
  {
    MutexLock lock(conn->mu);
    first = !conn->handshaken;
  }
  if (first) {
    // Steps 1-2: attested handshake. `session` is strand-private, so the
    // emplace needs no lock; `handshaken` is shared and does.
    try {
      const net::HandshakeMessage client_hello = net::decode_handshake(frame);
      conn->session.emplace(store_, client_hello);  // throws on bad attestation
    } catch (const Error&) {
      ++rejected_;
      MutexLock lock(conn->mu);
      conn->abort = true;
      conn->close_after_flush = true;
      conn->error_counted = true;
      return;
    }
    conn->session->set_max_batch_entries(config_.max_batch_entries);
    const Bytes reply = net::encode_handshake(conn->session->server_hello());
    ++accepted_;
    MutexLock lock(conn->mu);
    conn->handshaken = true;
    append_frame(conn->wbuf, reply);
    return;
  }

  Bytes response;
  try {
    response = conn->session->handle_frame(frame);
  } catch (const Error&) {
    // Channel violation (tamper/replay) or a poisoned session: drop the
    // connection, costing only itself.
    MutexLock lock(conn->mu);
    if (!conn->error_counted) {
      ++session_errors_;
      conn->error_counted = true;
    }
    conn->abort = true;
    conn->close_after_flush = true;
    return;
  }
  MutexLock lock(conn->mu);
  append_frame(conn->wbuf, response);
}

void StoreTcpServer::handle_oversize_on_worker(
    const std::shared_ptr<Conn>& conn) {
  bool handshaken;
  {
    MutexLock lock(conn->mu);
    handshaken = conn->handshaken;
  }
  if (!handshaken) {
    // A giant pre-handshake frame is just a malformed hello.
    ++rejected_;
    MutexLock lock(conn->mu);
    conn->abort = true;
    conn->close_after_flush = true;
    conn->error_counted = true;
    return;
  }
  try {
    const Bytes err = conn->session->wrap_error(
        serialize::ErrorCode::kFrameTooLarge,
        "frame exceeds server max_frame_bytes");
    MutexLock lock(conn->mu);
    append_frame(conn->wbuf, err);
    conn->close_after_flush = true;
  } catch (const Error&) {
    MutexLock lock(conn->mu);
    if (!conn->error_counted) {
      ++session_errors_;
      conn->error_counted = true;
    }
    conn->abort = true;
    conn->close_after_flush = true;
  }
}

void StoreTcpServer::notify_loop(const std::shared_ptr<Conn>& conn) {
  {
    MutexLock lock(completed_mu_);
    completed_.push_back(conn);
  }
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t r = ::write(event_fd_, &one, sizeof(one));
}

// ---------------------------------------------------------------------------
// Client-side dialers.
// ---------------------------------------------------------------------------

TcpAppConnection connect_tcp_app(sgx::Enclave& app,
                                 const sgx::Measurement& store_measurement,
                                 const std::string& host, std::uint16_t port) {
  net::FramedSocket socket = net::tcp_connect(host, port);

  const net::ChannelKeyExchange kx(app);
  socket.send_frame(net::encode_handshake(kx.hello(store_measurement)));
  const net::HandshakeMessage server_hello =
      net::decode_handshake(socket.recv_frame());
  auto key = kx.derive(server_hello, store_measurement);
  if (!key.has_value()) {
    throw ProtocolError("connect_tcp_app: store failed attestation");
  }

  TcpAppConnection conn;
  conn.session_key = std::move(*key);
  conn.protocol_version = net::negotiate_version(
      net::kProtocolVersionCurrent, net::handshake_version(server_hello));
  conn.transport = std::make_unique<net::TcpTransport>(std::move(socket));
  return conn;
}

TcpAppConnection connect_tcp_app_resilient(
    sgx::Enclave& app, const sgx::Measurement& store_measurement,
    const std::string& host, std::uint16_t port,
    net::ResilienceConfig resilience, std::int64_t deadline_ms) {
  const auto dial = [&app, store_measurement, host, port, deadline_ms] {
    TcpAppConnection fresh = connect_tcp_app(app, store_measurement, host, port);
    if (deadline_ms >= 0) {
      static_cast<net::TcpTransport*>(fresh.transport.get())
          ->set_deadline_ms(deadline_ms);
    }
    return fresh;
  };

  TcpAppConnection initial = dial();
  TcpAppConnection conn;
  conn.session_key = std::move(initial.session_key);
  conn.protocol_version = initial.protocol_version;
  conn.transport = std::make_unique<net::ResilientTransport>(
      std::move(initial.transport),
      [dial]() -> net::ResilientTransport::Connection {
        TcpAppConnection fresh = dial();
        return {std::move(fresh.transport), std::move(fresh.session_key)};
      },
      resilience);
  return conn;
}

}  // namespace speed::store
