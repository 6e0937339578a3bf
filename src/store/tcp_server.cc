#include "store/tcp_server.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <unordered_map>
#include <utility>

namespace speed::store {

namespace {

/// Transport-level frame cap (matches FramedSocket); config.max_frame_bytes
/// only tightens it.
constexpr std::size_t kTransportMaxFrame = 256u * 1024 * 1024;

/// Bytes one readiness event reads when no larger frame is in progress.
constexpr std::size_t kReadChunk = 64u * 1024;

/// Compact the sent prefix of a reply buffer once it passes this and
/// outweighs the unsent rest, so a connection that reads slowly but never
/// quite catches up does not hold on to dead bytes.
constexpr std::size_t kCompactThreshold = 256u * 1024;

/// Wake-pipe message that tells a loop to exit (fd numbers are >= 0).
constexpr int kStopMessage = -1;

std::size_t max_frame(const StoreServerConfig& config) {
  const std::size_t limit = config.max_frame_bytes;
  return limit > 0 && limit < kTransportMaxFrame ? limit : kTransportMaxFrame;
}

std::uint32_t le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// Request bytes read from one socket; [head, tail) are not yet served.
struct InputBuffer {
  Bytes data;  ///< kept at its full size; recv writes into [tail, size())
  std::size_t head = 0;
  std::size_t tail = 0;

  std::size_t size() const { return tail - head; }
  const std::uint8_t* front() const { return data.data() + head; }

  /// Make room for `n` more bytes at the tail: slide the unserved bytes to
  /// the front, and grow only if that is not enough.
  void reserve_tail(std::size_t n) {
    if (data.size() - tail >= n) return;
    if (head > 0) std::memmove(data.data(), front(), size());
    tail -= head;
    head = 0;
    if (data.size() - tail < n) {
      data.resize(std::max(data.size() * 2, tail + n));
    }
  }
};

/// One client connection, owned by exactly one loop thread.
struct Conn {
  explicit Conn(int fd) : fd(fd) {}
  const int fd;
  InputBuffer in;
  Bytes out;                ///< sealed replies awaiting the socket
  std::size_t out_off = 0;  ///< send cursor into out
  std::optional<StoreSession> session;  ///< set by the handshake
  std::uint32_t interest = 0;  ///< epoll mask currently registered
  bool read_closed = false;  ///< EOF, read or send failure, refusal
  bool done = false;         ///< refused or violated: serve no more frames
  bool peer_gone = false;    ///< a send failed: replies are dropped
  bool torn = false;         ///< a read failed
  bool counted = false;      ///< how it ended is already counted

  std::size_t unsent() const { return out.size() - out_off; }
};

}  // namespace

/// One event loop: an epoll set, the wake pipe the acceptor and stop() write
/// to, and the connections it owns. Only `live` is shared with other threads.
class StoreTcpServer::Loop {
 public:
  explicit Loop(StoreTcpServer& server);
  ~Loop();

  Loop(const Loop&) = delete;
  Loop& operator=(const Loop&) = delete;

  void start() { thread_ = std::thread([this] { run(); }); }
  /// Hand this loop an accepted socket, or kStopMessage.
  void post(int message);
  /// Join the thread, then close every socket the loop still owns.
  void join();

  /// Live connections: counted by the acceptor at hand-off and uncounted by
  /// the loop at close, so placement never lags the pipe.
  std::atomic<std::size_t> live{0};

 private:
  void run();
  /// Adopt every socket posted so far; false once kStopMessage arrives.
  bool drain_wake_pipe();
  void adopt(int fd);
  void on_event(Conn& c, std::uint32_t events);
  void read_once(Conn& c);
  void serve(Conn& c);
  void serve_frame(Conn& c, ByteView frame);
  void refuse_oversized(Conn& c);
  /// Append one reply to c.out as a u32-length-prefixed frame (the framing
  /// FramedSocket speaks on the client side) whose payload is whatever
  /// `write` appends, then flush. If `write` throws, c.out is left as it
  /// was. After a send failure `write` still runs, so the frame is served
  /// and its effects land, but its reply is dropped.
  template <typename Write>
  void reply(Conn& c, Write&& write);
  void flush(Conn& c);
  void update_interest(Conn& c);
  /// Count how a connection died, once: a rejection before the handshake,
  /// a session error after it.
  void count_death(Conn& c);
  void close(Conn& c);

  bool over_mark(const Conn& c) const { return c.unsent() > max_frame_; }

  StoreTcpServer& server_;
  const std::size_t max_frame_;
  int epoll_fd_ = -1;
  int wake_rd_ = -1;
  int wake_wr_ = -1;
  std::unordered_map<int, std::unique_ptr<Conn>> conns_;
  std::thread thread_;
};

StoreTcpServer::StoreTcpServer(ResultStore& store, std::uint16_t port,
                               std::optional<std::uint16_t> admin_port,
                               StoreServerConfig config)
    : store_(store), config_(config), listener_(port) {
  const std::size_t loops = std::max(1u, std::thread::hardware_concurrency());
  for (std::size_t i = 0; i < loops; ++i) {
    loops_.push_back(std::make_unique<Loop>(*this));
  }

  if (admin_port.has_value()) {
    admin_ = std::make_unique<telemetry::AdminServer>(*admin_port);
  }
  telemetry_handle_ = telemetry::Registry::global().add_collector(
      [this](telemetry::SampleSink& sink) {
        constexpr auto kResult = telemetry::LabelKey::of("result");
        constexpr auto kLoop = telemetry::LabelKey::of("loop");
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
        for (std::size_t i = 0; i < loops_.size(); ++i) {
          sink.gauge("speed_server_loop_connections",
                     "Live store TCP connections owned by each event loop",
                     {{kLoop, telemetry::LabelValue::index(i)}},
                     static_cast<std::int64_t>(
                         loops_[i]->live.load(std::memory_order_relaxed)));
        }
      });

  for (const auto& loop : loops_) loop->start();
  acceptor_ = std::thread([this] { accept_loop(); });
}

StoreTcpServer::~StoreTcpServer() { stop(); }

void StoreTcpServer::stop() {
  if (stopping_.exchange(true)) return;
  listener_.close();  // wakes the acceptor out of accept()
  if (acceptor_.joinable()) acceptor_.join();
  // Every socket handed off is now in its loop's pipe, ahead of this message.
  for (const auto& loop : loops_) loop->post(kStopMessage);
  for (const auto& loop : loops_) loop->join();
}

void StoreTcpServer::accept_loop() {
  while (!stopping_.load()) {
    int fd = -1;
    try {
      fd = listener_.accept().release();
    } catch (const net::TcpError&) {
      if (stopping_.load()) return;  // stop() closed the listener
      // Out of descriptors or similar: back off instead of spinning.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    // Fewest live connections wins; ties go to the lowest index.
    Loop* target = loops_.front().get();
    for (const auto& loop : loops_) {
      if (loop->live.load() < target->live.load()) target = loop.get();
    }
    target->live.fetch_add(1);
    target->post(fd);
  }
}

// ---------------------------------------------------------------------------
// Event loops (each owns its sockets; every frame runs to completion inline).
// ---------------------------------------------------------------------------

StoreTcpServer::Loop::Loop(StoreTcpServer& server)
    : server_(server), max_frame_(max_frame(server.config_)) {
  int pipe_fds[2] = {-1, -1};
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0 || ::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    const int err = errno;
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    throw net::TcpError(std::string("event loop: ") + std::strerror(err));
  }
  wake_rd_ = pipe_fds[0];
  wake_wr_ = pipe_fds[1];
  // Only the read end is nonblocking: the loop drains it to EAGAIN, while a
  // writer may block briefly on a full pipe that the loop is draining.
  ::fcntl(wake_rd_, F_SETFL, O_NONBLOCK);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_rd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_rd_, &ev);
}

StoreTcpServer::Loop::~Loop() {
  ::close(wake_rd_);
  ::close(wake_wr_);
  ::close(epoll_fd_);
}

void StoreTcpServer::Loop::post(int message) {
  // A write of 4 bytes to a pipe is atomic, and this one blocks rather than
  // fail: its read end stays open until the loop is destroyed.
  while (::write(wake_wr_, &message, sizeof(message)) < 0 && errno == EINTR) {
  }
}

void StoreTcpServer::Loop::join() {
  if (thread_.joinable()) thread_.join();
  // Abrupt teardown of live connections: clients see EOF/RST and surface it
  // as TcpError.
  for (const auto& [fd, conn] : conns_) ::close(fd);
  conns_.clear();
}

void StoreTcpServer::Loop::run() {
  epoll_event events[64] = {};
  for (;;) {
    const int n = ::epoll_wait(epoll_fd_, events, 64, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_rd_) {
        if (!drain_wake_pipe()) return;
        continue;
      }
      const auto it = conns_.find(fd);
      if (it != conns_.end()) on_event(*it->second, events[i].events);
    }
  }
}

bool StoreTcpServer::Loop::drain_wake_pipe() {
  // Each message is one atomic 4-byte write, so reads return whole messages.
  int messages[64] = {};
  for (;;) {
    const ssize_t n = ::read(wake_rd_, messages, sizeof(messages));
    if (n <= 0) return true;
    const std::size_t count = static_cast<std::size_t>(n) / sizeof(int);
    for (std::size_t k = 0; k < count; ++k) {
      if (messages[k] == kStopMessage) return false;
      adopt(messages[k]);
    }
  }
}

void StoreTcpServer::Loop::adopt(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0 ||
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    ::close(fd);
    live.fetch_sub(1);
    return;
  }
  auto conn = std::make_unique<Conn>(fd);
  conn->interest = EPOLLIN;
  conns_.emplace(fd, std::move(conn));
}

void StoreTcpServer::Loop::on_event(Conn& c, std::uint32_t events) {
  if ((events & (EPOLLOUT | EPOLLHUP | EPOLLERR)) != 0) flush(c);
  // Frames held back by the mark first; then read only with no complete
  // frame buffered, so one event serves at most one read's worth.
  serve(c);
  if ((events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0 && !c.read_closed &&
      !over_mark(c)) {
    read_once(c);
    serve(c);
  }
  if ((c.done || c.read_closed) && c.unsent() == 0) {
    close(c);
  } else {
    update_interest(c);
  }
}

void StoreTcpServer::Loop::read_once(Conn& c) {
  std::size_t want = kReadChunk;
  const std::size_t avail = c.in.size();
  if (avail >= 4) {
    // The rest of the frame in progress (serve() has checked its length), in
    // one call when the buffer has room; growth stays within twice the bytes
    // already here, so an announced length costs memory only as it arrives.
    const std::size_t rest = std::size_t{4} + le32(c.in.front()) - avail;
    const std::size_t room = std::max(avail, c.in.data.size() - avail);
    want = std::max(want, std::min(rest, room));
  }
  c.in.reserve_tail(want);
  for (;;) {
    const ssize_t n = ::recv(c.fd, c.in.data.data() + c.in.tail, want, 0);
    if (n > 0) {
      c.in.tail += static_cast<std::size_t>(n);
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    c.read_closed = true;
    c.torn = n < 0;
    return;
  }
}

void StoreTcpServer::Loop::serve(Conn& c) {
  while (!c.done && !over_mark(c) && c.in.size() >= 4) {
    const std::uint8_t* p = c.in.front();
    const std::size_t len = le32(p);
    if (len > max_frame_) {
      refuse_oversized(c);
      break;
    }
    if (c.in.size() < 4 + len) break;
    c.in.head += 4 + len;  // `p` stays valid: only read_once moves bytes
    serve_frame(c, ByteView(p + 4, len));
  }
  if (c.in.size() == 0) c.in.head = c.in.tail = 0;
}

template <typename Write>
void StoreTcpServer::Loop::reply(Conn& c, Write&& write) {
  const std::size_t at = c.out.size();
  c.out.resize(at + 4);  // the length prefix, filled in below
  try {
    write(c.out);
  } catch (...) {
    c.out.resize(at);
    throw;
  }
  if (c.peer_gone) {
    c.out.resize(at);
    return;
  }
  const std::size_t len = c.out.size() - at - 4;
  for (int i = 0; i < 4; ++i) {
    c.out[at + i] = static_cast<std::uint8_t>(len >> (8 * i));
  }
  flush(c);
}

void StoreTcpServer::Loop::serve_frame(Conn& c, ByteView frame) {
  if (!c.session.has_value()) {
    // Steps 1-2: the attested handshake.
    try {
      c.session.emplace(server_.store_, net::decode_handshake(frame));
    } catch (const Error&) {
      count_death(c);
      c.done = c.read_closed = true;
      return;
    }
    c.session->set_max_batch_entries(server_.config_.max_batch_entries);
    c.session->set_max_frame_bytes(max_frame_);
    ++server_.accepted_;
    const Bytes hello = net::encode_handshake(c.session->server_hello());
    reply(c, [&](Bytes& out) { append(out, hello); });
    return;
  }
  try {
    // The session seals the reply straight into the write buffer.
    reply(c, [&](Bytes& out) { c.session->handle_frame_into(frame, out); });
  } catch (const Error&) {
    // Channel violation (tamper/replay) or a poisoned session: drop the
    // connection, costing only itself.
    count_death(c);
    c.done = c.read_closed = true;
  }
}

void StoreTcpServer::Loop::refuse_oversized(Conn& c) {
  ++server_.oversized_frames_;
  c.done = c.read_closed = true;  // refuse the rest of the stream
  if (!c.session.has_value()) {
    count_death(c);  // a giant hello is just a malformed hello
    return;
  }
  try {
    reply(c, [&](Bytes& out) {
      c.session->wrap_error(serialize::ErrorCode::kFrameTooLarge,
                            "frame exceeds server max_frame_bytes", out);
    });
  } catch (const Error&) {
    count_death(c);
  }
  c.counted = true;  // refused, not torn: the header stays unserved
}

void StoreTcpServer::Loop::flush(Conn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off, c.unsent(),
                             MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // Peer is gone and replies are undeliverable; frames already buffered
    // are still served, so their effects land.
    count_death(c);
    c.peer_gone = c.read_closed = true;
    c.out.clear();
    c.out_off = 0;
    return;
  }
  if (c.out_off == c.out.size()) {
    c.out.clear();
    c.out_off = 0;
  } else if (c.out_off > kCompactThreshold && c.out_off >= c.unsent()) {
    c.out.erase(c.out.begin(),
                c.out.begin() + static_cast<std::ptrdiff_t>(c.out_off));
    c.out_off = 0;
  }
}

void StoreTcpServer::Loop::update_interest(Conn& c) {
  std::uint32_t mask = 0;
  if (!c.read_closed && !over_mark(c)) mask |= EPOLLIN;
  if (c.unsent() > 0) mask |= EPOLLOUT;
  if (mask == c.interest) return;
  c.interest = mask;
  epoll_event ev{};
  ev.events = mask;
  ev.data.fd = c.fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
}

void StoreTcpServer::Loop::count_death(Conn& c) {
  if (c.counted) return;
  c.counted = true;
  if (c.session.has_value()) {
    ++server_.session_errors_;
  } else {
    ++server_.rejected_;
  }
}

void StoreTcpServer::Loop::close(Conn& c) {
  // A hang-up before the handshake is a rejection; one after it that leaves
  // part of a frame behind is a session error.
  if (!c.session.has_value() || c.torn || c.in.size() > 0) count_death(c);
  const int fd = c.fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  live.fetch_sub(1);
  conns_.erase(fd);  // destroys `c`
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
  conn.transport = std::make_unique<net::TcpTransport>(std::move(socket));
  return conn;
}

net::ClusterNode tcp_node(sgx::Enclave& app,
                          const sgx::Measurement& store_measurement,
                          const std::string& host, std::uint16_t port,
                          std::int64_t deadline_ms) {
  return {host + ":" + std::to_string(port),
          [&app, store_measurement, host, port, deadline_ms] {
            TcpAppConnection fresh =
                connect_tcp_app(app, store_measurement, host, port);
            if (deadline_ms >= 0) {
              static_cast<net::TcpTransport*>(fresh.transport.get())
                  ->set_deadline_ms(deadline_ms);
            }
            return net::Connection{std::move(fresh.transport),
                                   std::move(fresh.session_key)};
          }};
}

}  // namespace speed::store
