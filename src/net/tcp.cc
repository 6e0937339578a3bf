#include "net/tcp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>

namespace speed::net {

namespace {

constexpr std::size_t kMaxFrame = 256u * 1024 * 1024;

/// Most a frame's buffer is given before any of its bytes arrive: the store
/// server's default max_frame_bytes. A longer announced frame grows its
/// buffer only as its bytes come in, so whoever writes the 4-byte length
/// cannot make the reader hold 256 MiB with it.
constexpr std::size_t kMaxUpFrontFrame = 4u * 1024 * 1024;

using OptDeadline = std::optional<FramedSocket::TimePoint>;

/// Poll `fd` for `events` until ready or `deadline` passes.
void wait_ready(int fd, short events, const OptDeadline& deadline,
                const char* op) {
  for (;;) {
    int timeout_ms = -1;
    if (deadline.has_value()) {
      const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
          *deadline - std::chrono::steady_clock::now());
      // An expired deadline still gets one zero-timeout poll: data that is
      // already buffered is delivered (this also makes a 0 ms timeout a
      // clean non-blocking check).
      timeout_ms = remaining.count() > 0 ? static_cast<int>(remaining.count()) : 0;
    }
    pollfd p{fd, events, 0};
    const int r = ::poll(&p, 1, timeout_ms);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw TcpError(std::string("poll: ") + std::strerror(errno));
    }
    if (r == 0) throw TcpTimeout(std::string(op) + ": deadline exceeded");
    return;  // readable/writable — or HUP/ERR, which the syscall will report
  }
}

/// Send `header` then `payload`, gathered into one sendmsg per wakeup, so a
/// frame's length prefix never leaves as a segment of its own and a small
/// frame reaches the peer in one read.
void write_all(int fd, ByteView header, ByteView payload,
               const OptDeadline& deadline) {
  std::size_t sent = 0;
  while (sent < header.size() + payload.size()) {
    if (deadline.has_value()) wait_ready(fd, POLLOUT, deadline, "send");
    // The unsent rest of header ‖ payload, in at most two pieces.
    iovec iov[2];
    msghdr msg{};
    msg.msg_iov = iov;
    if (sent < header.size()) {
      iov[msg.msg_iovlen++] = {const_cast<std::uint8_t*>(header.data()) + sent,
                               header.size() - sent};
    }
    const std::size_t done = sent > header.size() ? sent - header.size() : 0;
    if (done < payload.size()) {
      iov[msg.msg_iovlen++] = {const_cast<std::uint8_t*>(payload.data()) + done,
                               payload.size() - done};
    }
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw TcpError(std::string("send: ") + std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
}

/// Returns bytes read; 0 only on immediate EOF.
std::size_t read_all(int fd, std::uint8_t* data, std::size_t len,
                     const OptDeadline& deadline) {
  std::size_t got = 0;
  while (got < len) {
    if (deadline.has_value()) wait_ready(fd, POLLIN, deadline, "recv");
    const ssize_t n = ::recv(fd, data + got, len - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw TcpError(std::string("recv: ") + std::strerror(errno));
    }
    if (n == 0) {
      if (got == 0) return 0;
      throw TcpError("recv: connection closed mid-frame");
    }
    got += static_cast<std::size_t>(n);
  }
  return got;
}

OptDeadline deadline_from_ms(std::int64_t ms) {
  if (ms < 0) return std::nullopt;
  return std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
}

}  // namespace

FramedSocket::~FramedSocket() { close(); }

void FramedSocket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void FramedSocket::shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void FramedSocket::send_frame(ByteView payload) {
  send_frame_impl(payload, deadline_from_ms(send_timeout_ms_));
}

void FramedSocket::send_frame(ByteView payload, TimePoint deadline) {
  send_frame_impl(payload, deadline);
}

void FramedSocket::send_frame_impl(ByteView payload,
                                   const std::optional<TimePoint>& deadline) {
  if (fd_ < 0) throw TcpError("send_frame: socket closed");
  std::uint8_t header[4];
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) header[i] = static_cast<std::uint8_t>(len >> (8 * i));
  write_all(fd_, ByteView(header, 4), payload, deadline);
}

std::optional<Bytes> FramedSocket::try_recv_frame() {
  return try_recv_frame_impl(deadline_from_ms(recv_timeout_ms_));
}

std::optional<Bytes> FramedSocket::try_recv_frame(TimePoint deadline) {
  return try_recv_frame_impl(deadline);
}

std::optional<Bytes> FramedSocket::try_recv_frame_impl(
    const std::optional<TimePoint>& deadline) {
  if (fd_ < 0) throw TcpError("recv_frame: socket closed");
  std::uint8_t header[4];
  if (read_all(fd_, header, 4, deadline) == 0) return std::nullopt;  // orderly EOF
  std::uint32_t len = 0;
  for (int i = 3; i >= 0; --i) len = (len << 8) | header[i];
  if (len > kMaxFrame) throw TcpError("recv_frame: oversized frame");
  // Frames up to kMaxUpFrontFrame keep their single allocation; a longer
  // one doubles its buffer each time the bytes so far fill it.
  Bytes payload(std::min<std::size_t>(len, kMaxUpFrontFrame));
  std::size_t got = 0;
  while (got < len) {
    if (got == payload.size()) {
      payload.resize(std::min<std::size_t>(len, 2 * got));
    }
    if (read_all(fd_, payload.data() + got, payload.size() - got, deadline) ==
        0) {
      throw TcpError("recv_frame: connection closed mid-frame");
    }
    got = payload.size();
  }
  return payload;
}

Bytes FramedSocket::recv_frame() {
  auto frame = try_recv_frame();
  if (!frame.has_value()) throw TcpError("recv_frame: connection closed");
  return std::move(*frame);
}

Bytes FramedSocket::recv_frame(TimePoint deadline) {
  auto frame = try_recv_frame(deadline);
  if (!frame.has_value()) throw TcpError("recv_frame: connection closed");
  return std::move(*frame);
}

FramedSocket tcp_connect(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw TcpError(std::string("socket: ") + std::strerror(errno));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string resolved = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, resolved.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw TcpError("tcp_connect: bad IPv4 address " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    throw TcpError(std::string("connect: ") + std::strerror(err));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return FramedSocket(fd);
}

TcpListener::TcpListener(std::uint16_t port) : fd_(-1), port_(0) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw TcpError(std::string("socket: ") + std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd_, 16) != 0) {
    const int err = errno;
    ::close(fd_);
    throw TcpError(std::string("bind/listen: ") + std::strerror(err));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
}

TcpListener::~TcpListener() { close(); }

void TcpListener::close() {
  // close() races with a blocked accept() by design: claim the fd exactly
  // once, then shutdown() to kick the accepting thread out of the syscall.
  const int fd = fd_.exchange(-1);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

FramedSocket TcpListener::accept() {
  for (;;) {
    const int listen_fd = fd_.load();
    if (listen_fd < 0) throw TcpError("accept: listener closed");
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      // EINTR (a signal) and ECONNABORTED (the dialer hung up while queued)
      // are per-attempt accidents, not listener failures: retry instead of
      // surfacing a spurious error to the accept loop.
      if (errno == EINTR || errno == ECONNABORTED) continue;
      throw TcpError(std::string("accept: ") + std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return FramedSocket(fd);
  }
}

std::optional<FramedSocket> TcpListener::try_accept() {
  const int listen_fd = fd_.load();
  if (listen_fd < 0) throw TcpError("accept: listener closed");
  const int fd = ::accept(listen_fd, nullptr, nullptr);
  if (fd < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR ||
        errno == ECONNABORTED) {
      return std::nullopt;  // retriable: nothing pending right now
    }
    if (fd_.load() < 0) throw TcpError("accept: listener closed");
    throw TcpError(std::string("accept: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return FramedSocket(fd);
}

void TcpListener::set_nonblocking() {
  const int listen_fd = fd_.load();
  if (listen_fd < 0) return;
  const int flags = ::fcntl(listen_fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(listen_fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace speed::net
