// Server-side secure-channel endpoint of the ResultStore.
//
// Each connected application gets one session: the store's end of the
// attested secure channel. A frame arrives from the host, one ECALL enters
// the store enclave, the frame is unwrapped, dispatched against the trusted
// dictionary, and the response is wrapped — mirroring the paper's "the duty
// of the ECALL is to marshal data at the enclave boundary and access the
// dictionary inside the trusted enclave".
//
// The session is established by the attested handshake: it is constructed
// from the client's HandshakeMessage, verifies the report, derives the
// X25519 session key, and exposes server_hello() for the client.
//
// Buffers. The session keeps one plaintext buffer under its strand, inside
// the store enclave. A request is opened into it and decoded; the reply is
// encoded into it too and sealed from there straight into the output buffer
// the caller passes (for StoreTcpServer, the connection's write buffer).
// Plaintext never reaches a host-side buffer, and a frame allocates only
// what the decoded request and the store's reply own.
#pragma once

#include <memory>

#include "common/annotated_lock.h"
#include "net/channel.h"
#include "net/handshake.h"
#include "net/secure_channel.h"
#include "store/result_store.h"

namespace speed::store {

class StoreSession {
 public:
  /// Verifies `client_hello` inside the store enclave and derives the
  /// session key. Throws ProtocolError if the hello does not authenticate.
  StoreSession(ResultStore& store, const net::HandshakeMessage& client_hello)
      : store_(store),
        key_exchange_(store.enclave()),
        channel_(store.enclave().ecall([&] {
          auto key = key_exchange_.derive(client_hello);
          if (!key.has_value()) {
            throw ProtocolError("StoreSession: client hello failed attestation");
          }
          return net::SecureChannel(std::move(*key), /*is_initiator=*/false);
        })) {
    client_hello_ = client_hello;
  }

  /// The store's half of the handshake.
  net::HandshakeMessage server_hello() const {
    return key_exchange_.hello(client_hello_.report.source_measurement);
  }

  /// Cap on ops per batch frame; an oversized batch gets a clean wire
  /// ErrorResponse instead of service. 0 = unlimited.
  void set_max_batch_entries(std::size_t n) { max_batch_entries_ = n; }

  /// The host's cap on one frame. The plaintext buffer keeps at most twice
  /// this between frames: a reply that grew it further (a batch of large
  /// GETs can outgrow any frame the host admits) is released once sealed.
  /// 0 = keep whatever the buffer grew to.
  void set_max_frame_bytes(std::size_t n) { max_frame_bytes_ = n; }

  /// Bytes the session keeps between frames: its plaintext buffer.
  std::size_t kept_bytes() const {
    MutexLock lock(mu_);
    return plain_.capacity();
  }

  /// Seal a top-level error produced outside normal dispatch — e.g. the
  /// host refused a frame by its length prefix (over max_frame_bytes)
  /// without ever buffering it — as one frame appended to `out`. Advances
  /// the send sequence like any response; the caller is expected to close
  /// the connection once it is flushed.
  // lockdiscipline-allow: LD004 send sequence must advance atomically
  void wrap_error(serialize::ErrorCode code, const std::string& detail,
                  Bytes& out) {
    MutexLock lock(mu_);
    store_.enclave().ecall([&] {
      mu_.assert_held();
      seal_reply_locked(serialize::ErrorResponse{code, detail}, out);
    });
  }

  /// Handle one secure frame and append the sealed reply frame to `out`.
  /// Throws ProtocolError on channel violations (tampering/replay), which a
  /// real server would treat as a dead peer; `out` is then untouched.
  // mu_ is held across the ECALL: the session is a strand — channel
  // sequence numbers require frames to be served in order.
  // lockdiscipline-allow: LD004 session strand orders channel sequence numbers
  void handle_frame_into(ByteView frame, Bytes& out) {
    MutexLock lock(mu_);
    store_.enclave().ecall([&] { handle_frame_trusted(frame, out); });
  }

  /// handle_frame_into() a fresh buffer: the reply frame alone, for the
  /// in-process transports (LoopbackTransport, InprocCluster).
  Bytes handle_frame(ByteView frame) {
    Bytes out;
    handle_frame_into(frame, out);
    return out;
  }

  /// Transport a client can hand to its DedupRuntime; optional one-way
  /// latency models a socket hop.
  std::unique_ptr<net::Transport> transport(std::uint64_t one_way_ns = 0) {
    return std::make_unique<net::LoopbackTransport>(
        [this](ByteView frame) { return handle_frame(frame); }, one_way_ns);
  }

 private:
  /// Body of one frame; runs under handle_frame_into's ECALL with mu_ held
  /// — asserted (not REQUIRES) because the analysis cannot see through the
  /// ECALL lambda.
  void handle_frame_trusted(ByteView frame, Bytes& out) {
    mu_.assert_held();
    const auto request_plain = channel_.open_frame(frame, plain_);
    if (!request_plain.has_value()) {
      throw ProtocolError("StoreSession: bad frame (tamper/replay)");
    }
    const auto request = serialize::decode_message(*request_plain);
    // An oversized batch is a protocol-clean refusal, not a dead session:
    // the client gets a typed error it can split the batch on.
    if (const auto* batch = std::get_if<serialize::BatchRequest>(&request);
        batch != nullptr && max_batch_entries_ > 0 &&
        batch->ops.size() > max_batch_entries_) {
      seal_reply_locked(
          serialize::ErrorResponse{serialize::ErrorCode::kBatchTooLarge,
                                   "batch exceeds server max_batch_entries"},
          out);
      return;
    }
    // Application role: GET/PUT/heartbeat/batch only. Infra-plane messages
    // (sync, push/pull, membership) are rejected inside dispatch.
    seal_reply_locked(store_.dispatch_trusted(request, Peer::kApp), out);
  }

  /// Encode `reply` into plain_, after whatever the last open left there,
  /// and seal it from there as one frame appended to `out`. Cutting plain_
  /// back afterwards keeps its size at the largest request it has opened,
  /// so opening the next one writes into it without zero-filling it first.
  void seal_reply_locked(const serialize::Message& reply, Bytes& out)
      REQUIRES(mu_) {
    const std::size_t kept = plain_.size();
    serialize::Encoder enc(std::move(plain_));
    serialize::encode_message_into(enc, reply);
    plain_ = enc.take();
    channel_.seal_frame_to(ByteView(plain_).subspan(kept), out);
    plain_.resize(kept);
    if (max_frame_bytes_ > 0 && plain_.capacity() > 2 * max_frame_bytes_) {
      plain_ = Bytes();
    }
  }

  ResultStore& store_;
  net::ChannelKeyExchange key_exchange_;
  net::HandshakeMessage client_hello_;
  net::SecureChannel channel_ GUARDED_BY(mu_);
  Bytes plain_ GUARDED_BY(mu_);  ///< the current request, then its reply
  std::size_t max_batch_entries_ = 0;
  std::size_t max_frame_bytes_ = 0;
  // 560: held across the dispatch into the store (shard 600+), which nests
  // above it.
  mutable Mutex mu_{LockRank::kSession};
};

/// In-process connection bundle: performs the attested handshake between an
/// application enclave and a store, yielding the client's session key and a
/// transport bound to the server session.
struct AppConnection {
  std::unique_ptr<StoreSession> session;
  secret::Buffer session_key;
  std::unique_ptr<net::Transport> transport;
};

inline AppConnection connect_app(ResultStore& store, sgx::Enclave& app,
                                 std::uint64_t one_way_ns = 0) {
  AppConnection conn;
  const net::ChannelKeyExchange kx(app);
  const auto client_hello = kx.hello(store.enclave().measurement());
  conn.session = std::make_unique<StoreSession>(store, client_hello);
  const auto server_hello = conn.session->server_hello();
  // The client pins the store's measurement: it will not talk to an
  // impostor store enclave.
  auto key = kx.derive(server_hello, store.enclave().measurement());
  if (!key.has_value()) {
    throw ProtocolError("connect_app: server hello failed attestation");
  }
  conn.session_key = std::move(*key);
  conn.transport = conn.session->transport(one_way_ns);
  return conn;
}

}  // namespace speed::store
