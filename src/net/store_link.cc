#include "net/store_link.h"

namespace speed::net {

using serialize::Message;

StoreLink::StoreLink(sgx::Enclave& enclave,
                     ResilientTransport::Connection initial,
                     ResilientTransport::ReconnectFn dial)
    : enclave_(enclave), dial_(std::move(dial)) {
  if (initial.transport == nullptr) {
    if (!dial_) throw ProtocolError("StoreLink: transport or dial is required");
    return;
  }
  MutexLock lock(mu_);
  install_locked(std::move(initial));
}

void StoreLink::install_locked(ResilientTransport::Connection conn) {
  transport_ = std::move(conn.transport);
  // A recovering transport (net/resilient.h) re-runs the attested handshake
  // after a reconnect; stage the fresh key for the next round trip.
  transport_->set_rekey_callback([this](secret::Buffer key) {
    MutexLock lock(rekey_mu_);
    pending_rekey_ = std::move(key);
  });
  channel_.emplace(std::move(conn.session_key), /*is_initiator=*/true);
  poisoned_ = false;
}

void StoreLink::install_rekey_locked() {
  MutexLock lock(rekey_mu_);
  if (!pending_rekey_.has_value()) return;
  channel_.emplace(std::move(*pending_rekey_), /*is_initiator=*/true);
  pending_rekey_.reset();
  poisoned_ = false;
}

// mu_ is held across the dial, recover and round-trip OCALLs: the secure
// channel is a strict single-connection strand (sequence numbers admit no
// interleaving), so wrap -> ship -> unwrap must be one critical section.
// lockdiscipline-allow: LD004 channel sequence numbers admit no interleaving
Message StoreLink::round_trip(const Message& request) {
  MutexLock lock(mu_);
  if (transport_ == nullptr) {
    ResilientTransport::Connection conn = enclave_.ocall(dial_);
    if (conn.transport == nullptr) {
      throw StoreUnavailableError("StoreLink: dial failed");
    }
    install_locked(std::move(conn));
  }
  // Read under mu_ here: the analysis cannot see the lock inside the OCALL
  // lambdas, and only a dial ever replaces the transport.
  Transport& transport = *transport_;
  install_rekey_locked();
  if (poisoned_) {
    // The old key must never wrap another frame. Ask the transport for a
    // fresh connection + key; plain transports cannot provide one.
    enclave_.ocall([&] { return transport.recover(); });
    install_rekey_locked();
    if (poisoned_) {
      throw StoreUnavailableError(
          "StoreLink: secure channel poisoned and transport cannot rekey");
    }
  }
  // Encode straight after the frame header and seal in place inside the
  // enclave, cross to the host to hit the transport (the prototype's
  // customized OCALL carrying the request), open the reply back inside.
  frame_.resize(SecureChannel::kFrameHeaderSize);
  serialize::Encoder enc(std::move(frame_));
  serialize::encode_message_into(enc, request);
  frame_ = enc.take();
  channel_->seal_frame(frame_);
  const ByteView frame = frame_;
  Bytes response_frame;
  try {
    response_frame =
        enclave_.ocall([&] { return transport.round_trip(frame); });
  } catch (...) {
    // Request possibly consumed, response never seen: sequence numbers are
    // out of sync with the store's session for good.
    poisoned_ = true;
    throw;
  }
  const auto plain = channel_->open_frame(response_frame, plain_);
  if (!plain.has_value()) {
    // Tampered/garbled response (or a response under a stale server
    // session). Either way the channel state is no longer trustworthy.
    poisoned_ = true;
    throw ProtocolError("StoreLink: store response failed channel check");
  }
  return serialize::decode_message(*plain);
}

}  // namespace speed::net
