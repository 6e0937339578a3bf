#include "net/store_link.h"

namespace speed::net {

using serialize::Message;

StoreLink::StoreLink(sgx::Enclave& enclave, Connection initial, DialFn dial)
    : enclave_(enclave), dial_(std::move(dial)) {
  if (initial.transport == nullptr) {
    if (!dial_) throw ProtocolError("StoreLink: transport or dial is required");
    return;
  }
  MutexLock lock(mu_);
  install_locked(std::move(initial));
}

void StoreLink::install_locked(Connection conn) {
  transport_ = std::move(conn.transport);
  channel_.emplace(std::move(conn.session_key), /*is_initiator=*/true);
}

void StoreLink::dial_locked() {
  Connection conn = enclave_.ocall(dial_);
  if (conn.transport == nullptr) {
    throw StoreUnavailableError("StoreLink: dial failed");
  }
  install_locked(std::move(conn));
}

bool StoreLink::connect() {
  MutexLock lock(mu_);
  if (transport_ == nullptr && dial_) {
    try {
      dial_locked();
    } catch (const Error&) {
      return false;
    }
  }
  return transport_ != nullptr;
}

// mu_ is held across the dial and round-trip OCALLs: the secure channel is a
// strict single-connection strand (sequence numbers admit no interleaving),
// so dial -> wrap -> ship -> unwrap must be one critical section.
// lockdiscipline-allow: LD004 channel sequence numbers admit no interleaving
Message StoreLink::round_trip(const Message& request) {
  MutexLock lock(mu_);
  if (transport_ == nullptr) {
    if (!dial_) {
      throw StoreUnavailableError(
          "StoreLink: connection dropped and the link cannot dial");
    }
    try {
      dial_locked();
    } catch (...) {
      reconnect_failures_.inc();
      throw;
    }
    reconnects_.inc();
  }
  // Read under mu_ here: the analysis cannot see the lock inside the OCALL
  // lambda.
  Transport& transport = *transport_;
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
    transport_.reset();
    channel_.reset();
    throw;
  }
  const auto plain = channel_->open_frame(response_frame, plain_);
  if (!plain.has_value()) {
    // Tampered/garbled response (or a response under a stale server
    // session). Either way the channel state is no longer trustworthy.
    transport_.reset();
    channel_.reset();
    throw ProtocolError("StoreLink: store response failed channel check");
  }
  return serialize::decode_message(*plain);
}

}  // namespace speed::net
