#include "net/handshake.h"

#include <cstring>

#include "crypto/drbg.h"
#include "crypto/hmac.h"

namespace speed::net {

Bytes encode_handshake(const HandshakeMessage& msg) {
  serialize::Encoder enc;
  enc.raw(ByteView(msg.report.source_measurement.data(), 32));
  enc.raw(ByteView(msg.report.user_data.data(), 64));
  enc.raw(ByteView(msg.report.mac.data(), 32));
  enc.raw(ByteView(msg.public_key.data(), 32));
  return enc.take();
}

HandshakeMessage decode_handshake(ByteView data) {
  serialize::Decoder dec(data);
  HandshakeMessage msg;
  auto copy = [&dec](auto& field, std::size_t n) {
    const ByteView b = dec.raw(n);
    std::copy(b.begin(), b.end(), field.begin());
  };
  copy(msg.report.source_measurement, 32);
  copy(msg.report.user_data, 64);
  copy(msg.report.mac, 32);
  copy(msg.public_key, 32);
  dec.expect_done();
  return msg;
}

ChannelKeyExchange::ChannelKeyExchange(sgx::Enclave& self) : self_(self) {
  crypto::Drbg seeded(self.random_bytes(32));
  pair_ = crypto::x25519_generate(seeded);
}

HandshakeMessage ChannelKeyExchange::hello(
    const sgx::Measurement& peer) const {
  HandshakeMessage msg;
  msg.public_key = pair_.public_key;
  // The report's user_data carries the ephemeral public key, binding it to
  // this enclave's measurement for the addressee.
  const Bytes user_data(pair_.public_key.begin(), pair_.public_key.end());
  msg.report = self_.create_report(peer, user_data);
  return msg;
}

std::optional<secret::Buffer> ChannelKeyExchange::derive(
    const HandshakeMessage& peer_msg,
    const std::optional<sgx::Measurement>& expected_peer) const {
  if (!self_.verify_report(peer_msg.report)) return std::nullopt;
  if (expected_peer.has_value() &&
      peer_msg.report.source_measurement != *expected_peer) {
    return std::nullopt;
  }
  // The advertised public key must be the one the report attested.
  if (!ct_equal(ByteView(peer_msg.public_key.data(), 32),
                ByteView(peer_msg.report.user_data.data(), 32))) {
    return std::nullopt;
  }

  // The shared secret lives in the secret domain and wipes itself on every
  // exit path (including the low-order-point early return below).
  secret::Bytes<crypto::kX25519KeySize> shared;
  if (!crypto::x25519_shared(pair_.private_key, peer_msg.public_key, shared)) {
    return std::nullopt;  // low-order point
  }

  // Session key bound to the shared secret and the (order-independent)
  // public-key pair.
  ByteView first(pair_.public_key.data(), 32);
  ByteView second(peer_msg.public_key.data(), 32);
  if (std::lexicographical_compare(second.begin(), second.end(), first.begin(),
                                   first.end())) {
    std::swap(first, second);
  }
  return crypto::derive_key(
      shared.reveal_for(secret::Purpose::of("channel_kdf_input")),
      "speed-channel-v1", concat(first, second), 16);
}

}  // namespace speed::net
