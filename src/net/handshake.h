// Attested channel establishment: local attestation + X25519.
//
// This is the full version of the "secure channel" setup the paper assumes
// between DedupRuntime and ResultStore. Each endpoint generates an
// ephemeral X25519 key pair and sends a HandshakeMessage: a local
// attestation report *addressed to the peer* whose user_data carries the
// ephemeral public key. Verifying the report proves (a) the sender runs on
// the same platform, (b) its enclave measurement, and (c) that the public
// key was produced inside that enclave — so the derived session key is
// bound to both code identities and immune to host-in-the-middle attacks.
// Every secure channel in the system — an application's link to a store,
// or to each node of a cluster — is keyed by this handshake.
#pragma once

#include <optional>

#include "crypto/x25519.h"
#include "net/secure_channel.h"
#include "serialize/codec.h"
#include "sgx/enclave.h"

namespace speed::net {

struct HandshakeMessage {
  sgx::Report report;             ///< addressed to the receiving enclave
  crypto::X25519Key public_key{}; ///< copy of report.user_data[0..32)
};

Bytes encode_handshake(const HandshakeMessage& msg);
HandshakeMessage decode_handshake(ByteView data);  ///< throws SerializationError

class ChannelKeyExchange {
 public:
  /// Generates an ephemeral key pair from the enclave's trusted randomness.
  explicit ChannelKeyExchange(sgx::Enclave& self);

  /// Hello addressed to an enclave with measurement `peer` on this
  /// platform; its report's user_data is the ephemeral public key.
  HandshakeMessage hello(const sgx::Measurement& peer) const;

  /// Verify the peer's hello (which must be addressed to *this* enclave) and
  /// derive the 16-byte session key (kept in the secret domain). Returns
  /// nullopt on report forgery, user-data/public-key mismatch, or a
  /// low-order peer point. When `expected_peer` is set, the peer's
  /// measurement is pinned too.
  std::optional<secret::Buffer> derive(
      const HandshakeMessage& peer_msg,
      const std::optional<sgx::Measurement>& expected_peer = std::nullopt) const;

  const crypto::X25519Key& public_key() const { return pair_.public_key; }

 private:
  sgx::Enclave& self_;
  crypto::X25519KeyPair pair_;
};

}  // namespace speed::net
