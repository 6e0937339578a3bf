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

/// Wire-protocol versions advertised inside the handshake. The version byte
/// rides in report.user_data[32] — inside the attested report, so its MAC
/// covers it and the untrusted host cannot strip it to force a downgrade.
/// Legacy endpoints zero-pad user_data past the public key, which decodes as
/// "no version byte" = v1; the negotiated version is the minimum of both
/// advertisements, so a v1 peer always gets the v1 single-frame protocol.
inline constexpr std::uint8_t kProtocolVersionLegacy = 1;
/// v2: batch framing (kBatchRequest/kBatchResponse, docs/PROTOCOL.md §9).
inline constexpr std::uint8_t kProtocolVersionBatch = 2;
inline constexpr std::uint8_t kProtocolVersionCurrent = kProtocolVersionBatch;

struct HandshakeMessage {
  sgx::Report report;             ///< addressed to the receiving enclave
  crypto::X25519Key public_key{}; ///< copy of report.user_data[0..32)
};

Bytes encode_handshake(const HandshakeMessage& msg);
HandshakeMessage decode_handshake(ByteView data);  ///< throws SerializationError

/// Protocol version a peer advertised in its hello. 0 in the version slot
/// (every pre-versioning endpoint) reads as kProtocolVersionLegacy.
inline std::uint8_t handshake_version(const HandshakeMessage& msg) {
  const std::uint8_t v = msg.report.user_data[32];
  return v == 0 ? kProtocolVersionLegacy : v;
}

/// Both sides run min(mine, theirs) over the authenticated advertisements
/// and land on the same answer without an extra round trip.
inline std::uint8_t negotiate_version(std::uint8_t mine, std::uint8_t theirs) {
  return mine < theirs ? mine : theirs;
}

class ChannelKeyExchange {
 public:
  /// Generates an ephemeral key pair from the enclave's trusted randomness.
  explicit ChannelKeyExchange(sgx::Enclave& self);

  /// Hello addressed to an enclave with measurement `peer` on this platform,
  /// advertising `version`. kProtocolVersionLegacy produces a hello
  /// bit-identical to pre-versioning builds (32-byte user_data); later
  /// versions append the version byte at user_data[32].
  HandshakeMessage hello(
      const sgx::Measurement& peer,
      std::uint8_t version = kProtocolVersionCurrent) const;

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
