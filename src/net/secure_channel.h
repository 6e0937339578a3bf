// Authenticated, replay-protected channel between two enclaves.
//
// The paper sends tags and entries "via a secure channel" between the
// application's DedupRuntime and the ResultStore enclave. The session key
// comes from the attested X25519 handshake (net/handshake.h), so it is
// bound to both enclaves' measurements and rooted in the platform.
//
// Frames are AES-GCM-128 with deterministic per-direction nonces and strictly
// increasing sequence numbers, so tampering, reordering, and replay are all
// rejected. Each endpoint owns one SecureChannel per peer and direction pair.
#pragma once

#include <cstdint>
#include <optional>

#include "common/bytes.h"
#include "common/secret.h"

namespace speed::net {

class SecureChannel {
 public:
  /// `is_initiator` picks which of the two directional nonce spaces this
  /// endpoint sends on; the two endpoints must disagree on it.
  SecureChannel(secret::Buffer session_key, bool is_initiator);
  /// Convenience for callers holding a plain key (tests, fixed vectors):
  /// absorbs it into the secret domain, emptying the source.
  SecureChannel(Bytes session_key, bool is_initiator);

  /// Seal a message for the peer. Frames carry an explicit sequence number.
  Bytes wrap(ByteView plaintext);

  /// Verify + decrypt a frame from the peer. Returns nullopt on tampering,
  /// replay, or out-of-order delivery.
  std::optional<Bytes> unwrap(ByteView frame);

  std::uint64_t sent() const { return send_seq_; }
  std::uint64_t received() const { return recv_seq_; }

 private:
  secret::Buffer key_;
  bool is_initiator_;
  std::uint64_t send_seq_ = 0;
  std::uint64_t recv_seq_ = 0;
};

}  // namespace speed::net
