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
//
// A frame is u64 seq ‖ u32 len ‖ ct ‖ tag (len counts ct ‖ tag). There is
// one seal body and one open body, and both work in caller buffers: a
// caller that keeps its buffers across frames (StoreLink, StoreSession)
// seals and opens with no allocation once they have carried its largest
// frame. wrap() and unwrap() are the same bodies over fresh buffers.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

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

  /// Bytes a frame carries before its ciphertext: u64 seq ‖ u32 len.
  static constexpr std::size_t kFrameHeaderSize = 12;

  /// Seal a message for the peer. Frames carry an explicit sequence number.
  Bytes wrap(ByteView plaintext);

  /// Seal in place. On entry `frame` is kFrameHeaderSize reserved bytes
  /// followed by the plaintext (encode straight after the header); on
  /// return it is the sealed frame, with the tag appended: byte for byte
  /// what wrap() returns for that plaintext.
  void seal_frame(Bytes& frame);

  /// Seal `plaintext` as one frame appended to `out`, which must not hold
  /// it. This is how a reply leaves an enclave-side plaintext buffer for a
  /// host-side write buffer without a copy.
  void seal_frame_to(ByteView plaintext, Bytes& out);

  /// Verify + decrypt a frame from the peer. Returns nullopt on tampering,
  /// replay, or out-of-order delivery.
  std::optional<Bytes> unwrap(ByteView frame);

  /// unwrap() into `plain`, which grows to fit and never shrinks, so a
  /// buffer kept across frames stops allocating once it has carried the
  /// largest one. Returns a view of exactly the plaintext: a prefix of
  /// `plain`, whose bytes past it are left over from earlier frames and
  /// must not be read. `frame` must not lie inside `plain`.
  std::optional<ByteView> open_frame(ByteView frame, Bytes& plain);

  std::uint64_t sent() const { return send_seq_; }
  std::uint64_t received() const { return recv_seq_; }

 private:
  /// The seal body. `frame` holds exactly header ‖ plaintext ‖ tag bytes;
  /// `plaintext` either starts at frame[kFrameHeaderSize] (in place) or
  /// does not overlap `frame`.
  void seal(ByteView plaintext, std::span<std::uint8_t> frame);

  secret::Buffer key_;
  bool is_initiator_;
  std::uint64_t send_seq_ = 0;
  std::uint64_t recv_seq_ = 0;
};

}  // namespace speed::net
