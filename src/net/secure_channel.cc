#include "net/secure_channel.h"

#include <array>

#include "common/error.h"
#include "crypto/gcm.h"
#include "serialize/codec.h"
#include "telemetry/registry.h"

namespace speed::net {

namespace {

/// Process-wide secure-channel frame accounting. Channels are short-lived
/// value types (one per peer/direction, replaced on rekey), so the totals
/// live here; per-channel sequence numbers stay on the channel.
struct ChannelMetrics {
  telemetry::Counter frames_sent;
  telemetry::Counter frames_received;
  telemetry::Counter unwrap_failures;
  telemetry::Counter bytes_sealed;
  telemetry::Counter bytes_opened;
  telemetry::Registry::Handle handle;
};

ChannelMetrics& channel_metrics() {
  static ChannelMetrics* m = [] {
    auto* t = new ChannelMetrics;
    t->handle = telemetry::Registry::global().add_collector(
        [t](telemetry::SampleSink& sink) {
          constexpr auto kDir = telemetry::LabelKey::of("direction");
          sink.counter("speed_channel_frames_total",
                       "Secure-channel frames wrapped/unwrapped",
                       {{kDir, telemetry::LabelValue::lit("sent")}},
                       t->frames_sent.value());
          sink.counter("speed_channel_frames_total",
                       "Secure-channel frames wrapped/unwrapped",
                       {{kDir, telemetry::LabelValue::lit("received")}},
                       t->frames_received.value());
          sink.counter("speed_channel_unwrap_failures_total",
                       "Frames rejected for tampering, replay, or reordering",
                       {}, t->unwrap_failures.value());
          sink.counter("speed_channel_bytes_total",
                       "Plaintext bytes through the secure channel",
                       {{kDir, telemetry::LabelValue::lit("sent")}},
                       t->bytes_sealed.value());
          sink.counter("speed_channel_bytes_total",
                       "Plaintext bytes through the secure channel",
                       {{kDir, telemetry::LabelValue::lit("received")}},
                       t->bytes_opened.value());
        });
    return t;
  }();
  return *m;
}

/// Size of the frame that carries `plaintext_len` bytes.
std::size_t frame_size(std::size_t plaintext_len) {
  return SecureChannel::kFrameHeaderSize + plaintext_len + crypto::kGcmTagSize;
}

/// Write the low `n` bytes of `v` at `p`, little-endian (the codec's order).
void store_le(std::uint8_t* p, std::uint64_t v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/// Deterministic 12-byte nonce: 4-byte direction ‖ 8-byte sequence number.
/// Unique per key because each direction owns its own counter.
std::array<std::uint8_t, crypto::kGcmIvSize> make_nonce(
    bool initiator_to_responder, std::uint64_t seq) {
  std::array<std::uint8_t, crypto::kGcmIvSize> nonce{};
  nonce[0] = initiator_to_responder ? 0x01 : 0x02;
  store_le(nonce.data() + 4, seq, 8);
  return nonce;
}

/// AAD of a frame: its direction byte (1 initiator, 2 responder) ‖ u64 seq.
std::array<std::uint8_t, 9> make_aad(bool initiator_to_responder,
                                     std::uint64_t seq) {
  std::array<std::uint8_t, 9> aad{};
  aad[0] = initiator_to_responder ? 1 : 2;
  store_le(aad.data() + 1, seq, 8);
  return aad;
}

// Register the collector during static initialization, before any thread
// can hold a lock: first-use registration could otherwise take the registry
// lock under a transport lock — a rank inversion (docs/LOCK_ORDER.md) and a
// potential deadlock against an in-flight scrape.
[[maybe_unused]] const ChannelMetrics& kEagerChannelMetrics = channel_metrics();

}  // namespace

SecureChannel::SecureChannel(secret::Buffer session_key, bool is_initiator)
    : key_(std::move(session_key)), is_initiator_(is_initiator) {
  if (key_.size() != 16 && key_.size() != 32) {
    throw CryptoError("SecureChannel: session key must be 16 or 32 bytes");
  }
}

SecureChannel::SecureChannel(Bytes session_key, bool is_initiator)
    : SecureChannel(secret::Buffer::absorb(std::move(session_key)),
                    is_initiator) {}

void SecureChannel::seal(ByteView plaintext, std::span<std::uint8_t> frame) {
  const std::uint64_t seq = send_seq_++;
  const auto nonce = make_nonce(is_initiator_, seq);
  const auto aad = make_aad(is_initiator_, seq);
  const crypto::AesGcm gcm(key_);
  // Header first: it sits before the plaintext, so an in-place seal
  // overwrites nothing it still has to read.
  store_le(frame.data(), seq, 8);
  store_le(frame.data() + 8, plaintext.size() + crypto::kGcmTagSize, 4);
  gcm.seal_into(nonce, aad, plaintext, frame.subspan(kFrameHeaderSize));
  ChannelMetrics& cm = channel_metrics();
  cm.frames_sent.inc();
  cm.bytes_sealed.inc(plaintext.size());
}

Bytes SecureChannel::wrap(ByteView plaintext) {
  Bytes frame;
  seal_frame_to(plaintext, frame);
  return frame;
}

void SecureChannel::seal_frame(Bytes& frame) {
  if (frame.size() < kFrameHeaderSize) {
    throw CryptoError("SecureChannel: frame lacks its header");
  }
  const std::size_t plaintext_len = frame.size() - kFrameHeaderSize;
  // Exactly: an encoder leaves a large request at its exact capacity, and
  // growing it by the tag alone would double the buffer its caller keeps.
  frame.reserve(frame_size(plaintext_len));
  frame.resize(frame_size(plaintext_len));
  seal(ByteView(frame).subspan(kFrameHeaderSize, plaintext_len), frame);
}

void SecureChannel::seal_frame_to(ByteView plaintext, Bytes& out) {
  const std::size_t at = out.size();
  out.resize(at + frame_size(plaintext.size()));
  seal(plaintext, std::span(out).subspan(at));
}

std::optional<Bytes> SecureChannel::unwrap(ByteView frame) {
  Bytes plain;
  if (!open_frame(frame, plain).has_value()) return std::nullopt;
  return plain;
}

std::optional<ByteView> SecureChannel::open_frame(ByteView frame, Bytes& plain) {
  std::uint64_t seq;
  ByteView sealed;
  ChannelMetrics& cm = channel_metrics();
  try {
    serialize::Decoder dec(frame);
    seq = dec.u64();
    sealed = dec.var_view();
    dec.expect_done();
  } catch (const SerializationError&) {
    cm.unwrap_failures.inc();
    return std::nullopt;
  }
  // Strict ordering: the peer's next frame must carry exactly recv_seq_.
  // A sealed part shorter than a tag cannot authenticate.
  if (seq != recv_seq_ || sealed.size() < crypto::kGcmTagSize) {
    cm.unwrap_failures.inc();
    return std::nullopt;
  }

  const std::size_t plaintext_len = sealed.size() - crypto::kGcmTagSize;
  if (plain.size() < plaintext_len) {
    plain.reserve(plaintext_len);  // exactly: no doubling past the frame
    plain.resize(plaintext_len);
  }
  const std::span<std::uint8_t> out = std::span(plain).first(plaintext_len);
  const auto nonce = make_nonce(!is_initiator_, seq);
  const auto aad = make_aad(!is_initiator_, seq);
  const crypto::AesGcm gcm(key_);
  if (!gcm.open_into(nonce, aad, sealed, out)) {
    cm.unwrap_failures.inc();
    return std::nullopt;
  }
  ++recv_seq_;
  cm.frames_received.inc();
  cm.bytes_opened.inc(plaintext_len);
  return ByteView(out);
}

}  // namespace speed::net
