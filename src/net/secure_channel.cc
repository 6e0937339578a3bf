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

/// Deterministic 12-byte nonce: 4-byte direction ‖ 8-byte sequence number.
/// Unique per key because each direction owns its own counter.
std::array<std::uint8_t, crypto::kGcmIvSize> make_nonce(
    bool initiator_to_responder, std::uint64_t seq) {
  std::array<std::uint8_t, crypto::kGcmIvSize> nonce{};
  nonce[0] = initiator_to_responder ? 0x01 : 0x02;
  for (int i = 0; i < 8; ++i) {
    nonce[4 + i] = static_cast<std::uint8_t>(seq >> (8 * i));
  }
  return nonce;
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

Bytes SecureChannel::wrap(ByteView plaintext) {
  const std::uint64_t seq = send_seq_++;
  const auto nonce = make_nonce(is_initiator_, seq);
  const crypto::AesGcm gcm(key_);

  serialize::Encoder aad;
  aad.u8(is_initiator_ ? 1 : 2);
  aad.u64(seq);

  // Frame: u64 seq ‖ var_bytes(ct ‖ tag). The header goes first and the
  // payload is sealed straight into the frame's tail.
  const std::size_t sealed_len = plaintext.size() + crypto::kGcmTagSize;
  serialize::Encoder header;
  header.reserve(sizeof(std::uint64_t) + sizeof(std::uint32_t) + sealed_len);
  header.u64(seq);
  header.u32(static_cast<std::uint32_t>(sealed_len));
  Bytes frame = header.take();
  const std::size_t header_len = frame.size();
  frame.resize(header_len + sealed_len);
  gcm.seal_into(nonce, aad.view(), plaintext,
                std::span(frame).subspan(header_len));
  ChannelMetrics& cm = channel_metrics();
  cm.frames_sent.inc();
  cm.bytes_sealed.inc(plaintext.size());
  return frame;
}

std::optional<Bytes> SecureChannel::unwrap(ByteView frame) {
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
  if (seq != recv_seq_) {
    cm.unwrap_failures.inc();
    return std::nullopt;
  }

  const auto nonce = make_nonce(!is_initiator_, seq);
  serialize::Encoder aad;
  aad.u8(is_initiator_ ? 2 : 1);
  aad.u64(seq);
  const crypto::AesGcm gcm(key_);
  auto plain = gcm.open(nonce, aad.view(), sealed);
  if (!plain.has_value()) {
    cm.unwrap_failures.inc();
    return std::nullopt;
  }
  ++recv_seq_;
  cm.frames_received.inc();
  cm.bytes_opened.inc(plain->size());
  return plain;
}

}  // namespace speed::net
