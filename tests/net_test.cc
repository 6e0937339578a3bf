// Tests for the transport, the secure channel's framing, and the StoreLink
// that seals, ships and re-keys client frames. The attested key agreement
// that keys the channel is covered in handshake_test.cc.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "crypto/gcm.h"
#include "net/channel.h"
#include "net/secure_channel.h"
#include "net/store_link.h"
#include "serialize/codec.h"

namespace speed::net {
namespace {

/// Fixed 16-byte session key: framing does not depend on how the key was
/// agreed.
Bytes fixed_key(std::uint8_t fill = 0x42) { return Bytes(16, fill); }

TEST(LoopbackTransportTest, DeliversAndReturns) {
  LoopbackTransport transport(
      [](ByteView req) { return concat(to_bytes("echo:"), req); });
  const Bytes resp = transport.round_trip(as_bytes("ping"));
  EXPECT_EQ(resp, to_bytes("echo:ping"));
}

TEST(LoopbackTransportTest, SerializesConcurrentCallers) {
  int in_flight = 0;
  int max_in_flight = 0;
  LoopbackTransport transport([&](ByteView req) {
    ++in_flight;
    max_in_flight = std::max(max_in_flight, in_flight);
    --in_flight;
    return Bytes(req.begin(), req.end());
  });
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&] {
      for (int j = 0; j < 100; ++j) transport.round_trip(as_bytes("x"));
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(max_in_flight, 1) << "handler must never run concurrently";
}

TEST(LoopbackTransportTest, LatencyInjection) {
  LoopbackTransport transport([](ByteView) { return Bytes{}; },
                              /*one_way_ns=*/200000);
  Stopwatch sw;
  transport.round_trip({});
  EXPECT_GE(sw.elapsed_ns(), 350000u);
}

class SecureChannelTest : public ::testing::Test {
 protected:
  SecureChannelTest()
      : client_(fixed_key(), /*is_initiator=*/true),
        server_(fixed_key(), /*is_initiator=*/false) {}

  SecureChannel client_;
  SecureChannel server_;
};

TEST_F(SecureChannelTest, BidirectionalRoundTrip) {
  const Bytes frame = client_.wrap(as_bytes("GET tag"));
  const auto req = server_.unwrap(frame);
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(*req, to_bytes("GET tag"));

  const Bytes reply_frame = server_.wrap(as_bytes("FOUND entry"));
  const auto resp = client_.unwrap(reply_frame);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(*resp, to_bytes("FOUND entry"));
}

TEST_F(SecureChannelTest, ManyMessagesKeepOrder) {
  for (int i = 0; i < 50; ++i) {
    const std::string msg = "message-" + std::to_string(i);
    const auto out = server_.unwrap(client_.wrap(as_bytes(msg)));
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, to_bytes(msg));
  }
  EXPECT_EQ(client_.sent(), 50u);
  EXPECT_EQ(server_.received(), 50u);
}

TEST_F(SecureChannelTest, ReplayRejected) {
  const Bytes frame = client_.wrap(as_bytes("once"));
  ASSERT_TRUE(server_.unwrap(frame).has_value());
  EXPECT_FALSE(server_.unwrap(frame).has_value()) << "replay must fail";
}

TEST_F(SecureChannelTest, ReorderRejected) {
  const Bytes f0 = client_.wrap(as_bytes("first"));
  const Bytes f1 = client_.wrap(as_bytes("second"));
  EXPECT_FALSE(server_.unwrap(f1).has_value()) << "skipping seq 0 must fail";
  EXPECT_TRUE(server_.unwrap(f0).has_value());
  EXPECT_TRUE(server_.unwrap(f1).has_value());
}

TEST_F(SecureChannelTest, TamperedFrameRejected) {
  Bytes frame = client_.wrap(as_bytes("payload"));
  frame[frame.size() - 1] ^= 1;
  EXPECT_FALSE(server_.unwrap(frame).has_value());
}

TEST_F(SecureChannelTest, WrongDirectionRejected) {
  // A frame the client sent cannot be mistaken for a server frame.
  const Bytes frame = client_.wrap(as_bytes("to-server"));
  EXPECT_FALSE(client_.unwrap(frame).has_value());
}

TEST_F(SecureChannelTest, ForeignKeyRejected) {
  SecureChannel eavesdropper(fixed_key(0x43), /*is_initiator=*/false);
  const Bytes frame = client_.wrap(as_bytes("secret"));
  EXPECT_FALSE(eavesdropper.unwrap(frame).has_value());
}

/// The two ways to seal and open a frame: the fresh-buffer wrappers, and the
/// bodies a StoreLink or StoreSession calls with the buffers it keeps.
enum class FrameApi { kWrap, kBuffers };
constexpr FrameApi kFrameApis[] = {FrameApi::kWrap, FrameApi::kBuffers};

const char* api_name(FrameApi api) {
  return api == FrameApi::kWrap ? "wrap/unwrap" : "seal_frame/open_frame";
}

Bytes seal_with(SecureChannel& channel, ByteView plaintext, FrameApi api) {
  if (api == FrameApi::kWrap) return channel.wrap(plaintext);
  // The reserved header holds junk: sealing must overwrite all of it.
  Bytes frame(SecureChannel::kFrameHeaderSize, 0xEE);
  append(frame, plaintext);
  channel.seal_frame(frame);
  return frame;
}

/// Opens into `kept`, a buffer the caller reuses across frames.
std::optional<Bytes> open_with(SecureChannel& channel, ByteView frame,
                               FrameApi api, Bytes& kept) {
  if (api == FrameApi::kWrap) return channel.unwrap(frame);
  const auto plain = channel.open_frame(frame, kept);
  if (!plain.has_value()) return std::nullopt;
  return Bytes(plain->begin(), plain->end());
}

// The wire layout is u64 seq ‖ var_bytes(ct ‖ tag), sealed under the nonce
// direction ‖ 0³ ‖ seq (little-endian) with AAD direction ‖ seq, where the
// initiator's direction byte is 1 and the responder's 2.
TEST_F(SecureChannelTest, FrameLayoutIsSeqThenSealedBytes) {
  const Bytes payload = to_bytes("pinned layout payload, longer than a block");
  for (const FrameApi api : kFrameApis) {
    SCOPED_TRACE(api_name(api));
    SecureChannel client(fixed_key(), /*is_initiator=*/true);
    seal_with(client, as_bytes("seq 0"), api);
    const Bytes frame = seal_with(client, payload, api);

    serialize::Decoder dec(frame);
    const std::uint64_t seq = dec.u64();
    const Bytes sealed = dec.var_bytes();
    dec.expect_done();
    EXPECT_EQ(seq, 1u);
    ASSERT_EQ(sealed.size(), payload.size() + crypto::kGcmTagSize);

    Bytes nonce(crypto::kGcmIvSize, 0);
    nonce[0] = 0x01;
    nonce[4] = static_cast<std::uint8_t>(seq);
    serialize::Encoder aad;
    aad.u8(0x01);
    aad.u64(seq);
    const auto opened =
        crypto::AesGcm(fixed_key()).open(nonce, aad.view(), sealed);
    ASSERT_TRUE(opened.has_value());
    EXPECT_EQ(*opened, payload);
  }
}

TEST_F(SecureChannelTest, LengthOverrunAndTrailingByteRejected) {
  for (const FrameApi api : kFrameApis) {
    SCOPED_TRACE(api_name(api));
    SecureChannel client(fixed_key(), /*is_initiator=*/true);
    SecureChannel server(fixed_key(), /*is_initiator=*/false);
    Bytes kept;
    const Bytes frame = seal_with(client, as_bytes("payload"), api);

    Bytes overrun = frame;
    overrun[8] = static_cast<std::uint8_t>(overrun[8] + 1);  // u32 length, LSB
    EXPECT_FALSE(open_with(server, overrun, api, kept).has_value());

    Bytes trailing = frame;
    trailing.push_back(0);
    EXPECT_FALSE(open_with(server, trailing, api, kept).has_value());

    // Neither rejection consumed the sequence number.
    EXPECT_TRUE(open_with(server, frame, api, kept).has_value());
  }
}

TEST_F(SecureChannelTest, BufferSealsMatchWrapByteForByte) {
  SecureChannel wrapper(fixed_key(), /*is_initiator=*/true);
  SecureChannel in_place(fixed_key(), /*is_initiator=*/true);
  SecureChannel appender(fixed_key(), /*is_initiator=*/true);
  Bytes out = to_bytes("earlier bytes stay");
  for (std::size_t len : {0u, 1u, 100u, 70000u, 3u}) {
    SCOPED_TRACE(testing::Message() << "len " << len);
    const Bytes payload(len, static_cast<std::uint8_t>(len));
    const Bytes expected = wrapper.wrap(payload);
    EXPECT_EQ(seal_with(in_place, payload, FrameApi::kBuffers), expected);

    const std::size_t at = out.size();
    appender.seal_frame_to(payload, out);
    EXPECT_EQ(Bytes(out.begin() + static_cast<std::ptrdiff_t>(at), out.end()),
              expected);
  }
  EXPECT_EQ(Bytes(out.begin(), out.begin() + 18), to_bytes("earlier bytes stay"));
}

TEST_F(SecureChannelTest, BufferOpenAcceptsExactlyWhatUnwrapAccepts) {
  // The same sequence of frames, good and bad, goes to two receivers.
  std::vector<Bytes> frames;
  const Bytes big(70000, 0x5A);
  frames.push_back(client_.wrap(big));
  frames.push_back(client_.wrap(as_bytes("short")));
  Bytes tampered = client_.wrap(as_bytes("tampered"));
  tampered[tampered.size() - 1] ^= 1;
  frames.push_back(tampered);
  frames.push_back(frames[1]);  // replay
  frames.push_back(Bytes(frames[0].begin(), frames[0].begin() + 20));
  frames.push_back(client_.wrap({}));
  frames.push_back(to_bytes("not a frame"));

  SecureChannel unwrapper(fixed_key(), /*is_initiator=*/false);
  SecureChannel opener(fixed_key(), /*is_initiator=*/false);
  Bytes kept;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "frame " << i);
    const auto expected = unwrapper.unwrap(frames[i]);
    const auto got = open_with(opener, frames[i], FrameApi::kBuffers, kept);
    EXPECT_EQ(got, expected);
  }
  EXPECT_EQ(opener.received(), unwrapper.received());
  EXPECT_GE(kept.size(), big.size()) << "the kept buffer never shrinks";
}

TEST_F(SecureChannelTest, GarbageFrameRejected) {
  EXPECT_FALSE(server_.unwrap(as_bytes("not a frame")).has_value());
  EXPECT_FALSE(server_.unwrap({}).has_value());
}

// ------------------------------------------------------------- StoreLink

/// Store stand-in for StoreLinkTest: a LoopbackTransport whose handler opens
/// each request under the current responder's SecureChannel and echoes a
/// heartbeat. Tests can make the next round trip throw, or flip one byte of
/// the next reply. recover() moves to a fresh responder under a new key and
/// stages that key, unless `can_rekey` is off.
class FakeStore : public Transport {
 public:
  struct Responder {
    explicit Responder(std::uint8_t key_fill)
        : channel(fixed_key(key_fill), /*is_initiator=*/false) {}
    SecureChannel channel;
    std::vector<std::uint64_t> opened_seqs;  ///< requests it opened
  };

  FakeStore()
      : loopback_([this](ByteView frame) { return answer(frame); }) {
    responders.push_back(std::make_unique<Responder>(kFirstKey));
  }

  Bytes round_trip(ByteView request) override {
    ++round_trips;
    if (fail_next) {
      fail_next = false;
      throw StoreUnavailableError("injected: connection reset");
    }
    Bytes reply = loopback_.round_trip(request);
    if (tamper_next) {
      tamper_next = false;
      reply.back() ^= 0x01;
    }
    return reply;
  }

  bool recover() override {
    ++recovers;
    if (!can_rekey) return false;
    const auto fill = static_cast<std::uint8_t>(kFirstKey + responders.size());
    responders.push_back(std::make_unique<Responder>(fill));
    rekey_(secret::Buffer::absorb(fixed_key(fill)));
    return true;
  }

  void set_rekey_callback(RekeyCallback cb) override { rekey_ = std::move(cb); }

  static constexpr std::uint8_t kFirstKey = 0x10;

  bool fail_next = false;
  bool tamper_next = false;
  bool can_rekey = true;
  int round_trips = 0;
  int recovers = 0;
  std::vector<std::unique_ptr<Responder>> responders;  ///< back() serves

 private:
  Bytes answer(ByteView frame) {
    Responder& r = *responders.back();
    const auto plain = r.channel.unwrap(frame);
    if (!plain.has_value()) throw ProtocolError("fake store: bad frame");
    r.opened_seqs.push_back(serialize::Decoder(frame).u64());
    const auto request = serialize::decode_message(*plain);
    const auto& beat = std::get<serialize::HeartbeatRequest>(request);
    return r.channel.wrap(serialize::encode_message(
        serialize::HeartbeatResponse{beat.nonce}));
  }

  LoopbackTransport loopback_;
  RekeyCallback rekey_;
};

class StoreLinkTest : public ::testing::Test {
 protected:
  static sgx::CostModel free_transitions() {
    sgx::CostModel m;
    m.ecall_ns = 0;
    m.ocall_ns = 0;
    return m;
  }

  StoreLinkTest()
      : platform_(free_transitions()),
        enclave_(platform_.create_enclave("link-app")) {}

  /// A link over a fresh FakeStore keyed with its first responder's key.
  std::unique_ptr<StoreLink> dialed_link(FakeStore*& store) {
    auto owned = std::make_unique<FakeStore>();
    store = owned.get();
    return std::make_unique<StoreLink>(
        *enclave_,
        ResilientTransport::Connection{
            std::move(owned),
            secret::Buffer::absorb(fixed_key(FakeStore::kFirstKey))});
  }

  /// One heartbeat over `link`, from inside the enclave; returns the echo.
  std::uint64_t beat(StoreLink& link, std::uint64_t nonce) {
    const serialize::Message reply = enclave_->ecall(
        [&] { return link.round_trip(serialize::HeartbeatRequest{nonce}); });
    return std::get<serialize::HeartbeatResponse>(reply).nonce;
  }

  sgx::Platform platform_;
  std::unique_ptr<sgx::Enclave> enclave_;
};

TEST_F(StoreLinkTest, FailedRoundTripPoisonsUntilRekeyed) {
  FakeStore* store = nullptr;
  auto link = dialed_link(store);
  EXPECT_EQ(beat(*link, 1), 1u);

  store->fail_next = true;
  EXPECT_THROW(beat(*link, 2), StoreUnavailableError);
  EXPECT_EQ(store->recovers, 0) << "the failed frame is never retried";

  EXPECT_EQ(beat(*link, 3), 3u);
  EXPECT_EQ(store->recovers, 1);
  ASSERT_EQ(store->responders.size(), 2u);
  // The old key wrapped nothing after the failure; the request opened
  // under the staged key as that channel's first frame.
  EXPECT_EQ(store->responders[0]->opened_seqs, std::vector<std::uint64_t>{0});
  EXPECT_EQ(store->responders[1]->opened_seqs, std::vector<std::uint64_t>{0});

  EXPECT_EQ(beat(*link, 4), 4u);
  EXPECT_EQ(store->recovers, 1);
}

TEST_F(StoreLinkTest, PoisonedLinkThatCannotRekeyNeverSendsAgain) {
  FakeStore* store = nullptr;
  auto link = dialed_link(store);
  store->can_rekey = false;
  store->fail_next = true;
  EXPECT_THROW(beat(*link, 1), StoreUnavailableError);
  const int sent = store->round_trips;

  for (std::uint64_t nonce = 2; nonce < 5; ++nonce) {
    EXPECT_THROW(beat(*link, nonce), StoreUnavailableError);
  }
  EXPECT_EQ(store->round_trips, sent);
  EXPECT_EQ(store->recovers, 3) << "one recover() per round trip";
}

TEST_F(StoreLinkTest, TamperedReplyPoisons) {
  FakeStore* store = nullptr;
  auto link = dialed_link(store);
  store->tamper_next = true;
  EXPECT_THROW(beat(*link, 1), ProtocolError);

  EXPECT_EQ(beat(*link, 2), 2u);
  EXPECT_EQ(store->recovers, 1);
  EXPECT_EQ(store->responders.back()->opened_seqs,
            std::vector<std::uint64_t>{0});
}

TEST_F(StoreLinkTest, UndialedLinkDialsOnFirstUse) {
  int dials = 0;
  bool refuse = true;
  StoreLink link(*enclave_, ResilientTransport::Connection{},
                 [&]() -> ResilientTransport::Connection {
                   ++dials;
                   if (refuse) throw StoreUnavailableError("injected: refused");
                   return {std::make_unique<FakeStore>(),
                           secret::Buffer::absorb(
                               fixed_key(FakeStore::kFirstKey))};
                 });
  EXPECT_EQ(dials, 0);

  std::uint64_t ocalls = enclave_->ocall_count();
  EXPECT_THROW(beat(link, 1), StoreUnavailableError);
  EXPECT_EQ(dials, 1);
  EXPECT_EQ(enclave_->ocall_count() - ocalls, 1u) << "the dial's OCALL only";

  // The refused dial left the link undialed: the next call dials again.
  refuse = false;
  ocalls = enclave_->ocall_count();
  EXPECT_EQ(beat(link, 2), 2u);
  EXPECT_EQ(dials, 2);
  EXPECT_EQ(enclave_->ocall_count() - ocalls, 2u) << "one dial, one round trip";

  EXPECT_EQ(beat(link, 3), 3u);
  EXPECT_EQ(dials, 2);
}

}  // namespace
}  // namespace speed::net
