// Tests for the transport and the secure channel's framing. The attested
// key agreement that keys the channel is covered in handshake_test.cc.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "crypto/gcm.h"
#include "net/channel.h"
#include "net/secure_channel.h"
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

// The wire layout is u64 seq ‖ var_bytes(ct ‖ tag), sealed under the nonce
// direction ‖ 0³ ‖ seq (little-endian) with AAD direction ‖ seq, where the
// initiator's direction byte is 1 and the responder's 2.
TEST_F(SecureChannelTest, FrameLayoutIsSeqThenSealedBytes) {
  const Bytes payload = to_bytes("pinned layout payload, longer than a block");
  client_.wrap(as_bytes("seq 0"));
  const Bytes frame = client_.wrap(payload);

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
  const auto opened = crypto::AesGcm(fixed_key()).open(nonce, aad.view(), sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, payload);
}

TEST_F(SecureChannelTest, LengthOverrunAndTrailingByteRejected) {
  const Bytes frame = client_.wrap(as_bytes("payload"));

  Bytes overrun = frame;
  overrun[8] = static_cast<std::uint8_t>(overrun[8] + 1);  // u32 length, LSB
  EXPECT_FALSE(server_.unwrap(overrun).has_value());

  Bytes trailing = frame;
  trailing.push_back(0);
  EXPECT_FALSE(server_.unwrap(trailing).has_value());

  // Neither rejection consumed the sequence number.
  EXPECT_TRUE(server_.unwrap(frame).has_value());
}

TEST_F(SecureChannelTest, GarbageFrameRejected) {
  EXPECT_FALSE(server_.unwrap(as_bytes("not a frame")).has_value());
  EXPECT_FALSE(server_.unwrap({}).has_value());
}

}  // namespace
}  // namespace speed::net
