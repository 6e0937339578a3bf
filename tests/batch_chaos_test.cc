// Fault-injection suite for the batched protocol and the epoll server
// (ctest -L chaos; CI also runs it under ThreadSanitizer): mid-batch
// disconnects, abrupt-close durability of acknowledged PUTs, connection
// churn, and hostile clients racing honest ones. Deterministic conformance
// tests live in batch_test.cc.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <thread>
#include <vector>

#include "runtime/speed.h"
#include "store/tcp_server.h"
#include "test_seed.h"

namespace speed {
namespace {

using serialize::BatchRequest;
using serialize::BatchResponse;
using serialize::GetResponse;
using serialize::Message;
using serialize::PutRequest;
using serialize::PutResponse;
using serialize::PutStatus;
using serialize::Tag;

sgx::CostModel fast_model() {
  sgx::CostModel m;
  m.ecall_ns = 0;
  m.ocall_ns = 0;
  m.epc_page_swap_ns = 0;
  return m;
}

Tag random_tag(Xoshiro256& rng) {
  Tag t;
  for (auto& b : t) b = static_cast<std::uint8_t>(rng());
  return t;
}

PutRequest make_put(const Tag& tag, const sgx::Measurement& requester) {
  PutRequest req;
  req.tag = tag;
  req.requester = requester;
  req.entry.challenge = Bytes{9, 9, 9};
  req.entry.wrapped_key = Bytes(16, 0x11);
  req.entry.result_ct = Bytes(64, 0x77);
  return req;
}

serialize::GetRequest make_get(const Tag& tag,
                               const sgx::Measurement& requester) {
  serialize::GetRequest req;
  req.tag = tag;
  req.requester = requester;
  return req;
}

// Hand-rolled TCP client: owns its secure channel so tests can disconnect
// at any point in the exchange.
struct RawTcpClient {
  RawTcpClient(sgx::Enclave& app, store::ResultStore& result_store,
               std::uint16_t port)
      : sock(net::tcp_connect("127.0.0.1", port)) {
    const net::ChannelKeyExchange kx(app);
    sock.send_frame(net::encode_handshake(
        kx.hello(result_store.enclave().measurement())));
    auto key = kx.derive(net::decode_handshake(sock.recv_frame()),
                         result_store.enclave().measurement());
    if (!key.has_value()) throw ProtocolError("raw client: bad server hello");
    channel.emplace(std::move(*key), /*is_initiator=*/true);
  }

  void send(const Message& m) {
    sock.send_frame(channel->wrap(serialize::encode_message(m)));
  }
  Message recv() {
    const auto plain = channel->unwrap(sock.recv_frame());
    if (!plain.has_value()) throw ProtocolError("raw client: bad frame");
    return serialize::decode_message(*plain);
  }

  net::FramedSocket sock;
  std::optional<net::SecureChannel> channel;
};

// True once every tag is retrievable from the store's plaintext infra
// plane; used to poll for asynchronous server-side application of PUTs.
bool all_present(store::ResultStore& result_store, const std::vector<Tag>& tags,
                 const sgx::Measurement& requester) {
  for (const Tag& tag : tags) {
    const Message reply = serialize::decode_message(
        result_store.handle(serialize::encode_message(
            Message(make_get(tag, requester)))));
    const auto* resp = std::get_if<GetResponse>(&reply);
    if (resp == nullptr || !resp->found) return false;
  }
  return true;
}

TEST(BatchChaosTest, AckedBatchPutsSurviveAbruptDisconnect) {
  sgx::Platform platform(fast_model());
  store::ResultStore result_store(platform);
  store::StoreTcpServer server(result_store, 0);
  auto app = platform.create_enclave("ack-app");
  const sgx::Measurement me = app->measurement();
  SPEED_SEEDED_RNG(rng, 0xACEDB001ull);

  std::vector<Tag> tags;
  BatchRequest batch;
  for (int i = 0; i < 16; ++i) {
    tags.push_back(random_tag(rng));
    batch.ops.emplace_back(make_put(tags.back(), me));
  }

  {
    RawTcpClient client(*app, result_store, server.port());
    client.send(Message(batch));
    const Message reply = client.recv();
    const auto* resp = std::get_if<BatchResponse>(&reply);
    ASSERT_NE(resp, nullptr);
    for (const auto& r : resp->replies) {
      EXPECT_EQ(std::get<PutResponse>(r).status, PutStatus::kStored);
    }
    // Abrupt close the moment the ack arrives — no orderly shutdown.
  }

  // Every acknowledged PUT is durable in the store despite the disconnect.
  EXPECT_TRUE(all_present(result_store, tags, me));

  // A fresh connection (the "restarted client") reads its own writes back.
  RawTcpClient reader(*app, result_store, server.port());
  BatchRequest gets;
  for (const Tag& tag : tags) gets.ops.emplace_back(make_get(tag, me));
  reader.send(Message(gets));
  const Message reply = reader.recv();
  const auto* resp = std::get_if<BatchResponse>(&reply);
  ASSERT_NE(resp, nullptr);
  for (const auto& r : resp->replies) {
    EXPECT_TRUE(std::get<GetResponse>(r).found);
  }
}

TEST(BatchChaosTest, DisconnectBeforeReadingStillAppliesParsedBatch) {
  // The client ships a batch of PUTs and vanishes without reading the
  // response. TCP delivers the sent bytes before the FIN, and the server
  // must drain every frame it parsed from a dead connection — pipelined
  // work is not dropped just because the response can no longer be sent.
  sgx::Platform platform(fast_model());
  store::ResultStore result_store(platform);
  store::StoreTcpServer server(result_store, 0);
  auto app = platform.create_enclave("vanish-app");
  const sgx::Measurement me = app->measurement();
  SPEED_SEEDED_RNG(rng, 0xDEADB002ull);

  std::vector<Tag> tags;
  {
    RawTcpClient client(*app, result_store, server.port());
    BatchRequest batch;
    for (int i = 0; i < 16; ++i) {
      tags.push_back(random_tag(rng));
      batch.ops.emplace_back(make_put(tags.back(), me));
    }
    client.send(Message(batch));
    // Scope exit closes the socket with the response unread.
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!all_present(result_store, tags, me)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "server dropped parsed frames from a disconnected client";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(BatchChaosTest, MidFrameDisconnectCostsOnlyThatConnection) {
  // A client dies halfway through a frame while honest pipelined clients
  // hammer the same server: the torn connection is contained (one session
  // error) and every honest batch completes.
  sgx::Platform platform(fast_model());
  store::ResultStore result_store(platform);
  store::StoreTcpServer server(result_store, 0);
  const sgx::Measurement probe_meas =
      platform.create_enclave("probe")->measurement();

  std::atomic<bool> stop{false};
  std::atomic<int> honest_batches{0};
  constexpr int kHonest = 3;
  std::vector<std::thread> honest;
  for (int t = 0; t < kHonest; ++t) {
    honest.emplace_back([&, t] {
      auto app = platform.create_enclave("honest-" + std::to_string(t));
      const sgx::Measurement me = app->measurement();
      RawTcpClient client(*app, result_store, server.port());
      SPEED_SEEDED_RNG(rng, 0x40E571000ull + static_cast<std::uint64_t>(t));
      while (!stop.load()) {
        BatchRequest batch;
        std::vector<Tag> tags;
        for (int i = 0; i < 8; ++i) {
          tags.push_back(random_tag(rng));
          batch.ops.emplace_back(make_put(tags.back(), me));
        }
        for (const Tag& tag : tags) batch.ops.emplace_back(make_get(tag, me));
        client.send(Message(batch));
        const Message reply = client.recv();
        const auto* resp = std::get_if<BatchResponse>(&reply);
        ASSERT_NE(resp, nullptr);
        ASSERT_EQ(resp->replies.size(), 16u);
        for (std::size_t i = 8; i < 16; ++i) {
          EXPECT_TRUE(std::get<GetResponse>(resp->replies[i]).found);
        }
        honest_batches.fetch_add(1);
      }
    });
  }

  // Torn clients: handshake, then die mid-frame (header promising more
  // bytes than ever arrive).
  for (int k = 0; k < 5; ++k) {
    auto app = platform.create_enclave("torn-" + std::to_string(k));
    RawTcpClient torn(*app, result_store, server.port());
    const Bytes partial = {0x40, 0x00, 0x00, 0x00, 0xAB, 0xCD};  // 64-byte frame, 2 sent
    ASSERT_EQ(::send(torn.sock.fd(), partial.data(), partial.size(),
                     MSG_NOSIGNAL),
              static_cast<ssize_t>(partial.size()));
    // Destructor closes mid-frame.
  }

  // Let the honest traffic run long enough to overlap every torn close.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (honest_batches.load() < kHonest * 10 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true);
  for (auto& t : honest) t.join();
  EXPECT_GE(honest_batches.load(), kHonest * 10);

  // All five torn connections were contained as session errors; poll
  // briefly — the server counts the error when it notices the EOF.
  for (int i = 0; i < 500 && server.session_errors() < 5; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.session_errors(), 5u);
  EXPECT_EQ(server.connections_rejected(), 0u);
  (void)probe_meas;
}

TEST(BatchChaosTest, ServerSurvivesConnectionChurn) {
  // Connections come and go while the event loops serve their frames; a
  // departed session's buffered frames must complete (or fail cleanly)
  // without wedging its loop for the survivors.
  sgx::Platform platform(fast_model());
  store::ResultStore result_store(platform);
  store::StoreTcpServer server(result_store, 0);

  std::atomic<int> completed{0};
  constexpr int kThreads = 4;
  constexpr int kGenerations = 6;
  std::vector<std::thread> churn;
  for (int t = 0; t < kThreads; ++t) {
    churn.emplace_back([&, t] {
      SPEED_SEEDED_RNG(rng, 0xC4u + static_cast<std::uint64_t>(t));
      for (int gen = 0; gen < kGenerations; ++gen) {
        auto app = platform.create_enclave("churn-" + std::to_string(t) +
                                           "-" + std::to_string(gen));
        const sgx::Measurement me = app->measurement();
        RawTcpClient client(*app, result_store, server.port());
        BatchRequest batch;
        for (int i = 0; i < 4; ++i) {
          batch.ops.emplace_back(make_put(random_tag(rng), me));
        }
        client.send(Message(batch));
        if (gen % 2 == 0) {
          // Half the generations read their ack, half vanish first.
          const Message reply = client.recv();
          EXPECT_NE(std::get_if<BatchResponse>(&reply), nullptr);
        }
        completed.fetch_add(1);
      }
    });
  }
  for (auto& t : churn) t.join();
  EXPECT_EQ(completed.load(), kThreads * kGenerations);

  // The server is still live: a fresh client gets served.
  auto app = platform.create_enclave("survivor");
  RawTcpClient client(*app, result_store, server.port());
  SPEED_SEEDED_RNG(rng, 0x5077u);
  const Tag tag = random_tag(rng);
  client.send(Message(make_put(tag, app->measurement())));
  EXPECT_EQ(std::get<PutResponse>(client.recv()).status, PutStatus::kStored);
  client.send(Message(make_get(tag, app->measurement())));
  EXPECT_TRUE(std::get<GetResponse>(client.recv()).found);
  EXPECT_EQ(server.connections_accepted(),
            static_cast<std::uint64_t>(kThreads * kGenerations + 1));
  EXPECT_EQ(server.connections_rejected(), 0u);
}

TEST(BatchChaosTest, ServerStopWithInFlightBatchesDoesNotHang) {
  sgx::Platform platform(fast_model());
  store::ResultStore result_store(platform);
  auto server = std::make_unique<store::StoreTcpServer>(result_store, 0);

  SPEED_SEEDED_RNG(rng, 0x570Full);
  std::vector<std::unique_ptr<sgx::Enclave>> apps;
  std::vector<std::unique_ptr<RawTcpClient>> clients;
  for (int i = 0; i < 4; ++i) {
    apps.push_back(platform.create_enclave("stop-" + std::to_string(i)));
    clients.push_back(std::make_unique<RawTcpClient>(*apps.back(), result_store,
                                                     server->port()));
    BatchRequest batch;
    for (int k = 0; k < 8; ++k) {
      batch.ops.emplace_back(make_put(random_tag(rng), apps.back()->measurement()));
    }
    clients.back()->send(Message(batch));
  }
  // Stop with batches potentially mid-flight; must join cleanly.
  server->stop();
  server.reset();
  SUCCEED();
}

}  // namespace
}  // namespace speed
