// Conformance suite for the batched wire protocol (docs/PROTOCOL.md §9):
// batch codec, per-entry statuses, server frame/batch
// limits, the server's pipelining, connection placement and backpressure,
// the client micro-batcher, and cluster batch routing. The
// disconnect/fault-injection variants live in batch_chaos_test.cc.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "net/cluster.h"
#include "runtime/speed.h"
#include "store/inproc_cluster.h"
#include "store/tcp_server.h"
#include "test_seed.h"

namespace speed {
namespace {

using serialize::BatchOp;
using serialize::BatchReply;
using serialize::BatchRequest;
using serialize::BatchResponse;
using serialize::ErrorCode;
using serialize::ErrorResponse;
using serialize::GetRequest;
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

Tag nth_tag(std::uint8_t base, std::uint8_t n) {
  Tag t{};
  t.fill(base);
  t[0] = n;
  return t;
}

PutRequest make_put(const Tag& tag, const sgx::Measurement& requester,
                    std::size_t ct_bytes = 48) {
  PutRequest req;
  req.tag = tag;
  req.requester = requester;
  req.entry.challenge = Bytes{1, 2, 3, 4};
  req.entry.wrapped_key = Bytes(16, 0x42);
  req.entry.result_ct = Bytes(ct_bytes, 0x99);
  return req;
}

GetRequest make_get(const Tag& tag, const sgx::Measurement& requester) {
  GetRequest req;
  req.tag = tag;
  req.requester = requester;
  return req;
}

// ---------------------------------------------------------------- codec --

TEST(BatchWireTest, RoundTripMixedBatch) {
  const sgx::Measurement app{};
  BatchRequest req;
  req.ops.emplace_back(make_put(nth_tag(0xAA, 1), app));
  req.ops.emplace_back(make_get(nth_tag(0xAA, 2), app));

  const Bytes wire = serialize::encode_message(Message(req));
  // The batcher sizes frames from encoded_size: kind byte, op count, ops.
  EXPECT_EQ(wire.size(), 1 + 4 + serialize::encoded_size(req.ops[0]) +
                             serialize::encoded_size(req.ops[1]));
  const Message decoded = serialize::decode_message(wire);
  const auto* back = std::get_if<BatchRequest>(&decoded);
  ASSERT_NE(back, nullptr);
  ASSERT_EQ(back->ops.size(), 2u);
  const auto* put = std::get_if<PutRequest>(&back->ops[0]);
  ASSERT_NE(put, nullptr);
  EXPECT_EQ(put->tag, nth_tag(0xAA, 1));
  EXPECT_EQ(put->entry, std::get<PutRequest>(req.ops[0]).entry);
  const auto* get = std::get_if<GetRequest>(&back->ops[1]);
  ASSERT_NE(get, nullptr);
  EXPECT_EQ(get->tag, nth_tag(0xAA, 2));

  BatchResponse resp;
  GetResponse found;
  found.found = true;
  found.entry = put->entry;
  resp.replies.emplace_back(found);
  resp.replies.emplace_back(GetResponse{});
  resp.replies.emplace_back(PutResponse{PutStatus::kAlreadyPresent});
  resp.replies.emplace_back(
      ErrorResponse{ErrorCode::kUnavailable, "node down"});

  const Message decoded_resp =
      serialize::decode_message(serialize::encode_message(Message(resp)));
  const auto* resp_back = std::get_if<BatchResponse>(&decoded_resp);
  ASSERT_NE(resp_back, nullptr);
  ASSERT_EQ(resp_back->replies.size(), 4u);
  EXPECT_TRUE(std::get<GetResponse>(resp_back->replies[0]).found);
  EXPECT_EQ(std::get<GetResponse>(resp_back->replies[0]).entry, found.entry);
  EXPECT_FALSE(std::get<GetResponse>(resp_back->replies[1]).found);
  EXPECT_EQ(std::get<PutResponse>(resp_back->replies[2]).status,
            PutStatus::kAlreadyPresent);
  EXPECT_EQ(std::get<ErrorResponse>(resp_back->replies[3]).code,
            ErrorCode::kUnavailable);
  EXPECT_EQ(std::get<ErrorResponse>(resp_back->replies[3]).detail,
            "node down");
}

TEST(BatchWireTest, ImplausibleOpCountRejectedBeforeAllocation) {
  // A hostile header claiming 2^32-1 ops in a tiny buffer must be rejected
  // by arithmetic on the remaining bytes, never by attempting the reserve.
  serialize::Encoder enc;
  enc.u8(static_cast<std::uint8_t>(serialize::MessageType::kBatchRequest));
  enc.u32(0xFFFFFFFFu);
  EXPECT_THROW(serialize::decode_message(enc.take()),
               SerializationError);

  serialize::Encoder resp_enc;
  resp_enc.u8(static_cast<std::uint8_t>(serialize::MessageType::kBatchResponse));
  resp_enc.u32(0xFFFFFFFFu);
  EXPECT_THROW(serialize::decode_message(resp_enc.take()),
               SerializationError);
}

// ------------------------------------------------------- session batches --

// Raw secure-channel client around an in-process AppConnection: wraps and
// unwraps wire messages itself so tests control exactly what hits the
// session.
struct RawClient {
  explicit RawClient(store::AppConnection& conn)
      : channel(std::move(conn.session_key), /*is_initiator=*/true),
        transport(conn.transport.get()) {}

  Message call(const Message& request) {
    const Bytes frame =
        channel.wrap(serialize::encode_message(request));
    const Bytes response = transport->round_trip(frame);
    const auto plain = channel.unwrap(response);
    EXPECT_TRUE(plain.has_value()) << "response failed channel unwrap";
    return serialize::decode_message(*plain);
  }

  net::SecureChannel channel;
  net::Transport* transport;
};

TEST(BatchSessionTest, MixedBatchGetsPerEntryStatuses) {
  sgx::Platform platform(fast_model());
  store::ResultStore result_store(platform);
  auto app = platform.create_enclave("batch-app");
  auto conn = store::connect_app(result_store, *app);
  RawClient client(conn);
  const sgx::Measurement me = app->measurement();

  BatchRequest batch;
  batch.ops.emplace_back(make_put(nth_tag(0xB0, 1), me));
  batch.ops.emplace_back(make_get(nth_tag(0xB0, 1), me));  // hits op 0's PUT
  batch.ops.emplace_back(make_get(nth_tag(0xB0, 2), me));  // never stored
  batch.ops.emplace_back(make_put(nth_tag(0xB0, 1), me));  // duplicate

  const Message reply = client.call(Message(batch));
  const auto* resp = std::get_if<BatchResponse>(&reply);
  ASSERT_NE(resp, nullptr);
  ASSERT_EQ(resp->replies.size(), 4u);
  EXPECT_EQ(std::get<PutResponse>(resp->replies[0]).status,
            PutStatus::kStored);
  // Ops execute in order: the GET right after the PUT sees the entry.
  ASSERT_TRUE(std::get<GetResponse>(resp->replies[1]).found);
  EXPECT_EQ(std::get<GetResponse>(resp->replies[1]).entry,
            std::get<PutRequest>(batch.ops[0]).entry);
  EXPECT_FALSE(std::get<GetResponse>(resp->replies[2]).found);
  EXPECT_EQ(std::get<PutResponse>(resp->replies[3]).status,
            PutStatus::kAlreadyPresent);
}

TEST(BatchSessionTest, QuotaFailureIsConfinedToItsEntry) {
  sgx::Platform platform(fast_model());
  store::StoreConfig config;
  config.per_app_quota_bytes = 256;  // fits the small entry, not the big one
  store::ResultStore result_store(platform, config);
  auto app = platform.create_enclave("quota-app");
  auto conn = store::connect_app(result_store, *app);
  RawClient client(conn);
  const sgx::Measurement me = app->measurement();

  BatchRequest batch;
  batch.ops.emplace_back(make_put(nth_tag(0xC0, 1), me, /*ct_bytes=*/48));
  batch.ops.emplace_back(make_put(nth_tag(0xC0, 2), me, /*ct_bytes=*/4096));
  batch.ops.emplace_back(make_get(nth_tag(0xC0, 1), me));

  const Message reply = client.call(Message(batch));
  const auto* resp = std::get_if<BatchResponse>(&reply);
  ASSERT_NE(resp, nullptr);
  ASSERT_EQ(resp->replies.size(), 3u);
  EXPECT_EQ(std::get<PutResponse>(resp->replies[0]).status,
            PutStatus::kStored);
  EXPECT_EQ(std::get<PutResponse>(resp->replies[1]).status,
            PutStatus::kQuotaExceeded);
  EXPECT_TRUE(std::get<GetResponse>(resp->replies[2]).found);
}

TEST(BatchSessionTest, OversizedBatchRefusedSessionSurvives) {
  sgx::Platform platform(fast_model());
  store::ResultStore result_store(platform);
  auto app = platform.create_enclave("cap-app");
  auto conn = store::connect_app(result_store, *app);
  conn.session->set_max_batch_entries(2);
  RawClient client(conn);
  const sgx::Measurement me = app->measurement();

  BatchRequest batch;
  for (std::uint8_t i = 0; i < 3; ++i) {
    batch.ops.emplace_back(make_get(nth_tag(0xD0, i), me));
  }
  const Message refused = client.call(Message(batch));
  const auto* err = std::get_if<ErrorResponse>(&refused);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, ErrorCode::kBatchTooLarge);

  // The refusal is protocol-clean: the same channel serves the split batch.
  BatchRequest half;
  half.ops.emplace_back(make_get(nth_tag(0xD0, 0), me));
  half.ops.emplace_back(make_get(nth_tag(0xD0, 1), me));
  const Message served = client.call(Message(half));
  const auto* resp = std::get_if<BatchResponse>(&served);
  ASSERT_NE(resp, nullptr);
  EXPECT_EQ(resp->replies.size(), 2u);
}

// ------------------------------------------------------------ TCP server --

TEST(BatchTcpTest, LegacyV1ClientServedByNewServer) {
  sgx::Platform platform(fast_model());
  store::ResultStore result_store(platform);
  store::StoreTcpServer server(result_store, 0);

  auto app = platform.create_enclave("v1-app");
  net::FramedSocket sock = net::tcp_connect("127.0.0.1", server.port());
  const net::ChannelKeyExchange kx(*app);
  // A pre-batching client: it only ever sends single-op frames.
  sock.send_frame(net::encode_handshake(
      kx.hello(result_store.enclave().measurement())));
  const auto server_hello = net::decode_handshake(sock.recv_frame());
  auto key = kx.derive(server_hello, result_store.enclave().measurement());
  ASSERT_TRUE(key.has_value());
  net::SecureChannel channel(std::move(*key), /*is_initiator=*/true);
  const sgx::Measurement me = app->measurement();

  auto call = [&](const Message& m) {
    sock.send_frame(channel.wrap(serialize::encode_message(m)));
    const auto plain = channel.unwrap(sock.recv_frame());
    EXPECT_TRUE(plain.has_value());
    return serialize::decode_message(*plain);
  };

  const Message miss = call(Message(make_get(nth_tag(0xE0, 1), me)));
  EXPECT_FALSE(std::get<GetResponse>(miss).found);
  const Message stored = call(Message(make_put(nth_tag(0xE0, 1), me)));
  EXPECT_EQ(std::get<PutResponse>(stored).status, PutStatus::kStored);
  const Message hit = call(Message(make_get(nth_tag(0xE0, 1), me)));
  EXPECT_TRUE(std::get<GetResponse>(hit).found);
  EXPECT_EQ(server.connections_accepted(), 1u);
  EXPECT_EQ(server.session_errors(), 0u);
}

// TCP client that wraps frames itself, for pipelining / limit tests.
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

TEST(BatchTcpTest, PipelinedFramesAnswerInOrder) {
  sgx::Platform platform(fast_model());
  store::ResultStore result_store(platform);
  store::StoreTcpServer server(result_store, 0);
  auto app = platform.create_enclave("pipeline-app");
  RawTcpClient client(*app, result_store, server.port());
  const sgx::Measurement me = app->measurement();

  // Ship 8 frames back-to-back without reading: PUT n, then GET n. The
  // secure channel's strictly-increasing sequence numbers make any
  // reordering an unwrap failure, so 8 clean unwraps prove FIFO service.
  constexpr int kPairs = 4;
  for (std::uint8_t n = 0; n < kPairs; ++n) {
    client.send(Message(make_put(nth_tag(0xF0, n), me)));
    client.send(Message(make_get(nth_tag(0xF0, n), me)));
  }
  for (int n = 0; n < kPairs; ++n) {
    const Message put_reply = client.recv();
    EXPECT_EQ(std::get<PutResponse>(put_reply).status, PutStatus::kStored);
    const Message get_reply = client.recv();
    EXPECT_TRUE(std::get<GetResponse>(get_reply).found);
  }
}

TEST(BatchTcpTest, HostileFrameHeaderRefusedWithoutBuffering) {
  sgx::Platform platform(fast_model());
  store::ResultStore result_store(platform);
  store::StoreServerConfig config;
  config.max_frame_bytes = 1 << 20;
  store::StoreTcpServer server(result_store, 0, std::nullopt, config);
  auto app = platform.create_enclave("hostile-app");
  RawTcpClient client(*app, result_store, server.port());

  // Announce a 64 MB frame. The server must refuse it from the 4-byte
  // length prefix alone — the payload is never sent, so if the refusal
  // waited for the body this test would hang, and if the server reserved
  // the announced size a fleet of such clients could balloon its memory.
  const std::uint32_t huge = 64u * 1024 * 1024;
  const Bytes header = {
      static_cast<std::uint8_t>(huge & 0xFF),
      static_cast<std::uint8_t>((huge >> 8) & 0xFF),
      static_cast<std::uint8_t>((huge >> 16) & 0xFF),
      static_cast<std::uint8_t>((huge >> 24) & 0xFF)};
  ASSERT_EQ(::send(client.sock.fd(), header.data(), header.size(),
                   MSG_NOSIGNAL),
            static_cast<ssize_t>(header.size()));

  // The refusal is a typed wire error on the secure channel, then EOF.
  const auto refusal = client.sock.try_recv_frame();
  ASSERT_TRUE(refusal.has_value());
  const auto plain = client.channel->unwrap(*refusal);
  ASSERT_TRUE(plain.has_value());
  const Message m = serialize::decode_message(*plain);
  const auto* err = std::get_if<ErrorResponse>(&m);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, ErrorCode::kFrameTooLarge);
  EXPECT_FALSE(client.sock.try_recv_frame().has_value());
  EXPECT_EQ(server.oversized_frames(), 1u);

  // Only the hostile connection died; the server keeps serving.
  auto app2 = platform.create_enclave("polite-app");
  RawTcpClient polite(*app2, result_store, server.port());
  polite.send(Message(make_get(nth_tag(0xAB, 0), app2->measurement())));
  EXPECT_FALSE(std::get<GetResponse>(polite.recv()).found);
}

TEST(BatchTcpTest, BatchOverTcpMatchesPerOpResults) {
  sgx::Platform platform(fast_model());
  store::ResultStore result_store(platform);
  store::StoreTcpServer server(result_store, 0);
  auto app = platform.create_enclave("tcp-batch-app");
  RawTcpClient client(*app, result_store, server.port());
  const sgx::Measurement me = app->measurement();

  BatchRequest batch;
  constexpr std::uint8_t kOps = 16;
  for (std::uint8_t n = 0; n < kOps; ++n) {
    batch.ops.emplace_back(make_put(nth_tag(0xBA, n), me));
  }
  for (std::uint8_t n = 0; n < kOps; ++n) {
    batch.ops.emplace_back(make_get(nth_tag(0xBA, n), me));
  }
  client.send(Message(batch));
  const Message reply = client.recv();
  const auto* resp = std::get_if<BatchResponse>(&reply);
  ASSERT_NE(resp, nullptr);
  ASSERT_EQ(resp->replies.size(), 2u * kOps);
  for (std::size_t i = 0; i < kOps; ++i) {
    EXPECT_EQ(std::get<PutResponse>(resp->replies[i]).status,
              PutStatus::kStored);
    EXPECT_TRUE(std::get<GetResponse>(resp->replies[kOps + i]).found);
  }
}

// ---------------------------------------------------------- server loops --

std::size_t server_loops() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Live connections per event loop (slot i = loop i), read from the gauge the
/// server exports.
std::vector<std::int64_t> loop_connections() {
  std::vector<std::int64_t> per_loop;
  for (const auto& family : telemetry::Registry::global().collect()) {
    if (family.name != "speed_server_loop_connections") continue;
    for (const auto& sample : family.samples) {
      const std::size_t loop = std::stoul(sample.labels.at(0).value.str());
      if (per_loop.size() <= loop) per_loop.resize(loop + 1);
      per_loop[loop] = sample.value;
    }
  }
  return per_loop;
}

TEST(ServerLoopTest, NonReadingClientIsPausedNotBuffered) {
  sgx::Platform platform(fast_model());
  store::ResultStore result_store(platform);
  store::StoreTcpServer server(result_store, 0);
  auto app = platform.create_enclave("flood-app");
  const sgx::Measurement me = app->measurement();
  const Tag big = nth_tag(0x1B, 0);

  RawTcpClient flooder(*app, result_store, server.port());
  flooder.send(Message(make_put(big, me, /*ct_bytes=*/1 << 20)));
  ASSERT_EQ(std::get<PutResponse>(flooder.recv()).status, PutStatus::kStored);

  // 128 GETs for the ~1 MiB entry fit in one read; no reply is read yet.
  // Served without a bound, they would pile ~128 MiB of replies up in the
  // server.
  constexpr int kGets = 128;
  const std::uint64_t base = result_store.stats().get_requests;
  for (int i = 0; i < kGets; ++i) flooder.send(Message(make_get(big, me)));

  // Wait until the store stops seeing GETs: the server has paused the
  // connection. The kernel's socket buffers (send side up to 4 MiB) and one
  // mark's worth of unsent replies are all it may run ahead of the reader.
  std::uint64_t served = 0;
  for (int still = 0; still < 10;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const std::uint64_t now = result_store.stats().get_requests - base;
    still = now == served ? still + 1 : 0;
    served = now;
  }
  EXPECT_LT(served, 32u);

  // The paused connection holds nothing up: another client is served.
  auto app2 = platform.create_enclave("patient-app");
  RawTcpClient other(*app2, result_store, server.port());
  other.send(Message(make_get(nth_tag(0x1B, 1), app2->measurement())));
  EXPECT_FALSE(std::get<GetResponse>(other.recv()).found);

  // Reading resumes service: every reply arrives, in order (the channel's
  // sequence numbers check that), and each is a hit.
  for (int i = 0; i < kGets; ++i) {
    const Message reply = flooder.recv();
    const auto* get = std::get_if<GetResponse>(&reply);
    ASSERT_NE(get, nullptr) << "reply " << i;
    EXPECT_TRUE(get->found) << "reply " << i;
  }
  EXPECT_EQ(result_store.stats().get_requests - base, kGets + 1u);
  EXPECT_EQ(server.session_errors(), 0u);
}

TEST(ServerLoopTest, ConnectionsSpreadAcrossLoops) {
  sgx::Platform platform(fast_model());
  store::ResultStore result_store(platform);
  store::StoreTcpServer server(result_store, 0);
  auto app = platform.create_enclave("spread-app");
  const std::size_t loops = server_loops();
  const std::vector<std::int64_t> two_each(loops, 2);

  // A connection is placed before the server's hello goes out, so a
  // completed handshake is already counted on its loop.
  std::vector<std::unique_ptr<RawTcpClient>> clients;
  for (std::size_t i = 0; i < 2 * loops; ++i) {
    clients.push_back(
        std::make_unique<RawTcpClient>(*app, result_store, server.port()));
  }
  EXPECT_EQ(loop_connections(), two_each);

  // Closing one connection frees a place on its loop...
  clients.erase(clients.begin());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (;;) {
    const auto per_loop = loop_connections();
    if (std::count(per_loop.begin(), per_loop.end(), 1) == 1) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "closed connection still counted on its loop";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // ...which the next connection takes.
  clients.push_back(
      std::make_unique<RawTcpClient>(*app, result_store, server.port()));
  EXPECT_EQ(loop_connections(), two_each);
}

TEST(ServerLoopTest, PipelinedConnectionsShareLoopsInOrder) {
  // Three pipelining connections per loop, each sending 8 PUT/GET pairs
  // before it reads anything. A loop interleaves its connections' frames;
  // each connection's replies must still come back in order, and any
  // reordering fails the channel's sequence check in recv().
  sgx::Platform platform(fast_model());
  store::ResultStore result_store(platform);
  store::StoreTcpServer server(result_store, 0);
  const std::size_t clients = 3 * server_loops();
  constexpr std::uint8_t kPairs = 8;

  std::atomic<std::size_t> clean{0};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        auto app = platform.create_enclave("pipe-" + std::to_string(c));
        const sgx::Measurement me = app->measurement();
        const auto tag = [c](std::uint8_t n) {
          Tag t = nth_tag(0x9E, n);
          t[1] = static_cast<std::uint8_t>(c);
          t[2] = static_cast<std::uint8_t>(c >> 8);
          return t;
        };
        RawTcpClient client(*app, result_store, server.port());
        for (std::uint8_t n = 0; n < kPairs; ++n) {
          client.send(Message(make_put(tag(n), me)));
          client.send(Message(make_get(tag(n), me)));
        }
        for (std::uint8_t n = 0; n < kPairs; ++n) {
          const Message put_reply = client.recv();
          const auto* put = std::get_if<PutResponse>(&put_reply);
          const Message get_reply = client.recv();
          const auto* get = std::get_if<GetResponse>(&get_reply);
          if (put == nullptr || put->status != PutStatus::kStored ||
              get == nullptr || !get->found) {
            ADD_FAILURE() << "client " << c << " pair " << int{n};
            return;
          }
        }
        clean.fetch_add(1);
      } catch (const std::exception& e) {
        ADD_FAILURE() << "client " << c << ": " << e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(clean.load(), clients);
  EXPECT_EQ(server.connections_accepted(), clients);
  EXPECT_EQ(server.session_errors(), 0u);
}

// --------------------------------------------------------- micro-batcher --

// Forwards to the wrapped transport after a sleep, pinning each frame larger
// than `threshold` "on the wire" long enough for the other test threads to
// reach the batcher, and records the largest frame sent. On a single-core
// runner the threads otherwise run strictly one after another, each leader
// ships alone, and there is nothing to coalesce.
struct SlowTransport : net::Transport {
  explicit SlowTransport(
      std::unique_ptr<net::Transport> wrapped,
      std::chrono::milliseconds hold = std::chrono::milliseconds(5),
      std::size_t threshold = 0)
      : inner(std::move(wrapped)), hold(hold), threshold(threshold) {}
  Bytes round_trip(ByteView request) override {
    std::size_t seen = largest.load();
    while (request.size() > seen &&
           !largest.compare_exchange_weak(seen, request.size())) {
    }
    if (request.size() > threshold) std::this_thread::sleep_for(hold);
    return inner->round_trip(request);
  }
  std::unique_ptr<net::Transport> inner;
  const std::chrono::milliseconds hold;
  const std::size_t threshold;
  std::atomic<std::size_t> largest{0};
};

TEST(MicroBatchTest, ConcurrentGetsCoalesceIntoOneFrame) {
  sgx::Platform platform(fast_model());
  store::ResultStore result_store(platform);
  auto app = platform.create_enclave("mb-app");
  auto conn = store::connect_app(result_store, *app);
  auto* loopback = static_cast<net::LoopbackTransport*>(conn.transport.get());
  conn.transport = std::make_unique<SlowTransport>(std::move(conn.transport));

  runtime::RuntimeConfig config;
  config.local_cache = false;  // every repeat call must hit the store
  config.batching.enabled = true;
  runtime::DedupRuntime rt(*app, std::move(conn.session_key),
                           std::move(conn.transport), config);
  rt.libraries().register_library("lib", "1", as_bytes("code"));
  runtime::Deduplicable<Bytes(const Bytes&)> f(
      rt, {"lib", "1", "f"}, [](const Bytes& in) { return in; });

  constexpr int kThreads = 4;
  auto run_round = [&] {
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        const Bytes input = {static_cast<std::uint8_t>(i)};
        EXPECT_EQ(f(input), input);
      });
    }
    for (auto& t : threads) t.join();
  };

  run_round();  // 4 misses; the GETs share frames, the PUTs drain batched
  ASSERT_TRUE(rt.flush());
  const std::uint64_t after_misses = loopback->round_trips();
  // Unbatched this round costs 8 round trips (4 GETs + 4 PUTs); batching
  // must provably collapse some of them.
  EXPECT_LT(after_misses, 8u);

  run_round();  // 4 store hits, again through the batcher
  const auto stats = rt.stats();
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.hits, 4u);
  EXPECT_EQ(stats.puts_sent, 4u);
  EXPECT_EQ(stats.degraded_calls, 0u);
  EXPECT_LT(loopback->round_trips() - after_misses, 4u);
}

// Holds the first round trip after `armed` is set until the test clears
// `held`, so the test knows a frame is in flight while other callers arrive.
struct GateTransport : net::Transport {
  explicit GateTransport(std::unique_ptr<net::Transport> wrapped)
      : inner(std::move(wrapped)) {}
  Bytes round_trip(ByteView request) override {
    if (armed.exchange(false)) {
      held = true;
      while (held) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return inner->round_trip(request);
  }
  std::atomic<bool> armed{false};
  std::atomic<bool> held{false};
  std::unique_ptr<net::Transport> inner;
};

/// The histogram family `name` summed over every live runtime or store.
telemetry::HistogramSnapshot merged_histogram(const std::string& name) {
  telemetry::HistogramSnapshot merged;
  for (const auto& family : telemetry::Registry::global().collect()) {
    if (family.name != name) continue;
    for (const auto& sample : family.samples) merged.merge(sample.hist);
  }
  return merged;
}

TEST(MicroBatchTest, CallersArrivingDuringARoundTripShareTheNextFrame) {
  sgx::Platform platform(fast_model());
  store::ResultStore result_store(platform);
  auto app = platform.create_enclave("gc-app");
  constexpr int kCallers = 8;
  const auto compute = [](const Bytes& in) { return concat(in, in); };
  const auto input_for = [](int i) {
    return Bytes{static_cast<std::uint8_t>(i)};
  };
  {
    // Seed every caller's entry unbatched, so the measured round is all
    // store hits and ships no PUT.
    auto conn = store::connect_app(result_store, *app);
    runtime::RuntimeConfig config;
    config.async_put = false;
    runtime::DedupRuntime seeder(*app, std::move(conn.session_key),
                                 std::move(conn.transport), config);
    seeder.libraries().register_library("lib", "1", as_bytes("code"));
    runtime::Deduplicable<Bytes(const Bytes&)> f(seeder, {"lib", "1", "f"},
                                                 compute);
    for (int i = 0; i < kCallers; ++i) (void)f(input_for(i));
  }

  auto conn = store::connect_app(result_store, *app);
  auto* loopback = static_cast<net::LoopbackTransport*>(conn.transport.get());
  auto gated = std::make_unique<GateTransport>(std::move(conn.transport));
  GateTransport* gate = gated.get();
  runtime::RuntimeConfig config;
  config.local_cache = false;
  config.batching.enabled = true;
  runtime::DedupRuntime rt(*app, std::move(conn.session_key), std::move(gated),
                           config);
  rt.libraries().register_library("lib", "1", as_bytes("code"));
  runtime::Deduplicable<Bytes(const Bytes&)> f(rt, {"lib", "1", "f"}, compute);
  const auto call = [&](int i) {
    EXPECT_EQ(f(input_for(i)), compute(input_for(i)));
  };

  const std::uint64_t trips_before = loopback->round_trips();
  gate->armed = true;
  std::vector<std::thread> threads;
  threads.emplace_back(call, 0);  // leads the first frame, which is held
  while (!gate->held) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  for (int i = 1; i < kCallers; ++i) threads.emplace_back(call, i);
  while (rt.stats().calls < kCallers) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Each late caller has entered execute(); give it time to derive its tag
  // and queue its GET behind the held frame.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  gate->held = false;
  for (auto& t : threads) t.join();

  // No timer: the held frame carried the first caller's GET alone, and the
  // frame its reply released carried all seven that queued meanwhile.
  EXPECT_EQ(loopback->round_trips() - trips_before, 2u);
  EXPECT_EQ(rt.stats().hits, static_cast<std::uint64_t>(kCallers));
  const telemetry::HistogramSnapshot frames = merged_histogram("speed_runtime_batch_ops");
  EXPECT_EQ(frames.count, 2u);
  EXPECT_EQ(frames.sum, static_cast<std::uint64_t>(kCallers));
  EXPECT_EQ(frames.max, static_cast<std::uint64_t>(kCallers - 1));
}

TEST(MicroBatchTest, RunPastTheOpCapShipsAsFramesTheSessionAccepts) {
  SPEED_SEEDED_RNG(rng, 0xBA7C4C01ull);
  sgx::Platform platform(fast_model());
  store::ResultStore result_store(platform);
  auto app = platform.create_enclave("cap-app");
  auto conn = store::connect_app(result_store, *app);
  conn.session->set_max_batch_entries(serialize::kMaxBatchOps);
  auto* loopback = static_cast<net::LoopbackTransport*>(conn.transport.get());
  runtime::RuntimeConfig config;
  config.batching.enabled = true;
  runtime::DedupRuntime rt(*app, std::move(conn.session_key),
                           std::move(conn.transport), config);
  rt.libraries().register_library("stream-lib", "1", as_bytes("code"));

  // Fixed 64-byte chunks, and one window holding every chunk: each window
  // run is kMaxBatchOps + 1 ops, one more than the session accepts.
  runtime::StreamConfig stream_config;
  stream_config.chunker = {64, 64, 64};
  stream_config.window = serialize::kMaxBatchOps + 1;
  runtime::StreamSession s(rt, rt.resolve({"stream-lib", "1", "put(bytes)"}),
                           stream_config);
  const Bytes data = rng.bytes((serialize::kMaxBatchOps + 1) * 64);

  const std::uint64_t trips_before = loopback->round_trips();
  const runtime::StreamHandle handle = s.put(data);
  // The stream-tag GET, the chunk GETs and the chunk PUTs in two frames
  // each (kMaxBatchOps ops, then one), and the manifest PUT.
  EXPECT_EQ(loopback->round_trips() - trips_before, 6u);
  const auto stats = rt.stats();
  EXPECT_EQ(stats.stream_chunks, serialize::kMaxBatchOps + 1);
  EXPECT_EQ(stats.stream_inline_chunks, 0u);  // no op was refused
  EXPECT_EQ(stats.stream_degraded, 0u);
  EXPECT_EQ(merged_histogram("speed_runtime_batch_ops").max, serialize::kMaxBatchOps);
  EXPECT_EQ(s.get(handle), data);
}

TEST(MicroBatchTest, QueuedLargePutsShipInFramesTheServerAdmits) {
  // Eight concurrent 1 MiB misses queue eight 1 MiB PUTs while the first
  // one's frame is held on the wire. The worker then drains the others a
  // frame's worth at a time, and they must reach a default server in frames
  // under its max_frame_bytes: one oversized frame would be refused and
  // close the connection, losing every PUT in it.
  sgx::Platform platform(fast_model());
  store::ResultStore result_store(platform);
  store::StoreTcpServer server(result_store, 0);
  auto app = platform.create_enclave("large-put-app");
  auto conn = store::connect_tcp_app(
      *app, result_store.enclave().measurement(), "127.0.0.1", server.port());
  auto held = std::make_unique<SlowTransport>(
      std::move(conn.transport), std::chrono::milliseconds(50), 512 * 1024);
  SlowTransport* wire = held.get();
  runtime::RuntimeConfig config;
  config.local_cache = false;  // the second round must reach the store
  config.batching.enabled = true;
  runtime::DedupRuntime rt(*app, std::move(conn.session_key), std::move(held),
                           config);
  rt.libraries().register_library("lib", "1", as_bytes("code"));
  runtime::Deduplicable<Bytes(const Bytes&)> f(
      rt, {"lib", "1", "f"},
      [](const Bytes& in) { return Bytes(1024 * 1024, in.front()); });

  constexpr int kCallers = 8;
  const auto run_round = [&] {
    std::vector<std::thread> threads;
    for (int i = 0; i < kCallers; ++i) {
      threads.emplace_back([&, i] {
        const Bytes input = {static_cast<std::uint8_t>(i)};
        EXPECT_EQ(f(input), Bytes(1024 * 1024, input.front()));
      });
    }
    for (auto& t : threads) t.join();
  };

  run_round();
  ASSERT_TRUE(rt.flush(30'000));
  EXPECT_EQ(server.oversized_frames(), 0u);
  EXPECT_LE(wire->largest.load(), server.config().max_frame_bytes);
  EXPECT_EQ(rt.stats().puts_sent, static_cast<std::uint64_t>(kCallers));
  EXPECT_EQ(rt.stats().puts_rejected, 0u);

  run_round();  // every result was stored, so every call is a store hit
  EXPECT_EQ(rt.stats().hits, static_cast<std::uint64_t>(kCallers));
  EXPECT_EQ(rt.stats().degraded_calls, 0u);
}

TEST(MicroBatchTest, SequentialCallsDegradeToPlainMessages) {
  // One-op batches are sent as plain v1 messages, so a batching client
  // against a legacy-capped session (max one op) still works sequentially.
  sgx::Platform platform(fast_model());
  store::ResultStore result_store(platform);
  auto app = platform.create_enclave("seq-app");
  auto conn = store::connect_app(result_store, *app);
  conn.session->set_max_batch_entries(1);

  runtime::RuntimeConfig config;
  config.batching.enabled = true;
  config.async_put = false;  // sequential PUTs: exactly one op at a time
  runtime::DedupRuntime rt(*app, std::move(conn.session_key),
                           std::move(conn.transport), config);
  rt.libraries().register_library("lib", "1", as_bytes("code"));
  int executions = 0;
  runtime::Deduplicable<Bytes(const Bytes&)> f(
      rt, {"lib", "1", "f"}, [&](const Bytes& in) {
        ++executions;
        return in;
      });

  for (int round = 0; round < 2; ++round) {
    for (std::uint8_t i = 0; i < 3; ++i) {
      const Bytes input = {i};
      EXPECT_EQ(f(input), input);
    }
  }
  EXPECT_EQ(executions, 3);
  EXPECT_EQ(rt.stats().degraded_calls, 0u);
}

TEST(MicroBatchTest, UnbatchedStreamPutOnAClusterSendsNoBatchRequest) {
  // With batching off every frame carries one op, second legs included: a
  // stream put's windows over a replicated cluster reach the stores as
  // plain messages, never as a BatchRequest.
  SPEED_SEEDED_RNG(rng, 0x0B0A7C4Eull);
  sgx::Platform platform(fast_model());
  store::InprocClusterConfig cc;
  cc.nodes = 3;
  cc.cluster.replicas = 1;
  store::InprocCluster cluster(platform, cc);
  auto app = platform.create_enclave("unbatched-stream-app");
  runtime::DedupRuntime rt(*app, cluster.connect(*app),
                           runtime::RuntimeConfig{});
  rt.libraries().register_library("stream-lib", "1", as_bytes("code"));
  runtime::StreamConfig stream_config;
  stream_config.chunker = {64, 64, 64};  // a 64-chunk window
  runtime::StreamSession s(rt, rt.resolve({"stream-lib", "1", "put(bytes)"}),
                           stream_config);
  const Bytes data = rng.bytes(64 * 64);

  const runtime::StreamHandle handle = s.put(data);
  EXPECT_EQ(s.get(handle), data);
  EXPECT_EQ(rt.stats().stream_chunks, 64u);
  EXPECT_EQ(rt.stats().stream_inline_chunks, 0u);
  EXPECT_EQ(merged_histogram("speed_runtime_batch_ops").max, 1u);
  EXPECT_EQ(merged_histogram("speed_store_batch_ops").count, 0u);
}

// ---------------------------------------------------------- cluster batch --

TEST(ClusterBatchTest, BatchRoutesAcrossNodes) {
  sgx::Platform platform(fast_model());
  store::InprocClusterConfig cc;
  cc.nodes = 3;
  cc.cluster.replicas = 0;  // quorum 1: every first leg settles its op
  store::InprocCluster cluster(platform, cc);
  auto app = platform.create_enclave("cb-app");
  auto transport = cluster.connect(*app);
  const sgx::Measurement me = app->measurement();

  // Real tags are SHA-256 outputs; model that with seeded-random tags so
  // the rendezvous ring actually spreads them across nodes.
  SPEED_SEEDED_RNG(rng, 0xBA7C4B01ull);
  constexpr std::uint8_t kTags = 12;
  std::vector<Tag> tags;
  for (std::uint8_t n = 0; n < kTags; ++n) {
    Tag t;
    for (auto& b : t) b = static_cast<std::uint8_t>(rng());
    tags.push_back(t);
  }

  std::vector<BatchOp> ops;
  for (const Tag& t : tags) ops.emplace_back(make_put(t, me));
  for (const Tag& t : tags) ops.emplace_back(make_get(t, me));
  ops.emplace_back(make_get(nth_tag(0x5D, 0), me));  // never stored

  const std::vector<BatchReply> replies =
      app->ecall([&] { return transport->route(std::move(ops)); });
  ASSERT_EQ(replies.size(), 2u * kTags + 1);
  for (std::size_t i = 0; i < kTags; ++i) {
    EXPECT_EQ(std::get<PutResponse>(replies[i]).status, PutStatus::kStored);
    EXPECT_TRUE(std::get<GetResponse>(replies[kTags + i]).found);
  }
  EXPECT_FALSE(std::get<GetResponse>(replies[2 * kTags]).found);
  // Tags spread across nodes: more than one store holds entries.
  int populated = 0;
  for (std::size_t n = 0; n < cc.nodes; ++n) {
    if (cluster.store(n).stats().entries > 0) ++populated;
  }
  EXPECT_GT(populated, 1);
}

TEST(ClusterBatchTest, ReplicatedPutsKeepQuorumAckSemantics) {
  sgx::Platform platform(fast_model());
  store::InprocClusterConfig cc;
  cc.nodes = 3;
  cc.cluster.replicas = 1;  // quorum 2: batched PUTs and misses walk on
  store::InprocCluster cluster(platform, cc);
  auto app = platform.create_enclave("cbq-app");
  auto transport = cluster.connect(*app);
  const sgx::Measurement me = app->measurement();

  std::vector<BatchOp> ops;
  constexpr std::uint8_t kTags = 8;
  for (std::uint8_t n = 0; n < kTags; ++n) {
    ops.emplace_back(make_put(nth_tag(0x6C, n), me));
  }
  for (std::uint8_t n = 0; n < kTags; ++n) {
    ops.emplace_back(make_get(nth_tag(0x6D, n), me));  // never stored
  }
  const std::vector<BatchReply> replies =
      app->ecall([&] { return transport->route(std::move(ops)); });
  ASSERT_EQ(replies.size(), 2u * kTags);
  for (std::size_t i = 0; i < kTags; ++i) {
    EXPECT_EQ(std::get<PutResponse>(replies[i]).status, PutStatus::kStored);
    EXPECT_FALSE(std::get<GetResponse>(replies[kTags + i]).found);
  }
  // Each op's legs go to distinct nodes, so no op asks its primary twice:
  // a PUT reaches its two owners once each, and a miss asks two nodes.
  std::uint64_t store_puts = 0;
  std::uint64_t store_gets = 0;
  std::uint64_t duplicate_puts = 0;
  for (std::size_t n = 0; n < cc.nodes; ++n) {
    const auto st = cluster.store(n).stats();
    store_puts += st.put_requests;
    store_gets += st.get_requests;
    duplicate_puts += st.duplicate_puts;
  }
  EXPECT_EQ(store_puts, 2u * kTags);
  EXPECT_EQ(duplicate_puts, 0u);
  EXPECT_EQ(store_gets, 2u * kTags);
  // An acked batched PUT carries the same guarantee as an unbatched one:
  // a full quorum of owners holds the entry.
  for (std::uint8_t n = 0; n < kTags; ++n) {
    const Tag tag = nth_tag(0x6C, n);
    auto order = transport->preference_order(tag);
    for (std::size_t i = 0; i < 2; ++i) {
      GetRequest g = make_get(tag, me);
      const Message m = serialize::decode_message(
          cluster.store(order[i]).handle(
              serialize::encode_message(Message(g))));
      EXPECT_TRUE(std::get<GetResponse>(m).found)
          << "owner " << order[i] << " missing acked entry " << int(n);
    }
  }
}

TEST(ClusterBatchTest, SecondLegsShareOneFramePerNode) {
  // Quorum 2: every new PUT and every miss takes a second leg after its
  // primary's. The ops walk together in rounds, one frame per node per
  // round, so however many ops walk on, the routed list costs at most two
  // store ECALLs per node.
  SPEED_SEEDED_RNG(rng, 0x5EC0D1E6ull);
  sgx::Platform platform(fast_model());
  store::InprocClusterConfig cc;
  cc.nodes = 3;
  cc.cluster.replicas = 1;
  store::InprocCluster cluster(platform, cc);
  auto app = platform.create_enclave("legs-app");
  auto transport = cluster.connect(*app);
  const sgx::Measurement me = app->measurement();
  const auto random_tag = [&rng] {
    Tag t;
    for (auto& b : t) b = static_cast<std::uint8_t>(rng());
    return t;
  };
  const auto store_ecalls = [&] {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < cc.nodes; ++i) {
      n += cluster.store(i).enclave().ecall_count();
    }
    return n;
  };

  constexpr std::size_t kOps = 8;
  std::vector<BatchOp> ops;
  for (std::size_t n = 0; n < kOps; ++n) {
    ops.emplace_back(make_put(random_tag(), me));
  }
  for (std::size_t n = 0; n < kOps; ++n) {
    ops.emplace_back(make_get(random_tag(), me));  // never stored
  }
  const std::uint64_t before = store_ecalls();
  const std::vector<BatchReply> replies =
      app->ecall([&] { return transport->route(std::move(ops)); });
  const std::uint64_t ecalls = store_ecalls() - before;

  ASSERT_EQ(replies.size(), 2 * kOps);
  for (std::size_t i = 0; i < kOps; ++i) {
    EXPECT_EQ(std::get<PutResponse>(replies[i]).status, PutStatus::kStored);
    EXPECT_FALSE(std::get<GetResponse>(replies[kOps + i]).found);
  }
  EXPECT_LE(ecalls, 2 * cc.nodes);
}

// -------------------------------------------------------------- listener --

TEST(ListenerTest, TryAcceptReturnsEmptyWithoutPendingConnection) {
  net::TcpListener listener(0);
  listener.set_nonblocking();
  EXPECT_FALSE(listener.try_accept().has_value());
  net::FramedSocket client = net::tcp_connect("127.0.0.1", listener.port());
  // The connection lands asynchronously; poll for it.
  std::optional<net::FramedSocket> accepted;
  for (int i = 0; i < 200 && !accepted.has_value(); ++i) {
    accepted = listener.try_accept();
    if (!accepted.has_value()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_TRUE(accepted.has_value());
  client.send_frame(as_bytes("ping"));
  EXPECT_EQ(accepted->recv_frame(), to_bytes("ping"));
}

TEST(ListenerTest, AcceptAfterCloseThrowsInsteadOfSpinning) {
  net::TcpListener listener(0);
  listener.close();
  EXPECT_THROW(listener.accept(), net::TcpError);
}

}  // namespace
}  // namespace speed
