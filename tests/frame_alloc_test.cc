// Allocation-count gate for the store frame path (docs/PROTOCOL.md §9).
//
// A marked call that moves a large result across the enclave boundary should
// allocate only the buffers that must outlive its frame. This binary replaces
// the global operator new/delete to count every heap allocation of 64 KiB or
// more ("payload-sized" at the 256 KiB results below) anywhere in the
// process: both runtimes, their links, and the store server's event loops.
// That replacement is why it is its own executable.
//
// What a call may still allocate at that size:
//   miss + synchronous PUT: the app's own compute() result, the local-cache
//     copy, the RCE envelope [res], the store's decode of [res], and the
//     stored blob;
//   store hit: the store's verified copy of the blob, the transport's
//     receive buffer, the client's decode of [res], the recovered result,
//     and the local-cache copy.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>

#include "runtime/speed.h"
#include "store/tcp_server.h"

namespace {

constexpr std::size_t kPayloadSized = 64 * 1024;

std::atomic<std::uint64_t> g_payload_allocs{0};
std::atomic<std::size_t> g_largest_alloc{0};

void* counted_alloc(std::size_t n) {
  if (n >= kPayloadSized) {
    g_payload_allocs.fetch_add(1, std::memory_order_relaxed);
    std::size_t seen = g_largest_alloc.load(std::memory_order_relaxed);
    while (n > seen && !g_largest_alloc.compare_exchange_weak(
                           seen, n, std::memory_order_relaxed)) {
    }
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

// The other forms (nothrow, sized delete) forward to these by default.
void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace speed {
namespace {

constexpr std::size_t kResultBytes = 256 * 1024;
constexpr std::uint32_t kWarmupCalls = 5;
constexpr std::uint32_t kMeasuredCalls = 50;
/// Payload-sized allocations allowed per miss + PUT and per store hit.
constexpr double kMaxPerOp = 5.0;

sgx::CostModel free_transitions() {
  sgx::CostModel m;
  m.ecall_ns = 0;
  m.ocall_ns = 0;
  return m;
}

Bytes input_for(std::uint32_t i) {
  return to_bytes("frame-alloc input " + std::to_string(i));
}

std::uint8_t result_byte(std::uint32_t i, std::size_t j) {
  return static_cast<std::uint8_t>(i * 131 + j * 7 + (j >> 11));
}

Bytes result_for(std::uint32_t i) {
  Bytes out(kResultBytes);
  for (std::size_t j = 0; j < out.size(); ++j) out[j] = result_byte(i, j);
  return out;
}

/// Compares without allocating, so a check adds nothing to the count.
bool is_result_for(const Bytes& got, std::uint32_t i) {
  if (got.size() != kResultBytes) return false;
  for (std::size_t j = 0; j < got.size(); ++j) {
    if (got[j] != result_byte(i, j)) return false;
  }
  return true;
}

TEST(FrameAllocTest, LargeMissAndHitAllocateAtMostFivePayloadBuffers) {
  sgx::Platform platform(free_transitions());
  store::ResultStore result_store(platform);
  store::StoreTcpServer server(result_store, 0);

  runtime::RuntimeConfig config;
  config.async_put = false;
  const auto make_runtime = [&](sgx::Enclave& app) {
    auto conn = store::connect_tcp_app(
        app, result_store.enclave().measurement(), "127.0.0.1", server.port());
    auto rt = std::make_unique<runtime::DedupRuntime>(
        app, std::move(conn.session_key), std::move(conn.transport), config);
    rt->libraries().register_library("lib", "1", as_bytes("code"));
    return rt;
  };
  auto app_a = platform.create_enclave("frame-alloc-a");
  auto app_b = platform.create_enclave("frame-alloc-b");
  auto rt_a = make_runtime(*app_a);
  auto rt_b = make_runtime(*app_b);
  const mle::FunctionIdentity fn_a = rt_a->resolve({"lib", "1", "big"});
  const mle::FunctionIdentity fn_b = rt_b->resolve({"lib", "1", "big"});

  const auto miss = [&](std::uint32_t i) {
    const auto out =
        rt_a->execute(fn_a, input_for(i), [i] { return result_for(i); });
    EXPECT_FALSE(out.deduplicated) << "input " << i;
    EXPECT_TRUE(is_result_for(out.result, i)) << "input " << i;
  };
  const auto hit = [&](std::uint32_t i) {
    const auto out = rt_b->execute(fn_b, input_for(i), [] {
      ADD_FAILURE() << "a store hit must not compute";
      return Bytes{};
    });
    EXPECT_TRUE(out.deduplicated) << "input " << i;
    EXPECT_TRUE(is_result_for(out.result, i)) << "input " << i;
  };

  // Warm-up: every buffer the links, sessions and connections keep reaches
  // its high-water mark.
  for (std::uint32_t i = 0; i < kWarmupCalls; ++i) miss(i);
  for (std::uint32_t i = 0; i < kWarmupCalls; ++i) hit(i);

  const std::uint32_t first = kWarmupCalls;
  const std::uint32_t end = kWarmupCalls + kMeasuredCalls;
  std::uint64_t before = g_payload_allocs.load();
  for (std::uint32_t i = first; i < end; ++i) miss(i);
  const double per_miss =
      static_cast<double>(g_payload_allocs.load() - before) / kMeasuredCalls;

  before = g_payload_allocs.load();
  for (std::uint32_t i = first; i < end; ++i) hit(i);
  const double per_hit =
      static_cast<double>(g_payload_allocs.load() - before) / kMeasuredCalls;

  std::printf("payload-sized allocations: %.2f per miss+PUT, %.2f per hit\n",
              per_miss, per_hit);
  EXPECT_LE(per_miss, kMaxPerOp);
  EXPECT_LE(per_hit, kMaxPerOp);

  const runtime::DedupRuntime::Stats a = rt_a->stats();
  const runtime::DedupRuntime::Stats b = rt_b->stats();
  EXPECT_EQ(a.misses, end);
  EXPECT_EQ(a.puts_sent, end);
  EXPECT_EQ(a.puts_rejected, 0u);
  EXPECT_EQ(b.hits, end);
}

TEST(FrameAllocTest, HostileLengthIsNotAllocatedUpFront) {
  // Whoever controls the bytes the client reads announces a 200 MiB frame,
  // sends 1 KiB of it and hangs up.
  net::TcpListener listener(0);
  std::thread host([&] {
    net::FramedSocket peer = listener.accept();
    const std::uint32_t announced = 200u * 1024 * 1024;
    std::uint8_t bytes[4 + 1024] = {};
    for (int k = 0; k < 4; ++k) {
      bytes[k] = static_cast<std::uint8_t>(announced >> (8 * k));
    }
    ::send(peer.fd(), bytes, sizeof(bytes), MSG_NOSIGNAL);
  });
  net::FramedSocket client = net::tcp_connect("127.0.0.1", listener.port());
  g_largest_alloc.store(0);
  EXPECT_THROW(client.recv_frame(), net::TcpError);
  host.join();
  EXPECT_LE(g_largest_alloc.load(), std::size_t{4} * 1024 * 1024 + 64 * 1024);
}

}  // namespace
}  // namespace speed
