// Reconnect concurrency tests.
//
// A ClusterTransport node's StoreLink is driven by many application threads
// at once, so a re-dial racing round trips across a store outage must be
// data-race free (this suite is part of the TSan chaos job) and must admit
// exactly one coherent outcome: once the store is back, one dial restores
// the connection and every round trip works again. The link's strand makes
// that deterministic: callers that find the connection dropped queue on the
// strand, the first one re-dials, and the rest use its connection. When to
// try a node at all is the cluster walk's node health
// (fault_injection_test.cc).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "net/store_link.h"
#include "test_seed.h"

namespace speed {
namespace {

using net::Connection;
using net::StoreLink;

/// A store behind a shared up/down switch. Each dial (refused while down)
/// opens a connection under a fresh key, whose transport answers heartbeats
/// while the store is up and throws while it is down.
class SwitchedStore {
 public:
  Connection dial() {
    if (!up.load(std::memory_order_acquire)) {
      throw net::StoreUnavailableError("dial refused");
    }
    const int n = dials.fetch_add(1, std::memory_order_relaxed);
    const Bytes key(32, static_cast<std::uint8_t>(0x5a + n));
    return {std::make_unique<Wire>(up, key), secret::Buffer::absorb(Bytes(key))};
  }
  net::DialFn dialer() {
    return [this] { return dial(); };
  }

  std::atomic<bool> up{true};
  std::atomic<int> dials{0};

 private:
  class Wire : public net::Transport {
   public:
    Wire(const std::atomic<bool>& up, const Bytes& key)
        : up_(up), channel_(key, /*is_initiator=*/false) {}

    // Called only under the link's strand, one frame at a time.
    Bytes round_trip(ByteView frame) override {
      if (!up_.load(std::memory_order_acquire)) {
        throw net::StoreUnavailableError("switched off");
      }
      const auto plain = channel_.unwrap(frame);
      if (!plain.has_value()) throw ProtocolError("switched store: bad frame");
      const auto request = serialize::decode_message(*plain);
      const auto& beat = std::get<serialize::HeartbeatRequest>(request);
      return channel_.wrap(serialize::encode_message(
          serialize::HeartbeatResponse{beat.nonce}));
    }

   private:
    const std::atomic<bool>& up_;
    net::SecureChannel channel_;
  };
};

sgx::CostModel free_transitions() {
  sgx::CostModel m;
  m.ecall_ns = 0;
  m.ocall_ns = 0;
  return m;
}

/// One StoreLink to a SwitchedStore, driven from inside one app enclave.
struct Rig {
  Rig()
      : platform(free_transitions()),
        enclave(platform.create_enclave("race-app")),
        link(*enclave, store.dial(), store.dialer()) {}

  /// One heartbeat from inside the enclave; true when it was echoed.
  bool beat(std::uint64_t nonce) {
    const serialize::Message reply = enclave->ecall(
        [&] { return link.round_trip(serialize::HeartbeatRequest{nonce}); });
    return std::get<serialize::HeartbeatResponse>(reply).nonce == nonce;
  }

  SwitchedStore store;
  sgx::Platform platform;
  std::unique_ptr<sgx::Enclave> enclave;
  StoreLink link;
};

TEST(ResilientRaceTest, ConcurrentRecoverRacesHalfOpenSafely) {
  SPEED_SEEDED_RNG(rng, 0x4ACE'0001ull);
  Rig rig;
  ASSERT_TRUE(rig.beat(1));

  // Kill the connection: the first call fails on it and drops it, and later
  // calls fail on a refused dial.
  rig.store.up.store(false);
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_THROW(rig.beat(2 + i), net::StoreUnavailableError);
  }
  EXPECT_EQ(rig.store.dials.load(), 1) << "refused dials open nothing";
  EXPECT_EQ(rig.link.stats().reconnect_failures, 2u);

  // Store comes back; 8 threads race round trips over the dropped link.
  // The strand admits one dial: the first caller re-dials, every other
  // caller uses its connection, and every call is served (and TSan sees no
  // race).
  rig.store.up.store(true);
  std::vector<std::uint64_t> delays;
  for (int t = 0; t < 8; ++t) delays.push_back(rng() % 4);
  std::atomic<int> served{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      std::this_thread::sleep_for(std::chrono::milliseconds(delays[t]));
      for (int i = 0; i < 50; ++i) {
        if (rig.beat(static_cast<std::uint64_t>(1000 * t + i))) {
          served.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(served.load(), 8 * 50);
  EXPECT_EQ(rig.store.dials.load(), 2) << "exactly one re-dial";
  EXPECT_EQ(rig.link.stats().reconnects, 1u);
}

TEST(ResilientRaceTest, FlappingStoreUnderConcurrencyStaysCoherent) {
  SPEED_SEEDED_RNG(rng, 0x4ACE'0002ull);
  Rig rig;

  // Record one failure deterministically before the chaos starts: whether
  // any worker op lands inside a down window is scheduler-dependent (under
  // parallel ctest the chaos thread can be starved entirely), so the
  // failures>0 assertion below must not depend on it. The failure dropped
  // the connection, so the first call served after it re-dialed.
  std::atomic<int> failures{0};
  rig.store.up.store(false);
  EXPECT_THROW(rig.beat(1), net::StoreUnavailableError);
  failures.fetch_add(1);
  rig.store.up.store(true);

  // A chaos thread flaps the store on a seeded schedule while 8 workers
  // drive the one link. Nothing may crash, deadlock, or race; when the dust
  // settles with the store up, service must be restored.
  std::atomic<bool> stop{false};
  std::vector<std::uint64_t> flips;
  for (int i = 0; i < 40; ++i) flips.push_back(1 + rng() % 3);
  std::thread chaos([&] {
    for (const std::uint64_t ms : flips) {
      rig.store.up.store(!rig.store.up.load());
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
      if (stop.load()) break;
    }
    rig.store.up.store(true);
  });
  std::vector<std::thread> workers;
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        try {
          EXPECT_TRUE(rig.beat(static_cast<std::uint64_t>(1000 * t + i)));
        } catch (const net::StoreUnavailableError&) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : workers) th.join();
  stop.store(true);
  chaos.join();

  // The store is up for good now: the next call re-dials if the link has no
  // connection, and is served.
  EXPECT_TRUE(rig.beat(2));
  EXPECT_GT(failures.load(), 0);
  EXPECT_GT(rig.link.stats().reconnects, 0u);
}

}  // namespace
}  // namespace speed
