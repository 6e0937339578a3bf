// Fault-tolerance tests: every store failure mode must degrade a marked
// call to local compute, never throw into the application; the
// ResilientTransport must reconnect with a fresh channel key; and the single
// store, a one-node cluster, must go down, cost no I/O inside its probe
// window, and be re-admitted by one probe as it dies and comes back.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <thread>
#include <vector>

#include "net/fault.h"
#include "net/resilient.h"
#include "runtime/speed.h"
#include "store/tcp_server.h"
#include "telemetry/registry.h"

namespace speed {
namespace {

using net::FaultInjectingTransport;
using net::ResilienceConfig;
using net::ResilientTransport;
using Fault = net::FaultInjectingTransport::Fault;

sgx::CostModel fast_model() {
  sgx::CostModel m;
  m.ecall_ns = 0;
  m.ocall_ns = 0;
  m.epc_page_swap_ns = 0;
  return m;
}

ResilienceConfig fast_resilience() {
  ResilienceConfig rc;
  rc.reconnect_attempts = 2;
  rc.backoff_initial_ms = 1;
  rc.backoff_max_ms = 2;
  return rc;
}

/// This file exercises the transport/degrade path: repeated calls must
/// actually reach the (faulty) store, so the runtime's in-enclave result
/// cache — which would serve the repeats locally — stays off.
runtime::RuntimeConfig no_local_cache() {
  runtime::RuntimeConfig cfg;
  cfg.local_cache = false;
  return cfg;
}

/// An application whose transport chain is
///   DedupRuntime -> one-node ClusterTransport -> StoreLink
///     -> ResilientTransport -> FaultInjectingTransport -> store,
/// with a reconnect hook that re-runs the in-process attested handshake
/// (refusing while `store_up` is false), mirroring a TCP redial. It counts
/// the I/O a call costs: `round_trips` (every FaultInjectingTransport round
/// trip, faulted or not) and `dials` (every reconnect hook run, refused or
/// not).
struct FaultyApp {
  FaultyApp(sgx::Platform& platform, store::ResultStore& store,
            const std::string& identity,
            FaultInjectingTransport::Schedule schedule,
            std::shared_ptr<std::atomic<bool>> store_up,
            ResilienceConfig rc = fast_resilience(),
            runtime::RuntimeConfig config = no_local_cache())
      : enclave(platform.create_enclave(identity)) {
    // Reconnects build fresh FaultInjectingTransports whose per-instance
    // counters restart at 0; rebase the schedule on a shared counter so a
    // call index means "round trips since the app started", not "since the
    // last reconnect".
    FaultInjectingTransport::Schedule global_schedule =
        [schedule, counter = round_trips](std::uint64_t) {
          return schedule(counter->fetch_add(1));
        };
    auto conn = store::connect_app(store, *enclave);
    sessions.push_back(std::move(conn.session));
    auto faulty = std::make_unique<FaultInjectingTransport>(
        std::move(conn.transport), global_schedule);
    auto reconnect = [this, &store, store_up, global_schedule]()
        -> ResilientTransport::Connection {
      dials->fetch_add(1);
      if (!store_up->load()) throw net::TcpError("injected: store down");
      auto fresh = store::connect_app(store, *enclave);
      sessions.push_back(std::move(fresh.session));
      return {std::make_unique<FaultInjectingTransport>(
                  std::move(fresh.transport), global_schedule),
              std::move(fresh.session_key)};
    };
    auto resilient = std::make_unique<ResilientTransport>(
        std::move(faulty), std::move(reconnect), rc);
    transport = resilient.get();
    rt.emplace(*enclave, std::move(conn.session_key), std::move(resilient),
               std::move(config));
    rt->libraries().register_library("lib", "1", as_bytes("code"));
  }

  /// The runtime's one node: the single store.
  net::ClusterTransport::NodeHealth health() const {
    return rt->cluster()->node_health(0);
  }
  std::chrono::milliseconds probe_interval() const {
    return std::chrono::milliseconds(rt->cluster()->config().probe_interval_ms);
  }

  std::shared_ptr<std::atomic<std::uint64_t>> round_trips =
      std::make_shared<std::atomic<std::uint64_t>>(0);
  std::shared_ptr<std::atomic<int>> dials = std::make_shared<std::atomic<int>>(0);
  std::unique_ptr<sgx::Enclave> enclave;
  std::vector<std::unique_ptr<store::StoreSession>> sessions;
  ResilientTransport* transport = nullptr;
  std::optional<runtime::DedupRuntime> rt;
};

using NodeHealth = net::ClusterTransport::NodeHealth;

Bytes expected_result(const Bytes& in) { return concat(in, as_bytes("+out")); }

class FaultInjectionTest : public ::testing::Test {
 protected:
  FaultInjectionTest() : platform_(fast_model()), store_(platform_) {}

  runtime::Deduplicable<Bytes(const Bytes&)> make_fn(FaultyApp& app,
                                                     std::atomic<int>& execs) {
    return runtime::Deduplicable<Bytes(const Bytes&)>(
        *app.rt, {"lib", "1", "f"}, [&execs](const Bytes& in) {
          ++execs;
          return expected_result(in);
        });
  }

  sgx::Platform platform_;
  store::ResultStore store_;
};

// --------------------------------------------------------------- degrade

TEST_F(FaultInjectionTest, GarbageResponsesDegradeEveryCall) {
  auto up = std::make_shared<std::atomic<bool>>(true);
  FaultyApp app(platform_, store_, "garbage-app",
                FaultInjectingTransport::always(Fault::kGarbage), up);
  std::atomic<int> execs{0};
  auto f = make_fn(app, execs);

  for (int i = 0; i < 8; ++i) {
    const Bytes in{static_cast<std::uint8_t>(i)};
    EXPECT_EQ(f(in), expected_result(in));
  }
  EXPECT_EQ(execs.load(), 8);
  const auto s = app.rt->stats();
  EXPECT_EQ(s.degraded_calls, 8u) << "every call served locally";
  EXPECT_EQ(s.hits, 0u);
}

TEST_F(FaultInjectionTest, TruncatedResponseDegradesOnceThenRecovers) {
  auto up = std::make_shared<std::atomic<bool>>(true);
  FaultyApp app(platform_, store_, "trunc-app",
                FaultInjectingTransport::fail_window(0, 1, Fault::kTruncate),
                up);
  std::atomic<int> execs{0};
  auto f = make_fn(app, execs);

  // The truncated reply fails the channel check and poisons the link; the
  // walk's inline retry reconnects and re-seals the GET under a fresh key,
  // so the call is served (a miss), not degraded.
  const Bytes in = to_bytes("payload");
  EXPECT_EQ(f(in), expected_result(in));
  EXPECT_EQ(app.rt->stats().degraded_calls, 0u);
  EXPECT_EQ(app.rt->stats().misses, 1u);
  app.rt->flush();  // the miss's PUT lands before the repeat
  EXPECT_EQ(f(in), expected_result(in));  // hit
  const auto s = app.rt->stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.degraded_calls, 0u);
  EXPECT_EQ(execs.load(), 1);
  EXPECT_EQ(app.transport->stats().reconnects, 1u)
      << "fresh channel key after the bad frame";
  EXPECT_EQ(app.health(), NodeHealth::kUp);
}

TEST_F(FaultInjectionTest, TimeoutDegradesWithoutException) {
  auto up = std::make_shared<std::atomic<bool>>(true);
  FaultyApp app(platform_, store_, "timeout-app",
                FaultInjectingTransport::fail_window(0, 2, Fault::kTimeout),
                up);
  std::atomic<int> execs{0};
  auto f = make_fn(app, execs);

  const Bytes in = to_bytes("slow");
  EXPECT_EQ(f(in), expected_result(in));
  EXPECT_EQ(f(in), expected_result(in));
  EXPECT_GE(app.rt->stats().degraded_calls, 1u);
  EXPECT_EQ(execs.load(), 2);
}

TEST_F(FaultInjectionTest, PlainTransportWithoutReconnectStillFailsOpen) {
  // No ResilientTransport at all: a FaultInjectingTransport straight over
  // the loopback. After the first failure the channel stays poisoned (no
  // way to rekey), so every call degrades — but none ever throws.
  auto enclave = platform_.create_enclave("bare-app");
  auto conn = store::connect_app(store_, *enclave);
  runtime::DedupRuntime rt(
      *enclave, std::move(conn.session_key),
      std::make_unique<FaultInjectingTransport>(
          std::move(conn.transport),
          FaultInjectingTransport::fail_window(1, 2, Fault::kDisconnect)),
      no_local_cache());
  rt.libraries().register_library("lib", "1", as_bytes("code"));
  std::atomic<int> execs{0};
  runtime::Deduplicable<Bytes(const Bytes&)> f(
      rt, {"lib", "1", "f"}, [&execs](const Bytes& in) {
        ++execs;
        return expected_result(in);
      });

  const Bytes a = to_bytes("a"), b = to_bytes("b");
  EXPECT_EQ(f(a), expected_result(a));  // call 0 healthy (miss)
  EXPECT_EQ(f(b), expected_result(b));  // call fails -> degrade + poison
  EXPECT_EQ(f(a), expected_result(a));  // poisoned forever -> degrade
  const auto s = rt.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_GE(s.degraded_calls, 2u);
  EXPECT_EQ(execs.load(), 3);
}

TEST_F(FaultInjectionTest, SyncPutFailureIsSwallowedAndCounted) {
  // Synchronous-PUT mode: the PUT round trip dies but the call still
  // returns the computed result; later calls degrade on the poisoned
  // channel instead of throwing.
  auto enclave = platform_.create_enclave("sync-app");
  auto conn = store::connect_app(store_, *enclave);
  runtime::RuntimeConfig cfg;
  cfg.async_put = false;
  runtime::DedupRuntime rt(
      *enclave, std::move(conn.session_key),
      std::make_unique<FaultInjectingTransport>(
          std::move(conn.transport),
          // call 0 = GET (healthy), call 1 = PUT (killed)
          FaultInjectingTransport::fail_window(1, 2, Fault::kDisconnect)),
      cfg);
  rt.libraries().register_library("lib", "1", as_bytes("code"));
  std::atomic<int> execs{0};
  runtime::Deduplicable<Bytes(const Bytes&)> f(
      rt, {"lib", "1", "f"}, [&execs](const Bytes& in) {
        ++execs;
        return expected_result(in);
      });

  const Bytes in = to_bytes("x");
  EXPECT_EQ(f(in), expected_result(in));
  const auto s = rt.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.puts_rejected, 1u);
  EXPECT_EQ(execs.load(), 1);
}

// ------------------------------------------- node health of a single store

/// Sum the exported value of `name` across all samples in the process-wide
/// registry (every live runtime contributes; the tests below read deltas).
std::uint64_t exported_total(const std::string& name) {
  std::uint64_t total = 0;
  for (const auto& family : telemetry::Registry::global().collect()) {
    if (family.name != name) continue;
    for (const auto& sample : family.samples) {
      total += static_cast<std::uint64_t>(sample.value);
    }
  }
  return total;
}

/// Make calls while they end inside the probe window of the down node's
/// last attempt, which began after `window_start`, and check each one
/// skipped the node: no round trip, no redial. Returns how many calls
/// landed inside the window.
int calls_inside_probe_window(
    FaultyApp& app, runtime::Deduplicable<Bytes(const Bytes&)>& f,
    const Bytes& in, std::chrono::steady_clock::time_point window_start) {
  const std::uint64_t round_trips = app.round_trips->load();
  const int dials = app.dials->load();
  int inside = 0;
  for (; inside < 8; ++inside) {
    EXPECT_EQ(f(in), expected_result(in)) << "degraded call " << inside;
    // A call that ended past the window may have probed the node.
    if (std::chrono::steady_clock::now() - window_start >=
        app.probe_interval()) {
      break;
    }
    EXPECT_EQ(app.round_trips->load(), round_trips) << "call " << inside;
    EXPECT_EQ(app.dials->load(), dials) << "call " << inside;
    EXPECT_EQ(app.health(), NodeHealth::kDown);
  }
  EXPECT_GT(inside, 0) << "no call ended inside the probe window";
  return inside;
}

TEST_F(FaultInjectionTest, BreakerOpensHalfOpensAndCloses) {
  // The single store is a one-node cluster, and its node health is the one
  // failure detector: the dead store goes down after down_threshold
  // failures, costs no I/O inside its probe window, and one probe per
  // window re-admits it once it is back.
  auto up = std::make_shared<std::atomic<bool>>(true);
  const auto schedule = [up](std::uint64_t) {
    return up->load() ? Fault::kNone : Fault::kDisconnect;
  };
  FaultyApp app(platform_, store_, "breaker-app", schedule, up);
  std::atomic<int> execs{0};
  auto f = make_fn(app, execs);
  ASSERT_EQ(app.rt->cluster()->node_count(), 1u);
  ASSERT_EQ(app.rt->cluster()->config().down_threshold, 2);

  const Bytes in = to_bytes("popular");
  EXPECT_EQ(f(in), expected_result(in));
  app.rt->flush();
  EXPECT_EQ(f(in), expected_result(in));
  EXPECT_EQ(app.rt->stats().hits, 1u) << "healthy baseline";
  EXPECT_EQ(app.health(), NodeHealth::kUp);

  up->store(false);  // store dies: round trips and redials both fail
  // One call takes the node down: its round trip fails (1), and the inline
  // retry's recover() is refused (2 = down_threshold).
  const auto reconnect_attempts = static_cast<int>(
      app.transport->config().reconnect_attempts);
  auto window_start = std::chrono::steady_clock::now();
  std::uint64_t round_trips = app.round_trips->load();
  int dials = app.dials->load();
  EXPECT_EQ(f(in), expected_result(in));
  EXPECT_EQ(app.health(), NodeHealth::kDown);
  EXPECT_EQ(app.round_trips->load(), round_trips + 1);
  EXPECT_EQ(app.dials->load(), dials + reconnect_attempts);
  EXPECT_EQ(app.rt->stats().degraded_calls, 1u);

  calls_inside_probe_window(app, f, in, window_start);

  // Past the window, one call probes the still-dead store: one reconnect
  // cycle, no round trip, and the node stays down for another window.
  std::this_thread::sleep_for(app.probe_interval());
  window_start = std::chrono::steady_clock::now();
  round_trips = app.round_trips->load();
  dials = app.dials->load();
  EXPECT_EQ(f(in), expected_result(in));
  EXPECT_EQ(app.round_trips->load(), round_trips);
  EXPECT_EQ(app.dials->load(), dials + reconnect_attempts);
  EXPECT_EQ(app.health(), NodeHealth::kDown);
  calls_inside_probe_window(app, f, in, window_start);

  up->store(true);  // store recovers; wait out the probe window
  std::this_thread::sleep_for(app.probe_interval());
  round_trips = app.round_trips->load();
  dials = app.dials->load();
  const auto before_hits = app.rt->stats().hits;
  EXPECT_EQ(f(in), expected_result(in));  // the probe: reconnect + GET
  EXPECT_EQ(app.health(), NodeHealth::kUp);
  EXPECT_EQ(app.dials->load(), dials + 1);
  EXPECT_EQ(app.round_trips->load(), round_trips + 1);
  EXPECT_EQ(app.rt->stats().hits, before_hits + 1)
      << "the probe itself is served";
  EXPECT_EQ(f(in), expected_result(in));
  EXPECT_EQ(app.rt->stats().hits, before_hits + 2) << "hits resume";
  EXPECT_EQ(execs.load(), static_cast<int>(1 + app.rt->stats().degraded_calls));
}

// ------------------------------------------------- resilience telemetry

TEST_F(FaultInjectionTest, ReconnectAndBreakerMetricsExportThroughRegistry) {
  // Drive the single store through failure -> node down -> skipped calls ->
  // a failed probe -> recovery, and assert the story is visible both in the
  // per-instance Stats views and in the process-wide speed_cluster_* and
  // speed_transport_* exports.
  const std::uint64_t base_unavailable =
      exported_total("speed_cluster_unavailable_total");
  const std::uint64_t base_failures =
      exported_total("speed_transport_failures_total");
  const std::uint64_t base_reconnects =
      exported_total("speed_transport_reconnects_total");
  const std::uint64_t base_reconnect_failures =
      exported_total("speed_transport_reconnect_failures_total");
  const std::uint64_t base_up = exported_total("speed_cluster_node_up");

  auto up = std::make_shared<std::atomic<bool>>(true);
  const auto schedule = [up](std::uint64_t) {
    return up->load() ? Fault::kNone : Fault::kDisconnect;
  };
  FaultyApp app(platform_, store_, "metrics-app", schedule, up);
  std::atomic<int> execs{0};
  auto f = make_fn(app, execs);
  const auto rc = app.transport->config();
  // Every export below must move with this one runtime's cells.
  const auto expect_exports = [&](std::uint64_t node_up) {
    const auto t = app.transport->stats();
    EXPECT_EQ(exported_total("speed_cluster_node_up"), base_up + node_up);
    EXPECT_EQ(exported_total("speed_cluster_unavailable_total"),
              base_unavailable + app.rt->cluster()->stats().unavailable);
    EXPECT_EQ(exported_total("speed_transport_failures_total"),
              base_failures + t.failures);
    EXPECT_EQ(exported_total("speed_transport_reconnects_total"),
              base_reconnects + t.reconnects);
    EXPECT_EQ(exported_total("speed_transport_reconnect_failures_total"),
              base_reconnect_failures + t.reconnect_failures);
  };

  const Bytes in = to_bytes("observed");
  EXPECT_EQ(f(in), expected_result(in));  // healthy miss
  app.rt->flush();
  expect_exports(1);

  // Down: the failed round trip and the refused recovery.
  up->store(false);
  auto window_start = std::chrono::steady_clock::now();
  EXPECT_EQ(f(in), expected_result(in));
  auto t = app.transport->stats();
  EXPECT_EQ(t.failures, 2u);
  EXPECT_EQ(t.reconnect_failures, static_cast<std::uint64_t>(rc.reconnect_attempts))
      << "redials refused while down";
  EXPECT_EQ(t.reconnects, 0u);
  EXPECT_EQ(app.rt->cluster()->stats().unavailable, 1u);
  expect_exports(0);

  // Skipped inside the window: each call is an unavailable walk, with no
  // transport failure behind it.
  const int inside = calls_inside_probe_window(app, f, in, window_start);
  EXPECT_EQ(app.transport->stats().failures, 2u);
  EXPECT_EQ(app.rt->cluster()->stats().unavailable,
            1u + static_cast<std::uint64_t>(inside));
  expect_exports(0);

  // A probe into the still-dead store: one more failed recovery.
  std::this_thread::sleep_for(app.probe_interval());
  const std::uint64_t unavailable = app.rt->cluster()->stats().unavailable;
  EXPECT_EQ(f(in), expected_result(in));
  t = app.transport->stats();
  EXPECT_EQ(t.failures, 3u);
  EXPECT_EQ(t.reconnect_failures,
            2u * static_cast<std::uint64_t>(rc.reconnect_attempts));
  EXPECT_EQ(app.rt->cluster()->stats().unavailable, unavailable + 1);
  expect_exports(0);

  // Back: the first call past the window reconnects and is served.
  up->store(true);
  std::this_thread::sleep_for(app.probe_interval());
  EXPECT_EQ(f(in), expected_result(in));
  t = app.transport->stats();
  EXPECT_EQ(t.reconnects, 1u);
  EXPECT_EQ(t.failures, 3u);
  EXPECT_EQ(app.rt->stats().hits, 1u);
  expect_exports(1);
  EXPECT_GE(exported_total("speed_transport_round_trips_total"), 1u);
}

// ------------------------------------------------ acceptance: 10k calls

TEST_F(FaultInjectionTest, TenThousandCallsSurviveStoreOutage) {
  auto up = std::make_shared<std::atomic<bool>>(true);
  const auto schedule = [up](std::uint64_t) {
    return up->load() ? Fault::kNone : Fault::kDisconnect;
  };
  FaultyApp app(platform_, store_, "workload-app", schedule, up);
  std::atomic<int> execs{0};
  auto f = make_fn(app, execs);

  constexpr int kCalls = 10000;
  constexpr int kKillAt = 2000;    // store dies after K calls...
  constexpr int kReviveAt = 6000;  // ...and comes back here
  constexpr int kDistinct = 64;

  std::uint64_t hits_after_revival = 0;
  for (int i = 0; i < kCalls; ++i) {
    if (i == kKillAt) up->store(false);
    if (i == kReviveAt) {
      up->store(true);
      std::this_thread::sleep_for(app.probe_interval() +
                                  std::chrono::milliseconds(5));
    }
    const Bytes in{static_cast<std::uint8_t>(i % kDistinct)};
    Bytes out;
    ASSERT_NO_THROW(out = f(in)) << "call " << i;
    ASSERT_EQ(out, expected_result(in)) << "call " << i;
    if (i >= kReviveAt && f.last_was_deduplicated()) ++hits_after_revival;
  }

  const auto s = app.rt->stats();
  EXPECT_EQ(s.calls, static_cast<std::uint64_t>(kCalls));
  EXPECT_GT(s.degraded_calls, 0u);
  EXPECT_LT(s.degraded_calls, static_cast<std::uint64_t>(kCalls));
  EXPECT_GT(hits_after_revival, 0u) << "dedup service resumed";
  // Every degraded call that tried the store cost at least one transport
  // failure; fewer failures than degraded calls means the down node was
  // skipped without I/O. And it is back up.
  EXPECT_LT(app.transport->stats().failures, s.degraded_calls);
  EXPECT_EQ(app.health(), NodeHealth::kUp);
  // Fail-open invariant: every single call produced the right bytes, and
  // compute ran exactly once per miss/degrade (never for a hit).
  EXPECT_EQ(static_cast<std::uint64_t>(execs.load()),
            s.misses + s.degraded_calls + s.failed_recoveries);
}

// ------------------------------------------------------ PUT queue bounds

TEST_F(FaultInjectionTest, PutQueueDropsOldestWhenOverCapacity) {
  // Several producer threads race one PUT worker over a transport with real
  // latency: the queue must stay bounded, dropping the oldest PUTs.
  auto enclave = platform_.create_enclave("queue-app");
  auto conn = store::connect_app(store_, *enclave, /*one_way_ns=*/100000);
  runtime::RuntimeConfig cfg;
  cfg.put_queue_capacity = 1;
  runtime::DedupRuntime rt(*enclave, std::move(conn.session_key),
                           std::move(conn.transport), cfg);
  rt.libraries().register_library("lib", "1", as_bytes("code"));
  std::atomic<int> execs{0};
  runtime::Deduplicable<Bytes(const Bytes&)> f(
      rt, {"lib", "1", "f"}, [&execs](const Bytes& in) {
        ++execs;
        return expected_result(in);
      });

  constexpr int kThreads = 3;
  constexpr int kPerThread = 60;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&f, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const Bytes in{static_cast<std::uint8_t>(t), static_cast<std::uint8_t>(i)};
        EXPECT_EQ(f(in), expected_result(in));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_TRUE(rt.flush(10000));

  const auto s = rt.stats();
  EXPECT_EQ(s.misses, static_cast<std::uint64_t>(kThreads * kPerThread));
  // Conservation: every enqueued PUT was either delivered or dropped.
  EXPECT_EQ(s.puts_sent + s.puts_dropped,
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_GT(s.puts_dropped, 0u) << "capacity bound enforced under pressure";
  EXPECT_EQ(store_.stats().stored, s.puts_sent);
}

TEST_F(FaultInjectionTest, FlushDeadlineBoundsShutdownOnSlowStore) {
  // A transport that answers, slowly: flush with a deadline returns false
  // promptly instead of hanging for the store's convenience.
  class SlowTransport : public net::Transport {
   public:
    SlowTransport(std::unique_ptr<net::Transport> inner, int delay_ms)
        : inner_(std::move(inner)), delay_ms_(delay_ms) {}
    Bytes round_trip(ByteView request) override {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms_));
      return inner_->round_trip(request);
    }

   private:
    std::unique_ptr<net::Transport> inner_;
    int delay_ms_;
  };

  auto enclave = platform_.create_enclave("slow-app");
  auto conn = store::connect_app(store_, *enclave);
  runtime::DedupRuntime rt(
      *enclave, std::move(conn.session_key),
      std::make_unique<SlowTransport>(std::move(conn.transport), 150));
  rt.libraries().register_library("lib", "1", as_bytes("code"));
  runtime::Deduplicable<Bytes(const Bytes&)> f(
      rt, {"lib", "1", "f"}, [](const Bytes& in) { return expected_result(in); });

  f(to_bytes("x"));  // miss: enqueues one async PUT (150 ms on the wire)
  EXPECT_FALSE(rt.flush(10)) << "deadline expires before the PUT lands";
  EXPECT_TRUE(rt.flush(-1)) << "unbounded flush still drains";
  EXPECT_EQ(rt.stats().puts_sent, 1u);
}

// ------------------------------------------------------- socket deadlines

TEST(SocketTimeoutTest, RecvFrameTimesOutOnSilentPeer) {
  net::TcpListener listener(0);
  net::FramedSocket client = net::tcp_connect("127.0.0.1", listener.port());
  net::FramedSocket server = listener.accept();

  client.set_timeouts(/*send_ms=*/-1, /*recv_ms=*/50);
  Stopwatch sw;
  EXPECT_THROW(client.recv_frame(), net::TcpTimeout);
  EXPECT_LT(sw.elapsed_ms(), 5000.0);
  (void)server;
}

TEST(SocketTimeoutTest, TcpTransportRoundTripDeadline) {
  net::TcpListener listener(0);
  net::FramedSocket client = net::tcp_connect("127.0.0.1", listener.port());
  net::FramedSocket server = listener.accept();

  net::TcpTransport transport(std::move(client), /*deadline_ms=*/50);
  EXPECT_THROW(transport.round_trip(as_bytes("ping")), net::TcpTimeout);
  // The request did arrive; only the response is missing.
  EXPECT_EQ(server.recv_frame(), to_bytes("ping"));
}

TEST(SocketTimeoutTest, DeadlineZeroStillDeliversReadyData) {
  net::TcpListener listener(0);
  net::FramedSocket client = net::tcp_connect("127.0.0.1", listener.port());
  net::FramedSocket server = listener.accept();

  server.send_frame(as_bytes("already here"));
  // Give the loopback a moment to make the bytes readable.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  client.set_timeouts(-1, 0);
  EXPECT_EQ(client.recv_frame(), to_bytes("already here"));
}

// --------------------------------------------------- store session errors

TEST(StoreSessionErrorTest, BadFrameCostsOneSessionNotTheServer) {
  sgx::Platform platform(fast_model());
  store::ResultStore result_store(platform);
  store::StoreTcpServer server(result_store, 0);

  // Client A: real handshake, then a frame that is not a channel frame.
  auto enclave_a = platform.create_enclave("rowdy-client");
  auto conn_a = store::connect_tcp_app(*enclave_a,
                                       result_store.enclave().measurement(),
                                       "127.0.0.1", server.port());
  auto* tcp_a = static_cast<net::TcpTransport*>(conn_a.transport.get());
  tcp_a->socket().send_frame(as_bytes("definitely not a secure frame"));
  // Server drops only this session; our next read sees EOF.
  EXPECT_FALSE(tcp_a->socket().try_recv_frame().has_value());
  for (int i = 0; i < 200 && server.session_errors() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.session_errors(), 1u);
  EXPECT_EQ(server.connections_rejected(), 0u)
      << "post-handshake death is a session error, not a rejection";

  // Client B connects afterwards and gets full service.
  auto enclave_b = platform.create_enclave("polite-client");
  auto conn_b = store::connect_tcp_app(*enclave_b,
                                       result_store.enclave().measurement(),
                                       "127.0.0.1", server.port());
  runtime::DedupRuntime rt(*enclave_b, std::move(conn_b.session_key),
                           std::move(conn_b.transport));
  rt.libraries().register_library("lib", "1", as_bytes("code"));
  runtime::Deduplicable<Bytes(const Bytes&)> f(
      rt, {"lib", "1", "f"}, [](const Bytes& in) { return expected_result(in); });
  EXPECT_EQ(f(to_bytes("svc")), expected_result(to_bytes("svc")));
  EXPECT_EQ(server.connections_accepted(), 2u);
}

// ------------------------------------------- resilient TCP client helper

TEST(ResilientTcpTest, ClientSurvivesStoreRestart) {
  sgx::Platform platform(fast_model());
  store::ResultStore result_store(platform);
  auto server = std::make_unique<store::StoreTcpServer>(result_store, 0);
  const std::uint16_t port = server->port();

  net::ResilienceConfig rc;
  rc.reconnect_attempts = 1;
  rc.backoff_initial_ms = 1;
  auto enclave = platform.create_enclave("resilient-client");
  auto conn = store::connect_tcp_app_resilient(
      *enclave, result_store.enclave().measurement(), "127.0.0.1", port, rc,
      /*deadline_ms=*/2000);
  runtime::DedupRuntime rt(*enclave, std::move(conn.session_key),
                           std::move(conn.transport), no_local_cache());
  rt.libraries().register_library("lib", "1", as_bytes("code"));
  std::atomic<int> execs{0};
  runtime::Deduplicable<Bytes(const Bytes&)> f(
      rt, {"lib", "1", "f"}, [&execs](const Bytes& in) {
        ++execs;
        return expected_result(in);
      });

  const Bytes in = to_bytes("asset");
  EXPECT_EQ(f(in), expected_result(in));
  rt.flush();
  EXPECT_EQ(f(in), expected_result(in));
  EXPECT_EQ(rt.stats().hits, 1u);

  // Store process "restarts": the old server dies mid-session, a new one
  // binds the same port against the same trusted dictionary.
  server->stop();
  server.reset();
  const Bytes other = to_bytes("during-outage");
  EXPECT_EQ(f(other), expected_result(other)) << "degrades while down";
  EXPECT_GE(rt.stats().degraded_calls, 1u);

  server = std::make_unique<store::StoreTcpServer>(result_store, port);
  // The failed call took the node down. The first call past its probe
  // window reconnects with a fresh handshake; hits resume.
  std::this_thread::sleep_for(
      std::chrono::milliseconds(rt.cluster()->config().probe_interval_ms + 5));
  Bytes out;
  std::uint64_t hits = 0;
  for (int i = 0; i < 50 && hits == 0; ++i) {
    ASSERT_NO_THROW(out = f(in));
    ASSERT_EQ(out, expected_result(in));
    hits = rt.stats().hits - 1;  // beyond the pre-restart hit
    if (hits == 0) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(hits, 0u) << "dedup hits resume against the restarted store";
  EXPECT_EQ(execs.load(), 2) << "only the miss and the degraded call computed";
}

}  // namespace
}  // namespace speed
