// Chaos suite (ctest -L chaos): randomized kill/restart/partition churn over
// a replicated N=3, r=1 cluster under a seeded workload, asserting the
// acceptance invariants of docs/PROTOCOL.md §8:
//
//   * zero acked-result loss — every PUT the cluster ACKNOWLEDGED (full
//     quorum) stays readable through any single-node kill, restart, and
//     partition, at every point in the run;
//   * bounded degradation — a total outage degrades marked calls to local
//     compute (never an application-visible error) and service resumes as
//     soon as one node returns;
//   * convergent rejoin — a restarted node re-attests, pulls exactly its
//     ring share back, and the cluster returns to full replication.
//
// All randomness flows from SPEED_SEEDED_RNG: a failure prints the seed and
// SPEED_TEST_SEED=<seed> replays the identical kill schedule and workload.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "net/cluster.h"
#include "runtime/speed.h"
#include "store/inproc_cluster.h"
#include "test_seed.h"

namespace speed {
namespace {

using net::ClusterTransport;
using serialize::BatchOp;
using serialize::BatchReply;
using serialize::GetRequest;
using serialize::GetResponse;
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

struct ChaosCluster {
  explicit ChaosCluster(std::size_t nodes, std::size_t replicas = 1)
      : platform(fast_model()) {
    store::InprocClusterConfig cc;
    cc.nodes = nodes;
    cc.cluster.replicas = replicas;
    cc.cluster.probe_interval_ms = 0;  // never skip a node inside the walk
    // Anti-entropy rounds must cover EVERY entry (not just the hottest 64):
    // the zero-loss invariant across repeated kills needs each heal to put
    // sloppily-placed entries back on all their ring owners.
    cc.replication.hot_entries = 100'000;
    cluster.emplace(platform, cc);
    app = platform.create_enclave("chaos-app");
    transport = cluster->connect(*app);
  }

  Tag random_tag(Xoshiro256& rng) {
    Tag t;
    for (auto& b : t) b = static_cast<std::uint8_t>(rng());
    return t;
  }

  /// One op routed as a list of one.
  BatchReply call(BatchOp op) {
    return app->ecall([&] {
      return transport->route(serialize::batch_of(std::move(op))).front();
    });
  }

  /// One PUT; returns true iff the cluster ACKNOWLEDGED it (full quorum).
  bool put_acked(const Tag& tag) {
    PutRequest req;
    req.tag = tag;
    req.requester = app->measurement();
    req.entry.challenge = Bytes{7, 7};
    req.entry.wrapped_key = Bytes(16, 0x31);
    req.entry.result_ct = Bytes(40, 0xab);
    const BatchReply m = call(req);
    const auto* resp = std::get_if<PutResponse>(&m);
    return resp != nullptr && (resp->status == PutStatus::kStored ||
                               resp->status == PutStatus::kAlreadyPresent);
  }

  bool get_found(const Tag& tag) {
    GetRequest req;
    req.tag = tag;
    req.requester = app->measurement();
    const BatchReply m = call(req);
    const auto* resp = std::get_if<GetResponse>(&m);
    return resp != nullptr && resp->found;
  }

  sgx::Platform platform;
  std::optional<store::InprocCluster> cluster;
  std::unique_ptr<sgx::Enclave> app;
  std::shared_ptr<ClusterTransport> transport;
};

TEST(ChaosClusterTest, KillRestartChurnLosesNoAckedResult) {
  SPEED_SEEDED_RNG(rng, 0xC1A05'0001ull);
  ChaosCluster c(3, 1);
  std::vector<Tag> acked;
  std::uint64_t get_attempts = 0;
  std::uint64_t get_found = 0;

  // Mixed workload: ~40% new PUTs, ~60% GETs of already-acked tags. Every
  // GET of an acked tag MUST find it — that is the zero-loss invariant.
  const auto workload = [&](int ops) {
    for (int i = 0; i < ops; ++i) {
      const bool do_put = acked.empty() || rng() % 10 < 4;
      if (do_put) {
        const Tag t = c.random_tag(rng);
        if (c.put_acked(t)) acked.push_back(t);
      } else {
        const Tag& t = acked[rng() % acked.size()];
        ++get_attempts;
        if (c.get_found(t)) ++get_found;
      }
    }
  };
  const auto verify_all_acked = [&](const char* when) {
    for (const Tag& t : acked) {
      ++get_attempts;
      if (c.get_found(t)) {
        ++get_found;
      } else {
        ADD_FAILURE() << "acked entry lost (" << when << ", "
                      << acked.size() << " acked)";
      }
    }
  };

  constexpr int kRounds = 6;
  for (int round = 0; round < kRounds; ++round) {
    // Healthy phase.
    workload(30);

    // Kill one random node mid-workload (sometimes via partition, which
    // keeps its state; sometimes a real kill, which loses it on restart).
    const std::size_t victim = rng() % 3;
    const bool use_partition = rng() % 4 == 0;
    if (use_partition) {
      c.cluster->partition(victim, true);
    } else {
      c.cluster->kill(victim);
    }

    // Degraded phase: PUTs still reach full quorum on the two live nodes
    // (sloppy placement); every previously-acked entry keeps a live copy.
    workload(30);
    verify_all_acked("single node down");

    // Heal: partition heals in place; a killed node restarts EMPTY, must
    // re-attest, and pulls its ring share back before the next round may
    // kill a different node (otherwise a second failure could erase both
    // copies — the documented r=1 fault model is one failure at a time).
    if (use_partition) {
      c.cluster->partition(victim, false);
    } else {
      ASSERT_TRUE(c.cluster->restart(victim)) << "re-attestation failed";
      c.cluster->rejoin(victim);
    }
    c.cluster->anti_entropy_round();
    verify_all_acked("after heal");
  }

  ASSERT_GT(acked.size(), 50u);
  ASSERT_GT(get_attempts, 0u);
  // Acceptance: >99% GET availability for acked entries. (In-process the
  // walk is loss-free, so this holds with margin; the assert pins it.)
  EXPECT_EQ(get_found, get_attempts);
  EXPECT_GT(c.transport->stats().failovers, 0u);
}

TEST(ChaosClusterTest, TotalOutageDegradesToComputeAndRecovers) {
  SPEED_SEEDED_RNG(rng, 0xC1A05'0002ull);
  ChaosCluster c(3, 1);

  runtime::RuntimeConfig rc;
  rc.local_cache = false;
  rc.async_put = false;  // synchronous PUTs: store state is deterministic
  runtime::DedupRuntime rt(*c.app, c.transport, rc);
  rt.libraries().register_library("chaoslib", "1.0", as_bytes("code"));
  const auto fn = rt.resolve({"chaoslib", "1.0", "Bytes f(Bytes)"});
  const Bytes input{5, 4, 3, 2, 1};
  int computes = 0;
  const auto compute = [&]() -> Bytes {
    ++computes;
    return Bytes{42};
  };

  // Warm: miss + PUT, then a store hit.
  EXPECT_FALSE(rt.execute(fn, input, compute).deduplicated);
  EXPECT_TRUE(rt.execute(fn, input, compute).deduplicated);
  EXPECT_EQ(computes, 1);

  // Total outage: marked calls DEGRADE (correct result, computed locally) —
  // never an error into the application.
  for (std::size_t n = 0; n < 3; ++n) c.cluster->kill(n);
  const auto degraded = rt.execute(fn, input, compute);
  EXPECT_FALSE(degraded.deduplicated);
  EXPECT_EQ(degraded.result, Bytes{42});
  EXPECT_EQ(computes, 2);
  EXPECT_GE(rt.stats().degraded_calls, 1u);

  // One node back is enough to resume service (quorum for GETs is walked,
  // misses are definitive). The store state was lost with the kill, so the
  // first call recomputes; with only one node up the PUT stays below quorum
  // (never falsely acked), so calls keep recomputing but never error.
  ASSERT_TRUE(c.cluster->restart(0));
  const auto after_one = rt.execute(fn, input, compute);
  EXPECT_FALSE(after_one.deduplicated);
  EXPECT_EQ(after_one.result, Bytes{42});

  // Full cluster back: dedup resumes. (The below-quorum PUT above may have
  // left a copy on node 0 — an UNacked copy surviving is fine, only an
  // acked copy being lost violates the invariant — so the first call may
  // already hit; either way the result is right and dedup then sticks.)
  ASSERT_TRUE(c.cluster->restart(1));
  ASSERT_TRUE(c.cluster->restart(2));
  c.cluster->rejoin(1);
  EXPECT_EQ(rt.execute(fn, input, compute).result, Bytes{42});
  EXPECT_TRUE(rt.execute(fn, input, compute).deduplicated);
}

TEST(ChaosClusterTest, RejoiningNodeReattestsAndConvergesToRingShare) {
  SPEED_SEEDED_RNG(rng, 0xC1A05'0003ull);
  ChaosCluster c(3, 1);
  std::vector<Tag> tags;
  for (int i = 0; i < 60; ++i) {
    const Tag t = c.random_tag(rng);
    ASSERT_TRUE(c.put_acked(t));
    tags.push_back(t);
  }
  const std::size_t victim = rng() % 3;
  std::size_t share = 0;
  for (const Tag& t : tags) {
    auto order = c.transport->preference_order(t);
    order.resize(2);
    if (std::find(order.begin(), order.end(), victim) != order.end()) ++share;
  }
  ASSERT_GT(share, 0u);

  const std::uint64_t old_incarnation = c.cluster->incarnation(victim);
  const std::uint64_t old_epoch = c.cluster->replicator().epoch();
  c.cluster->kill(victim);
  ASSERT_TRUE(c.cluster->restart(victim));  // mutual re-attestation passed
  EXPECT_EQ(c.cluster->incarnation(victim), old_incarnation + 1);
  EXPECT_EQ(c.cluster->store(victim).stats().entries, 0u);

  const std::size_t merged = c.cluster->rejoin(victim);
  EXPECT_GT(c.cluster->replicator().epoch(), old_epoch);
  // Convergence: the node pulled exactly the tags the ring assigns it.
  EXPECT_EQ(merged, share);
  EXPECT_EQ(c.cluster->store(victim).stats().entries, share);

  // And the rebuilt node serves them: kill the OTHER owner of each tag and
  // the cluster still answers every GET.
  const std::size_t other = (victim + 1) % 3;
  c.cluster->kill(other);
  for (const Tag& t : tags) {
    EXPECT_TRUE(c.get_found(t));
  }
}

TEST(ChaosClusterTest, FlappingPartitionsNeverLoseAckedEntries) {
  SPEED_SEEDED_RNG(rng, 0xC1A05'0004ull);
  ChaosCluster c(3, 1);
  std::vector<Tag> acked;
  // Rapid partition flaps (state never lost, only reachability) interleaved
  // with workload: the walk must route around whatever is dark right now.
  for (int round = 0; round < 20; ++round) {
    const std::size_t victim = rng() % 3;
    c.cluster->partition(victim, true);
    for (int i = 0; i < 8; ++i) {
      const Tag t = c.random_tag(rng);
      if (c.put_acked(t)) acked.push_back(t);
      if (!acked.empty()) {
        EXPECT_TRUE(c.get_found(acked[rng() % acked.size()]));
      }
    }
    c.cluster->partition(victim, false);
  }
  ASSERT_GT(acked.size(), 100u);
  for (const Tag& t : acked) EXPECT_TRUE(c.get_found(t));
}

}  // namespace
}  // namespace speed
