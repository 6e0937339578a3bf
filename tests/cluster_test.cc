// Replicated cluster tests: rendezvous routing, sloppy-quorum PUT acks,
// GET failover + read-repair, health probes, lazy dials of nodes that were
// down at construction, membership epochs, resumable bulk pulls, and
// infra-plane role gating (docs/PROTOCOL.md §8). The randomized chaos suite
// lives in chaos_cluster_test.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "net/cluster.h"
#include "runtime/speed.h"
#include "store/inproc_cluster.h"
#include "test_seed.h"

namespace speed {
namespace {

using net::ClusterTransport;
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

class ClusterTest : public ::testing::Test {
 protected:
  ClusterTest() : platform_(fast_model()) {}

  void build(std::size_t nodes, std::size_t replicas,
             net::ClusterConfig net_config = net::ClusterConfig{},
             store::ReplicationConfig repl = store::ReplicationConfig{},
             store::StoreConfig store_config = store::StoreConfig{}) {
    store::InprocClusterConfig cc;
    cc.nodes = nodes;
    cc.store = std::move(store_config);
    cc.cluster = net_config;
    cc.cluster.replicas = replicas;
    cc.replication = repl;
    cluster_.emplace(platform_, cc);
    app_ = platform_.create_enclave("cluster-app");
    transport_ = cluster_->connect(*app_);
  }

  Tag random_tag(Xoshiro256& rng) {
    Tag t;
    for (auto& b : t) b = static_cast<std::uint8_t>(rng());
    return t;
  }

  Message call(const Message& request) {
    return app_->ecall([&] { return transport_->round_trip_message(request); });
  }

  PutStatus put(const Tag& tag) {
    PutRequest req;
    req.tag = tag;
    req.requester = app_->measurement();
    req.entry.challenge = Bytes{1, 2, 3, 4};
    req.entry.wrapped_key = Bytes(16, 0x42);
    req.entry.result_ct = Bytes(48, 0x99);
    const Message m = call(req);
    const auto* resp = std::get_if<PutResponse>(&m);
    EXPECT_NE(resp, nullptr);
    return resp != nullptr ? resp->status : PutStatus::kRejected;
  }

  bool acked(PutStatus s) {
    return s == PutStatus::kStored || s == PutStatus::kAlreadyPresent;
  }

  bool get_found(const Tag& tag) {
    GetRequest req;
    req.tag = tag;
    req.requester = app_->measurement();
    const Message m = call(req);
    const auto* resp = std::get_if<GetResponse>(&m);
    EXPECT_NE(resp, nullptr);
    return resp != nullptr && resp->found;
  }

  /// Nodes the ring assigns `tag` (first replicas+1 of the order).
  std::vector<std::size_t> owners(const Tag& tag) {
    auto order = transport_->preference_order(tag);
    order.resize(std::min(order.size(), transport_->config().replicas + 1));
    return order;
  }

  sgx::Platform platform_;
  std::optional<store::InprocCluster> cluster_;
  std::unique_ptr<sgx::Enclave> app_;
  std::shared_ptr<ClusterTransport> transport_;
};

std::atomic<int> g_rank_violations{0};
void count_rank_violation(LockRank, LockRank) { g_rank_violations.fetch_add(1); }

// Regression: constructing or retiring a node's ResultStore registers and
// deregisters telemetry collectors (Registry::mu_, rank 450); doing either
// under Node::mu (rank 530) inverted the lock order. The cluster ctor now
// builds stores before taking the node lock, and restart() displaces the
// dead store into a local retired before releasing it.
TEST_F(ClusterTest, NodeLifecycleKeepsLockOrder) {
  if (!lock_rank_check_enabled()) {
    GTEST_SKIP() << "built without SPEED_LOCK_RANK_CHECK";
  }
  g_rank_violations.store(0);
  RankViolationHandler prev = set_rank_violation_handler(&count_rank_violation);
  build(3, 1);
  cluster_->kill(0);
  EXPECT_TRUE(cluster_->restart(0));
  set_rank_violation_handler(prev);
  EXPECT_EQ(g_rank_violations.load(), 0);
}

TEST_F(ClusterTest, PutPlacesReplicaOnEveryRingOwner) {
  build(3, 1);
  SPEED_SEEDED_RNG(rng, 0xC1B51EADull);
  constexpr int kTags = 40;
  for (int i = 0; i < kTags; ++i) {
    const Tag t = random_tag(rng);
    ASSERT_EQ(put(t), PutStatus::kStored);
    // Every ring owner holds a copy the moment the PUT is acknowledged.
    for (const std::size_t node : owners(t)) {
      GetRequest g;
      g.tag = t;
      g.requester = app_->measurement();
      const Message m = serialize::decode_message(
          cluster_->store(node).handle(serialize::encode_message(Message(g))));
      const auto* resp = std::get_if<GetResponse>(&m);
      ASSERT_NE(resp, nullptr);
      EXPECT_TRUE(resp->found) << "owner " << node << " missing acked entry";
    }
  }
  std::uint64_t total = 0;
  for (std::size_t n = 0; n < 3; ++n) {
    const auto entries = cluster_->store(n).stats().entries;
    EXPECT_GT(entries, 0u) << "rendezvous placement left node " << n << " empty";
    total += entries;
  }
  // r=1: every tag stored on exactly two nodes.
  EXPECT_EQ(total, 2u * kTags);
}

TEST_F(ClusterTest, GetFailsOverWhenAnyNodeDies) {
  build(3, 1);
  SPEED_SEEDED_RNG(rng, 0xFA110123ull);
  std::vector<Tag> tags;
  for (int i = 0; i < 40; ++i) {
    tags.push_back(random_tag(rng));
    ASSERT_EQ(put(tags.back()), PutStatus::kStored);
  }
  // Killing any single node must leave every acked entry readable: each has
  // a copy on two nodes, and the GET walk extends past the dead one.
  for (std::size_t victim = 0; victim < 3; ++victim) {
    cluster_->kill(victim);
    for (const Tag& t : tags) {
      EXPECT_TRUE(get_found(t)) << "lost entry with node " << victim << " down";
    }
    cluster_->partition(victim, false);
    ASSERT_TRUE(cluster_->restart(victim));
    cluster_->rejoin(victim);
    // The walk skips a down node without I/O until its probe window
    // expires; a heartbeat re-admits the rejoined node before the next
    // victim dies.
    ASSERT_TRUE(transport_->probe(victim).has_value());
    EXPECT_EQ(transport_->node_health(victim),
              ClusterTransport::NodeHealth::kUp);
  }
  EXPECT_GT(transport_->stats().failovers, 0u);
}

TEST_F(ClusterTest, PutIsAckedOnlyAtFullQuorum) {
  build(3, 1);
  SPEED_SEEDED_RNG(rng, 0x9040Full);
  // Two nodes down: only one copy can be placed, below the r+1 = 2 quorum.
  // The PUT must NOT be acknowledged — the zero-acked-loss invariant.
  cluster_->kill(0);
  cluster_->kill(1);
  const Tag t = random_tag(rng);
  const PutStatus s = put(t);
  EXPECT_FALSE(acked(s));
  EXPECT_GT(transport_->stats().partial_puts, 0u);

  // All nodes down: not even a definitive rejection is possible — the walk
  // throws StoreUnavailableError, the runtime's degrade-to-compute signal.
  cluster_->kill(2);
  PutRequest req;
  req.tag = random_tag(rng);
  req.requester = app_->measurement();
  req.entry.result_ct = Bytes(8, 1);
  EXPECT_THROW(call(req), net::StoreUnavailableError);
  GetRequest get;
  get.tag = t;
  get.requester = app_->measurement();
  EXPECT_THROW(call(get), net::StoreUnavailableError);
  EXPECT_GT(transport_->stats().unavailable, 0u);
}

TEST_F(ClusterTest, ReadRepairRefillsARestartedOwner) {
  net::ClusterConfig nc;
  nc.probe_interval_ms = 0;  // walk always re-attempts down-marked nodes, so
                             // the restarted owner's definitive miss is seen
  build(3, 1, nc);
  SPEED_SEEDED_RNG(rng, 0x4EADull);
  // PUTs while node 0 is down place sloppily on the two live nodes.
  cluster_->kill(0);
  std::vector<Tag> tags;
  for (int i = 0; i < 30; ++i) {
    tags.push_back(random_tag(rng));
    ASSERT_TRUE(acked(put(tags.back())));
  }
  // Node 0 returns EMPTY (no rejoin): for tags it ring-owns, it now misses
  // definitively while a replica still hits — the read-repair trigger.
  ASSERT_TRUE(cluster_->restart(0));
  for (const Tag& t : tags) {
    EXPECT_TRUE(get_found(t));
  }
  EXPECT_GT(transport_->stats().read_repairs, 0u);
  // The repaired copies landed on node 0 as ordinary quota-charged PUTs.
  EXPECT_GT(cluster_->store(0).stats().entries, 0u);
}

TEST_F(ClusterTest, ProbeHitNeverReadRepairs) {
  // The owner misses definitively and a replica hits: a GET would push the
  // entry back to the owner, but a probe's hit carries no ciphertext to
  // repair with, so the owner stays empty.
  build(3, 1);
  SPEED_SEEDED_RNG(rng, 0x9A0BEull);
  const Tag tag = random_tag(rng);
  const auto own = owners(tag);
  PutRequest put;
  put.tag = tag;
  put.requester = app_->measurement();
  put.entry.challenge = Bytes(32, 0x01);
  put.entry.wrapped_key = Bytes(32, 0x02);
  put.entry.result_ct = Bytes(48, 0x03);
  ASSERT_EQ(cluster_->store(own[1]).put(put).status, PutStatus::kStored);

  serialize::ProbeRequest probe;
  probe.tag = tag;
  probe.requester = app_->measurement();
  const Message m = call(probe);
  const auto* resp = std::get_if<GetResponse>(&m);
  ASSERT_NE(resp, nullptr);
  ASSERT_TRUE(resp->found);
  EXPECT_EQ(resp->entry.wrapped_key, put.entry.wrapped_key);
  EXPECT_TRUE(resp->entry.result_ct.empty());
  EXPECT_EQ(transport_->stats().read_repairs, 0u);
  EXPECT_EQ(cluster_->store(own[0]).stats().entries, 0u);

  EXPECT_TRUE(get_found(tag));
  EXPECT_EQ(transport_->stats().read_repairs, 1u);
  EXPECT_EQ(cluster_->store(own[0]).stats().entries, 1u);
}

TEST_F(ClusterTest, HeartbeatProbesDriveHealthStates) {
  net::ClusterConfig nc;
  nc.probe_interval_ms = 0;  // probes always admitted
  nc.down_threshold = 2;
  build(3, 1, nc);
  EXPECT_EQ(transport_->probe_all(), 3u);
  for (std::size_t n = 0; n < 3; ++n) {
    EXPECT_EQ(transport_->node_health(n), ClusterTransport::NodeHealth::kUp);
  }
  cluster_->kill(1);
  // One probe is an attempt plus its inline retry's refused re-dial: two
  // failures take the up node down, as a walk call does.
  EXPECT_FALSE(transport_->probe(1).has_value());  // kUp -> down
  EXPECT_EQ(transport_->node_health(1), ClusterTransport::NodeHealth::kDown);
  EXPECT_FALSE(transport_->probe(1).has_value());  // stays down
  EXPECT_EQ(transport_->node_health(1), ClusterTransport::NodeHealth::kDown);
  EXPECT_EQ(transport_->probe_all(), 2u);

  ASSERT_TRUE(cluster_->restart(1));
  const auto beat = transport_->probe(1);
  ASSERT_TRUE(beat.has_value());
  EXPECT_EQ(transport_->node_health(1), ClusterTransport::NodeHealth::kUp);
}

TEST_F(ClusterTest, HeartbeatAfterRestartRedialsStaleLink) {
  build(3, 1);
  EXPECT_EQ(transport_->probe_all(), 3u);  // every link holds a connection
  const ClusterTransport::Stats before = transport_->stats();

  // Node 1 restarts under a new incarnation. The client's connection to it
  // is stale: the heartbeat's first attempt fails on it, and the inline
  // retry re-dials the live node, so the beat is answered and the node
  // never leaves kUp.
  cluster_->kill(1);
  ASSERT_TRUE(cluster_->restart(1));
  const auto beat = transport_->probe(1);
  ASSERT_TRUE(beat.has_value());
  EXPECT_EQ(transport_->node_health(1), ClusterTransport::NodeHealth::kUp);
  const ClusterTransport::Stats after = transport_->stats();
  EXPECT_EQ(after.reconnects - before.reconnects, 1u) << "one dial";
  EXPECT_EQ(after.reconnect_failures, before.reconnect_failures);
}

TEST_F(ClusterTest, NodeDownAtConstructionIsDialedWhenItReturns) {
  build(3, 1);
  SPEED_SEEDED_RNG(rng, 0xD1A1ull);
  cluster_->kill(1);
  const auto client = cluster_->connect(*app_);
  EXPECT_EQ(client->node_health(1), ClusterTransport::NodeHealth::kDown);

  ASSERT_TRUE(cluster_->restart(1));
  std::this_thread::sleep_for(
      std::chrono::milliseconds(client->config().probe_interval_ms + 1));
  Tag tag = random_tag(rng);
  while (client->preference_order(tag).front() != 1) tag = random_tag(rng);
  GetRequest req;
  req.tag = tag;
  req.requester = app_->measurement();
  const Message m =
      app_->ecall([&] { return client->round_trip_message(req); });
  EXPECT_NE(std::get_if<GetResponse>(&m), nullptr);
  EXPECT_EQ(client->node_health(1), ClusterTransport::NodeHealth::kUp);
}

TEST_F(ClusterTest, HeartbeatReportsEntriesAndEpoch) {
  build(3, 1);
  SPEED_SEEDED_RNG(rng, 0xBEA7ull);
  for (int i = 0; i < 10; ++i) ASSERT_EQ(put(random_tag(rng)), PutStatus::kStored);
  cluster_->replicator().broadcast_membership({true, true, true});
  std::uint64_t entries = 0;
  for (std::size_t n = 0; n < 3; ++n) {
    const auto beat = transport_->probe(n);
    ASSERT_TRUE(beat.has_value());
    entries += beat->entries;
    EXPECT_EQ(beat->cluster_epoch, 1u);
    EXPECT_FALSE(beat->degraded);
  }
  EXPECT_EQ(entries, 20u);
}

TEST_F(ClusterTest, MembershipEpochIsMonotonic) {
  build(3, 1);
  auto& repl = cluster_->replicator();
  EXPECT_EQ(repl.broadcast_membership({true, true, true}), 3u);
  EXPECT_EQ(repl.epoch(), 1u);
  EXPECT_EQ(repl.broadcast_membership({true, false, true}), 2u);
  EXPECT_EQ(repl.epoch(), 2u);
  EXPECT_EQ(cluster_->store(0).cluster_view().epoch, 2u);

  // A stale update (epoch 1 after 2) must be ignored, not applied.
  serialize::MembershipUpdate stale;
  stale.epoch = 1;
  stale.members = {{"store-0", serialize::MemberStatus::kUp}};
  const Bytes framed = serialize::encode_message(Message(stale));
  const Message m = serialize::decode_message(cluster_->store(0).handle(framed));
  const auto* ack = std::get_if<serialize::MembershipAck>(&m);
  ASSERT_NE(ack, nullptr);
  EXPECT_FALSE(ack->applied);
  EXPECT_EQ(ack->epoch, 2u);
  EXPECT_EQ(cluster_->store(0).cluster_view().members.size(), 3u);
}

TEST_F(ClusterTest, BulkPullResumesAcrossPagesAndKeepsRingShare) {
  store::ReplicationConfig repl;
  repl.pull_page = 7;  // force several pages over 40 entries
  build(3, 1, net::ClusterConfig{}, repl);
  SPEED_SEEDED_RNG(rng, 0x9A6E5ull);
  std::vector<Tag> tags;
  for (int i = 0; i < 40; ++i) {
    tags.push_back(random_tag(rng));
    ASSERT_EQ(put(tags.back()), PutStatus::kStored);
  }
  std::size_t node2_share = 0;
  for (const Tag& t : tags) {
    const auto o = owners(t);
    if (std::find(o.begin(), o.end(), std::size_t{2}) != o.end()) ++node2_share;
  }
  ASSERT_GT(node2_share, 0u);

  cluster_->kill(2);
  ASSERT_TRUE(cluster_->restart(2));
  EXPECT_EQ(cluster_->store(2).stats().entries, 0u);
  const std::size_t merged = cluster_->rejoin(2);
  // The rejoining node pulled exactly its ring share — every tag it owns,
  // none it doesn't — across multiple resumable pages.
  EXPECT_EQ(merged, node2_share);
  EXPECT_EQ(cluster_->store(2).stats().entries, node2_share);
}

TEST_F(ClusterTest, AntiEntropyPushRestoresReplicationAfterWipe) {
  build(3, 1);
  SPEED_SEEDED_RNG(rng, 0xA47E0ull);
  std::vector<Tag> tags;
  for (int i = 0; i < 30; ++i) {
    tags.push_back(random_tag(rng));
    ASSERT_EQ(put(tags.back()), PutStatus::kStored);
    // Heat the entries so the push round ranks them.
    get_found(tags.back());
  }
  cluster_->kill(1);
  ASSERT_TRUE(cluster_->restart(1));
  // Hot-entry push from the surviving nodes re-fills node 1's share.
  cluster_->anti_entropy_round();
  EXPECT_GT(cluster_->store(1).stats().entries, 0u);
  EXPECT_GT(cluster_->replicator().stats().pushed_entries, 0u);
  for (const Tag& t : tags) EXPECT_TRUE(get_found(t));
}

TEST_F(ClusterTest, InfraMessagesRejectedOnApplicationSessions) {
  // An application credential must not reach the infra plane: PUSH merges
  // bypass quota accounting, PULL walks the whole dictionary.
  sgx::Platform platform(fast_model());
  store::ResultStore store(platform);
  auto app = platform.create_enclave("rogue-app");
  auto conn = store::connect_app(store, *app);
  net::SecureChannel client(std::move(conn.session_key), /*is_initiator=*/true);

  const auto send = [&](const Message& m) {
    const Bytes frame = client.wrap(serialize::encode_message(m));
    return conn.transport->round_trip(frame);
  };
  EXPECT_THROW(send(Message(serialize::SyncRequest{4})), ProtocolError);

  // The same messages are served on the infra plane (host-framed handle()).
  const Bytes framed =
      serialize::encode_message(Message(serialize::PullRequest{}));
  const Message m = serialize::decode_message(store.handle(framed));
  EXPECT_NE(std::get_if<serialize::PullResponse>(&m), nullptr);
}

// Regression for the two-tier metadata refactor (PROTOCOL.md §11): with
// resident_meta_bytes = 0 every entry's full record is cold — only the
// 32-byte slot stays in EPC — so bulk pulls, anti-entropy pushes, and GETs
// must all fault records back in from the sealed spill tier. A cursor walk
// that only visited decoded-resident records would silently under-replicate.
TEST_F(ClusterTest, ColdSpilledMetadataReplicatesThroughPullAndPush) {
  store::ReplicationConfig repl;
  repl.pull_page = 7;  // several resumable pages over 40 entries
  store::StoreConfig sc;
  sc.resident_meta_bytes = 0;  // no decoded-record cache: everything is cold
  build(3, 1, net::ClusterConfig{}, repl, sc);
  SPEED_SEEDED_RNG(rng, 0xC01DCA7ull);
  std::vector<Tag> tags;
  for (int i = 0; i < 40; ++i) {
    tags.push_back(random_tag(rng));
    ASSERT_EQ(put(tags.back()), PutStatus::kStored);
    get_found(tags.back());  // heat entries for the anti-entropy ranking
  }
  // Prove the entries really are cold: every PUT spilled its record and the
  // GETs above had to fault them back in.
  std::uint64_t spills = 0;
  std::uint64_t fault_ins = 0;
  for (std::size_t n = 0; n < 3; ++n) {
    spills += cluster_->store(n).stats().meta_spills;
    fault_ins += cluster_->store(n).stats().meta_fault_ins;
  }
  EXPECT_EQ(spills, 2u * tags.size());  // r=1: two replicas per tag
  EXPECT_GT(fault_ins, 0u);

  // Bulk pull: a wiped node's rejoin must recover its exact ring share even
  // though the donors hold every record spilled.
  std::size_t node2_share = 0;
  for (const Tag& t : tags) {
    const auto o = owners(t);
    if (std::find(o.begin(), o.end(), std::size_t{2}) != o.end()) ++node2_share;
  }
  ASSERT_GT(node2_share, 0u);
  cluster_->kill(2);
  ASSERT_TRUE(cluster_->restart(2));
  EXPECT_EQ(cluster_->rejoin(2), node2_share);
  EXPECT_EQ(cluster_->store(2).stats().entries, node2_share);

  // Anti-entropy push: cold entries still rank and replicate.
  cluster_->kill(1);
  ASSERT_TRUE(cluster_->restart(1));
  cluster_->anti_entropy_round();
  EXPECT_GT(cluster_->replicator().stats().pushed_entries, 0u);
  for (const Tag& t : tags) {
    EXPECT_TRUE(get_found(t)) << "cold entry lost through replication";
  }
}

TEST_F(ClusterTest, RuntimeUsesClusterForDedup) {
  build(3, 1);
  runtime::RuntimeConfig rc;
  rc.local_cache = false;  // force every repeat through the cluster
  rc.async_put = false;    // deterministic store state after each call
  runtime::DedupRuntime rt(*app_, transport_, rc);
  rt.libraries().register_library("libtest", "1.0", as_bytes("code"));
  const auto fn = rt.resolve({"libtest", "1.0", "Bytes f(Bytes)"});

  int computes = 0;
  const auto compute = [&]() -> Bytes {
    ++computes;
    return Bytes{9, 9, 9};
  };
  const Bytes input{1, 2, 3};
  const auto first = rt.execute(fn, input, compute);
  EXPECT_FALSE(first.deduplicated);
  const auto second = rt.execute(fn, input, compute);
  EXPECT_TRUE(second.deduplicated);
  EXPECT_EQ(second.result, first.result);
  EXPECT_EQ(computes, 1);

  // A second application on the same cluster deduplicates cross-app.
  auto app2 = platform_.create_enclave("cluster-app-2");
  runtime::DedupRuntime rt2(*app2, cluster_->connect(*app2), rc);
  rt2.libraries().register_library("libtest", "1.0", as_bytes("code"));
  const auto fn2 = rt2.resolve({"libtest", "1.0", "Bytes f(Bytes)"});
  int computes2 = 0;
  const auto outcome = rt2.execute(fn2, input, [&]() -> Bytes {
    ++computes2;
    return Bytes{9, 9, 9};
  });
  EXPECT_TRUE(outcome.deduplicated);
  EXPECT_EQ(computes2, 0);
}

}  // namespace
}  // namespace speed
