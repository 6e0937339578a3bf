// Diverged replicas on the streaming data path (docs/PROTOCOL.md §10): the
// two owners of one tag can hold different writers' entries for the same
// content, because a store keeps the first write it sees and two writers
// can each win on a different node. A stream must read from either. The
// deterministic tests place the writers' entries by hand; the concurrent
// test lets two tenants race for the same new chunks, then loses a node.
// Labeled `chaos` so CI repeats it under ThreadSanitizer.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "runtime/speed.h"
#include "store/inproc_cluster.h"
#include "test_seed.h"
#include "workload/stream_corpus.h"

namespace speed {
namespace {

sgx::CostModel fast_model() {
  sgx::CostModel m;
  m.ecall_ns = 0;
  m.ocall_ns = 0;
  m.epc_page_swap_ns = 0;
  return m;
}

mle::FunctionIdentity stream_identity(runtime::DedupRuntime& rt) {
  rt.libraries().register_library("stream-lib", "1.0", as_bytes("code v1"));
  return rt.resolve({"stream-lib", "1.0", "bytes put_stream(bytes)"});
}

store::InprocClusterConfig three_nodes_one_replica() {
  store::InprocClusterConfig c;
  c.nodes = 3;
  c.cluster.replicas = 1;
  return c;
}

/// One writer: a single store of its own that a stream is put into, so its
/// entries can be copied onto chosen cluster nodes.
struct Writer {
  Writer()
      : platform(fast_model()),
        result_store(platform),
        enclave(platform.create_enclave("stream-writer")) {
    auto conn = store::connect_app(result_store, *enclave);
    session = std::move(conn.session);
    rt = std::make_unique<runtime::DedupRuntime>(
        *enclave, std::move(conn.session_key), std::move(conn.transport));
    stream = std::make_unique<runtime::StreamSession>(*rt,
                                                      stream_identity(*rt));
  }

  serialize::EntryPayload entry(const serialize::Tag& tag) {
    serialize::GetRequest get;
    get.tag = tag;
    get.requester = enclave->measurement();
    const serialize::GetResponse found = result_store.get(get);
    EXPECT_TRUE(found.found);
    return found.entry;
  }

  sgx::Platform platform;
  store::ResultStore result_store;
  std::unique_ptr<sgx::Enclave> enclave;
  std::unique_ptr<store::StoreSession> session;
  std::unique_ptr<runtime::DedupRuntime> rt;
  std::unique_ptr<runtime::StreamSession> stream;
};

/// A 3-node, one-replica cluster and a reader enclave routed to it.
struct Cluster {
  Cluster()
      : platform(fast_model()),
        cluster(platform, three_nodes_one_replica()),
        reader(platform.create_enclave("stream-reader")),
        transport(cluster.connect(*reader)) {}

  /// Stores `entry` under `tag` on the tag's `rank`-th owner (0 = primary).
  void place(const serialize::Tag& tag, std::size_t rank,
             const serialize::EntryPayload& entry) {
    serialize::PutRequest put;
    put.tag = tag;
    put.requester = reader->measurement();
    put.entry = entry;
    const std::size_t node = transport->preference_order(tag)[rank];
    ASSERT_EQ(cluster.store(node).put(put).status,
              serialize::PutStatus::kStored);
  }

  /// get() through a fresh runtime on the cluster; nullopt (with the error
  /// recorded as a test failure) if it throws.
  std::optional<Bytes> read(const runtime::StreamHandle& handle) {
    runtime::DedupRuntime rt(*reader, transport);
    runtime::StreamSession session(rt, stream_identity(rt));
    try {
      return session.get(handle);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "get() threw: " << e.what();
      return std::nullopt;
    }
  }

  sgx::Platform platform;
  store::InprocCluster cluster;
  std::unique_ptr<sgx::Enclave> reader;
  std::shared_ptr<net::ClusterTransport> transport;
};

/// Every node in turn, and no node at all (nullopt).
std::vector<std::optional<std::size_t>> kills() {
  return {std::nullopt, 0, 1, 2};
}

std::string describe(std::optional<std::size_t> killed) {
  return killed.has_value() ? "node " + std::to_string(*killed) + " killed"
                            : "all nodes up";
}

TEST(StreamDivergenceTest, ChunkEntriesOfTwoWritersBothRead) {
  // Every chunk: writer A's entry on its primary, writer B's entry (same
  // content, B's key) on its replica; A's manifest on both owners of the
  // stream tag. A's handle reads exact bytes with every node up and with
  // each node killed, whichever writer's entry each chunk is served from.
  SPEED_SEEDED_RNG(rng, 0x5d170001);
  const Bytes data = rng.bytes(200 * 1024);
  Writer a, b;
  const runtime::StreamHandle handle = a.stream->put(data);
  ASSERT_EQ(handle.kind, runtime::StreamHandle::Kind::kStream);
  b.stream->put(data);
  const auto plan = chunk::ChunkPlan::build(stream_identity(*a.rt), data,
                                            chunk::Chunker());
  ASSERT_GT(plan.chunk_count(), 2u);

  for (const auto killed : kills()) {
    SCOPED_TRACE(describe(killed));
    Cluster c;
    for (std::size_t i = 0; i < plan.chunk_count(); ++i) {
      ASSERT_NO_FATAL_FAILURE(c.place(plan.chunk_tag(i), 0,
                                      a.entry(plan.chunk_tag(i))));
      ASSERT_NO_FATAL_FAILURE(c.place(plan.chunk_tag(i), 1,
                                      b.entry(plan.chunk_tag(i))));
    }
    ASSERT_NO_FATAL_FAILURE(
        c.place(plan.stream_tag(), 0, a.entry(plan.stream_tag())));
    ASSERT_NO_FATAL_FAILURE(
        c.place(plan.stream_tag(), 1, a.entry(plan.stream_tag())));
    if (killed.has_value()) c.cluster.kill(*killed);
    EXPECT_EQ(c.read(handle), std::optional<Bytes>(data));
  }
}

TEST(StreamDivergenceTest, ManifestsOfTwoWritersBothRead) {
  // Writer A's manifest on the stream tag's primary, writer B's on its
  // replica, A's chunk entries on both owners of every chunk. B's handle
  // reads exact bytes from A's manifest with the primary up, and from its
  // own once the primary is killed.
  SPEED_SEEDED_RNG(rng, 0x5d170002);
  const Bytes data = rng.bytes(200 * 1024);
  Writer a, b;
  a.stream->put(data);
  const runtime::StreamHandle handle = b.stream->put(data);
  ASSERT_EQ(handle.kind, runtime::StreamHandle::Kind::kStream);
  const auto plan = chunk::ChunkPlan::build(stream_identity(*a.rt), data,
                                            chunk::Chunker());

  Cluster c;
  for (std::size_t i = 0; i < plan.chunk_count(); ++i) {
    const serialize::EntryPayload entry = a.entry(plan.chunk_tag(i));
    ASSERT_NO_FATAL_FAILURE(c.place(plan.chunk_tag(i), 0, entry));
    ASSERT_NO_FATAL_FAILURE(c.place(plan.chunk_tag(i), 1, entry));
  }
  ASSERT_NO_FATAL_FAILURE(
      c.place(plan.stream_tag(), 0, a.entry(plan.stream_tag())));
  ASSERT_NO_FATAL_FAILURE(
      c.place(plan.stream_tag(), 1, b.entry(plan.stream_tag())));
  EXPECT_EQ(c.read(handle), std::optional<Bytes>(data)) << "primary up";
  c.cluster.kill(c.transport->preference_order(plan.stream_tag())[0]);
  EXPECT_EQ(c.read(handle), std::optional<Bytes>(data)) << "primary killed";
}

TEST(StreamDivergenceTest, ConcurrentTenantsSurviveANodeLoss) {
  // Two tenants put the same new base blob at once, racing for every chunk
  // and for the manifest, then one edited version each. Whichever writer
  // won on each node, every handle reads exact bytes after any one node is
  // lost; each round loses a different node.
  SPEED_SEEDED_RNG(rng, 0x5d170003);
  workload::StreamCorpusConfig corpus;
  corpus.blob_bytes = 128 * 1024;
  for (std::size_t round = 0; round < 3; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    sgx::Platform platform(fast_model());
    store::InprocCluster cluster(platform, three_nodes_one_replica());
    const Bytes base = workload::synth_stream_blob(corpus, rng(), rng());

    struct Tenant {
      std::unique_ptr<sgx::Enclave> enclave;
      std::unique_ptr<runtime::DedupRuntime> rt;
      std::unique_ptr<runtime::StreamSession> stream;
      std::vector<Bytes> blobs;
      std::vector<runtime::StreamHandle> handles;
    };
    std::vector<Tenant> tenants(2);
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      Tenant& tenant = tenants[t];
      tenant.enclave = platform.create_enclave("tenant-" + std::to_string(t));
      runtime::RuntimeConfig config;
      config.batching.enabled = true;
      tenant.rt = std::make_unique<runtime::DedupRuntime>(
          *tenant.enclave, cluster.connect(*tenant.enclave), config);
      tenant.stream = std::make_unique<runtime::StreamSession>(
          *tenant.rt, stream_identity(*tenant.rt));
      tenant.blobs = {base, workload::edit_stream_blob(base, 2, 64, rng())};
    }

    std::vector<std::thread> threads;
    for (Tenant& tenant : tenants) {
      threads.emplace_back([&tenant] {
        for (const Bytes& blob : tenant.blobs) {
          tenant.handles.push_back(tenant.stream->put(blob));
        }
      });
    }
    for (auto& th : threads) th.join();

    cluster.kill(round % cluster.node_count());
    for (Tenant& tenant : tenants) {
      ASSERT_EQ(tenant.handles.size(), tenant.blobs.size());
      for (std::size_t v = 0; v < tenant.blobs.size(); ++v) {
        try {
          EXPECT_EQ(tenant.stream->get(tenant.handles[v]), tenant.blobs[v])
              << "version " << v;
        } catch (const std::exception& e) {
          ADD_FAILURE() << "version " << v << ": get() threw: " << e.what();
        }
      }
      EXPECT_EQ(tenant.rt->stats().stream_degraded, 0u);
    }
  }
}

}  // namespace
}  // namespace speed
