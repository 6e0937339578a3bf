// Replicated cluster deployment: the dedup dictionary spread over three
// store nodes with client-side failover (docs/PROTOCOL.md §8).
//
// Results are rendezvous-hashed to a primary plus one replica; a PUT is
// acknowledged only once both copies are placed, so killing any single node
// loses no acknowledged result. The example demonstrates the whole fault
// cycle live: dedup across two applications, a node killed mid-traffic
// (GETs fail over to the surviving replica), the cluster degrading to
// local compute when every node is down, and a restarted node re-attesting,
// pulling its ring share back and being re-admitted by the clients' probes
// before serving again.
//
//   $ ./cluster_deployment
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>

#include "runtime/speed.h"
#include "workload/synthetic.h"

using namespace speed;

namespace {

constexpr char kFamily[] = "example-analytics";
constexpr char kVersion[] = "1.0";

/// A deliberately slow deterministic "analytics" pass, the deduplicable
/// unit of work (any pure function of its input bytes qualifies).
Bytes analyze(ByteView input) {
  std::uint64_t acc = 0xcbf29ce484222325ull;
  for (int round = 0; round < 2000; ++round) {
    for (const std::uint8_t b : input) {
      acc = (acc ^ b) * 0x100000001b3ull;
    }
  }
  Bytes out(8);
  for (std::size_t i = 0; i < 8; ++i) {
    out[i] = static_cast<std::uint8_t>(acc >> (8 * i));
  }
  return out;
}

}  // namespace

int main() {
  sgx::Platform platform;

  // Three store nodes, one replica per entry: every acknowledged result
  // survives any single node failure.
  store::InprocClusterConfig cluster_cfg;
  cluster_cfg.nodes = 3;
  cluster_cfg.cluster.replicas = 1;
  store::InprocCluster cluster(platform, cluster_cfg);
  std::printf("cluster: %zu nodes, %zu replica(s) per entry\n",
              cluster.node_count(), cluster_cfg.cluster.replicas);

  // Two independent applications share the cluster — the paper's
  // cross-application dedup scenario.
  auto make_app = [&](const char* name) {
    auto enclave = platform.create_enclave(name);
    // Local in-enclave caching off for the demo: every call visibly routes
    // through the cluster walk (production keeps it on).
    runtime::RuntimeConfig rt_cfg;
    rt_cfg.local_cache = false;
    auto rt = std::make_unique<runtime::DedupRuntime>(
        *enclave, cluster.connect(*enclave), rt_cfg);
    rt->libraries().register_library(kFamily, kVersion,
                                     as_bytes("analytics kernel v1"));
    return std::make_pair(std::move(enclave), std::move(rt));
  };
  auto [enclave_a, rt_a] = make_app("web-frontend");
  auto [enclave_b, rt_b] = make_app("batch-worker");
  const auto fn_a = rt_a->resolve({kFamily, kVersion, "Bytes analyze(Bytes)"});
  const auto fn_b = rt_b->resolve({kFamily, kVersion, "Bytes analyze(Bytes)"});

  const Bytes request = to_bytes("GET /report?window=24h");
  const auto run = [&](runtime::DedupRuntime& rt, const auto& fn,
                       const char* who) {
    const auto outcome =
        rt.execute(fn, request, [&] { return analyze(request); });
    std::printf("  %-12s -> %s\n", who,
                outcome.deduplicated ? "deduplicated (served from cluster)"
                                     : "computed locally");
  };

  std::printf("\n--- healthy: cross-application dedup ---\n");
  run(*rt_a, fn_a, "web-frontend");  // miss: computes, PUT to both owners
  run(*rt_b, fn_b, "batch-worker");  // hit: B never ran analyze()
  rt_a->flush();
  rt_b->flush();

  std::printf("\n--- node 1 killed mid-traffic ---\n");
  cluster.kill(1);
  run(*rt_b, fn_b, "batch-worker");  // still a hit: replica serves the GET

  std::printf("\n--- total outage: every node down ---\n");
  cluster.kill(0);
  cluster.kill(2);
  run(*rt_a, fn_a, "web-frontend");  // degrades to local compute, no error
  std::printf("  degraded calls so far: %llu\n",
              static_cast<unsigned long long>(rt_a->stats().degraded_calls));

  std::printf("\n--- recovery: restart, re-attest, rejoin ---\n");
  for (std::size_t node = 0; node < cluster.node_count(); ++node) {
    if (!cluster.restart(node)) {
      std::printf("  node %zu failed re-attestation\n", node);
      return 1;
    }
  }
  // A restarted node comes back EMPTY; rejoin pulls its rendezvous share
  // back from the live peers (resumable bulk sync), and an anti-entropy
  // round re-replicates anything placed sloppily during the outage.
  const std::size_t pulled = cluster.rejoin(1);
  cluster.anti_entropy_round();
  std::printf("  node 1 rejoined, pulled %zu entries\n", pulled);
  // A client skips a node it saw fail, without I/O, for one probe
  // interval; its first call past that probes the node and re-admits it.
  std::this_thread::sleep_for(
      std::chrono::milliseconds(cluster_cfg.cluster.probe_interval_ms));
  run(*rt_a, fn_a, "web-frontend");  // repopulates the wiped dictionary
  rt_a->flush();
  run(*rt_b, fn_b, "batch-worker");  // dedup is back across applications

  const auto stats = rt_a->cluster()->stats();
  std::printf("\nclient walk stats: %llu GETs, %llu PUTs, %llu failovers, "
              "%llu unavailable\n",
              static_cast<unsigned long long>(stats.gets),
              static_cast<unsigned long long>(stats.puts),
              static_cast<unsigned long long>(stats.failovers),
              static_cast<unsigned long long>(stats.unavailable));
  return 0;
}
