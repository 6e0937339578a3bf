// Separate-process style deployment: the ResultStore served over TCP.
//
// The paper runs applications and the store as separate components (and
// sketches a master store on a dedicated server). This example starts a
// StoreTcpServer on a loopback port and connects two application runtimes
// through real sockets: attested handshake first, then secure-channel
// frames carrying the GET/PUT protocol. The dedup semantics are identical
// to the in-process deployment.
//
// Each client reaches the store as a one-node cluster built from
// store::tcp_node — the production posture: round trips are
// deadline-bounded, and the node's link re-dials and re-attests after a
// failure, so when the store goes down the applications keep answering from
// local compute (fail-open) instead of surfacing socket errors. The example
// exits 1 if a gzip stream it prints does not round-trip.
//
//   $ ./tcp_deployment              # in-memory store, restarts start cold
//   $ ./tcp_deployment /var/speed   # durable store, restarts replay the WAL
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "apps/deflate/container.h"
#include "runtime/speed.h"
#include "store/file_backend.h"
#include "store/tcp_server.h"
#include "telemetry/exposition.h"
#include "workload/synthetic.h"

using namespace speed;

int main(int argc, char** argv) {
  // Optional durable deployment: a directory argument persists the store
  // (blob segments + sealed metadata WAL, docs/PROTOCOL.md §7). The
  // platform's hardware key is derived from the directory so sealed WAL
  // records written before a restart stay readable after it.
  const std::string store_dir = argc > 1 ? argv[1] : "";
  auto platform_ptr =
      store_dir.empty()
          ? std::make_unique<sgx::Platform>()
          : std::make_unique<sgx::Platform>(sgx::CostModel{},
                                            as_bytes(store_dir));
  sgx::Platform& platform = *platform_ptr;
  // Concurrent deployment posture: the TCP server runs one thread per
  // connection, so stripe the store's dictionary across 8 tag-addressed
  // shards and let those threads GET/PUT in parallel.
  store::StoreConfig store_cfg;
  store_cfg.shards = 8;
  std::unique_ptr<store::ResultStore> store_ptr =
      store_dir.empty()
          ? std::make_unique<store::ResultStore>(platform, store_cfg)
          : store::open_result_store(platform, store_dir, store_cfg);
  store::ResultStore& result_store = *store_ptr;
  if (!store_dir.empty()) {
    const auto& rec = result_store.recovery_info();
    std::printf("durable store at %s: recovered %llu entries in %llu ms\n",
                store_dir.c_str(),
                static_cast<unsigned long long>(rec.inserts),
                static_cast<unsigned long long>(rec.recovery_ms));
  }
  // Admin port 0 = ephemeral; serves /metrics (Prometheus), /snapshot.json,
  // /traces.json, and /healthz for the whole process.
  store::StoreTcpServer server(result_store, /*port=*/0, /*admin_port=*/0);
  std::printf("ResultStore listening on 127.0.0.1:%u\n", server.port());
  std::printf("telemetry:   curl http://127.0.0.1:%u/metrics\n",
              server.admin_port());

  auto make_client = [&](const char* name) {
    auto enclave = platform.create_enclave(name);
    auto store_node = std::make_shared<net::ClusterTransport>(
        *enclave, std::vector<net::ClusterNode>{store::tcp_node(
                      *enclave, result_store.enclave().measurement(),
                      "127.0.0.1", server.port(), /*deadline_ms=*/2000)});
    auto rt = std::make_unique<runtime::DedupRuntime>(*enclave,
                                                      std::move(store_node));
    rt->libraries().register_library(deflate::kLibraryFamily,
                                     deflate::kLibraryVersion,
                                     as_bytes("gzip-capable deflate v1"));
    return std::make_pair(std::move(enclave), std::move(rt));
  };

  auto [enclave_a, rt_a] = make_client("web-frontend");
  auto [enclave_b, rt_b] = make_client("cdn-edge");
  std::printf("two clients connected (attested handshakes done)\n");

  int exec_a = 0, exec_b = 0;
  runtime::Deduplicable<Bytes(const Bytes&)> gzip_a(
      *rt_a,
      {deflate::kLibraryFamily, deflate::kLibraryVersion, "bytes gzip(bytes)"},
      [&](const Bytes& in) {
        ++exec_a;
        return deflate::gzip_compress(in);
      });
  runtime::Deduplicable<Bytes(const Bytes&)> gzip_b(
      *rt_b,
      {deflate::kLibraryFamily, deflate::kLibraryVersion, "bytes gzip(bytes)"},
      [&](const Bytes& in) {
        ++exec_b;
        return deflate::gzip_compress(in);
      });

  // The frontend compresses five popular assets; the edge node later sees
  // the same assets and reuses the frontend's results over the wire.
  std::vector<Bytes> assets;
  for (int i = 0; i < 5; ++i) {
    assets.push_back(to_bytes(workload::synth_text(100 * 1024,
                                                   static_cast<std::uint64_t>(i))));
  }
  Stopwatch sw;
  for (const auto& asset : assets) gzip_a(asset);
  rt_a->flush();
  std::printf("frontend: 5 assets gzipped in %.0f ms (%d executed)\n",
              sw.elapsed_ms(), exec_a);

  sw.reset();
  Bytes last;
  for (const auto& asset : assets) last = gzip_b(asset);
  std::printf("edge:     5 assets gzipped in %.0f ms (%d executed, %d reused)\n",
              sw.elapsed_ms(), exec_b, 5 - exec_b);

  const bool reused_ok = deflate::gzip_decompress(last) == assets.back();
  std::printf("reused gzip stream is valid: %s\n", reused_ok ? "yes" : "NO");

  const auto stats = result_store.stats();
  std::printf("store: %llu entries, %llu hits, %llu puts over TCP; "
              "%llu connections\n",
              static_cast<unsigned long long>(stats.entries),
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.put_requests),
              static_cast<unsigned long long>(server.connections_accepted()));

  // A scrape of the admin endpoint sees every instrumented component in
  // the process: runtime outcomes, per-shard store series, channel frame
  // counts, enclave transitions/EPC.
  const std::string page = telemetry::render_prometheus();
  int series = 0;
  for (const char c : page) series += c == '\n' ? 1 : 0;
  std::printf("admin /metrics: %d lines (runtime/store/channel/enclave)\n",
              series);

  // Fail-open: kill the store and keep serving. The edge node's calls
  // degrade to local compute — no exception ever reaches the application.
  server.stop();
  std::printf("store stopped; edge keeps serving...\n");
  const Bytes fresh = to_bytes(workload::synth_text(100 * 1024, 99));
  const Bytes degraded = gzip_b(fresh);
  const bool degraded_ok = deflate::gzip_decompress(degraded) == fresh;
  std::printf("degraded gzip stream is valid: %s (%llu degraded calls)\n",
              degraded_ok ? "yes" : "NO",
              static_cast<unsigned long long>(rt_b->stats().degraded_calls));
  return reused_ok && degraded_ok ? 0 : 1;
}
