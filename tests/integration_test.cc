// End-to-end integration tests: the four paper case studies running through
// the real SPEED stack (app enclaves + secure channels + encrypted store),
// cross-application sharing, Zipf workloads, hot-entry replication across
// machines, EPC behaviour, and store persistence across restarts.
#include <gtest/gtest.h>

#include "apps/deflate/deflate.h"
#include "apps/mapreduce/bow.h"
#include "apps/sift/sift.h"
#include "apps/match/ruleset.h"
#include "runtime/speed.h"
#include "workload/synthetic.h"

namespace speed {
namespace {

using runtime::Deduplicable;
using runtime::DedupRuntime;
using runtime::RuntimeConfig;

sgx::CostModel fast_model() {
  sgx::CostModel m;
  m.ecall_ns = 0;
  m.ocall_ns = 0;
  m.epc_page_swap_ns = 0;
  return m;
}

struct App {
  App(sgx::Platform& platform, store::ResultStore& store,
      const std::string& identity, RuntimeConfig config = RuntimeConfig{})
      : enclave(platform.create_enclave(identity)),
        connection(store::connect_app(store, *enclave)),
        rt(*enclave, std::move(connection.session_key), std::move(connection.transport),
           std::move(config)) {}

  std::unique_ptr<sgx::Enclave> enclave;
  store::AppConnection connection;
  DedupRuntime rt;
};

class IntegrationTest : public ::testing::Test {
 protected:
  IntegrationTest() : platform_(fast_model()), store_(platform_) {}

  sgx::Platform platform_;
  store::ResultStore store_;
};

// --------------------------------------------------- case study 1: SIFT

TEST_F(IntegrationTest, SiftFeatureExtractionService) {
  App app(platform_, store_, "image-service");
  app.rt.libraries().register_library(sift::kLibraryFamily,
                                      sift::kLibraryVersion,
                                      as_bytes("sift-code-v1"));
  int executions = 0;
  Deduplicable<std::vector<sift::Keypoint>(const sift::Image&)> dedup_sift(
      app.rt, {sift::kLibraryFamily, sift::kLibraryVersion,
               "vector<Keypoint> sift(Image)"},
      [&](const sift::Image& img) {
        ++executions;
        return sift::extract_sift(img);
      });

  const sift::Image img = workload::synth_image(96, 96, 1);
  const auto k1 = dedup_sift(img);
  app.rt.flush();
  const auto k2 = dedup_sift(img);

  EXPECT_EQ(k1, k2);
  EXPECT_EQ(executions, 1);
  EXPECT_FALSE(k1.empty());
  EXPECT_TRUE(dedup_sift.last_was_deduplicated());
}

// ------------------------------------------------ case study 2: deflate

TEST_F(IntegrationTest, CompressionGatewayCrossApplication) {
  App gateway_a(platform_, store_, "gateway-a");
  App gateway_b(platform_, store_, "gateway-b");
  for (App* app : {&gateway_a, &gateway_b}) {
    app->rt.libraries().register_library(deflate::kLibraryFamily,
                                         deflate::kLibraryVersion,
                                         as_bytes("deflate-code-v1"));
  }
  const serialize::FunctionDescriptor desc{
      deflate::kLibraryFamily, deflate::kLibraryVersion, "bytes deflate(bytes)"};

  int exec_a = 0, exec_b = 0;
  Deduplicable<Bytes(const Bytes&)> deflate_a(
      gateway_a.rt, desc, [&](const Bytes& in) {
        ++exec_a;
        return deflate::compress(in);
      });
  Deduplicable<Bytes(const Bytes&)> deflate_b(
      gateway_b.rt, desc, [&](const Bytes& in) {
        ++exec_b;
        return deflate::compress(in);
      });

  const Bytes file = to_bytes(workload::synth_text(50000, 3));
  const Bytes ca = deflate_a(file);
  gateway_a.rt.flush();
  const Bytes cb = deflate_b(file);  // different app, same file

  EXPECT_EQ(ca, cb);
  EXPECT_EQ(exec_a, 1);
  EXPECT_EQ(exec_b, 0) << "gateway B reused gateway A's result";
  EXPECT_EQ(deflate::decompress(cb), file) << "reused result decompresses";
}

// ------------------------------------------- case study 3: pattern match

TEST_F(IntegrationTest, VirusScannerOnRepeatedTraffic) {
  App scanner(platform_, store_, "virus-scanner");
  scanner.rt.libraries().register_library(match::kLibraryFamily,
                                          match::kLibraryVersion,
                                          as_bytes("pcre-code-v1"));
  const auto rules = workload::synth_ruleset(150, 5);
  const match::RuleSet ruleset(rules);

  int executions = 0;
  Deduplicable<std::vector<std::uint32_t>(const Bytes&)> dedup_scan(
      scanner.rt,
      {match::kLibraryFamily, match::kLibraryVersion,
       "vector<u32> pcre_exec(payload)"},
      [&](const Bytes& payload) {
        ++executions;
        return ruleset.scan(payload);
      });

  // 40 distinct payloads, scanned through a Zipf stream of 200 requests —
  // the "repeated files at an online virus scanner" scenario.
  const auto trace = workload::synth_packet_trace(40, 512, rules, 0.3, 7);
  const auto stream = workload::zipf_request_stream(40, 200, 1.1, 9);
  std::size_t alerts = 0;
  for (const std::size_t idx : stream) {
    alerts += dedup_scan(trace[idx].payload).size();
    scanner.rt.flush();
  }
  EXPECT_LE(executions, 40) << "each distinct payload scanned at most once";
  const auto stats = scanner.rt.stats();
  EXPECT_EQ(stats.calls, 200u);
  // Repeats are deduplicated either by the store or by the runtime's
  // in-enclave result cache; every non-computed call is one or the other.
  EXPECT_EQ(stats.hits + stats.local_hits,
            200u - static_cast<std::uint64_t>(executions));
  (void)alerts;
}

// --------------------------------------------------- case study 4: BoW

TEST_F(IntegrationTest, BowOverIncrementalCrawl) {
  App analytics(platform_, store_, "bow-analytics");
  analytics.rt.libraries().register_library(mapreduce::kLibraryFamily,
                                            mapreduce::kLibraryVersion,
                                            as_bytes("mapreduce-code-v1"));
  int executions = 0;
  Deduplicable<mapreduce::WordHistogram(const std::vector<std::string>&)>
      dedup_bow(analytics.rt,
                {mapreduce::kLibraryFamily, mapreduce::kLibraryVersion,
                 "histogram bow_mapper(docs)"},
                [&](const std::vector<std::string>& docs) {
                  ++executions;
                  return mapreduce::bag_of_words(docs);
                });

  std::vector<std::string> batch;
  for (int i = 0; i < 5; ++i) {
    batch.push_back(workload::synth_web_page(1500, static_cast<std::uint64_t>(i)));
  }
  const auto h1 = dedup_bow(batch);
  analytics.rt.flush();
  // Incremental crawl re-processes the same batch (plus a new one).
  const auto h2 = dedup_bow(batch);
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(executions, 1);

  batch.push_back(workload::synth_web_page(1500, 99));
  const auto h3 = dedup_bow(batch);
  EXPECT_EQ(executions, 2) << "extended batch is a new computation";
  EXPECT_NE(h3, h1);
}

// ------------------------------------------------------- cross-cutting

TEST_F(IntegrationTest, ManyAppsShareOneStore) {
  // Four different applications (the paper's deployment) hitting one store
  // with overlapping workloads; the store sees each unique tag once.
  std::vector<std::unique_ptr<App>> apps;
  for (int i = 0; i < 4; ++i) {
    apps.push_back(std::make_unique<App>(platform_, store_,
                                         "tenant-" + std::to_string(i)));
    apps.back()->rt.libraries().register_library("common-lib", "1.0",
                                                 as_bytes("common-code"));
  }
  int total_exec = 0;
  std::vector<std::unique_ptr<Deduplicable<Bytes(const Bytes&)>>> fns;
  for (auto& app : apps) {
    fns.push_back(std::make_unique<Deduplicable<Bytes(const Bytes&)>>(
        app->rt, serialize::FunctionDescriptor{"common-lib", "1.0", "f"},
        [&total_exec](const Bytes& in) {
          ++total_exec;
          return concat(in, as_bytes("-out"));
        }));
  }
  // Each app processes the same 10 inputs.
  for (int round = 0; round < 10; ++round) {
    const Bytes input = to_bytes("shared-input-" + std::to_string(round));
    for (std::size_t a = 0; a < apps.size(); ++a) {
      const Bytes out = (*fns[a])(input);
      EXPECT_EQ(out, concat(input, as_bytes("-out")));
      apps[a]->rt.flush();
    }
  }
  EXPECT_EQ(total_exec, 10) << "each input computed once across 4 apps";
  EXPECT_EQ(store_.stats().entries, 10u);
  EXPECT_EQ(store_.stats().hits, 30u);
}

TEST_F(IntegrationTest, MasterSyncAcrossMachines) {
  // Machine A computes; the anti-entropy push carries its hottest entry to
  // machine B's store; machine B's app decrypts without recomputing — the
  // §IV-B Remark scenario.
  sgx::Platform machine_b(fast_model());
  store::ResultStore store_b(machine_b);

  App app_a(platform_, store_, "worker");
  app_a.rt.libraries().register_library("lib", "1", as_bytes("code"));
  int exec_a = 0;
  Deduplicable<Bytes(const Bytes&)> fa(
      app_a.rt, {"lib", "1", "f"}, [&](const Bytes& in) {
        ++exec_a;
        return concat(in, as_bytes("!"));
      });
  const Bytes input = to_bytes("popular-input");
  fa(input);
  app_a.rt.flush();

  // Replicate machine A's store -> machine B's store.
  store::ClusterReplicator replicator(
      {store::PeerStore{"machine-a",
                        [this](ByteView r) { return store_.handle(r); }},
       store::PeerStore{"machine-b",
                        [&store_b](ByteView r) { return store_b.handle(r); }}});
  EXPECT_EQ(replicator.push_hot_entries(0), 1u);

  // Machine B's application (same code + input) reuses the result.
  App app_b(machine_b, store_b, "worker");
  app_b.rt.libraries().register_library("lib", "1", as_bytes("code"));
  int exec_b = 0;
  Deduplicable<Bytes(const Bytes&)> fb(
      app_b.rt, {"lib", "1", "f"}, [&](const Bytes& in) {
        ++exec_b;
        return concat(in, as_bytes("!"));
      });
  const Bytes out = fb(input);
  EXPECT_EQ(out, concat(input, as_bytes("!")));
  EXPECT_EQ(exec_b, 0) << "cross-machine reuse through the pushed entry";
  EXPECT_EQ(exec_a, 1);
}

TEST_F(IntegrationTest, StoreRestartRecoversFromWal) {
  // The durable backend outlives the store: a restarted store replays the
  // sealed WAL and serves the old result.
  store::StoreConfig durable;
  durable.backend = std::make_shared<store::MemoryBackend>(/*record_wal=*/true);
  int executions = 0;
  const auto compute = [&](const Bytes& in) {
    ++executions;
    return in;
  };
  {
    store::ResultStore first_run(platform_, durable);
    App app(platform_, first_run, "persistent-app");
    app.rt.libraries().register_library("lib", "1", as_bytes("code"));
    Deduplicable<Bytes(const Bytes&)> f(app.rt, {"lib", "1", "f"}, compute);
    f(to_bytes("survives"));
    app.rt.flush();
  }

  store::ResultStore revived(platform_, durable);
  App app2(platform_, revived, "persistent-app");
  app2.rt.libraries().register_library("lib", "1", as_bytes("code"));
  Deduplicable<Bytes(const Bytes&)> f2(app2.rt, {"lib", "1", "f"}, compute);
  EXPECT_EQ(f2(to_bytes("survives")), to_bytes("survives"));
  EXPECT_EQ(executions, 1) << "restarted store serves the old result";
}

TEST_F(IntegrationTest, EpcStaysSmallWhileCiphertextsGrow) {
  // The trusted-footprint bound below is about the *store*; disable the
  // app-side result cache so its (legitimate, byte-capped) EPC charge does
  // not drown the measurement.
  RuntimeConfig no_cache;
  no_cache.local_cache = false;
  App app(platform_, store_, "bulk-app", std::move(no_cache));
  app.rt.libraries().register_library("lib", "1", as_bytes("code"));
  Deduplicable<Bytes(const Bytes&)> f(
      app.rt, {"lib", "1", "expand"}, [](const Bytes& in) {
        Bytes out;
        for (int i = 0; i < 64; ++i) append(out, in);  // 64x expansion
        return out;
      });
  const std::uint64_t epc_before = platform_.epc().used_bytes();
  Xoshiro256 rng(77);
  for (int i = 0; i < 50; ++i) {
    f(rng.bytes(4096));  // each result ~256 KB ciphertext
  }
  app.rt.flush();
  const std::uint64_t epc_growth = platform_.epc().used_bytes() - epc_before;
  const std::uint64_t ct_bytes = store_.stats().ciphertext_bytes;
  EXPECT_GT(ct_bytes, 10ull << 20) << "~12 MB of ciphertext stored";
  EXPECT_LT(epc_growth, 64ull << 10)
      << "trusted footprint stays metadata-sized (paper §III-A)";
}

TEST_F(IntegrationTest, HostCorruptionDegradesGracefully) {
  // Exercises the store's corrupt-blob detection on a repeated call; the
  // local cache would serve the repeat without ever touching the bad blob.
  RuntimeConfig no_cache;
  no_cache.local_cache = false;
  App app(platform_, store_, "resilient-app", std::move(no_cache));
  app.rt.libraries().register_library("lib", "1", as_bytes("code"));
  int executions = 0;
  Deduplicable<Bytes(const Bytes&)> f(
      app.rt, {"lib", "1", "f"}, [&](const Bytes& in) {
        ++executions;
        return concat(in, as_bytes("?"));
      });
  const Bytes input = to_bytes("target");
  const Bytes expected = concat(input, as_bytes("?"));
  EXPECT_EQ(f(input), expected);
  app.rt.flush();

  // Malicious host flips bits in the stored ciphertext.
  const auto fn = app.rt.resolve({"lib", "1", "f"});
  serialize::Encoder enc;
  serialize::Serde<Bytes>::encode(enc, input);
  ASSERT_TRUE(store_.corrupt_blob_for_testing(mle::derive_tag(fn, enc.view())));

  // Next call: store detects the bad blob, misses, app recomputes + re-puts.
  EXPECT_EQ(f(input), expected);
  EXPECT_EQ(executions, 2);
  app.rt.flush();
  // And the store is healthy again.
  EXPECT_EQ(f(input), expected);
  EXPECT_EQ(executions, 2);
  EXPECT_EQ(store_.stats().corrupt_blobs, 1u);
}

}  // namespace
}  // namespace speed
