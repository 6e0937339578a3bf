// Compression gateway with hot-entry replication across machines.
//
// Two bandwidth-optimizing gateways (paper's case study 2, §IV-B Remark)
// run on different physical machines, each with its own local ResultStore.
// The anti-entropy replicator (store/replication.h) periodically pushes
// machine A's popular entries to machine B. Because tags are deterministic
// and the RCE keywrap is keyless, machine B's gateway decrypts machine A's
// results even though the two machines share no keys.
//
//   $ ./compression_gateway
#include <cstdio>

#include "apps/deflate/deflate.h"
#include "runtime/speed.h"
#include "workload/synthetic.h"

using namespace speed;

namespace {

struct Gateway {
  Gateway(sgx::Platform& platform, store::ResultStore& store,
          const std::string& name)
      : enclave(platform.create_enclave(name)),
        connection(store::connect_app(store, *enclave)),
        rt(*enclave, std::move(connection.session_key), std::move(connection.transport)) {
    rt.libraries().register_library(deflate::kLibraryFamily,
                                    deflate::kLibraryVersion,
                                    as_bytes("zlib-compatible deflate v1"));
    compress = std::make_unique<runtime::Deduplicable<Bytes(const Bytes&)>>(
        rt,
        serialize::FunctionDescriptor{deflate::kLibraryFamily,
                                      deflate::kLibraryVersion,
                                      "bytes deflate(bytes)"},
        [this](const Bytes& in) {
          ++executions;
          return deflate::compress(in);
        });
  }

  std::unique_ptr<sgx::Enclave> enclave;
  store::AppConnection connection;
  runtime::DedupRuntime rt;
  std::unique_ptr<runtime::Deduplicable<Bytes(const Bytes&)>> compress;
  int executions = 0;
};

}  // namespace

int main() {
  // Two machines, each with a local store.
  sgx::Platform machine_a;
  sgx::Platform machine_b;
  store::ResultStore store_a(machine_a);
  store::ResultStore store_b(machine_b);

  Gateway gw_a(machine_a, store_a, "gateway");
  Gateway gw_b(machine_b, store_b, "gateway");

  // Machine A compresses ten documents (some popular web assets).
  std::vector<Bytes> documents;
  for (int i = 0; i < 10; ++i) {
    documents.push_back(to_bytes(workload::synth_text(200 * 1024,
                                                      static_cast<std::uint64_t>(i))));
  }
  std::printf("machine A compresses 10 documents...\n");
  Stopwatch sw;
  std::size_t bytes_out = 0;
  for (const auto& doc : documents) bytes_out += (*gw_a.compress)(doc).size();
  gw_a.rt.flush();
  std::printf("  %.0f ms, ratio %.2fx, %d compressions\n", sw.elapsed_ms(),
              static_cast<double>(documents.size() * 200 * 1024) / static_cast<double>(bytes_out),
              gw_a.executions);

  // Nightly push of A's hottest entries to B (entries are self-protecting
  // AEAD ciphertexts, so replication needs no key exchange).
  store::ReplicationConfig replication;
  replication.hot_entries = 10;
  store::ClusterReplicator replicator(
      {store::PeerStore{"machine-a",
                        [&](ByteView r) { return store_a.handle(r); }},
       store::PeerStore{"machine-b",
                        [&](ByteView r) { return store_b.handle(r); }}},
      replication);
  const std::size_t to_b = replicator.push_hot_entries(0);
  std::printf("replication: %zu entries pushed to machine B\n", to_b);

  // Machine B sees an overlapping document mix.
  std::printf("machine B compresses 10 documents (8 already popular)...\n");
  sw.reset();
  bytes_out = 0;
  for (int i = 0; i < 8; ++i) {
    bytes_out += (*gw_b.compress)(documents[static_cast<std::size_t>(i)]).size();
  }
  for (int i = 0; i < 2; ++i) {
    const Bytes fresh = to_bytes(workload::synth_text(200 * 1024,
                                                      100 + static_cast<std::uint64_t>(i)));
    bytes_out += (*gw_b.compress)(fresh).size();
  }
  gw_b.rt.flush();
  std::printf("  %.0f ms, %d compressions (8 reused across machines)\n",
              sw.elapsed_ms(), gw_b.executions);

  // Round-trip sanity: a reused compressed document still decompresses.
  const Bytes reused = (*gw_b.compress)(documents[0]);
  std::printf("integrity check: reused result decompresses correctly: %s\n",
              deflate::decompress(reused) == documents[0] ? "yes" : "NO");
  return 0;
}
