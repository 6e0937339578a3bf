// Table I regeneration: latency of the DedupRuntime cryptographic
// operations — Tag Gen., Key Gen. (pick + wrap k), Key Rec., Result Enc.,
// Result Dec. — for 1 KB / 10 KB / 100 KB / 1 MB inputs.
//
// Expected shape (paper Table I): every operation scales linearly with the
// input size, and result encryption/decryption are roughly an order of
// magnitude faster than the three hash-bound operations at 100 KB+ (the
// hash walks func+input; AES-GCM runs on AES-NI). That shape belongs to the
// paper's CPU, which had no SHA extensions: on a CPU with SHA-NI the three
// hash-bound columns drop several-fold, so the last column repeats the hash
// pass on the portable SHA-256 for the comparison with the paper. With both
// SHA-NI and the stitched AES-GCM pass, Enc/Dec land next to the hash-bound
// columns rather than above them.
//
// Output: the table on stdout, and JSON (ms per operation and size, plus
// the host block from bench_common.h) to argv[1], default BENCH_table1.json.
// `--smoke` (or SPEED_BENCH_SMOKE=1) runs 3 trials instead of 30.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench_common.h"
#include "crypto/drbg.h"
#include "crypto/sha256.h"
#include "mle/rce.h"

namespace {

using namespace speed;

constexpr std::size_t kSizes[] = {1024, 10 * 1024, 100 * 1024, 1024 * 1024};

mle::FunctionIdentity make_fn() {
  mle::FunctionIdentity fn;
  fn.descriptor = {"bench-lib", "1.0", "bytes f(bytes)"};
  fn.code_measurement =
      sgx::measure_library("bench-lib", "1.0", as_bytes("bench-code"));
  return fn;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_table1.json";
  bool smoke = std::getenv("SPEED_BENCH_SMOKE") != nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      json_path = argv[i];
    }
  }
  const int trials = smoke ? 3 : 30;

  std::puts("=== Table I: cryptographic operations in DedupRuntime ===");
  std::printf("(mean of %d trials; result size == input size)\n", trials);
  std::printf("SHA-256 compression: %s; AES-GCM: %s\n\n",
              crypto::hw::sha256_available() ? "SHA-NI" : "portable",
              crypto::hw::gcm_width_name(crypto::hw::gcm_width()));

  crypto::Drbg drbg(to_bytes("table1-bench"));
  const mle::FunctionIdentity fn = make_fn();

  TablePrinter table({"Input (KB)", "Tag Gen. (ms)", "Key Gen. (ms)",
                      "Key Rec. (ms)", "Result Enc. (ms)", "Result Dec. (ms)",
                      "Portable SHA-256 (ms)"});
  std::string json_rows;

  for (const std::size_t size : kSizes) {
    const Bytes input = drbg.bytes(size);
    const Bytes result = drbg.bytes(size);

    const double tag_ms = bench::time_ms(trials, [&] {
      const auto t = mle::derive_tag(fn, input);
      __asm__ volatile("" : : "m"(t) : "memory");
    });

    const auto wrapped = mle::ResultCipher::generate_key(fn, input, drbg);
    const double keygen_ms = bench::time_ms(trials, [&] {
      auto wk = mle::ResultCipher::generate_key(fn, input, drbg);
      (void)wk;
    });
    const double keyrec_ms = bench::time_ms(trials, [&] {
      auto k = mle::ResultCipher::recover_key(
          fn, input,
          wrapped.challenge.reveal_for(secret::Purpose::of("bench_timing")),
          wrapped.wrapped_key);
      (void)k;
    });

    const mle::Tag tag = mle::derive_tag(fn, input);
    const Bytes ct =
        mle::ResultCipher::encrypt_result(tag, wrapped.key, result, drbg);
    const double enc_ms = bench::time_ms(trials, [&] {
      auto c = mle::ResultCipher::encrypt_result(tag, wrapped.key, result, drbg);
      (void)c;
    });
    const double dec_ms = bench::time_ms(trials, [&] {
      auto p = mle::ResultCipher::decrypt_result(tag, wrapped.key, ct);
      (void)p;
    });

    const double portable_ms = bench::time_ms(trials, [&] {
      crypto::Sha256 h(crypto::Sha256::Impl::kPortable);
      h.update(input);
      const auto d = h.finish();
      __asm__ volatile("" : : "m"(d) : "memory");
    });

    table.add_row({std::to_string(size / 1024), TablePrinter::fmt(tag_ms),
                   TablePrinter::fmt(keygen_ms), TablePrinter::fmt(keyrec_ms),
                   TablePrinter::fmt(enc_ms), TablePrinter::fmt(dec_ms),
                   TablePrinter::fmt(portable_ms)});
    char row[384];
    std::snprintf(row, sizeof(row),
                  "%s    {\"input_bytes\": %zu, \"tag_gen\": %.4f, "
                  "\"key_gen\": %.4f, \"key_rec\": %.4f, \"result_enc\": %.4f, "
                  "\"result_dec\": %.4f, \"portable_sha256\": %.4f}",
                  json_rows.empty() ? "" : ",\n", size, tag_ms, keygen_ms,
                  keyrec_ms, enc_ms, dec_ms, portable_ms);
    json_rows += row;
  }
  table.print();

  std::puts("\nShape check vs paper Table I:");
  std::puts(" - all columns grow roughly linearly with input size");
  std::puts(" - without SHA-NI (portable column), Enc/Dec are several times");
  std::puts("   faster than the hash pass that bounds Tag Gen / Key Gen / Key Rec");
  std::puts("   (paper: 1.73/0.26 ms vs ~3-6 ms at 1MB)");

  std::string json = "{\n  \"bench\": \"table1_crypto\",\n";
  json += std::string("  \"smoke\": ") + (smoke ? "true" : "false") + ",\n";
  json += "  \"host\": " + bench::host_json() + ",\n";
  json += "  \"trials\": " + std::to_string(trials) + ",\n";
  json += "  \"statistic\": \"mean\",\n  \"unit\": \"ms\",\n";
  json += "  \"rows\": [\n" + json_rows + "\n  ]\n}\n";
  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), out);
  std::fclose(out);
  std::printf("\nWrote %s\n", json_path.c_str());
  return 0;
}
