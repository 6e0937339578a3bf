// Streaming chunked dedup vs whole-call dedup (docs/PROTOCOL.md §10).
//
// Replays a version chain — one base blob plus edited successors and
// byte-shifted copies, the classic backup/sync workload — through both data
// paths and compares what each actually uploads:
//
//   whole-call — DedupRuntime::execute with one tag over the full blob.
//                Any edit or shift changes the tag, so only bit-identical
//                re-puts dedup; every new version re-uploads everything.
//   stream     — StreamSession::put: content-defined chunks, one store
//                entry per chunk, sealed manifest under the stream tag.
//                Untouched chunks dedup no matter where the edit landed.
//
// Headline metric: dedup ratio (logical bytes / bytes actually uploaded)
// per path, and the stream/whole-call improvement factor. The acceptance
// bar is >= 5x improvement on this workload (the bench exits 2 below it).
//
// Also measured: put/get throughput (MB/s) per path; the per-byte cost of
// the put's work before its first round trip — Chunker::split and the whole
// ChunkPlan::build (split, then every chunk and stream context) over a
// 1 MiB corpus blob, median of 31 runs; and the single-chunk regression
// guard — inputs below the minimum chunk size must ride the exact
// whole-call wire path, so a StreamSession put of a small input must cost
// within 5% of a plain per-call execute.
//
// Usage: bench_stream RESULTS.json [--smoke]
//   --smoke (or SPEED_BENCH_SMOKE=1) runs a reduced ~2 s variant for CI.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "workload/stream_corpus.h"

namespace {

using namespace speed;

constexpr std::uint64_t kSeed = 0x57e4bec1ull;

mle::FunctionIdentity bench_identity(runtime::DedupRuntime& rt) {
  rt.libraries().register_library("bench-stream", "1.0",
                                  as_bytes("stream codec v1"));
  return rt.resolve({"bench-stream", "1.0", "bytes put_stream(bytes)"});
}

struct PathResult {
  std::string name;
  std::uint64_t blobs = 0;
  std::uint64_t total_bytes = 0;
  std::uint64_t uploaded_bytes = 0;
  double dedup_ratio = 0;
  double seconds = 0;
  double put_mb_per_s = 0;
  std::uint64_t chunks = 0;
  std::uint64_t chunk_hits = 0;
  std::uint64_t whole_hits = 0;

  std::string json() const {
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "{\"path\": \"%s\", \"blobs\": %llu, \"total_bytes\": %llu, "
        "\"uploaded_bytes\": %llu, \"dedup_ratio\": %.3f, "
        "\"seconds\": %.3f, \"put_mb_per_s\": %.2f, "
        "\"chunks\": %llu, \"chunk_hits\": %llu, \"whole_hits\": %llu}",
        name.c_str(), static_cast<unsigned long long>(blobs),
        static_cast<unsigned long long>(total_bytes),
        static_cast<unsigned long long>(uploaded_bytes), dedup_ratio,
        seconds, put_mb_per_s, static_cast<unsigned long long>(chunks),
        static_cast<unsigned long long>(chunk_hits),
        static_cast<unsigned long long>(whole_hits));
    return buf;
  }
};

/// The workload: a version chain (each version a small edit of its
/// predecessor), shifted copies of the final version, and one exact
/// duplicate of the base — the only blob whole-call dedup can reuse.
std::vector<Bytes> build_corpus(bool smoke) {
  workload::StreamCorpusConfig config;
  config.blob_bytes = smoke ? 128 * 1024 : 256 * 1024;
  const std::size_t versions = smoke ? 8 : 20;
  std::vector<Bytes> blobs =
      workload::stream_version_chain(config, versions, /*edits_per_version=*/1,
                                     /*edit_bytes=*/64, kSeed);
  const std::vector<std::size_t> shifts =
      smoke ? std::vector<std::size_t>{1} : std::vector<std::size_t>{1, 4096};
  for (const std::size_t shift : shifts) {
    blobs.push_back(workload::shift_stream_blob(blobs.back(), shift, kSeed));
  }
  blobs.push_back(blobs.front());  // exact duplicate: whole-call's best case
  return blobs;
}

runtime::RuntimeConfig bench_config() {
  runtime::RuntimeConfig config;
  config.local_cache = false;  // measure the store path, not the local cache
  config.tracing = false;
  return config;
}

PathResult run_whole_call(const std::vector<Bytes>& blobs) {
  bench::Testbed bed("bench-stream-call", bench::realistic_model(),
                     bench_config());
  const auto fn = bench_identity(bed.rt);
  PathResult r;
  r.name = "whole_call";
  Stopwatch wall;
  for (const Bytes& blob : blobs) {
    const std::uint64_t misses_before = bed.rt.stats().misses;
    (void)bed.rt.execute(fn, blob, [&] { return blob; });
    // A miss means the store had no entry for this exact blob: the result
    // (the blob itself in this storage workload) was uploaded in full.
    if (bed.rt.stats().misses > misses_before) r.uploaded_bytes += blob.size();
    r.total_bytes += blob.size();
  }
  bed.rt.flush();  // include the async PUT drain in the timed window
  r.seconds = wall.elapsed_ms() / 1e3;
  r.blobs = blobs.size();
  r.whole_hits = bed.rt.stats().hits;
  r.dedup_ratio = static_cast<double>(r.total_bytes) / r.uploaded_bytes;
  r.put_mb_per_s = r.total_bytes / 1e6 / r.seconds;
  return r;
}

PathResult run_stream(const std::vector<Bytes>& blobs, double* get_seconds,
                      double* get_mb_per_s) {
  runtime::RuntimeConfig config = bench_config();
  config.batching.enabled = true;  // chunk windows coalesce into batch frames
  bench::Testbed bed("bench-stream-stream", bench::realistic_model(), config);
  runtime::StreamSession session(bed.rt, bench_identity(bed.rt));

  PathResult r;
  r.name = "stream";
  std::vector<runtime::StreamHandle> handles;
  handles.reserve(blobs.size());
  Stopwatch wall;
  for (const Bytes& blob : blobs) {
    handles.push_back(session.put(blob));
    r.total_bytes += blob.size();
  }
  bed.rt.flush();
  r.seconds = wall.elapsed_ms() / 1e3;

  const auto stats = bed.rt.stats();
  r.blobs = blobs.size();
  r.uploaded_bytes = r.total_bytes - stats.stream_bytes_deduped;
  r.chunks = stats.stream_chunks;
  r.chunk_hits = stats.stream_chunk_hits;
  r.whole_hits = stats.stream_whole_hits;
  r.dedup_ratio = static_cast<double>(r.total_bytes) / r.uploaded_bytes;
  r.put_mb_per_s = r.total_bytes / 1e6 / r.seconds;

  // Read every stream back and verify it byte-exactly — a dedup ratio from
  // a path that corrupts data would be meaningless.
  Stopwatch get_wall;
  for (std::size_t i = 0; i < handles.size(); ++i) {
    if (session.get(handles[i]) != blobs[i]) {
      std::fprintf(stderr, "bench_stream: FATAL blob %zu round trip mismatch\n",
                   i);
      std::exit(1);
    }
  }
  *get_seconds = get_wall.elapsed_ms() / 1e3;
  *get_mb_per_s = r.total_bytes / 1e6 / *get_seconds;
  return r;
}

/// The put's pre-round-trip kernels at 1 MiB, in ns per input byte.
struct KernelResult {
  std::size_t bytes = 0;
  std::size_t runs = 31;
  std::size_t chunks = 0;
  double split_ns_per_byte = 0;
  double build_ns_per_byte = 0;
};

KernelResult run_kernels() {
  KernelResult r;
  workload::StreamCorpusConfig config;
  config.blob_bytes = 1 << 20;
  const Bytes blob = workload::synth_stream_blob(config, kSeed);
  r.bytes = blob.size();
  mle::FunctionIdentity fn;
  fn.descriptor = {"bench-stream", "1.0", "bytes put_stream(bytes)"};
  const chunk::Chunker chunker;
  r.chunks = chunker.split(blob).size();
  const auto median_ns_per_byte = [&](const auto& op) {
    std::vector<double> ns(r.runs);
    for (double& t : ns) {
      Stopwatch sw;
      op();
      t = static_cast<double>(sw.elapsed_ns()) / static_cast<double>(r.bytes);
    }
    std::nth_element(ns.begin(), ns.begin() + ns.size() / 2, ns.end());
    return ns[ns.size() / 2];
  };
  std::size_t sink = 0;  // keeps the timed calls observable
  r.split_ns_per_byte =
      median_ns_per_byte([&] { sink += chunker.split(blob).size(); });
  r.build_ns_per_byte = median_ns_per_byte(
      [&] { sink += chunk::ChunkPlan::build(fn, blob, chunker).chunk_count(); });
  if (sink != 2 * r.runs * r.chunks) {
    std::fprintf(stderr, "bench_stream: FATAL kernel chunk count drifted\n");
    std::exit(1);
  }
  return r;
}

/// Single-chunk guard: sub-minimum inputs must degrade to the whole-call
/// wire path, so their put cost through a StreamSession should match a
/// plain execute. Both sides run synchronous PUTs (async_put off) so the
/// comparison times identical wire work.
struct SingleChunkResult {
  std::size_t trials = 0;
  std::size_t bytes = 0;
  double call_ms = 0;
  double stream_ms = 0;
  double overhead_pct = 0;
};

SingleChunkResult run_single_chunk(bool smoke) {
  SingleChunkResult r;
  r.trials = smoke ? 300 : 2000;
  r.bytes = 1024;  // below ChunkerConfig::min_size: always one chunk
  const std::size_t warmup = r.trials / 10;

  std::vector<Bytes> inputs;
  Xoshiro256 rng(kSeed);
  for (std::size_t i = 0; i < r.trials + warmup; ++i) {
    inputs.push_back(rng.bytes(r.bytes));
  }

  runtime::RuntimeConfig config = bench_config();
  config.async_put = false;

  // Per-op cost = best-of-5-blocks mean, with the two paths' blocks
  // interleaved: the cost model busy-waits, so every clean block measures
  // the same deterministic work; the minimum rejects scheduler-noise
  // spikes, and interleaving keeps a slow period from poisoning only one
  // path's entire measurement window.
  const std::size_t blocks = 5;
  const std::size_t per_block = r.trials / blocks;
  bench::Testbed call_bed("bench-stream-sc-call", bench::realistic_model(),
                          config);
  const auto fn = bench_identity(call_bed.rt);
  bench::Testbed stream_bed("bench-stream-sc-stream",
                            bench::realistic_model(), config);
  runtime::StreamSession session(stream_bed.rt,
                                 bench_identity(stream_bed.rt));
  const auto call_op = [&](std::size_t i) {
    (void)call_bed.rt.execute(fn, inputs[i], [&] { return inputs[i]; });
  };
  const auto stream_op = [&](std::size_t i) { (void)session.put(inputs[i]); };
  for (std::size_t i = 0; i < warmup; ++i) {
    call_op(i);
    stream_op(i);
  }
  double best_call = 1e100, best_stream = 1e100;
  for (std::size_t b = 0; b < blocks; ++b) {
    Stopwatch sw;
    for (std::size_t i = 0; i < per_block; ++i) {
      call_op(warmup + b * per_block + i);
    }
    best_call = std::min(best_call, sw.elapsed_ms() / per_block);
    Stopwatch sw2;
    for (std::size_t i = 0; i < per_block; ++i) {
      stream_op(warmup + b * per_block + i);
    }
    best_stream = std::min(best_stream, sw2.elapsed_ms() / per_block);
  }
  r.call_ms = best_call;
  r.stream_ms = best_stream;
  r.overhead_pct = 100.0 * (r.stream_ms - r.call_ms) / r.call_ms;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: bench_stream RESULTS.json [--smoke]\n");
    return 1;
  }
  const bool smoke =
      (argc > 2 && std::strcmp(argv[2], "--smoke") == 0) ||
      std::getenv("SPEED_BENCH_SMOKE") != nullptr;

  const std::vector<Bytes> blobs = build_corpus(smoke);
  std::uint64_t total = 0;
  for (const Bytes& b : blobs) total += b.size();
  std::printf("corpus: %zu blobs, %.1f MB logical\n", blobs.size(),
              total / 1e6);

  const PathResult whole = run_whole_call(blobs);
  double get_seconds = 0, get_mb_per_s = 0;
  const PathResult stream = run_stream(blobs, &get_seconds, &get_mb_per_s);
  const SingleChunkResult sc = run_single_chunk(smoke);
  const KernelResult kernels = run_kernels();

  std::printf("%-11s %9s %9s %11s %10s\n", "path", "uploaded", "ratio",
              "put MB/s", "chunk hits");
  for (const PathResult* p : {&whole, &stream}) {
    std::printf("%-11s %8.2fM %8.2fx %11.2f %10llu\n", p->name.c_str(),
                p->uploaded_bytes / 1e6, p->dedup_ratio, p->put_mb_per_s,
                static_cast<unsigned long long>(p->chunk_hits));
  }
  const double improvement = stream.dedup_ratio / whole.dedup_ratio;
  std::printf("dedup-ratio improvement (stream vs whole-call): %.2fx\n",
              improvement);
  std::printf("stream get: %.2f MB/s\n", get_mb_per_s);
  std::printf(
      "put kernels at %zu KiB (median of %zu): Chunker::split %.3f ns/B, "
      "ChunkPlan::build %.3f ns/B\n",
      kernels.bytes / 1024, kernels.runs, kernels.split_ns_per_byte,
      kernels.build_ns_per_byte);
  std::printf("single-chunk put: call %.3f ms, stream %.3f ms (%+.1f%%)\n",
              sc.call_ms, sc.stream_ms, sc.overhead_pct);

  std::string json = "{\n  \"bench\": \"stream\",\n";
  json += "  \"host\": " + bench::host_json() + ",\n";
  json += "  \"smoke\": " + std::string(smoke ? "true" : "false") + ",\n";
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "  \"workload\": {\"blobs\": %zu, \"total_bytes\": %llu, "
                "\"edits_per_version\": 1, \"edit_bytes\": 64},\n",
                blobs.size(), static_cast<unsigned long long>(total));
  json += buf;
  json += "  \"paths\": [\n    " + whole.json() + ",\n    " + stream.json() +
          "\n  ],\n";
  std::snprintf(buf, sizeof(buf),
                "  \"dedup_ratio_improvement\": %.3f,\n"
                "  \"stream_get\": {\"seconds\": %.3f, \"mb_per_s\": %.2f},\n"
                "  \"put_kernels\": {\"bytes\": %zu, \"runs\": %zu, "
                "\"chunks\": %zu, \"split_ns_per_byte\": %.3f, "
                "\"build_ns_per_byte\": %.3f},\n"
                "  \"single_chunk\": {\"trials\": %zu, \"bytes\": %zu, "
                "\"call_ms\": %.4f, \"stream_ms\": %.4f, "
                "\"overhead_pct\": %.2f}\n",
                improvement, get_seconds, get_mb_per_s, kernels.bytes,
                kernels.runs, kernels.chunks, kernels.split_ns_per_byte,
                kernels.build_ns_per_byte, sc.trials, sc.bytes,
                sc.call_ms, sc.stream_ms, sc.overhead_pct);
  json += buf;
  json += "}\n";

  std::FILE* out = std::fopen(argv[1], "w");
  if (out == nullptr) {
    std::perror("bench_stream: fopen");
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), out);
  std::fclose(out);
  bench::write_telemetry_snapshot(argv[1]);
  std::printf("wrote %s\n", argv[1]);

  // Acceptance: >= 5x dedup-ratio improvement and single-chunk puts within
  // 5% of the per-call path. Smoke runs report but never gate.
  const bool ok = improvement >= 5.0 && sc.overhead_pct <= 5.0;
  return ok || smoke ? 0 : 2;
}
