#!/usr/bin/env bash
# Run the recorded benches and drop their machine-readable results at the
# repo root as BENCH_*.json (the committed reference numbers). The Fig. 6
# store bench also writes BENCH_fig6.telemetry.json — the process-wide
# telemetry snapshot (speed_* metric families) captured at the end of the
# run.
#
# Usage: bench/run_benches.sh [build-dir]
set -euo pipefail

repo_root=$(CDPATH='' cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}

# Table I: ms per DedupRuntime crypto operation (tag, key gen/rec, result
# enc/dec) at 1 KB-1 MB, with the host block (cores, build type, lock-rank
# checking, SHA-NI / AES-NI). Honors SPEED_BENCH_SMOKE=1 (3 trials).
table1_bench="$build_dir/bench/bench_table1_crypto"
if [ ! -x "$table1_bench" ]; then
  echo "building $table1_bench ..."
  cmake -B "$build_dir" -S "$repo_root"
  cmake --build "$build_dir" --target bench_table1_crypto -j
fi
"$table1_bench" "$repo_root/BENCH_table1.json"
echo "results:   $repo_root/BENCH_table1.json"

bench="$build_dir/bench/bench_fig6_store"

if [ ! -x "$bench" ]; then
  echo "building $bench ..."
  cmake -B "$build_dir" -S "$repo_root"
  cmake --build "$build_dir" --target bench_fig6_store -j
fi

if [ ! -x "$bench" ]; then
  echo "error: bench binary missing after build: $bench" >&2
  exit 1
fi

"$bench" "$repo_root/BENCH_fig6.json"
echo "results:   $repo_root/BENCH_fig6.json"
echo "telemetry: $repo_root/BENCH_fig6.telemetry.json"

# Durability overhead: file-backed store (sealed WAL + blob segments) vs the
# in-memory arena, plus cold-start WAL replay times.
dur_bench="$build_dir/bench/bench_durability"
if [ ! -x "$dur_bench" ]; then
  echo "building $dur_bench ..."
  cmake --build "$build_dir" --target bench_durability -j
fi
"$dur_bench" "$repo_root/BENCH_durability.json"
echo "results:   $repo_root/BENCH_durability.json"

# Replicated cluster: routing/quorum overhead vs node count plus the
# kill-one-node availability trace (acceptance bar > 99%).
cluster_bench="$build_dir/bench/bench_cluster"
if [ ! -x "$cluster_bench" ]; then
  echo "building $cluster_bench ..."
  cmake --build "$build_dir" --target bench_cluster -j
fi
"$cluster_bench" "$repo_root/BENCH_cluster.json"
echo "results:   $repo_root/BENCH_cluster.json"

# Batched wire protocol: GET throughput with client micro-batching off and
# on, at 1 and 8 threads, against the epoll server, with spin-charged
# transitions and the host block (acceptance bar: batched >= 2x the v1
# per-op protocol at 8 threads; the bench exits 2 below that).
batch_bench="$build_dir/bench/bench_batch"
if [ ! -x "$batch_bench" ]; then
  echo "building $batch_bench ..."
  cmake --build "$build_dir" --target bench_batch -j
fi
# (bench_batch honors SPEED_BENCH_SMOKE=1 for the ~2 s CI variant.)
"$batch_bench" "$repo_root/BENCH_batch.json"
echo "results:   $repo_root/BENCH_batch.json"
echo "telemetry: $repo_root/BENCH_batch.telemetry.json"

# Streaming chunked dedup: dedup ratio + throughput of StreamSession vs
# whole-call dedup on an edited/shifted version-chain workload (acceptance
# bar: >= 5x dedup-ratio improvement, single-chunk puts within 5% of the
# per-call path; the bench exits 2 below the bar), plus the put's work
# before its first round trip (Chunker::split and ChunkPlan::build in ns/B
# at 1 MiB, median of 31) and the host block. Honors --smoke /
# SPEED_BENCH_SMOKE=1 for the reduced CI variant.
stream_bench="$build_dir/bench/bench_stream"
if [ ! -x "$stream_bench" ]; then
  echo "building $stream_bench ..."
  cmake --build "$build_dir" --target bench_stream -j
fi
"$stream_bench" "$repo_root/BENCH_stream.json"
echo "results:   $repo_root/BENCH_stream.json"
echo "telemetry: $repo_root/BENCH_stream.telemetry.json"

# Two-tier metadata footprint: entries per MB of EPC charge with the full
# record spilled to the sealed tier, fault-in latency, and the Fig. 6
# 8-thread/8-shard parity cell (acceptance bar: >= 4x density vs the legacy
# map-of-nodes layout; the bench exits 2 below that). Pass --smoke for the
# reduced CI variant.
meta_bench="$build_dir/bench/bench_metadata"
if [ ! -x "$meta_bench" ]; then
  echo "building $meta_bench ..."
  cmake --build "$build_dir" --target bench_metadata -j
fi
"$meta_bench" "$repo_root/BENCH_metadata.json"
echo "results:   $repo_root/BENCH_metadata.json"
