// Streaming chunked-dedup suite: StreamSession put/get round trips, chunk
// reuse across edited versions, degradation under store failure, the
// single-chunk wire-compatibility regression, the BlockStore case study,
// cluster routing, and concurrency. Labeled `stream` in ctest so CI also
// runs it under ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "apps/blockstore/blockstore.h"
#include "net/fault.h"
#include "runtime/speed.h"
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

/// One in-process deployment: platform + store + app enclave + runtime.
struct Deployment {
  explicit Deployment(runtime::RuntimeConfig config = {},
                      store::StoreConfig store_config = {})
      : platform(fast_model()),
        result_store(platform, store_config),
        enclave(platform.create_enclave("stream-app")) {
    auto conn = store::connect_app(result_store, *enclave);
    session = std::move(conn.session);
    loopback = static_cast<net::LoopbackTransport*>(conn.transport.get());
    rt = std::make_unique<runtime::DedupRuntime>(
        *enclave, std::move(conn.session_key), std::move(conn.transport),
        config);
  }

  sgx::Platform platform;
  store::ResultStore result_store;
  std::unique_ptr<sgx::Enclave> enclave;
  std::unique_ptr<store::StoreSession> session;
  net::LoopbackTransport* loopback = nullptr;
  std::unique_ptr<runtime::DedupRuntime> rt;
};

/// A stream as a client stored it before unwrap material: every chunk entry
/// and the manifest carry the 16-byte wrap, the version 1 manifest pins each
/// chunk's k_i, and the handle pins the manifest key. Returns the handle's
/// serialized bytes, in the unchanged StreamHandle layout.
Bytes store_legacy_stream(Deployment& d, const mle::FunctionIdentity& fn,
                          ByteView data, crypto::Drbg& drbg) {
  const auto plan = chunk::ChunkPlan::build(fn, data, chunk::Chunker());
  const auto put_entry = [&](const mle::ComputationContext& ctx,
                             const serialize::Tag& tag, ByteView plain) {
    auto wk = mle::ResultCipher::generate_key(ctx, drbg);
    serialize::PutRequest put;
    put.tag = tag;
    put.requester = d.enclave->measurement();
    put.entry.wrapped_key = std::move(wk.wrapped_key);
    put.entry.result_ct =
        mle::ResultCipher::encrypt_result(tag, wk.key, plain, drbg);
    put.entry.challenge =
        std::move(wk.challenge).release_for(secret::Purpose::of("test"));
    EXPECT_EQ(d.result_store.put(put).status, serialize::PutStatus::kStored);
    return std::move(wk.key);
  };
  serialize::Encoder manifest;
  manifest.u8(1);  // version 1
  manifest.u64(data.size());
  manifest.u32(static_cast<std::uint32_t>(plan.chunk_count()));
  for (std::size_t i = 0; i < plan.chunk_count(); ++i) {
    const secret::Buffer key = put_entry(
        plan.chunk_context(i), plan.chunk_tag(i), plan.chunk_bytes(i));
    manifest.u8(0);  // ref
    manifest.raw(ByteView(plan.chunk_tag(i).data(), plan.chunk_tag(i).size()));
    manifest.u32(static_cast<std::uint32_t>(plan.chunk(i).size));
    manifest.var_bytes(key.reveal_for(secret::Purpose::of("test")));
  }
  const secret::Buffer manifest_key =
      put_entry(plan.stream_context(), plan.stream_tag(), manifest.take());
  serialize::Encoder handle;
  handle.u8(static_cast<std::uint8_t>(runtime::StreamHandle::Kind::kStream));
  handle.raw(ByteView(plan.stream_tag().data(), plan.stream_tag().size()));
  handle.var_bytes(manifest_key.reveal_for(secret::Purpose::of("test")));
  handle.u64(data.size());
  handle.var_bytes(Bytes{});
  return handle.take();
}

TEST(StreamSessionTest, SmallInputRoundTripsAsWholeCall) {
  Deployment d;
  runtime::StreamSession s(*d.rt, stream_identity(*d.rt));
  const Bytes data = to_bytes("well below the minimum chunk size");
  const auto handle = s.put(data);
  EXPECT_EQ(handle.kind, runtime::StreamHandle::Kind::kWholeCall);
  EXPECT_EQ(handle.total_bytes, data.size());
  EXPECT_EQ(s.get(handle), data);
  const auto stats = d.rt->stats();
  EXPECT_EQ(stats.stream_puts, 1u);
  EXPECT_EQ(stats.stream_chunks, 0u);  // not a stream: no chunk machinery
}

TEST(StreamSessionTest, EmptyInputRoundTrips) {
  Deployment d;
  runtime::StreamSession s(*d.rt, stream_identity(*d.rt));
  const auto handle = s.put({});
  EXPECT_EQ(handle.total_bytes, 0u);
  EXPECT_EQ(s.get(handle), Bytes{});
}

TEST(StreamSessionTest, LargeInputRoundTripsAsStream) {
  SPEED_SEEDED_RNG(rng, 0x57e40001);
  Deployment d;
  runtime::StreamSession s(*d.rt, stream_identity(*d.rt));
  const Bytes data = rng.bytes(300 * 1024);
  const auto handle = s.put(data);
  EXPECT_EQ(handle.kind, runtime::StreamHandle::Kind::kStream);
  EXPECT_EQ(handle.total_bytes, data.size());
  EXPECT_EQ(s.get(handle), data);
  const auto stats = d.rt->stats();
  EXPECT_GT(stats.stream_chunks, 1u);
  EXPECT_EQ(stats.stream_degraded, 0u);
  EXPECT_EQ(stats.stream_inline_chunks, 0u);
}

TEST(StreamSessionTest, IdenticalReuploadIsOneWholeStreamHit) {
  SPEED_SEEDED_RNG(rng, 0x57e40002);
  Deployment d;
  runtime::StreamSession s(*d.rt, stream_identity(*d.rt));
  const Bytes data = rng.bytes(200 * 1024);
  const auto h1 = s.put(data);
  const auto before = d.rt->stats();
  const std::uint64_t trips_before = d.loopback->round_trips();
  const auto h2 = s.put(data);
  // The second put is satisfied by the stream-tag fast path: one GET round
  // trip, no chunk traffic at all.
  EXPECT_EQ(d.loopback->round_trips() - trips_before, 1u);
  const auto after = d.rt->stats();
  EXPECT_EQ(after.stream_whole_hits, before.stream_whole_hits + 1);
  EXPECT_EQ(after.stream_chunks, before.stream_chunks);
  EXPECT_EQ(after.stream_bytes_deduped - before.stream_bytes_deduped,
            data.size());
  EXPECT_EQ(s.get(h2), data);
  EXPECT_EQ(h1.tag, h2.tag);
}

TEST(StreamSessionTest, EditedReuploadReusesUntouchedChunks) {
  SPEED_SEEDED_RNG(rng, 0x57e40003);
  Deployment d;
  runtime::StreamSession s(*d.rt, stream_identity(*d.rt));
  const Bytes v1 = rng.bytes(400 * 1024);
  const Bytes v2 = workload::edit_stream_blob(v1, 3, 64, rng());
  s.put(v1);
  const auto before = d.rt->stats();
  const auto handle = s.put(v2);
  const auto after = d.rt->stats();
  const auto v2_chunks = after.stream_chunks - before.stream_chunks;
  const auto v2_hits = after.stream_chunk_hits - before.stream_chunk_hits;
  ASSERT_GT(v2_chunks, 10u);
  // 3 small edits may perturb a handful of chunks; the rest must be hits.
  EXPECT_GE(v2_hits * 10, v2_chunks * 7)
      << v2_hits << " of " << v2_chunks << " chunks reused";
  EXPECT_GT(after.stream_bytes_deduped - before.stream_bytes_deduped,
            v2.size() / 2);
  EXPECT_EQ(s.get(handle), v2);
}

TEST(StreamSessionTest, ShiftedReuploadStillDedups) {
  SPEED_SEEDED_RNG(rng, 0x57e40004);
  Deployment d;
  runtime::StreamSession s(*d.rt, stream_identity(*d.rt));
  const Bytes base = rng.bytes(400 * 1024);
  s.put(base);
  const auto before = d.rt->stats();
  const Bytes shifted = workload::shift_stream_blob(base, 33, rng());
  const auto handle = s.put(shifted);
  const auto after = d.rt->stats();
  // Every offset moved; content-defined boundaries must still resync.
  const auto chunks = after.stream_chunks - before.stream_chunks;
  const auto hits = after.stream_chunk_hits - before.stream_chunk_hits;
  EXPECT_GE(hits * 10, chunks * 7) << hits << "/" << chunks;
  EXPECT_EQ(s.get(handle), shifted);
}

TEST(StreamSessionTest, CrossSessionDedupSharesChunks) {
  // Two sessions (two "clients") with the same function identity dedup
  // against each other; a different identity never does.
  SPEED_SEEDED_RNG(rng, 0x57e40005);
  Deployment d;
  const auto fn = stream_identity(*d.rt);
  runtime::StreamSession a(*d.rt, fn);
  runtime::StreamSession b(*d.rt, fn);
  const Bytes data = rng.bytes(200 * 1024);
  a.put(data);
  const auto before = d.rt->stats();
  b.put(data);
  EXPECT_EQ(d.rt->stats().stream_whole_hits, before.stream_whole_hits + 1);

  d.rt->libraries().register_library("other-lib", "1.0", as_bytes("code v2"));
  runtime::StreamSession c(
      *d.rt, d.rt->resolve({"other-lib", "1.0", "bytes put_stream(bytes)"}));
  const auto pre_c = d.rt->stats();
  c.put(data);
  const auto post_c = d.rt->stats();
  EXPECT_EQ(post_c.stream_whole_hits, pre_c.stream_whole_hits);
  EXPECT_EQ(post_c.stream_chunk_hits, pre_c.stream_chunk_hits);
}

TEST(StreamSessionTest, HandleSerializationRoundTrips) {
  SPEED_SEEDED_RNG(rng, 0x57e40006);
  Deployment d;
  runtime::StreamSession s(*d.rt, stream_identity(*d.rt));
  const Bytes data = rng.bytes(150 * 1024);
  const auto handle = s.put(data);
  const Bytes wire = handle.serialize();
  const auto parsed = runtime::StreamHandle::deserialize(wire);
  EXPECT_EQ(parsed.kind, handle.kind);
  EXPECT_EQ(parsed.tag, handle.tag);
  EXPECT_EQ(parsed.total_bytes, handle.total_bytes);
  EXPECT_EQ(s.get(parsed), data);

  Bytes truncated(wire.begin(), wire.end() - 1);
  EXPECT_THROW(runtime::StreamHandle::deserialize(truncated),
               SerializationError);
  Bytes bad_kind = wire;
  bad_kind[0] = 0x7f;
  EXPECT_THROW(runtime::StreamHandle::deserialize(bad_kind),
               SerializationError);

  // A handle serialized before unwrap material pins a 16-byte manifest key
  // to a version 1 manifest; it still opens, as a pinned key.
  crypto::Drbg drbg(rng.bytes(32));
  const Bytes legacy_data = rng.bytes(120 * 1024);
  const auto legacy = runtime::StreamHandle::deserialize(store_legacy_stream(
      d, stream_identity(*d.rt), legacy_data, drbg));
  EXPECT_EQ(legacy.kind, runtime::StreamHandle::Kind::kStream);
  EXPECT_EQ(legacy.key.size(), mle::kResultKeySize);
  EXPECT_EQ(s.get(legacy), legacy_data);
}

TEST(StreamSessionTest, Version1ManifestStillReads) {
  // Streams stored before this manifest version keep reading through their
  // handles; a put of the same bytes now finds entries whose 16-byte wrap
  // fails the check, so it inlines rather than references them.
  SPEED_SEEDED_RNG(rng, 0x57e40013);
  Deployment d;
  const auto fn = stream_identity(*d.rt);
  runtime::StreamSession s(*d.rt, fn);
  crypto::Drbg drbg(rng.bytes(32));
  const Bytes data = rng.bytes(160 * 1024);
  const auto legacy = runtime::StreamHandle::deserialize(
      store_legacy_stream(d, fn, data, drbg));
  EXPECT_EQ(s.get(legacy), data);

  const auto fresh = s.put(data);
  EXPECT_EQ(fresh.kind, runtime::StreamHandle::Kind::kInlineManifest);
  EXPECT_EQ(d.rt->stats().stream_chunk_hits, 0u);
  EXPECT_EQ(s.get(fresh), data);
  EXPECT_EQ(s.get(legacy), data);
}

TEST(StreamSessionTest, BatchingCollapsesChunkRoundTrips) {
  SPEED_SEEDED_RNG(rng, 0x57e40007);
  runtime::RuntimeConfig config;
  config.batching.enabled = true;
  Deployment d(config);
  runtime::StreamSession s(*d.rt, stream_identity(*d.rt));
  const Bytes data = rng.bytes(300 * 1024);
  const std::uint64_t before = d.loopback->round_trips();
  const auto handle = s.put(data);
  const std::uint64_t put_trips = d.loopback->round_trips() - before;
  const auto chunks = d.rt->stats().stream_chunks;
  ASSERT_GT(chunks, 10u);
  // One window: stream-tag GET + chunk GET batch + chunk PUT batch +
  // manifest PUT. Unbatched this would be 2 * chunks + 2 frames.
  EXPECT_LE(put_trips, 4u + 2 * (chunks / s.config().window));
  EXPECT_EQ(s.get(handle), data);
}

// ---------------------------------------------------------- degradation ---

TEST(StreamSessionTest, StoreDownDegradesToInlineManifestAndStillServes) {
  SPEED_SEEDED_RNG(rng, 0x57e40008);
  sgx::Platform platform(fast_model());
  store::ResultStore result_store(platform);
  auto enclave = platform.create_enclave("stream-app");
  auto conn = store::connect_app(result_store, *enclave);
  auto session = std::move(conn.session);
  // Every frame hits a black hole: the put degrades, never throws.
  auto faulty = std::make_unique<net::FaultInjectingTransport>(
      std::move(conn.transport),
      net::FaultInjectingTransport::always(
          net::FaultInjectingTransport::Fault::kDisconnect));
  runtime::DedupRuntime rt(*enclave, std::move(conn.session_key),
                           std::move(faulty));
  runtime::StreamSession down(rt, stream_identity(rt));

  const Bytes data = rng.bytes(100 * 1024);
  const auto handle = down.put(data);
  EXPECT_EQ(handle.kind, runtime::StreamHandle::Kind::kInlineManifest);
  EXPECT_GT(rt.stats().stream_degraded, 0u);
  EXPECT_GT(rt.stats().stream_inline_chunks, 0u);
  // The handle carries everything: get() needs zero store round trips.
  EXPECT_EQ(down.get(handle), data);
}

TEST(StreamSessionTest, QuotaRejectionsInlineChunksWithoutDataLoss) {
  SPEED_SEEDED_RNG(rng, 0x57e4000a);
  store::StoreConfig store_config;
  store_config.per_app_quota_bytes = 48 * 1024;  // far below the blob size
  Deployment d({}, store_config);
  runtime::StreamSession s(*d.rt, stream_identity(*d.rt));
  const Bytes data = rng.bytes(300 * 1024);
  const auto handle = s.put(data);
  // Some chunk PUTs exceeded the quota and were inlined; the data survives.
  EXPECT_GT(d.rt->stats().stream_inline_chunks, 0u);
  EXPECT_EQ(s.get(handle), data);
}

TEST(StreamSessionTest, ChunkEntryThatDoesNotOpenIsInlined) {
  // A found chunk entry is adopted only when it opens under the key its
  // wrapped key recovers to. Plant an entry under one chunk's tag whose key
  // was wrapped for other bytes: the put must inline that chunk rather than
  // reference an entry its own key cannot open.
  SPEED_SEEDED_RNG(rng, 0x57e40011);
  Deployment d;
  const auto fn = stream_identity(*d.rt);
  runtime::StreamSession s(*d.rt, fn);
  const Bytes data = rng.bytes(200 * 1024);
  const auto plan =
      chunk::ChunkPlan::build(fn, data, chunk::Chunker(s.config().chunker));
  ASSERT_GT(plan.chunk_count(), 2u);
  const std::size_t victim = 1;
  crypto::Drbg drbg(rng.bytes(32));
  const mle::ComputationContext other(fn, rng.bytes(plan.chunk(victim).size),
                                      mle::Domain::kChunk);
  auto wk = mle::ResultCipher::generate_key(other, drbg);
  serialize::PutRequest plant;
  plant.tag = plan.chunk_tag(victim);
  plant.requester = d.enclave->measurement();
  plant.entry.wrapped_key = std::move(wk.wrapped_key);
  plant.entry.result_ct = mle::ResultCipher::encrypt_result(
      plan.chunk_tag(victim), wk.key, plan.chunk_bytes(victim), drbg);
  plant.entry.challenge = std::move(wk.challenge)
                              .release_for(secret::Purpose::of("test"));
  ASSERT_EQ(d.result_store.put(plant).status, serialize::PutStatus::kStored);

  const auto handle = s.put(data);
  const auto stats = d.rt->stats();
  EXPECT_EQ(stats.stream_inline_chunks, 1u);
  EXPECT_EQ(stats.stream_chunk_hits, 0u);
  EXPECT_EQ(s.get(handle), data);
}

/// A's manifest (and handle) next to the chunk entries tenant B wrote for
/// the same content: same tags and sizes, B's keys. `tamper`, when set,
/// flips one ciphertext byte of B's entry for that chunk before it is
/// stored, so the store's own MAC vouches for the changed bytes.
struct MixedWriters {
  Deployment a, b, mixed;
  runtime::StreamHandle handle;
  mle::FunctionIdentity fn;

  MixedWriters(ByteView data, std::optional<std::size_t> tamper = {}) {
    runtime::StreamSession sa(*a.rt, stream_identity(*a.rt));
    runtime::StreamSession sb(*b.rt, stream_identity(*b.rt));
    handle = sa.put(data);
    EXPECT_EQ(handle.kind, runtime::StreamHandle::Kind::kStream);
    sb.put(data);

    fn = stream_identity(*mixed.rt);
    const auto plan =
        chunk::ChunkPlan::build(fn, data, chunk::Chunker(sa.config().chunker));
    const auto copy = [&](Deployment& from, const serialize::Tag& tag,
                          bool flip) {
      serialize::GetRequest get;
      get.tag = tag;
      get.requester = from.enclave->measurement();
      const serialize::GetResponse found = from.result_store.get(get);
      ASSERT_TRUE(found.found);
      serialize::PutRequest put;
      put.tag = tag;
      put.requester = mixed.enclave->measurement();
      put.entry = found.entry;
      if (flip) put.entry.result_ct[put.entry.result_ct.size() / 2] ^= 0x01;
      ASSERT_EQ(mixed.result_store.put(put).status,
                serialize::PutStatus::kStored);
    };
    copy(a, plan.stream_tag(), false);
    for (std::size_t i = 0; i < plan.chunk_count(); ++i) {
      copy(b, plan.chunk_tag(i), tamper == i);
    }
  }
};

TEST(StreamSessionTest, ChunkEntryOfAnotherWriterOpensOnGet) {
  // get() takes each chunk's key from the entry it is served, through the
  // unwrap material in the manifest: A's manifest opens B's chunk entries.
  SPEED_SEEDED_RNG(rng, 0x57e40012);
  const Bytes data = rng.bytes(200 * 1024);
  MixedWriters w(data);
  runtime::StreamSession reader(*w.mixed.rt, w.fn);
  EXPECT_EQ(reader.get(w.handle), data);
}

TEST(StreamSessionTest, TamperedChunkEntryOfAnotherWriterFailsAuthentication) {
  // One flipped ciphertext byte in B's entry: its header still yields B's
  // key, the store's MAC covers the flipped blob, and GCM refuses it. get()
  // throws; it never returns wrong bytes.
  SPEED_SEEDED_RNG(rng, 0x57e40014);
  const Bytes data = rng.bytes(200 * 1024);
  MixedWriters w(data, /*tamper=*/1);
  runtime::StreamSession reader(*w.mixed.rt, w.fn);
  try {
    const Bytes got = reader.get(w.handle);
    FAIL() << "get() returned " << (got == data ? "" : "wrong ")
           << "bytes from a tampered chunk entry";
  } catch (const net::StoreUnavailableError& e) {
    EXPECT_NE(std::string(e.what()).find("chunk failed authentication"),
              std::string::npos)
        << e.what();
  }
}

/// Runs `hook(frame_index)` before forwarding each request frame.
struct HookTransport : net::Transport {
  HookTransport(std::unique_ptr<net::Transport> wrapped,
                std::function<void(std::size_t)> before)
      : inner(std::move(wrapped)), hook(std::move(before)) {}
  Bytes round_trip(ByteView request) override {
    hook(frames++);
    return inner->round_trip(request);
  }
  std::unique_ptr<net::Transport> inner;
  std::function<void(std::size_t)> hook;
  std::size_t frames = 0;
};

TEST(StreamSessionTest, ChunkEntryPlantedBetweenProbeAndPutIsInlined) {
  // The race of ChunkEntryThatDoesNotOpenIsInlined: the chunk's probe
  // misses, then an entry wrapped for other bytes lands on its tag before
  // the PUT, which answers kAlreadyPresent. The re-probe checks the
  // winner's header like any found chunk's, and the chunk is inlined.
  SPEED_SEEDED_RNG(rng, 0x57e40015);
  sgx::Platform platform(fast_model());
  store::ResultStore result_store(platform);
  auto enclave = platform.create_enclave("stream-app");
  auto conn = store::connect_app(result_store, *enclave);
  // Frames: 0 probes the stream tag, 1 the window's chunks, 2 PUTs the
  // misses. The plant lands just before frame 2.
  serialize::PutRequest plant;
  auto hooked = std::make_unique<HookTransport>(
      std::move(conn.transport), [&](std::size_t frame) {
        if (frame == 2) {
          ASSERT_EQ(result_store.put(plant).status,
                    serialize::PutStatus::kStored);
        }
      });
  runtime::RuntimeConfig config;
  config.batching.enabled = true;
  runtime::DedupRuntime rt(*enclave, std::move(conn.session_key),
                           std::move(hooked), config);
  const auto fn = stream_identity(rt);
  const Bytes data = rng.bytes(200 * 1024);
  const auto plan = chunk::ChunkPlan::build(fn, data, chunk::Chunker());
  ASSERT_GT(plan.chunk_count(), 2u);
  ASSERT_LT(plan.chunk_count(), runtime::StreamConfig{}.window);
  const std::size_t victim = 1;
  crypto::Drbg drbg(rng.bytes(32));
  const mle::ComputationContext other(fn, rng.bytes(plan.chunk(victim).size),
                                      mle::Domain::kChunk);
  auto wk = mle::ResultCipher::generate_checked_key(other, drbg);
  plant.tag = plan.chunk_tag(victim);
  plant.requester = enclave->measurement();
  plant.entry.wrapped_key = std::move(wk.wrapped_key);
  plant.entry.result_ct = mle::ResultCipher::encrypt_result(
      plan.chunk_tag(victim), wk.key, plan.chunk_bytes(victim), drbg);
  plant.entry.challenge =
      std::move(wk.challenge).release_for(secret::Purpose::of("test"));

  runtime::StreamSession s(rt, fn);
  const auto handle = s.put(data);
  EXPECT_EQ(result_store.stats().duplicate_puts, 1u);
  const auto stats = rt.stats();
  EXPECT_EQ(stats.stream_inline_chunks, 1u);
  EXPECT_EQ(stats.stream_chunk_hits, 0u);
  EXPECT_EQ(stats.stream_degraded, 0u);
  EXPECT_EQ(s.get(handle), data);
}

// ------------------------------------------- wire-compat regression -------

/// Records every request frame crossing the transport.
struct RecordingTransport : net::Transport {
  explicit RecordingTransport(std::unique_ptr<net::Transport> wrapped)
      : inner(std::move(wrapped)) {}
  Bytes round_trip(ByteView request) override {
    frames.push_back(Bytes(request.begin(), request.end()));
    return inner->round_trip(request);
  }
  std::unique_ptr<net::Transport> inner;
  std::vector<Bytes> frames;
};

TEST(StreamSessionTest, SingleChunkPutIsWireIdenticalToExecute) {
  // The degrade rule's contract: an input below the chunking threshold must
  // produce the very requests DedupRuntime::execute would — same GET
  // plaintext, same PUT frame shape — so a store cannot even distinguish
  // the two paths.
  const Bytes input = to_bytes("one small payload, one chunk");

  struct Capture {
    std::vector<Bytes> frames;
    Bytes get_plain;  ///< the GET frame as the store's end unwraps it
  };
  auto run = [&](auto&& do_put) -> Capture {
    sgx::Platform platform(fast_model());
    store::ResultStore result_store(platform);
    auto enclave = platform.create_enclave("wire-app");
    auto conn = store::connect_app(result_store, *enclave);
    // A second responder endpoint on the same session key decrypts the
    // recorded frames; the handshake key itself is fresh on every run.
    net::SecureChannel responder(conn.session_key.clone(),
                                 /*is_initiator=*/false);
    auto recording =
        std::make_unique<RecordingTransport>(std::move(conn.transport));
    auto* rec = recording.get();
    runtime::RuntimeConfig config;
    config.async_put = false;  // PUT rides the calling thread in both paths
    runtime::DedupRuntime rt(*enclave, std::move(conn.session_key),
                             std::move(recording), config);
    do_put(rt);
    Capture out;
    out.frames = rec->frames;
    if (!out.frames.empty()) {
      out.get_plain = responder.unwrap(out.frames[0]).value_or(Bytes{});
    }
    return out;
  };

  const Capture execute = run([&](runtime::DedupRuntime& rt) {
    const auto fn = stream_identity(rt);
    rt.execute(fn, input, [&] { return input; });
  });
  const Capture stream = run([&](runtime::DedupRuntime& rt) {
    runtime::StreamSession s(rt, stream_identity(rt));
    s.put(input);
  });

  ASSERT_EQ(execute.frames.size(), 2u);  // GET miss, then PUT
  ASSERT_EQ(stream.frames.size(), 2u);
  // The GET requests must be byte-identical: same tag (call domain), same
  // requester, same framing at the same sequence number.
  EXPECT_EQ(stream.frames[0].size(), execute.frames[0].size());
  ASSERT_FALSE(execute.get_plain.empty());
  EXPECT_EQ(stream.get_plain, execute.get_plain);
  // The PUT carries fresh randomness (challenge, key, IV), so assert shape:
  // identical frame length means identical tag/challenge/key/ct layout.
  EXPECT_EQ(stream.frames[1].size(), execute.frames[1].size());
}

TEST(StreamSessionTest, SingleChunkPutInteroperatesWithExecute) {
  // execute() stores a result; a stream put of the same (fn, input) must
  // hit that very entry — the two paths share one tag namespace.
  Deployment d;
  const auto fn = stream_identity(*d.rt);
  const Bytes input = to_bytes("shared between execute and stream put");
  int computed = 0;
  d.rt->execute(fn, input, [&] {
    ++computed;
    return input;
  });
  ASSERT_TRUE(d.rt->flush());
  runtime::StreamSession s(*d.rt, fn);
  const auto handle = s.put(input);
  EXPECT_EQ(computed, 1);
  EXPECT_EQ(d.rt->stats().stream_whole_hits, 1u);
  EXPECT_EQ(s.get(handle), input);
}

// ------------------------------------------------------------ blockstore --

TEST(BlockStoreTest, NamedObjectsRoundTrip) {
  SPEED_SEEDED_RNG(rng, 0x57e4000b);
  Deployment d;
  blockstore::BlockStore blobs(*d.rt);
  const Bytes doc = rng.bytes(150 * 1024);
  blobs.put("doc", doc);
  blobs.put("note", to_bytes("tiny"));
  EXPECT_EQ(blobs.size(), 2u);
  EXPECT_EQ(blobs.get("doc"), std::optional<Bytes>(doc));
  EXPECT_EQ(blobs.get("note"), std::optional<Bytes>(to_bytes("tiny")));
  EXPECT_FALSE(blobs.get("missing").has_value());
  const auto info = blobs.stat("doc");
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->bytes, doc.size());
  EXPECT_EQ(info->kind, runtime::StreamHandle::Kind::kStream);
  EXPECT_EQ(blobs.list(), (std::vector<std::string>{"doc", "note"}));
  EXPECT_TRUE(blobs.erase("note"));
  EXPECT_FALSE(blobs.erase("note"));
  EXPECT_EQ(blobs.size(), 1u);
}

TEST(BlockStoreTest, ExportedHandleTransfersCapability) {
  SPEED_SEEDED_RNG(rng, 0x57e4000c);
  Deployment d;
  blockstore::BlockStore alice(*d.rt);
  blockstore::BlockStore bob(*d.rt);
  const Bytes doc = rng.bytes(120 * 1024);
  alice.put("doc", doc);
  bob.import_object("from-alice", alice.export_object("doc"));
  EXPECT_EQ(bob.get("from-alice"), std::optional<Bytes>(doc));
  EXPECT_THROW(alice.export_object("missing"), std::out_of_range);
}

TEST(BlockStoreTest, OverwriteReplacesAndVersionChainDedups) {
  SPEED_SEEDED_RNG(rng, 0x57e4000d);
  Deployment d;
  blockstore::BlockStore blobs(*d.rt);
  workload::StreamCorpusConfig corpus;
  corpus.blob_bytes = 200 * 1024;
  const auto versions = workload::stream_version_chain(corpus, 4, 2, 64, rng());
  for (const auto& v : versions) blobs.put("volume", v);
  EXPECT_EQ(blobs.get("volume"), std::optional<Bytes>(versions.back()));
  const auto stats = d.rt->stats();
  // Later versions must ride mostly on earlier versions' chunks.
  EXPECT_GE(stats.stream_chunk_hits * 10, stats.stream_chunks * 5);
}

// -------------------------------------------------------------- cluster ---

TEST(StreamClusterTest, StreamsRouteAndSurviveNodeFailure) {
  SPEED_SEEDED_RNG(rng, 0x57e4000e);
  sgx::Platform platform(fast_model());
  store::InprocClusterConfig cluster_config;
  cluster_config.nodes = 3;
  cluster_config.cluster.replicas = 1;
  store::InprocCluster cluster(platform, cluster_config);
  auto app = platform.create_enclave("stream-cluster-app");
  auto transport = cluster.connect(*app);
  runtime::DedupRuntime rt(*app, transport);
  runtime::StreamSession s(rt, stream_identity(rt));

  const Bytes data = rng.bytes(300 * 1024);
  const auto handle = s.put(data);
  EXPECT_EQ(s.get(handle), data);
  // Chunk tags spread across the ring: every node should hold entries.
  std::size_t populated = 0;
  for (std::size_t i = 0; i < cluster.node_count(); ++i) {
    if (cluster.store(i).stats().entries > 0) ++populated;
  }
  EXPECT_EQ(populated, cluster.node_count());

  // With one replica, any single node failure must not lose the stream.
  cluster.kill(rng.below(cluster.node_count()));
  EXPECT_EQ(s.get(handle), data);
}

TEST(StreamClusterTest, BatchedStreamsRouteAcrossNodes) {
  SPEED_SEEDED_RNG(rng, 0x57e4000f);
  sgx::Platform platform(fast_model());
  store::InprocClusterConfig cluster_config;
  cluster_config.nodes = 3;
  store::InprocCluster cluster(platform, cluster_config);
  auto app = platform.create_enclave("stream-cluster-batch");
  auto transport = cluster.connect(*app);
  runtime::RuntimeConfig config;
  config.batching.enabled = true;
  runtime::DedupRuntime rt(*app, transport, config);
  runtime::StreamSession s(rt, stream_identity(rt));
  const Bytes data = rng.bytes(300 * 1024);
  const auto handle = s.put(data);
  EXPECT_EQ(s.get(handle), data);
  EXPECT_EQ(rt.stats().stream_degraded, 0u);
}

// ---------------------------------------------------------- concurrency ---

TEST(StreamConcurrencyTest, ParallelPutsAndGetsStayConsistent) {
  SPEED_SEEDED_RNG(rng, 0x57e40010);
  Deployment d;
  blockstore::BlockStore blobs(*d.rt);
  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  // Pre-generate per-thread version chains (the generator is not
  // thread-safe; the BlockStore under test is).
  workload::StreamCorpusConfig corpus;
  corpus.blob_bytes = 64 * 1024;
  std::vector<std::vector<Bytes>> chains;
  for (int t = 0; t < kThreads; ++t) {
    chains.push_back(
        workload::stream_version_chain(corpus, kRounds, 2, 64, rng() + t));
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string name = "obj-" + std::to_string(t);
      for (int r = 0; r < kRounds; ++r) {
        blobs.put(name, chains[t][r]);
        const auto read = blobs.get(name);
        if (!read.has_value() || *read != chains[t][r]) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(blobs.get("obj-" + std::to_string(t)),
              std::optional<Bytes>(chains[t].back()));
  }
}

}  // namespace
}  // namespace speed
