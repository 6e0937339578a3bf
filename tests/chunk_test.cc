// Chunking layer: Gear CDC properties, ChunkPlan tag derivation, and the
// manifest codec. The boundary-invariance properties are what the whole
// streaming-dedup design rests on, so they are tested as randomized
// properties (seed via SPEED_TEST_SEED), not just examples.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "chunk/chunk_plan.h"
#include "chunk/chunker.h"
#include "chunk/manifest.h"
#include "common/error.h"
#include "common/rng.h"
#include "crypto/sha256.h"
#include "mle/tag.h"
#include "serialize/codec.h"
#include "test_seed.h"
#include "workload/stream_corpus.h"

namespace speed {
namespace {

using chunk::ChunkRef;
using chunk::Chunker;
using chunk::ChunkerConfig;

mle::FunctionIdentity test_identity(const std::string& sig = "bytes f(bytes)") {
  mle::FunctionIdentity fn;
  fn.descriptor = {"chunk-test-lib", "1.0", sig};
  return fn;
}

// ------------------------------------------------------------- chunker ----

/// Cut points of the default Chunker over the fixed 4 MiB corpus blob of
/// CutPointsMatchRecordedDigest, recorded with the byte-at-a-time walk.
constexpr std::size_t kRecordedChunkCount = 343;
constexpr const char* kRecordedCutDigest =
    "48c1d9f77efa31d6693f0fe1a49958deeda4e0924bb6b906375674519321423c";

/// The Gear table entry for `byte`: splitmix64 of the byte value.
std::uint64_t gear(std::uint8_t byte) {
  std::uint64_t x = byte + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The reference cut rule: the Gear walk byte by byte from each chunk's
/// first byte, testing every position from min_size on. Chunker::split
/// starts later and tests two positions per step; it must cut exactly here.
std::vector<ChunkRef> reference_split(const ChunkerConfig& cfg, ByteView data) {
  const int bits = std::countr_zero(static_cast<std::uint64_t>(cfg.avg_size));
  const std::uint64_t mask = bits == 0 ? 0 : ~(~std::uint64_t{0} >> bits);
  std::vector<ChunkRef> chunks;
  std::size_t start = 0;
  while (start < data.size()) {
    const std::size_t limit = std::min(data.size() - start, cfg.max_size);
    std::size_t cut = limit;
    if (limit > cfg.min_size) {
      std::uint64_t h = 0;
      for (std::size_t i = 0; i < limit; ++i) {
        h = (h << 1) + gear(data[start + i]);
        if (i + 1 >= cfg.min_size && (h & mask) == 0) {
          cut = i + 1;
          break;
        }
      }
    }
    chunks.push_back(ChunkRef{start, cut});
    start += cut;
  }
  return chunks;
}

TEST(ChunkerConfigTest, RejectsInvalidShapes) {
  EXPECT_THROW(Chunker({0, 8, 16}), std::invalid_argument);       // min = 0
  EXPECT_THROW(Chunker({16, 8, 64}), std::invalid_argument);      // min > avg
  EXPECT_THROW(Chunker({8, 64, 32}), std::invalid_argument);      // avg > max
  EXPECT_THROW(Chunker({8, 24, 64}), std::invalid_argument);      // avg !pow2
  EXPECT_NO_THROW(Chunker({8, 8, 8}));
  EXPECT_NO_THROW(Chunker({1, 1, 1}));
}

TEST(ChunkerTest, EmptyInputYieldsNoChunks) {
  EXPECT_TRUE(Chunker().split({}).empty());
}

TEST(ChunkerTest, SubMinimumInputYieldsOneChunk) {
  Xoshiro256 rng(1);
  const Bytes data = rng.bytes(Chunker().config().min_size - 1);
  const auto chunks = Chunker().split(data);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0], (ChunkRef{0, data.size()}));
}

TEST(ChunkerTest, ChunksTileTheInputWithinBounds) {
  SPEED_SEEDED_RNG(rng, 0xc0ffee01);
  const Chunker chunker;
  const auto& cfg = chunker.config();
  for (const std::size_t size :
       {std::size_t{1}, cfg.min_size, cfg.min_size + 1, cfg.max_size,
        cfg.max_size + 1, std::size_t{1} << 20}) {
    const Bytes data = rng.bytes(size);
    const auto chunks = chunker.split(data);
    ASSERT_FALSE(chunks.empty());
    std::size_t offset = 0;
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      EXPECT_EQ(chunks[i].offset, offset);
      EXPECT_LE(chunks[i].size, cfg.max_size);
      if (i + 1 < chunks.size()) {
        EXPECT_GE(chunks[i].size, cfg.min_size);
      }
      offset += chunks[i].size;
    }
    EXPECT_EQ(offset, data.size());
  }
}

/// 1 MiB of character runs drawn from a 38-character phrase: the low-entropy
/// input on which a low-bits cut rule misbehaves.
Bytes low_entropy_text() {
  Xoshiro256 rng(3);
  Bytes text;
  text.reserve(1 << 20);
  const std::string vocab = "the quick brown enclave dedups chunks ";
  while (text.size() < (1 << 20)) {
    const char c = vocab[rng.below(vocab.size())];
    text.insert(text.end(), 1 + rng.below(4), static_cast<std::uint8_t>(c));
  }
  return text;
}

TEST(ChunkerTest, BoundsHoldUnderRandomConfigsAndInputs) {
  SPEED_SEEDED_RNG(rng, 0xc0ffee02);
  const Bytes text = low_entropy_text();
  const Bytes zeros(64 * 1024, 0);
  for (int round = 0; round < 50; ++round) {
    ChunkerConfig cfg;
    cfg.avg_size = std::size_t{1} << (3 + rng.below(8));    // 8 .. 1024
    cfg.min_size = 1 + rng.below(cfg.avg_size);
    cfg.max_size = cfg.avg_size << rng.below(4);
    const Chunker chunker(cfg);
    // Random bytes, a window of low-entropy text and a run of zeros: every
    // split must tile within bounds and cut where the reference walk cuts.
    const Bytes data = rng.bytes(rng.below(64 * 1024));
    const std::size_t text_from = rng.below(text.size() - 64 * 1024);
    const ByteView text_window =
        ByteView(text).subspan(text_from, rng.below(64 * 1024));
    const ByteView zero_run = ByteView(zeros).first(rng.below(zeros.size()));
    for (const ByteView input : {ByteView(data), text_window, zero_run}) {
      std::size_t offset = 0;
      const auto chunks = chunker.split(input);
      for (std::size_t i = 0; i < chunks.size(); ++i) {
        ASSERT_EQ(chunks[i].offset, offset);
        ASSERT_GT(chunks[i].size, 0u);
        ASSERT_LE(chunks[i].size, cfg.max_size);
        if (i + 1 < chunks.size()) {
          ASSERT_GE(chunks[i].size, cfg.min_size);
        }
        offset += chunks[i].size;
      }
      ASSERT_EQ(offset, input.size());
      ASSERT_EQ(chunks, reference_split(cfg, input))
          << "min " << cfg.min_size << " avg " << cfg.avg_size << " max "
          << cfg.max_size << " input " << input.size();
    }
  }
}

TEST(ChunkerTest, DefaultConfigMatchesReferenceOnLowEntropyAndZeroInput) {
  const Chunker chunker;
  const Bytes text = low_entropy_text();
  EXPECT_EQ(chunker.split(text), reference_split(chunker.config(), text));
  // A run of zeros never passes the mask: only max_size cuts.
  const Bytes zeros((1 << 20) + 100, 0);
  const auto chunks = chunker.split(zeros);
  EXPECT_EQ(chunks, reference_split(chunker.config(), zeros));
  ASSERT_EQ(chunks.size(), zeros.size() / chunker.config().max_size + 1);
  for (std::size_t i = 0; i + 1 < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].size, chunker.config().max_size);
  }
}

TEST(ChunkerTest, CutPointsMatchRecordedDigest) {
  // Cut points decide chunk tags, and chunks already stored must keep
  // deduplicating: pin the (offset, size) list of the default chunker over
  // a fixed 4 MiB corpus blob.
  workload::StreamCorpusConfig corpus;
  corpus.blob_bytes = 4 << 20;
  const Bytes blob = workload::synth_stream_blob(corpus, 0x5eedc0de);
  const auto chunks = Chunker().split(blob);
  serialize::Encoder enc;
  for (const ChunkRef& c : chunks) {
    enc.u64(c.offset);
    enc.u64(c.size);
  }
  EXPECT_EQ(chunks.size(), kRecordedChunkCount);
  EXPECT_EQ(hex_encode(crypto::to_bytes(crypto::Sha256::digest(enc.take()))),
            kRecordedCutDigest);
}

TEST(ChunkerTest, SplitIsDeterministic) {
  Xoshiro256 rng(2);
  const Bytes data = rng.bytes(256 * 1024);
  EXPECT_EQ(Chunker().split(data), Chunker().split(data));
}

/// Bytes covered by the identical chunk tail shared by both splits.
std::size_t matched_tail_bytes(ByteView a, const std::vector<ChunkRef>& ca,
                               ByteView b, const std::vector<ChunkRef>& cb) {
  std::size_t matched = 0;
  auto ia = ca.rbegin();
  auto ib = cb.rbegin();
  while (ia != ca.rend() && ib != cb.rend() && ia->size == ib->size) {
    const ByteView wa = a.subspan(ia->offset, ia->size);
    const ByteView wb = b.subspan(ib->offset, ib->size);
    if (!std::equal(wa.begin(), wa.end(), wb.begin())) break;
    matched += ia->size;
    ++ia;
    ++ib;
  }
  return matched;
}

TEST(ChunkerTest, BoundariesResynchronizeAfterPrefixInsertion) {
  SPEED_SEEDED_RNG(rng, 0xc0ffee03);
  const Chunker chunker;
  const auto& cfg = chunker.config();
  const Bytes base = rng.bytes(512 * 1024);
  for (const std::size_t shift : {std::size_t{1}, std::size_t{17},
                                  cfg.min_size, cfg.avg_size + 3}) {
    Bytes shifted = rng.bytes(shift);
    shifted.insert(shifted.end(), base.begin(), base.end());
    const auto a = chunker.split(base);
    const auto b = chunker.split(shifted);
    // The insertion can perturb the chunk it lands in plus everything up to
    // the next natural boundary; after at most a few max-size chunks the
    // splits must walk in lockstep again. Require the overwhelming majority
    // of the input to re-align (4 * max_size slack out of 512 KiB).
    const std::size_t matched =
        matched_tail_bytes(base, a, ByteView(shifted), b);
    EXPECT_GE(matched, base.size() - 4 * cfg.max_size)
        << "shift=" << shift << " realigned only " << matched << " bytes";
  }
}

TEST(ChunkerTest, BoundariesResynchronizeAfterMidEdit) {
  SPEED_SEEDED_RNG(rng, 0xc0ffee04);
  const Chunker chunker;
  const auto& cfg = chunker.config();
  const Bytes base = rng.bytes(512 * 1024);
  Bytes edited = base;
  const Bytes patch = rng.bytes(100);
  edited.insert(edited.begin() + base.size() / 2, patch.begin(), patch.end());
  const std::size_t matched = matched_tail_bytes(
      base, chunker.split(base), ByteView(edited), chunker.split(edited));
  // Everything after the edit point must realign (minus resync slack).
  EXPECT_GE(matched, base.size() / 2 - 4 * cfg.max_size);
}

TEST(ChunkerTest, CutRateSurvivesLowEntropyInput) {
  // Low-symbol-diversity input (the Gear low-bits weakness): judging the
  // high bits of the rolling hash must keep the average chunk near target.
  const Bytes text = low_entropy_text();
  const Chunker chunker;
  const auto chunks = chunker.split(text);
  const std::size_t avg = text.size() / chunks.size();
  const std::size_t target =
      chunker.config().min_size + chunker.config().avg_size;
  EXPECT_GT(avg, target / 3);
  EXPECT_LT(avg, target * 3);
}

// ----------------------------------------------------------- chunk plan ---

TEST(ChunkPlanTest, SingleChunkDegradesToWholeCall) {
  Xoshiro256 rng(4);
  const Bytes data = rng.bytes(100);  // far below min_size
  const auto fn = test_identity();
  const auto plan = chunk::ChunkPlan::build(fn, data, Chunker());
  EXPECT_TRUE(plan.whole_call());
  EXPECT_EQ(plan.chunk_count(), 1u);
  // The degraded plan's context/tag are byte-identical to the per-call path.
  EXPECT_EQ(plan.stream_tag(), mle::derive_tag(fn, data));
  EXPECT_EQ(plan.stream_context().tag(), mle::derive_tag(fn, data));
}

TEST(ChunkPlanTest, MultiChunkTagsMatchDirectDerivation) {
  SPEED_SEEDED_RNG(rng, 0xc0ffee05);
  const auto fn = test_identity();
  const Chunker chunker;
  // A 1 MiB input, and one cut just after a chunk boundary so that its last
  // chunk is under two SHA-256 blocks (the one-lane fallback of the pass).
  const Bytes mib = rng.bytes(1 << 20);
  const auto mib_chunks = chunker.split(mib);
  ASSERT_GT(mib_chunks.size(), 3u);
  const Bytes short_tail(mib.begin(),
                         mib.begin() + mib_chunks[2].offset + 100);
  for (const Bytes& data : {rng.bytes(128 * 1024), mib, short_tail}) {
    const auto plan = chunk::ChunkPlan::build(fn, data, chunker);
    ASSERT_FALSE(plan.whole_call());
    ASSERT_GT(plan.chunk_count(), 1u);
    for (std::size_t i = 0; i < plan.chunk_count(); ++i) {
      const mle::ComputationContext direct(fn, plan.chunk_bytes(i),
                                           mle::Domain::kChunk);
      EXPECT_EQ(plan.chunk_tag(i), direct.tag()) << "chunk " << i;
      EXPECT_EQ(plan.chunk_context(i).tag(), direct.tag());
      EXPECT_TRUE(ct_equal(plan.chunk_context(i).secondary_key(as_bytes("r")),
                           direct.secondary_key(as_bytes("r"))));
    }
    const mle::ComputationContext stream(fn, data, mle::Domain::kStream);
    EXPECT_EQ(plan.stream_tag(), stream.tag()) << data.size() << " bytes";
    EXPECT_EQ(plan.stream_context().tag(), stream.tag());
  }
  const auto tail_plan = chunk::ChunkPlan::build(fn, short_tail, chunker);
  EXPECT_EQ(tail_plan.chunk(tail_plan.chunk_count() - 1).size, 100u);
}

TEST(ChunkPlanTest, DomainsAreDisjoint) {
  // A chunk whose bytes equal a whole input must not alias its call tag,
  // and the stream tag must differ from both.
  Xoshiro256 rng(5);
  const Bytes data = rng.bytes(4096);
  const auto fn = test_identity();
  const auto call = mle::ComputationContext(fn, data, mle::Domain::kCall).tag();
  const auto chnk = mle::ComputationContext(fn, data, mle::Domain::kChunk).tag();
  const auto strm = mle::ComputationContext(fn, data, mle::Domain::kStream).tag();
  EXPECT_NE(call, chnk);
  EXPECT_NE(call, strm);
  EXPECT_NE(chnk, strm);
}

TEST(ChunkPlanTest, SameContentSameTagAcrossPositionsAndBlobs) {
  // Chunk tags are content-addressed: the same chunk bytes give the same
  // tag regardless of which blob or offset they came from.
  const auto fn = test_identity();
  Xoshiro256 rng(6);
  const Bytes shared = rng.bytes(32 * 1024);
  Bytes a = rng.bytes(16 * 1024);
  a.insert(a.end(), shared.begin(), shared.end());
  Bytes b = rng.bytes(48 * 1024);
  b.insert(b.end(), shared.begin(), shared.end());
  const Chunker chunker;
  const auto pa = chunk::ChunkPlan::build(fn, a, chunker);
  const auto pb = chunk::ChunkPlan::build(fn, b, chunker);
  std::size_t common = 0;
  for (std::size_t i = 0; i < pa.chunk_count(); ++i) {
    for (std::size_t j = 0; j < pb.chunk_count(); ++j) {
      if (pa.chunk_tag(i) == pb.chunk_tag(j)) {
        ++common;
        const auto wa = pa.chunk_bytes(i);
        const auto wb = pb.chunk_bytes(j);
        ASSERT_TRUE(std::equal(wa.begin(), wa.end(), wb.begin(), wb.end()));
      }
    }
  }
  EXPECT_GT(common, 0u);  // the shared tail must produce shared tags
}

TEST(ChunkPlanTest, DistinctFunctionsNeverShareChunkTags) {
  Xoshiro256 rng(7);
  const Bytes data = rng.bytes(64 * 1024);
  const Chunker chunker;
  const auto pa = chunk::ChunkPlan::build(test_identity("bytes f(bytes)"),
                                          data, chunker);
  const auto pb = chunk::ChunkPlan::build(test_identity("bytes g(bytes)"),
                                          data, chunker);
  ASSERT_EQ(pa.chunk_count(), pb.chunk_count());  // same boundaries...
  for (std::size_t i = 0; i < pa.chunk_count(); ++i) {
    EXPECT_NE(pa.chunk_tag(i), pb.chunk_tag(i));  // ...different namespace
  }
}

// ------------------------------------------------------------- manifest ---

TEST(ManifestTest, RoundTripsRefAndInlineEntries) {
  // Version 2: a ref carries its chunk context's unwrap material.
  const mle::ComputationContext ctx(test_identity(), to_bytes("chunk bytes"),
                                    mle::Domain::kChunk);
  chunk::Manifest m;
  m.total_bytes = 12345;
  chunk::ManifestEntry ref;
  ref.tag.fill(0xab);
  ref.size = 4096;
  ref.key = ctx.unwrap_material();
  m.entries.push_back(std::move(ref));
  chunk::ManifestEntry inl;
  inl.inlined = true;
  inl.inline_bytes = to_bytes("raw chunk payload");
  m.entries.push_back(std::move(inl));

  const Bytes wire = chunk::encode_manifest(m);
  EXPECT_EQ(wire[0], 2u);
  const chunk::Manifest back = chunk::decode_manifest(wire);
  EXPECT_EQ(back.total_bytes, 12345u);
  ASSERT_EQ(back.entries.size(), 2u);
  EXPECT_FALSE(back.entries[0].inlined);
  EXPECT_EQ(back.entries[0].tag, m.entries[0].tag);
  EXPECT_EQ(back.entries[0].size, 4096u);
  EXPECT_TRUE(ct_equal(back.entries[0].key, m.entries[0].key));
  const auto rebuilt =
      mle::ComputationContext::from_unwrap_material(back.entries[0].key);
  ASSERT_TRUE(rebuilt.has_value());
  EXPECT_EQ(rebuilt->tag(), ctx.tag());
  EXPECT_TRUE(back.entries[1].inlined);
  EXPECT_EQ(back.entries[1].inline_bytes, to_bytes("raw chunk payload"));
}

/// A manifest as version 1 wrote it: refs pin a 16-byte k_i.
Bytes version1_manifest(const serialize::Tag& tag, ByteView key,
                        ByteView inline_bytes) {
  serialize::Encoder enc;
  enc.u8(1);  // version
  enc.u64(4096 + inline_bytes.size());
  enc.u32(2);
  enc.u8(0);  // ref
  enc.raw(ByteView(tag.data(), tag.size()));
  enc.u32(4096);
  enc.var_bytes(key);
  enc.u8(1);  // inline
  enc.var_bytes(inline_bytes);
  return enc.take();
}

TEST(ManifestTest, DecodesVersion1PinnedKeys) {
  serialize::Tag tag;
  tag.fill(0xcd);
  const Bytes wire = version1_manifest(tag, as_bytes("0123456789abcdef"),
                                       as_bytes("inline"));
  const chunk::Manifest back = chunk::decode_manifest(wire);
  EXPECT_EQ(back.total_bytes, 4096u + 6);
  ASSERT_EQ(back.entries.size(), 2u);
  EXPECT_EQ(back.entries[0].tag, tag);
  EXPECT_TRUE(ct_equal(back.entries[0].key, as_bytes("0123456789abcdef")));
  EXPECT_EQ(back.entries[1].inline_bytes, to_bytes("inline"));

  // A version 1 ref pins a 16-byte key and nothing else.
  EXPECT_THROW(chunk::decode_manifest(version1_manifest(
                   tag, as_bytes("0123456789abcde"), as_bytes("x"))),
               SerializationError);
}

TEST(ManifestTest, RefusesUnwrapMaterialOfImpossibleLength) {
  // Unwrap material is a SHA-256 midstate: 40 bytes plus the buffered tail,
  // whose length the encoded byte count fixes. Anything else is refused.
  const mle::ComputationContext ctx(test_identity(), Bytes(100, 0x11),
                                    mle::Domain::kChunk);
  const secret::Buffer material = ctx.unwrap_material();
  const ByteView good = material.reveal_for(secret::Purpose::of("test"));
  const auto manifest_with = [](ByteView key) {
    chunk::Manifest m;
    m.total_bytes = 1;
    chunk::ManifestEntry ref;
    ref.size = 1;
    ref.key = secret::Buffer::copy_of(key);
    m.entries.push_back(std::move(ref));
    return chunk::encode_manifest(m);
  };
  EXPECT_NO_THROW(chunk::decode_manifest(manifest_with(good)));
  Bytes longer(good.begin(), good.end());
  longer.push_back(0);
  EXPECT_THROW(chunk::decode_manifest(manifest_with(longer)),
               SerializationError);
  EXPECT_THROW(chunk::decode_manifest(manifest_with(good.first(39))),
               SerializationError);
  EXPECT_THROW(chunk::decode_manifest(
                   manifest_with(as_bytes("0123456789abcdef"))),
               SerializationError);  // a pinned key is no unwrap material
}

TEST(ManifestTest, RejectsMalformedInput) {
  chunk::Manifest m;
  m.total_bytes = 7;
  chunk::ManifestEntry inl;
  inl.inlined = true;
  inl.inline_bytes = to_bytes("payload");
  m.entries.push_back(std::move(inl));
  const Bytes wire = chunk::encode_manifest(m);

  EXPECT_THROW(chunk::decode_manifest({}), SerializationError);
  Bytes truncated(wire.begin(), wire.end() - 3);
  EXPECT_THROW(chunk::decode_manifest(truncated), SerializationError);
  Bytes bad_version = wire;
  bad_version[0] ^= 0xff;
  EXPECT_THROW(chunk::decode_manifest(bad_version), SerializationError);
  Bytes trailing = wire;
  trailing.push_back(0);
  EXPECT_THROW(chunk::decode_manifest(trailing), SerializationError);
}

TEST(ManifestTest, RejectsAllocationBombCounts) {
  // A count field claiming more entries than the buffer could possibly hold
  // must be rejected before any allocation happens.
  serialize::Encoder enc;
  enc.u8(1);                     // version
  enc.u64(0);                    // total_bytes
  enc.u32(0xffffffffu);          // entry count: absurd
  EXPECT_THROW(chunk::decode_manifest(enc.take()), SerializationError);
}

}  // namespace
}  // namespace speed
