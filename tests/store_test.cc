// Tests for the encrypted ResultStore: GET/PUT semantics, blob integrity,
// quota enforcement, LRU eviction, wire dispatch, secure sessions, hot-entry
// replication (the §IV-B Remark), and WAL recovery across shard layouts.
#include <gtest/gtest.h>

#include "crypto/drbg.h"
#include "store/replication.h"
#include "store/result_store.h"
#include "store/store_session.h"

namespace speed::store {
namespace {

using serialize::EntryPayload;
using serialize::GetRequest;
using serialize::GetResponse;
using serialize::PutRequest;
using serialize::PutResponse;
using serialize::PutStatus;
using serialize::Tag;

sgx::CostModel fast_model() {
  sgx::CostModel m;
  m.ecall_ns = 0;
  m.ocall_ns = 0;
  m.epc_page_swap_ns = 0;
  return m;
}

Tag make_tag(std::uint64_t n) {
  Tag t{};
  for (int i = 0; i < 8; ++i) t[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(n >> (8 * i));
  return t;
}

serialize::AppId make_app(std::uint8_t fill) {
  serialize::AppId a;
  a.fill(fill);
  return a;
}

EntryPayload make_entry(std::size_t ct_size = 64, std::uint8_t fill = 0x5a) {
  EntryPayload e;
  e.challenge = Bytes(32, fill);
  e.wrapped_key = Bytes(16, fill);
  e.result_ct = Bytes(ct_size, fill);
  return e;
}

PutRequest make_put(std::uint64_t tag_n, std::size_t ct_size = 64,
                    std::uint8_t app = 0x01) {
  PutRequest put;
  put.tag = make_tag(tag_n);
  put.requester = make_app(app);
  put.entry = make_entry(ct_size, static_cast<std::uint8_t>(tag_n));
  return put;
}

class StoreTest : public ::testing::Test {
 protected:
  StoreTest() : platform_(fast_model()), store_(platform_) {}

  sgx::Platform platform_;
  ResultStore store_;
};

TEST_F(StoreTest, MissThenStoreThenHit) {
  GetRequest get;
  get.tag = make_tag(1);
  EXPECT_FALSE(store_.get(get).found);

  const PutRequest put = make_put(1);
  EXPECT_EQ(store_.put(put).status, PutStatus::kStored);

  const GetResponse hit = store_.get(get);
  ASSERT_TRUE(hit.found);
  EXPECT_EQ(hit.entry, put.entry);

  const auto s = store_.stats();
  EXPECT_EQ(s.get_requests, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.entries, 1u);
}

TEST_F(StoreTest, DuplicatePutFirstWriteWins) {
  const PutRequest first = make_put(7, 64);
  PutRequest second = make_put(7, 64);
  second.entry.result_ct = Bytes(64, 0x99);  // different payload, same tag
  EXPECT_EQ(store_.put(first).status, PutStatus::kStored);
  EXPECT_EQ(store_.put(second).status, PutStatus::kAlreadyPresent);

  GetRequest get;
  get.tag = make_tag(7);
  const GetResponse hit = store_.get(get);
  ASSERT_TRUE(hit.found);
  EXPECT_EQ(hit.entry, first.entry) << "first write must win";
}

TEST_F(StoreTest, QuotaEnforcedPerApplication) {
  StoreConfig cfg;
  cfg.per_app_quota_bytes = 150;
  ResultStore store(platform_, cfg);

  EXPECT_EQ(store.put(make_put(1, 100, 0x01)).status, PutStatus::kStored);
  EXPECT_EQ(store.put(make_put(2, 100, 0x01)).status, PutStatus::kQuotaExceeded)
      << "app 0x01 exceeded its quota";
  EXPECT_EQ(store.put(make_put(3, 100, 0x02)).status, PutStatus::kStored)
      << "app 0x02 has its own quota";
  EXPECT_EQ(store.stats().quota_rejections, 1u);
}

TEST_F(StoreTest, LruEvictionUnderCapacity) {
  StoreConfig cfg;
  cfg.max_ciphertext_bytes = 300;
  ResultStore store(platform_, cfg);

  ASSERT_EQ(store.put(make_put(1, 100)).status, PutStatus::kStored);
  ASSERT_EQ(store.put(make_put(2, 100)).status, PutStatus::kStored);
  ASSERT_EQ(store.put(make_put(3, 100)).status, PutStatus::kStored);

  // Touch tag 1 so tag 2 becomes the LRU victim.
  GetRequest get1;
  get1.tag = make_tag(1);
  ASSERT_TRUE(store.get(get1).found);

  ASSERT_EQ(store.put(make_put(4, 100)).status, PutStatus::kStored);
  EXPECT_EQ(store.stats().evictions, 1u);

  GetRequest get2;
  get2.tag = make_tag(2);
  EXPECT_FALSE(store.get(get2).found) << "LRU entry evicted";
  EXPECT_TRUE(store.get(get1).found) << "recently used entry survives";
}

TEST_F(StoreTest, LfuEvictionProtectsHotEntries) {
  StoreConfig cfg;
  cfg.max_ciphertext_bytes = 300;
  cfg.eviction = StoreConfig::Eviction::kLfu;
  ResultStore store(platform_, cfg);

  ASSERT_EQ(store.put(make_put(1, 100)).status, PutStatus::kStored);
  ASSERT_EQ(store.put(make_put(2, 100)).status, PutStatus::kStored);
  ASSERT_EQ(store.put(make_put(3, 100)).status, PutStatus::kStored);

  // Tag 1 is hot (3 hits); tag 2 was touched once *recently*, tag 3 never.
  GetRequest get1;
  get1.tag = make_tag(1);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(store.get(get1).found);
  GetRequest get2;
  get2.tag = make_tag(2);
  ASSERT_TRUE(store.get(get2).found);

  // Under LRU tag 3 (oldest touch) would go; LFU also picks tag 3 here, but
  // after touching 3 once and 2 never again, LFU must still protect 1.
  GetRequest get3;
  get3.tag = make_tag(3);
  ASSERT_TRUE(store.get(get3).found);

  ASSERT_EQ(store.put(make_put(4, 100)).status, PutStatus::kStored);
  EXPECT_TRUE(store.get(get1).found) << "the frequent entry survives LFU";
  // Exactly one of the cold entries was sacrificed.
  const bool has2 = store.get(get2).found;
  const bool has3 = store.get(get3).found;
  EXPECT_TRUE(has2 ^ has3);
}

TEST_F(StoreTest, LfuScanResistance) {
  StoreConfig cfg;
  cfg.max_ciphertext_bytes = 1000;
  cfg.eviction = StoreConfig::Eviction::kLfu;
  ResultStore store(platform_, cfg);

  // One hot entry with many hits.
  ASSERT_EQ(store.put(make_put(100, 200)).status, PutStatus::kStored);
  GetRequest hot;
  hot.tag = make_tag(100);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(store.get(hot).found);

  // A long scan of one-shot entries churns the cache.
  for (std::uint64_t i = 0; i < 50; ++i) {
    store.put(make_put(i, 200));
  }
  EXPECT_TRUE(store.get(hot).found)
      << "LFU keeps the hot entry through a scan; LRU would have evicted it";
}

TEST_F(StoreTest, EvictionReleasesQuota) {
  StoreConfig cfg;
  cfg.max_ciphertext_bytes = 200;
  cfg.per_app_quota_bytes = 1000;
  ResultStore store(platform_, cfg);
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(store.put(make_put(i, 100, 0x01)).status, PutStatus::kStored)
        << "eviction must free the evicted entries' quota";
  }
  EXPECT_EQ(store.stats().entries, 2u);
}

TEST_F(StoreTest, OversizedPutRejected) {
  StoreConfig cfg;
  cfg.max_ciphertext_bytes = 100;
  cfg.per_app_quota_bytes = 1u << 30;
  ResultStore store(platform_, cfg);
  EXPECT_EQ(store.put(make_put(1, 200)).status, PutStatus::kRejected);
}

TEST_F(StoreTest, MaxEntriesGuard) {
  StoreConfig cfg;
  cfg.max_entries = 2;
  ResultStore store(platform_, cfg);
  EXPECT_EQ(store.put(make_put(1)).status, PutStatus::kStored);
  EXPECT_EQ(store.put(make_put(2)).status, PutStatus::kStored);
  EXPECT_EQ(store.put(make_put(3)).status, PutStatus::kRejected);
}

TEST_F(StoreTest, WireDispatchRoundTrip) {
  const PutRequest put = make_put(9);
  const Bytes put_resp = store_.handle(serialize::encode_message(put));
  EXPECT_EQ(std::get<PutResponse>(serialize::decode_message(put_resp)).status,
            PutStatus::kStored);

  GetRequest get;
  get.tag = make_tag(9);
  const Bytes get_resp = store_.handle(serialize::encode_message(get));
  const auto decoded = std::get<GetResponse>(serialize::decode_message(get_resp));
  ASSERT_TRUE(decoded.found);
  EXPECT_EQ(decoded.entry, put.entry);
}

TEST_F(StoreTest, WireDispatchRejectsResponsesAsRequests) {
  const Bytes msg = serialize::encode_message(GetResponse{});
  EXPECT_THROW(store_.handle(msg), ProtocolError);
  EXPECT_THROW(store_.handle(as_bytes("garbage")), SerializationError);
}

TEST_F(StoreTest, EcallChargedPerRequest) {
  const auto before = store_.enclave().ecall_count();
  store_.put(make_put(1));
  GetRequest get;
  get.tag = make_tag(1);
  store_.get(get);
  EXPECT_EQ(store_.enclave().ecall_count(), before + 2);
}

TEST_F(StoreTest, TrustedMemoryTracksDictionaryNotBlobs) {
  const std::uint64_t before = platform_.epc().used_bytes();
  // 1 MB ciphertext but tiny metadata: EPC growth must be metadata-sized.
  ASSERT_EQ(store_.put(make_put(1, 1 << 20)).status, PutStatus::kStored);
  const std::uint64_t growth = platform_.epc().used_bytes() - before;
  EXPECT_LT(growth, 4096u) << "ciphertexts must live outside the enclave";
  EXPECT_GT(growth, 0u) << "metadata must be charged";
}

// ------------------------------------------------------------ corruption

TEST_F(StoreTest, HostTamperedBlobDegradesToMiss) {
  // Simulate the host flipping bits in the untrusted arena: the store's
  // trusted MAC check must catch it and drop the entry.
  ASSERT_EQ(store_.put(make_put(5, 128)).status, PutStatus::kStored);

  // Reach into the untrusted arena the way a malicious OS would. A re-PUT
  // cannot change the blob (first write wins), so a test hook flips a bit:
  store_.corrupt_blob_for_testing(make_tag(5));

  GetRequest get;
  get.tag = make_tag(5);
  EXPECT_FALSE(store_.get(get).found);
  EXPECT_EQ(store_.stats().corrupt_blobs, 1u);
  // The poisoned entry is gone; a fresh PUT re-populates it.
  EXPECT_EQ(store_.put(make_put(5, 128)).status, PutStatus::kStored);
}

/// Stores tags 1..3 and flips a bit of tag 2's blob in the arena.
void store_three_and_tamper_with_tag_2(ResultStore& store) {
  for (std::uint64_t i = 1; i <= 3; ++i) {
    ASSERT_EQ(store.put(make_put(i)).status, PutStatus::kStored);
  }
  ASSERT_TRUE(store.corrupt_blob_for_testing(make_tag(2)));
}

/// A SYNC or PULL reply must carry only the untouched entries: the tampered
/// blob is verified like a GET's, counted, erased, and never shipped to a
/// peer (which would pin the changed bytes as valid for the tag).
void expect_tampered_entry_skipped_and_erased(
    ResultStore& store, const std::vector<serialize::SyncEntry>& served) {
  ASSERT_EQ(served.size(), 2u);
  for (const serialize::SyncEntry& e : served) {
    EXPECT_NE(e.tag, make_tag(2)) << "tampered blob shipped to a peer";
    EXPECT_EQ(e.entry, make_put(e.tag[0]).entry);
  }
  EXPECT_EQ(store.stats().corrupt_blobs, 1u);
  GetRequest get;
  get.tag = make_tag(2);
  EXPECT_FALSE(store.get(get).found);
}

TEST_F(StoreTest, SyncSkipsAndErasesATamperedBlob) {
  ASSERT_NO_FATAL_FAILURE(store_three_and_tamper_with_tag_2(store_));
  const Bytes reply =
      store_.handle(serialize::encode_message(serialize::SyncRequest{3}));
  expect_tampered_entry_skipped_and_erased(
      store_,
      std::get<serialize::SyncResponse>(serialize::decode_message(reply))
          .entries);
}

TEST_F(StoreTest, PullSkipsAndErasesATamperedBlob) {
  ASSERT_NO_FATAL_FAILURE(store_three_and_tamper_with_tag_2(store_));
  serialize::PullRequest first_page;
  first_page.max_entries = 3;
  const Bytes reply = store_.handle(serialize::encode_message(first_page));
  expect_tampered_entry_skipped_and_erased(
      store_,
      std::get<serialize::PullResponse>(serialize::decode_message(reply))
          .entries);
}

// ------------------------------------------------------------- sessions

TEST_F(StoreTest, SecureSessionEndToEnd) {
  auto app = platform_.create_enclave("client-app");
  AppConnection conn = connect_app(store_, *app);
  net::SecureChannel client(std::move(conn.session_key),
                            /*is_initiator=*/true);

  const PutRequest put = make_put(11);
  Bytes frame = client.wrap(serialize::encode_message(put));
  auto resp = client.unwrap(conn.transport->round_trip(frame));
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(std::get<PutResponse>(serialize::decode_message(*resp)).status,
            PutStatus::kStored);

  GetRequest get;
  get.tag = make_tag(11);
  frame = client.wrap(serialize::encode_message(get));
  resp = client.unwrap(conn.transport->round_trip(frame));
  ASSERT_TRUE(resp.has_value());
  EXPECT_TRUE(std::get<GetResponse>(serialize::decode_message(*resp)).found);
}

TEST_F(StoreTest, SecureSessionRejectsTamperedFrames) {
  auto app = platform_.create_enclave("client-app");
  AppConnection conn = connect_app(store_, *app);
  net::SecureChannel client(std::move(conn.session_key), true);
  Bytes frame = client.wrap(serialize::encode_message(make_put(1)));
  frame[frame.size() - 1] ^= 1;
  EXPECT_THROW(conn.session->handle_frame(frame), ProtocolError);
}

TEST_F(StoreTest, SessionKeepsItsBufferWithinTwiceMaxFrame) {
  // A reply can outgrow any frame the host admits (a batch of large GETs);
  // the session's kept plaintext buffer must not hold on to it.
  constexpr std::size_t kMaxFrame = 64 * 1024;
  constexpr std::size_t kEntry = 48 * 1024;
  ASSERT_EQ(store_.put(make_put(21, kEntry)).status, PutStatus::kStored);
  auto app = platform_.create_enclave("client-app");
  AppConnection conn = connect_app(store_, *app);
  conn.session->set_max_frame_bytes(kMaxFrame);
  net::SecureChannel client(std::move(conn.session_key), true);
  const auto ask = [&](const serialize::Message& request) {
    const auto reply = client.unwrap(conn.transport->round_trip(
        client.wrap(serialize::encode_message(request))));
    EXPECT_TRUE(reply.has_value());
    return serialize::decode_message(reply.value_or(Bytes{}));
  };
  GetRequest get;
  get.tag = make_tag(21);

  EXPECT_TRUE(std::get<GetResponse>(ask(get)).found);
  EXPECT_GE(conn.session->kept_bytes(), kEntry) << "a frame-sized reply stays";

  serialize::BatchRequest batch;
  batch.ops.assign(4, get);
  const auto replies = std::get<serialize::BatchResponse>(ask(batch)).replies;
  ASSERT_EQ(replies.size(), 4u);
  for (const auto& reply : replies) {
    EXPECT_EQ(std::get<GetResponse>(reply).entry.result_ct.size(), kEntry);
  }
  EXPECT_EQ(conn.session->kept_bytes(), 0u) << "a 192 KiB reply is released";

  EXPECT_TRUE(std::get<GetResponse>(ask(get)).found);
  EXPECT_GE(conn.session->kept_bytes(), kEntry);
}

// ------------------------------------------------------------ master sync

/// Node 0 = `from`, node 1 = `to`, over the host-side infra plane. With two
/// nodes and the default two copies, each node is a ring owner of every
/// tag, so push_hot_entries(0) offers `to` all of `from`'s hot entries.
std::vector<PeerStore> two_nodes(ResultStore& from, ResultStore& to) {
  return {PeerStore{"from", [&from](ByteView r) { return from.handle(r); }},
          PeerStore{"to", [&to](ByteView r) { return to.handle(r); }}};
}

TEST_F(StoreTest, MasterSyncReplicatesHottestEntries) {
  ResultStore source(platform_);
  for (std::uint64_t i = 0; i < 5; ++i) {
    ASSERT_EQ(source.put(make_put(i)).status, PutStatus::kStored);
  }
  // Heat up tags 3 and 4.
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t i : {3u, 4u}) {
      GetRequest get;
      get.tag = make_tag(i);
      ASSERT_TRUE(source.get(get).found);
    }
  }

  ResultStore replica(platform_);
  ReplicationConfig cfg;
  cfg.hot_entries = 2;
  ClusterReplicator replicator(two_nodes(source, replica), cfg);
  EXPECT_EQ(replicator.push_hot_entries(0), 2u);
  for (std::uint64_t i : {3u, 4u}) {
    GetRequest get;
    get.tag = make_tag(i);
    EXPECT_TRUE(replica.get(get).found) << "hot entry " << i << " replicated";
  }
  for (std::uint64_t i : {0u, 1u, 2u}) {
    GetRequest cold;
    cold.tag = make_tag(i);
    EXPECT_FALSE(replica.get(cold).found) << "cold entry " << i << " pushed";
  }

  // A second round finds the replica already holding both.
  EXPECT_EQ(replicator.push_hot_entries(0), 0u);
}

TEST_F(StoreTest, MasterSyncIsQuotaExempt) {
  StoreConfig tight;
  tight.per_app_quota_bytes = 10;  // no app could PUT anything this size
  ResultStore replica(platform_, tight);
  ResultStore source(platform_);
  ASSERT_EQ(source.put(make_put(1, 64)).status, PutStatus::kStored);
  ClusterReplicator replicator(two_nodes(source, replica));
  EXPECT_EQ(replicator.push_hot_entries(0), 1u);
  GetRequest get;
  get.tag = make_tag(1);
  EXPECT_TRUE(replica.get(get).found);
}

// ------------------------------------------------------- sharded store

/// Tag aimed at one shard: shard assignment reads bytes [8, 16), the
/// dictionary hash reads bytes [0, 8) — set both independently.
Tag sharded_tag(std::uint8_t shard, std::uint64_t n) {
  Tag t = make_tag(n);
  t[8] = shard;
  return t;
}

TEST_F(StoreTest, ShardedCrossShardGetPut) {
  StoreConfig cfg;
  cfg.shards = 8;
  ResultStore store(platform_, cfg);
  ASSERT_EQ(store.shard_count(), 8u);

  for (std::uint64_t n = 0; n < 64; ++n) {
    PutRequest put = make_put(n);
    put.tag = sharded_tag(static_cast<std::uint8_t>(n % 8), n);
    ASSERT_EQ(store.put(put).status, PutStatus::kStored) << "tag " << n;
  }
  for (std::uint64_t n = 0; n < 64; ++n) {
    GetRequest get;
    get.tag = sharded_tag(static_cast<std::uint8_t>(n % 8), n);
    EXPECT_TRUE(store.get(get).found) << "tag " << n;
  }
  const auto s = store.stats();
  EXPECT_EQ(s.stored, 64u);
  EXPECT_EQ(s.entries, 64u);
  EXPECT_EQ(s.hits, 64u);
  EXPECT_EQ(s.ciphertext_bytes, 64u * 64u);
}

TEST_F(StoreTest, ShardedEvictionIsPerShard) {
  // Global capacity 800 over 2 shards = 400 per shard. Overflowing shard 0
  // must evict only within shard 0; shard 1's entries are untouched.
  StoreConfig cfg;
  cfg.max_ciphertext_bytes = 800;
  cfg.shards = 2;
  ResultStore store(platform_, cfg);

  for (std::uint64_t n = 0; n < 4; ++n) {
    PutRequest put = make_put(n, 100);
    put.tag = sharded_tag(1, n);
    ASSERT_EQ(store.put(put).status, PutStatus::kStored);
  }
  for (std::uint64_t n = 10; n < 14; ++n) {
    PutRequest put = make_put(n, 100);
    put.tag = sharded_tag(0, n);
    ASSERT_EQ(store.put(put).status, PutStatus::kStored);
  }
  // Shard 0 is now at its 400-byte slice; one more PUT there evicts there.
  PutRequest put = make_put(20, 100);
  put.tag = sharded_tag(0, 20);
  ASSERT_EQ(store.put(put).status, PutStatus::kStored);
  EXPECT_EQ(store.stats().evictions, 1u);
  for (std::uint64_t n = 0; n < 4; ++n) {
    GetRequest get;
    get.tag = sharded_tag(1, n);
    EXPECT_TRUE(store.get(get).found) << "shard 1 must not pay shard 0's rent";
  }
}

TEST_F(StoreTest, ShardedLfuProtectsHotEntriesWithinShard) {
  StoreConfig cfg;
  cfg.max_ciphertext_bytes = 600;  // 300 per shard
  cfg.eviction = StoreConfig::Eviction::kLfu;
  cfg.shards = 2;
  ResultStore store(platform_, cfg);

  for (std::uint64_t n = 0; n < 3; ++n) {
    PutRequest put = make_put(n, 100);
    put.tag = sharded_tag(0, n);
    ASSERT_EQ(store.put(put).status, PutStatus::kStored);
  }
  GetRequest hot;
  hot.tag = sharded_tag(0, 0);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(store.get(hot).found);

  PutRequest put = make_put(9, 100);
  put.tag = sharded_tag(0, 9);
  ASSERT_EQ(store.put(put).status, PutStatus::kStored);
  EXPECT_EQ(store.stats().evictions, 1u);
  EXPECT_TRUE(store.get(hot).found) << "LFU keeps the hot entry in its shard";
}

TEST_F(StoreTest, ShardedQuotaStaysGloballyExact) {
  // An app spreading PUTs over all shards must still be capped at its one
  // global quota, not shards * quota.
  StoreConfig cfg;
  cfg.per_app_quota_bytes = 350;
  cfg.shards = 8;
  ResultStore store(platform_, cfg);

  for (std::uint64_t n = 0; n < 3; ++n) {
    PutRequest put = make_put(n, 100, 0x01);
    put.tag = sharded_tag(static_cast<std::uint8_t>(n), n);
    ASSERT_EQ(store.put(put).status, PutStatus::kStored);
  }
  PutRequest fourth = make_put(3, 100, 0x01);
  fourth.tag = sharded_tag(3, 3);
  EXPECT_EQ(store.put(fourth).status, PutStatus::kQuotaExceeded)
      << "350-byte quota admits 3x100, not 4x100, regardless of shard spread";
  PutRequest other_app = make_put(4, 100, 0x02);
  other_app.tag = sharded_tag(3, 4);
  EXPECT_EQ(store.put(other_app).status, PutStatus::kStored);
}

TEST_F(StoreTest, RecoveryAcrossShardCounts) {
  // The WAL is shard-layout independent: a store written with 8 shards
  // reopens over the same durable backend with 1, re-sharding on replay.
  auto backend = std::make_shared<MemoryBackend>(/*record_wal=*/true);
  {
    StoreConfig cfg8;
    cfg8.shards = 8;
    cfg8.backend = backend;
    ResultStore sharded(platform_, cfg8);
    for (std::uint64_t n = 0; n < 16; ++n) {
      PutRequest put = make_put(n);
      put.tag = sharded_tag(static_cast<std::uint8_t>(n % 8), n);
      ASSERT_EQ(sharded.put(put).status, PutStatus::kStored);
    }
  }

  StoreConfig cfg1;  // shards = 1
  cfg1.backend = backend;
  ResultStore single(platform_, cfg1);
  EXPECT_EQ(single.recovery_info().inserts, 16u);
  EXPECT_EQ(single.stats().entries, 16u);
  for (std::uint64_t n = 0; n < 16; ++n) {
    GetRequest get;
    get.tag = sharded_tag(static_cast<std::uint8_t>(n % 8), n);
    const GetResponse hit = single.get(get);
    ASSERT_TRUE(hit.found) << "tag " << n;
    EXPECT_EQ(hit.entry, make_entry(64, static_cast<std::uint8_t>(n)));
  }
}

}  // namespace
}  // namespace speed::store
