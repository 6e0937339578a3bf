// Encrypted ResultStore (paper §IV-B).
//
// The store is split exactly like the prototype:
//
//   * a *trusted* metadata dictionary living in the store enclave, keyed by
//     the computation tag. Each entry is deliberately small — the challenge
//     message r, the wrapped key [k], an authentication MAC of the
//     ciphertext, bookkeeping for LRU/quota — and is charged against the
//     simulated EPC;
//   * an *untrusted* ciphertext arena holding the actual [res] blobs, which
//     can grow without pressuring enclave memory. Blobs are AEAD envelopes
//     the store cannot read. Each one's MAC in the trusted entry (a GMAC
//     under a fresh IV, keyed by a key the store enclave derives from its
//     sealing key) lets the store detect host-side corruption before it
//     serves the blob to a GET, SYNC or PULL, and degrade to a miss.
//
// EPC-scale metadata (PR 10): the dictionary itself is two-tiered. The
// resident tier is a robin-hood open-addressed MetaIndex of fixed 32-byte
// slots (store/meta_index.h) — fingerprint, packed spill locator, recency
// clock, hit counter, quota bookkeeping. The full record (tag, owner,
// challenge, wrapped key, blob MAC, result locator) is sealed with the store
// enclave's key (store/meta_codec.h) and written to the blob backend at
// insert time; a bounded per-shard cache (StoreConfig::resident_meta_bytes)
// keeps hot records decoded, and cold records are *faulted in* — read back,
// unsealed, verified against the full tag — on demand. The host can destroy
// a sealed spill record (that entry degrades to a miss, like a corrupted
// blob) but can never read or forge one. Resident cost per entry is one
// slot plus a share of the cache instead of hundreds of bytes of node-based
// map; bench/bench_metadata.cc measures entries per MB of EPC charge.
//
// Persistence: the untrusted half lives behind a BlobBackend
// (store/blob_backend.h). The default is the original in-RAM arena; a
// durable backend (store/file_backend.h) additionally receives, for every
// accepted mutation, a metadata WAL record the enclave has sealed and
// MAC-chained under its sealing key (store/wal_codec.h). A new ResultStore
// constructed over the same backend replays that log — verifying the chain,
// truncating any torn tail, and rebuilding the per-shard index, spill
// records, the QuotaLedger, and the EPC charges — so deduplicated
// computations survive a store restart without weakening the trust
// argument: the host only ever holds ciphertext blobs (already AEAD
// envelopes) and sealed metadata. After the first failed backend write the
// store goes *degraded*: GETs keep serving, PUTs are rejected (the on-disk
// log tail can no longer be extended safely), and
// speed_store_backend_write_errors_total increments. If a recovery-time
// spill rewrite fails (disk already full), the record is *pinned* resident
// instead — recovery never loses an acknowledged entry to ENOSPC.
//
// Concurrency: the index, caches, blob arena, and capacity accounting are
// partitioned into `StoreConfig::shards` tag-addressed shards,
// memcached-style. A tag maps to exactly one shard (an entry is never
// split), each shard has its own mutex and eviction state, and GET/PUT for
// different shards proceed in parallel — which is what lets the event
// loops of StoreTcpServer scale. Per-application
// quotas stay globally exact through a lock-striped ledger keyed by AppId,
// and stats() aggregates per-shard atomic counters without taking any shard
// lock. `shards = 1` (the default) reproduces the original single-mutex
// store bit-for-bit, and is the baseline the Fig. 6 throughput bench
// compares against. WAL appends serialize on their own mutex (nested inside
// at most one shard lock) because the chain orders them anyway.
//
// The host-side body parses each framed request and dispatches one ECALL
// (GET, header-only probe, or PUT) that marshals data at the boundary and
// touches the trusted dictionary, mirroring the paper's two customized
// ECALLs. DoS defence is a
// per-application byte quota (§III-D); capacity pressure is handled by LRU
// eviction. SYNC serves the hottest entries for the anti-entropy push that
// implements the §IV-B Remark (store/replication.h).
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/annotated_lock.h"
#include "common/bytes.h"
#include "crypto/gcm.h"
#include "serialize/wire.h"
#include "sgx/enclave.h"
#include "store/blob_backend.h"
#include "store/meta_codec.h"
#include "store/meta_index.h"
#include "store/wal_codec.h"
#include "telemetry/registry.h"

namespace speed::store {

struct StoreConfig {
  /// Capacity of the untrusted ciphertext arena across all shards; each
  /// shard owns an equal slice and evicts within it.
  std::uint64_t max_ciphertext_bytes = 256ull * 1024 * 1024;
  /// Per-application stored-bytes quota (rate-limiting defence, §III-D).
  /// Enforced exactly across shards.
  std::uint64_t per_app_quota_bytes = 64ull * 1024 * 1024;
  /// Upper bound on dictionary entries (trusted memory guard), split across
  /// shards like the arena capacity.
  std::size_t max_entries = 1u << 20;

  /// Trusted-memory budget for the decoded-metadata cache, split across
  /// shards. Cold entries keep only their 32-byte index slot resident; their
  /// full record is faulted in from the sealed spill tier on access. 0
  /// disables the cache entirely (every access faults in — the spill-aware
  /// replication regression tests run in this mode).
  std::uint64_t resident_meta_bytes = 8ull * 1024 * 1024;

  /// Which entry to sacrifice when the arena is full. kLru suits shifting
  /// working sets; kLfu protects long-lived hot computations (the "popular
  /// results" the §IV-B replication pushes) from scan-like churn.
  enum class Eviction { kLru, kLfu };
  Eviction eviction = Eviction::kLru;

  /// Lock-striping factor. 1 (the default) is the original single-mutex
  /// store; concurrent deployments (StoreTcpServer) want a small power of
  /// two, e.g. 8. Real tags are SHA-256 outputs, so shard assignment (taken
  /// from tag bytes disjoint from the index's fingerprint bytes) is uniform.
  std::size_t shards = 1;

  /// Persistence backend for the untrusted half. Null (the default) gives
  /// the store a private, non-durable in-memory arena — the original
  /// behavior, with zero WAL work on the PUT path (spill records are still
  /// written: the memory arena never fails and the paging tier is what
  /// keeps the EPC footprint flat). A durable backend (FileBackend, or
  /// MemoryBackend(record_wal=true) for tests) turns on WAL logging, and
  /// the constructor replays whatever the backend already holds — see
  /// open_result_store() in store/file_backend.h for the one-call
  /// file-backed form.
  std::shared_ptr<BlobBackend> backend;
};

/// Who is on the far end of a dispatched request. Application sessions may
/// only GET, PUT, and heartbeat; the infra plane (peer stores, the host's
/// own plaintext path, cluster replication) additionally gets SYNC, the
/// anti-entropy PULL/PUSH pair, and membership updates. The split is a
/// quota defence: PUSH merges are quota-exempt, so an application allowed
/// to send one could store bytes it was never charged for.
enum class Peer : std::uint8_t {
  kInfra = 0,  ///< trusted infrastructure (default: preserves old callers)
  kApp = 1,    ///< attested application session (StoreSession)
};

class ResultStore {
 public:
  /// Creates the store enclave on `platform`; recovers from
  /// `config.backend` when it is durable and non-empty.
  ResultStore(sgx::Platform& platform, StoreConfig config = StoreConfig{});

  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  /// Host-side entry point for the plaintext protocol: decode one request,
  /// perform one ECALL, return the encoded response.
  Bytes handle(ByteView request);

  /// Trusted dispatch: must already execute in the store enclave's context
  /// (used by handle() and by StoreSession's secure-channel ECALL). Takes
  /// only the target shard's lock, so concurrent sessions proceed in
  /// parallel when their tags hash to different shards. Infra-plane
  /// messages on a Peer::kApp session throw ProtocolError.
  serialize::Message dispatch_trusted(const serialize::Message& request,
                                      Peer peer = Peer::kInfra);

  // Typed convenience API (each performs its own ECALL).
  serialize::GetResponse get(const serialize::GetRequest& req);
  serialize::PutResponse put(const serialize::PutRequest& req);
  serialize::GetResponse probe(const serialize::ProbeRequest& req);

  // ----------------------------------------------------------- cluster view

  /// Membership this node has applied (docs/PROTOCOL.md §8). Epoch 0 with no
  /// members means "standalone": the node answers heartbeats and sync but
  /// holds no cluster state.
  struct ClusterView {
    std::uint64_t epoch = 0;
    std::vector<serialize::MemberInfo> members;
  };
  ClusterView cluster_view() const;

  // ------------------------------------------------------------ durability

  /// What the constructor's WAL replay found. All zeros for a non-durable
  /// or freshly initialized backend.
  struct RecoveryInfo {
    std::uint64_t replayed_records = 0;
    std::uint64_t inserts = 0;
    std::uint64_t erases = 0;
    /// Recovered entries dropped because their blob was not actually on
    /// the backend (e.g. a compaction raced a lost erase record).
    std::uint64_t dropped_blobs = 0;
    /// Recovered entries pinned resident because their spill rewrite failed
    /// (disk full at recovery time). Nothing acknowledged is lost.
    std::uint64_t pinned_records = 0;
    bool torn_tail = false;  ///< log ended in a torn/unverifiable record
    double recovery_ms = 0.0;
  };
  const RecoveryInfo& recovery_info() const { return recovery_info_; }

  /// True after any backend write failure (disk full, injected crash): the
  /// store stops accepting PUTs — the log tail may be torn, so appending
  /// past it would orphan records — but keeps serving GETs. Cleared only by
  /// constructing a fresh store over the backend.
  bool degraded() const { return degraded_.load(std::memory_order_relaxed); }

  /// Force every acknowledged PUT onto stable storage (closes the group-
  /// commit window of FileBackendConfig::fsync_every > 1).
  void flush_backend();

  /// Reclaim backend storage whose blobs are all dead; returns segments
  /// reclaimed.
  std::size_t compact_backend() { return backend_->compact(); }

  BlobBackend& backend() { return *backend_; }

  /// Exact stored-bytes charge currently held against `app` (quota ledger
  /// introspection; the leak-check tests assert this returns to zero).
  std::uint64_t quota_used(const serialize::AppId& app) const;

  /// Test hook modelling a compromised host: flips one bit of a blob in the
  /// untrusted arena (the trusted dictionary is out of the adversary's
  /// reach). Returns false if the tag has no blob.
  bool corrupt_blob_for_testing(const serialize::Tag& tag);

  struct Stats {
    std::uint64_t get_requests = 0;
    std::uint64_t hits = 0;
    std::uint64_t put_requests = 0;
    std::uint64_t stored = 0;
    std::uint64_t duplicate_puts = 0;
    std::uint64_t quota_rejections = 0;
    std::uint64_t evictions = 0;
    std::uint64_t corrupt_blobs = 0;
    std::uint64_t entries = 0;
    std::uint64_t ciphertext_bytes = 0;
    std::uint64_t backend_write_errors = 0;
    // Metadata paging tier (PR 10).
    std::uint64_t meta_spills = 0;     ///< sealed records written out
    std::uint64_t meta_fault_ins = 0;  ///< cold records read back in
    std::uint64_t meta_resident_bytes = 0;  ///< trusted bytes charged
    std::uint64_t meta_index_bytes = 0;     ///< slot-table share of the above
    std::uint64_t meta_pinned_records = 0;  ///< entries pinned (spill failed)
  };
  /// Aggregated over shards from atomic counters — never blocks a GET/PUT.
  Stats stats() const;

  sgx::Enclave& enclave() { return *enclave_; }
  const StoreConfig& config() const { return config_; }
  std::size_t shard_count() const { return shards_.size(); }

 private:
  /// AppIds are enclave measurements, not SHA tags; they get their own
  /// hasher (FNV-1a over the full 32 bytes) instead of borrowing the tag
  /// fingerprint through the layout coincidence that both are 32-byte
  /// arrays.
  struct AppIdHash {
    std::size_t operator()(const serialize::AppId& a) const {
      std::uint64_t h = 14695981039346656037ull;
      for (const std::uint8_t b : a) {
        h ^= b;
        h *= 1099511628211ull;
      }
      return static_cast<std::size_t>(h);
    }
  };

  /// A decoded metadata record held in the bounded per-shard cache, keyed
  /// by the entry's spill locator.
  struct CachedMeta {
    MetaRecord rec;
    std::list<std::uint64_t>::iterator lru_it;
  };

  /// Interned AppId (quota release must never need a fault-in, so owners
  /// stay resident, refcounted across the shard's entries).
  struct OwnerSlot {
    serialize::AppId id{};
    std::uint32_t refs = 0;
  };

  /// One lock's worth of store: resident slot index + decoded-record cache
  /// + pinned overflow + eviction state + its slice of the trusted-memory
  /// charge. The telemetry cells (lock-free relaxed atomics under the hood)
  /// feed both the lock-free stats() aggregate and the registry's per-shard
  /// speed_store_* series; everything else is guarded by mu.
  struct Shard {
    Shard(sgx::Enclave& enclave, std::uint64_t cache_budget_bytes)
        : cache_budget(cache_budget_bytes), trusted_charge(enclave, 0) {}

    // 600: one shard lock per request path; quota stripes (650) and the
    // WAL (700) nest inside it. No path holds two shard locks at once.
    mutable Mutex mu{LockRank::kStoreShard};
    MetaIndex index GUARDED_BY(mu);
    std::unordered_map<std::uint64_t, CachedMeta> cache GUARDED_BY(mu);
    std::list<std::uint64_t> cache_lru GUARDED_BY(mu);  ///< front = hottest
    std::uint64_t cache_bytes GUARDED_BY(mu) = 0;
    const std::uint64_t cache_budget;  ///< immutable after construction
    /// Entries whose spill write failed (kPinnedLocBit locators): the full
    /// record stays resident so nothing acknowledged is ever lost to ENOSPC.
    std::unordered_map<std::uint64_t, MetaRecord> pinned GUARDED_BY(mu);
    std::uint64_t pinned_bytes GUARDED_BY(mu) = 0;
    std::uint64_t next_pin GUARDED_BY(mu) = 0;
    std::vector<OwnerSlot> owners GUARDED_BY(mu);
    std::unordered_map<serialize::AppId, std::uint32_t, AppIdHash> owner_lookup
        GUARDED_BY(mu);
    std::vector<std::uint32_t> owner_free GUARDED_BY(mu);
    /// Recency stamp handed to slots on insert/touch; exact LRU order.
    std::uint32_t clock GUARDED_BY(mu) = 0;
    /// Incrementally maintained trusted footprint: index capacity + cache +
    /// pinned records + interned owners.
    std::uint64_t trusted_bytes GUARDED_BY(mu) = 0;
    sgx::TrustedCharge trusted_charge GUARDED_BY(mu);

    telemetry::Counter get_requests;
    telemetry::Counter hits;
    telemetry::Counter put_requests;
    telemetry::Counter stored;
    telemetry::Counter duplicate_puts;
    telemetry::Counter quota_rejections;
    telemetry::Counter evictions;
    telemetry::Counter corrupt_blobs;
    telemetry::Counter meta_spills;
    telemetry::Counter meta_fault_ins;
    telemetry::Gauge entries;
    telemetry::Gauge ciphertext_bytes;
    telemetry::Gauge meta_resident_bytes;  ///< mirrors trusted_bytes
    telemetry::Gauge meta_index_bytes;
    telemetry::Gauge meta_pinned_records;
    telemetry::Histogram get_ns;  ///< in-enclave GET service latency
    telemetry::Histogram put_ns;  ///< in-enclave PUT/insert service latency
  };

  /// Globally exact per-application quota accounting, lock-striped by AppId
  /// so it never serializes two shards. Stripe locks nest inside shard locks
  /// and acquire nothing themselves.
  class QuotaLedger {
   public:
    QuotaLedger(std::uint64_t limit, std::size_t stripes);

    /// Atomically check-and-charge; false (and no charge) if `bytes` would
    /// push `app` past the limit.
    bool try_charge(const serialize::AppId& app, std::uint64_t bytes);
    /// Unchecked charge (quota-exempt inserts still account their usage).
    void charge(const serialize::AppId& app, std::uint64_t bytes);
    void release(const serialize::AppId& app, std::uint64_t bytes);
    std::uint64_t used(const serialize::AppId& app) const;

   private:
    struct Stripe {
      mutable Mutex mu{LockRank::kQuota};  // nests inside shard locks only
      std::unordered_map<serialize::AppId, std::uint64_t, AppIdHash> used
          GUARDED_BY(mu);
    };
    const Stripe& stripe_for(const serialize::AppId& app) const;
    Stripe& stripe_for(const serialize::AppId& app);

    std::uint64_t limit_;
    std::vector<std::unique_ptr<Stripe>> stripes_;
  };

  Shard& shard_for(const serialize::Tag& tag);

  /// GET (`with_ciphertext`) or header-only probe of `tag`. A hit counts
  /// and refreshes recency either way; a probe reads no blob, checks no MAC
  /// and copies no ciphertext, so a blob the host corrupted is caught by
  /// the next full GET instead.
  serialize::GetResponse lookup_trusted(const serialize::Tag& tag,
                                        bool with_ciphertext);
  serialize::PutResponse put_trusted(const serialize::PutRequest& req);
  serialize::SyncResponse sync_trusted(const serialize::SyncRequest& req);

  // Cluster plane (docs/PROTOCOL.md §8).
  serialize::HeartbeatResponse heartbeat_trusted(
      const serialize::HeartbeatRequest& req) const;
  serialize::PullResponse pull_trusted(const serialize::PullRequest& req);
  serialize::PushResponse push_trusted(const serialize::PushRequest& req);
  serialize::MembershipAck membership_trusted(
      const serialize::MembershipUpdate& req);

  /// Quota-exempt merge shared by anti-entropy push and pull replies; preserves the sender's hit counts so popularity ranking
  /// survives replication. Must already run in the enclave.
  std::size_t merge_entries_trusted(
      const std::vector<serialize::SyncEntry>& entries);

  /// Insert helper shared by put and merge; takes `shard.mu` itself.
  /// `enforce_quota` distinguishes application PUTs from replication merges.
  serialize::PutStatus insert_trusted(const serialize::Tag& tag,
                                      const serialize::AppId& owner,
                                      const serialize::EntryPayload& entry,
                                      bool enforce_quota);

  /// Overwrites the stored hit count (replication carries popularity).
  void set_hits_trusted(const serialize::Tag& tag, std::uint64_t hits);

  // ----------------------------------------------- metadata two-tier paging

  /// Resident-memory cost model of one decoded record (cache/pinned tiers).
  static std::uint64_t record_bytes(const MetaRecord& rec);

  std::uint32_t next_clock_locked(Shard& shard) REQUIRES(shard.mu);

  std::uint32_t owner_intern_locked(Shard& shard,
                                    const serialize::AppId& app)
      REQUIRES(shard.mu);
  void owner_release_locked(Shard& shard, std::uint32_t ref)
      REQUIRES(shard.mu);

  void cache_put_locked(Shard& shard, std::uint64_t loc, MetaRecord rec)
      REQUIRES(shard.mu);
  const MetaRecord* cache_get_locked(Shard& shard, std::uint64_t loc)
      REQUIRES(shard.mu);
  void cache_erase_locked(Shard& shard, std::uint64_t loc) REQUIRES(shard.mu);

  /// Loads the full record behind a slot: pinned map, then cache, then
  /// fault-in from the sealed spill tier (verifying the seal). nullopt when
  /// the host destroyed or corrupted the spill record.
  std::optional<MetaRecord> load_record_locked(Shard& shard,
                                               const MetaSlot& slot)
      REQUIRES(shard.mu);

  struct Found {
    MetaSlot* slot;  ///< valid until the next index mutation
    MetaRecord rec;
  };
  /// Full-tag lookup: probes the index by fingerprint, confirming each
  /// candidate against its loaded record. Entries whose spill record is
  /// unreadable are dropped (accounting released) along the way.
  std::optional<Found> find_entry_locked(Shard& shard,
                                         const serialize::Tag& tag)
      REQUIRES(shard.mu);

  /// Drops an entry whose spill record cannot be read: releases quota and
  /// accounting from resident slot fields alone. The result blob's ref is
  /// inside the unreadable record, so the blob is left for compaction; a
  /// durable store's WAL still holds the insert, so recovery resurrects the
  /// entry with a fresh spill record.
  void drop_unreadable_locked(Shard& shard, std::uint64_t fp,
                              std::uint64_t loc) REQUIRES(shard.mu);

  /// Full erase with the record in hand (eviction, corruption, replay).
  /// `log_wal` is false only when the erase is *replaying* the log.
  void erase_entry_locked(Shard& shard, const MetaSlot& slot,
                          const MetaRecord& rec, bool log_wal)
      REQUIRES(shard.mu);

  // ------------------------------------------------------------ blob MAC

  /// The pair that owns the BlobMac format, tag[16] ‖ iv[12] ‖ 0[4]: a
  /// GMAC (AES-128-GCM with `blob` as AAD and no plaintext) under blob_mac_.
  /// make_blob_mac draws a fresh IV, which takes the DRBG lock, so PUT calls
  /// it before the shard lock.
  BlobMac make_blob_mac(ByteView blob);
  bool verify_blob_mac(ByteView blob, const BlobMac& mac) const;

  /// Reads `found`'s blob and verifies it against its MAC; GET, SYNC and
  /// PULL serve only bytes returned from here. A missing or changed blob
  /// counts corrupt_blobs, erases the entry with its WAL record and returns
  /// nullopt (the caller answers a miss or skips the entry).
  std::optional<Bytes> read_verified_blob_locked(Shard& shard,
                                                 const Found& found)
      REQUIRES(shard.mu);

  /// Evicts the coldest entry (kLru: oldest clock; kLfu: fewest hits, ties
  /// toward oldest clock). False when the shard is empty.
  bool evict_one_locked(Shard& shard) REQUIRES(shard.mu);
  void evict_for_space_locked(Shard& shard, std::uint64_t incoming_bytes)
      REQUIRES(shard.mu);

  /// Seals `rec` and writes it to the spill tier; returns (packed locator,
  /// sealed length). Throws BackendWriteError on write failure or an
  /// unrepresentable locator (the written blob is deleted first).
  std::pair<std::uint64_t, std::uint16_t> spill_record(const MetaRecord& rec);

  /// Pins `rec` resident under a synthetic locator (spill tier refused it).
  std::uint64_t pin_record_locked(Shard& shard, MetaRecord rec)
      REQUIRES(shard.mu);

  /// Recomputes trusted_bytes from the tier sizes and resizes the EPC
  /// charge + gauges.
  void sync_trusted_charge_locked(Shard& shard) REQUIRES(shard.mu);

  // --------------------------------------------------------- WAL plumbing

  /// Seal `rec` into the chain and append it; throws BackendWriteError.
  /// No-op for non-durable backends; must not be called when degraded.
  void wal_append_record(const WalRecord& rec);
  void enter_degraded();

  /// Constructor-time replay: rebuild shards/quota/charges from the log,
  /// truncating at the first record that fails chain verification.
  void recover_from_backend();
  void apply_recovered(const WalRecord& rec);

  sgx::Platform& platform_;
  std::unique_ptr<sgx::Enclave> enclave_;
  /// Blob MAC key, derived from the store enclave's sealing key, so it
  /// exists only here and survives a restart on the same platform.
  const crypto::AesGcm blob_mac_;
  StoreConfig config_;
  std::shared_ptr<BlobBackend> backend_;
  /// Per-shard slices of the global capacity limits.
  std::uint64_t shard_capacity_bytes_;
  std::size_t shard_max_entries_;

  std::vector<std::unique_ptr<Shard>> shards_;
  QuotaLedger quota_;

  /// WAL chain state; the lock (700) nests inside at most one shard lock
  /// and acquires nothing itself.
  Mutex wal_mu_{LockRank::kStoreWal};
  std::uint64_t wal_seq_ GUARDED_BY(wal_mu_) = 0;
  WalChainTag wal_prev_ GUARDED_BY(wal_mu_){};

  /// Cluster membership (docs/PROTOCOL.md §8), guarded by its own mutex
  /// (620) — it is read on the heartbeat path and written only by rare
  /// membership broadcasts, never while a shard lock is held.
  mutable Mutex cluster_mu_{LockRank::kStoreCluster};
  ClusterView cluster_ GUARDED_BY(cluster_mu_);

  /// Batched dispatch (docs/PROTOCOL.md §9): one BatchRequest executed per
  /// entry against the shards, replies index-aligned with the ops.
  serialize::BatchResponse batch_trusted(const serialize::BatchRequest& req);

  std::atomic<bool> degraded_{false};
  RecoveryInfo recovery_info_;
  telemetry::Histogram batch_ops_;  ///< ops per dispatched batch
  telemetry::Counter push_accepted_;
  telemetry::Counter pull_entries_served_;
  telemetry::Counter infra_rejections_;
  telemetry::Counter backend_write_errors_;
  telemetry::Counter recovered_entries_;
  telemetry::Counter wal_torn_tails_;
  telemetry::Gauge recovery_ms_;

  // Declared after shards_: the collector reads their cells, so it must
  // deregister before they are destroyed.
  telemetry::Registry::Handle telemetry_handle_;
};

}  // namespace speed::store
