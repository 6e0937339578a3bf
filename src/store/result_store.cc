#include "store/result_store.h"

#include <algorithm>
#include <limits>
#include <span>
#include <type_traits>
#include <utility>

#include "common/error.h"
#include "serialize/codec.h"

namespace speed::store {

using serialize::EntryPayload;
using serialize::GetRequest;
using serialize::GetResponse;
using serialize::Message;
using serialize::ProbeRequest;
using serialize::PutRequest;
using serialize::PutResponse;
using serialize::PutStatus;
using serialize::SyncEntry;
using serialize::SyncRequest;
using serialize::SyncResponse;
using serialize::Tag;

namespace {

/// Resident-memory cost model of one *decoded* record held in the cache or
/// pinned tier: tag + owner + blob MAC + locator + container overhead, plus
/// the variable fields. Deliberately on the generous side — the EPC charge
/// must never undercount real trusted memory.
constexpr std::uint64_t kMetaRecordOverheadBytes = 128;

/// Cost of one interned owner slot (id + refcount + lookup entry).
constexpr std::uint64_t kOwnerSlotBytes = 80;

std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) {
  return (a + b - 1) / b;
}

/// Records the enclosing scope's duration into a shard histogram on every
/// exit path (get/insert have several).
struct LatencyScope {
  explicit LatencyScope(telemetry::Histogram& h) : hist(h) {}
  ~LatencyScope() { hist.record(sw.elapsed_ns()); }
  telemetry::Histogram& hist;
  Stopwatch sw;
};

}  // namespace

// ------------------------------------------------------------ QuotaLedger

ResultStore::QuotaLedger::QuotaLedger(std::uint64_t limit, std::size_t stripes)
    : limit_(limit) {
  stripes_.reserve(stripes);
  for (std::size_t i = 0; i < stripes; ++i) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
}

const ResultStore::QuotaLedger::Stripe& ResultStore::QuotaLedger::stripe_for(
    const serialize::AppId& app) const {
  return *stripes_[AppIdHash{}(app) % stripes_.size()];
}

ResultStore::QuotaLedger::Stripe& ResultStore::QuotaLedger::stripe_for(
    const serialize::AppId& app) {
  return *stripes_[AppIdHash{}(app) % stripes_.size()];
}

bool ResultStore::QuotaLedger::try_charge(const serialize::AppId& app,
                                          std::uint64_t bytes) {
  Stripe& s = stripe_for(app);
  MutexLock lock(s.mu);
  std::uint64_t& used = s.used[app];
  if (used + bytes > limit_) {
    if (used == 0) s.used.erase(app);
    return false;
  }
  used += bytes;
  return true;
}

void ResultStore::QuotaLedger::charge(const serialize::AppId& app,
                                      std::uint64_t bytes) {
  Stripe& s = stripe_for(app);
  MutexLock lock(s.mu);
  s.used[app] += bytes;
}

void ResultStore::QuotaLedger::release(const serialize::AppId& app,
                                       std::uint64_t bytes) {
  Stripe& s = stripe_for(app);
  MutexLock lock(s.mu);
  const auto it = s.used.find(app);
  if (it == s.used.end()) return;
  it->second -= std::min(it->second, bytes);
  // Erase emptied entries: an adversary cycling through app identities must
  // not be able to grow the ledger without bound, and the leak-check tests
  // assert a fully drained app leaves no residue.
  if (it->second == 0) s.used.erase(it);
}

std::uint64_t ResultStore::QuotaLedger::used(
    const serialize::AppId& app) const {
  const Stripe& s = stripe_for(app);
  MutexLock lock(s.mu);
  const auto it = s.used.find(app);
  return it == s.used.end() ? 0 : it->second;
}

// ------------------------------------------------------------- ResultStore

ResultStore::ResultStore(sgx::Platform& platform, StoreConfig config)
    : platform_(platform),
      enclave_(platform.create_enclave("speed-result-store")),
      blob_mac_(enclave_->derive_key("speed-store-blob-mac")),
      config_(std::move(config)),
      backend_(config_.backend ? config_.backend
                               : std::make_shared<MemoryBackend>()),
      quota_(config_.per_app_quota_bytes,
             std::max<std::size_t>(config_.shards, 8)) {
  if (config_.shards == 0) {
    throw ProtocolError("ResultStore: shards must be >= 1");
  }
  shard_capacity_bytes_ =
      std::max<std::uint64_t>(1, ceil_div(config_.max_ciphertext_bytes,
                                          config_.shards));
  shard_max_entries_ = static_cast<std::size_t>(
      std::max<std::uint64_t>(1, ceil_div(config_.max_entries, config_.shards)));
  const std::uint64_t cache_budget =
      config_.resident_meta_bytes == 0
          ? 0
          : std::max<std::uint64_t>(
                1, ceil_div(config_.resident_meta_bytes, config_.shards));
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(*enclave_, cache_budget));
  }
  // Charge the initial index tables before anything is inserted, so the
  // leak-check baseline (EPC after construction) already includes them.
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    sync_trusted_charge_locked(*shard);
  }
  recover_from_backend();
  telemetry_handle_ = telemetry::Registry::global().add_collector(
      [this](telemetry::SampleSink& sink) {
        constexpr auto kShard = telemetry::LabelKey::of("shard");
        for (std::size_t i = 0; i < shards_.size(); ++i) {
          const Shard& s = *shards_[i];
          const telemetry::LabelSet labels{
              {kShard, telemetry::LabelValue::index(i)}};
          sink.counter("speed_store_get_requests_total",
                       "GET requests dispatched into the store enclave",
                       labels, s.get_requests.value());
          sink.counter("speed_store_hits_total",
                       "GETs served from the dedup dictionary", labels,
                       s.hits.value());
          sink.counter("speed_store_put_requests_total",
                       "PUT requests dispatched into the store enclave",
                       labels, s.put_requests.value());
          sink.counter("speed_store_stored_total", "Entries newly inserted",
                       labels, s.stored.value());
          sink.counter("speed_store_duplicate_puts_total",
                       "PUTs that lost the first-write race", labels,
                       s.duplicate_puts.value());
          sink.counter("speed_store_quota_rejections_total",
                       "PUTs rejected by the per-app byte quota", labels,
                       s.quota_rejections.value());
          sink.counter("speed_store_evictions_total",
                       "Entries evicted for arena capacity", labels,
                       s.evictions.value());
          sink.counter("speed_store_corrupt_blobs_total",
                       "Host-side blob corruption detected on GET", labels,
                       s.corrupt_blobs.value());
          sink.counter("speed_store_meta_spills_total",
                       "Sealed metadata records written to the spill tier",
                       labels, s.meta_spills.value());
          sink.counter("speed_store_meta_fault_ins_total",
                       "Cold metadata records faulted back into the enclave",
                       labels, s.meta_fault_ins.value());
          sink.gauge("speed_store_entries", "Live dictionary entries", labels,
                     s.entries.value());
          sink.gauge("speed_store_ciphertext_bytes",
                     "Untrusted arena bytes in use", labels,
                     s.ciphertext_bytes.value());
          sink.gauge("speed_store_meta_resident_bytes",
                     "Trusted bytes charged for metadata (index+cache+pins)",
                     labels, s.meta_resident_bytes.value());
          sink.gauge("speed_store_meta_index_bytes",
                     "Slot-table share of the resident metadata charge",
                     labels, s.meta_index_bytes.value());
          sink.gauge("speed_store_meta_pinned_records",
                     "Entries pinned resident (spill write failed)", labels,
                     s.meta_pinned_records.value());
          sink.histogram("speed_store_get_ns",
                         "In-enclave GET service latency", labels, s.get_ns);
          sink.histogram("speed_store_put_ns",
                         "In-enclave PUT/insert service latency", labels,
                         s.put_ns);
        }
        const BackendStats b = backend_->stats();
        sink.counter("speed_store_wal_appends_total",
                     "Sealed metadata WAL records appended", {},
                     b.wal_appends);
        sink.counter("speed_store_wal_fsyncs_total",
                     "WAL fsync batches forced to stable storage", {},
                     b.wal_fsyncs);
        sink.counter("speed_store_wal_bytes_total",
                     "Framed bytes appended to the metadata WAL", {},
                     b.wal_bytes);
        sink.counter("speed_store_segments_created_total",
                     "Blob segments created by the backend", {},
                     b.segments_created);
        sink.counter("speed_store_segments_compacted_total",
                     "Fully-dead blob segments reclaimed", {},
                     b.segments_compacted);
        sink.counter("speed_store_backend_write_errors_total",
                     "Backend writes that failed (disk full, torn)", {},
                     backend_write_errors_.value());
        sink.counter("speed_store_recovered_entries_total",
                     "Dictionary entries rebuilt by WAL replay", {},
                     recovered_entries_.value());
        sink.counter("speed_store_wal_torn_tails_total",
                     "WAL tails truncated during recovery", {},
                     wal_torn_tails_.value());
        sink.counter("speed_store_push_accepted_total",
                     "Entries accepted from anti-entropy pushes", {},
                     push_accepted_.value());
        sink.counter("speed_store_pull_entries_served_total",
                     "Entries served to anti-entropy pulls", {},
                     pull_entries_served_.value());
        sink.counter("speed_store_infra_rejections_total",
                     "Infra-plane messages rejected on app sessions", {},
                     infra_rejections_.value());
        sink.histogram("speed_store_batch_ops",
                       "Sub-requests per dispatched batch frame", {},
                       batch_ops_);
        sink.gauge("speed_store_cluster_epoch",
                   "Membership epoch this node has applied", {},
                   static_cast<std::int64_t>(cluster_view().epoch));
        sink.gauge("speed_store_recovery_ms",
                   "Wall time of the last constructor-time WAL replay", {},
                   recovery_ms_.value());
        sink.gauge("speed_store_degraded",
                   "1 after a backend write failure (PUTs rejected)", {},
                   degraded() ? 1 : 0);
        sink.gauge("speed_store_backend_live_blob_bytes",
                   "Blob bytes reachable from the trusted dictionary", {},
                   static_cast<std::int64_t>(b.live_blob_bytes));
        sink.gauge("speed_store_backend_dead_blob_bytes",
                   "Deleted blob bytes awaiting compaction", {},
                   static_cast<std::int64_t>(b.dead_blob_bytes));
      });
}

ResultStore::Shard& ResultStore::shard_for(const Tag& tag) {
  // Bytes [8, 16) of the tag — disjoint from the bytes MetaIndex fingerprints
  // ([0, 8)) — so shard choice and bucket choice stay independent. Tags are
  // SHA-256 outputs, hence uniform.
  std::uint64_t v;
  __builtin_memcpy(&v, tag.data() + 8, sizeof(v));
  return *shards_[v % shards_.size()];
}

Bytes ResultStore::handle(ByteView request) {
  // Host side: preliminary parse happens outside the enclave (only the type
  // byte is inspected), then one ECALL dispatches into the trusted body.
  const Message req = serialize::decode_message(request);
  const Message resp = enclave_->ecall([&] { return dispatch_trusted(req); });
  return serialize::encode_message(resp);
}

Message ResultStore::dispatch_trusted(const Message& request, Peer peer) {
  if (const auto* get_req = std::get_if<GetRequest>(&request)) {
    return lookup_trusted(get_req->tag, /*with_ciphertext=*/true);
  }
  if (const auto* put_req = std::get_if<PutRequest>(&request)) {
    return put_trusted(*put_req);
  }
  if (const auto* probe_req = std::get_if<ProbeRequest>(&request)) {
    return lookup_trusted(probe_req->tag, /*with_ciphertext=*/false);
  }
  if (const auto* hb_req = std::get_if<serialize::HeartbeatRequest>(&request)) {
    return heartbeat_trusted(*hb_req);
  }
  if (const auto* batch_req = std::get_if<serialize::BatchRequest>(&request)) {
    return batch_trusted(*batch_req);
  }
  if (peer == Peer::kApp) {
    // Applications never speak the infra plane: PUSH/PULL merges are
    // quota-exempt, so letting an app session reach them would let it store
    // bytes its quota ledger never sees.
    infra_rejections_.inc();
    throw ProtocolError("ResultStore: infra message on application session");
  }
  if (const auto* sync_req = std::get_if<SyncRequest>(&request)) {
    return sync_trusted(*sync_req);
  }
  if (const auto* pull_req = std::get_if<serialize::PullRequest>(&request)) {
    return pull_trusted(*pull_req);
  }
  if (const auto* push_req = std::get_if<serialize::PushRequest>(&request)) {
    return push_trusted(*push_req);
  }
  if (const auto* mem_req =
          std::get_if<serialize::MembershipUpdate>(&request)) {
    return membership_trusted(*mem_req);
  }
  throw ProtocolError("ResultStore: request type has no server handler");
}

serialize::BatchResponse ResultStore::batch_trusted(
    const serialize::BatchRequest& req) {
  serialize::BatchResponse resp;
  resp.replies.reserve(req.ops.size());
  batch_ops_.record(req.ops.size());
  for (const serialize::BatchOp& op : req.ops) {
    // Per-entry containment: a failed sub-request answers with an
    // ErrorResponse in its slot and never disturbs its neighbors. Sub-ops
    // are GETs, PUTs and probes only, dispatched by reference as
    // dispatch_trusted would for any peer.
    try {
      resp.replies.push_back(std::visit(
          [this](const auto& o) -> serialize::BatchReply {
            using T = std::decay_t<decltype(o)>;
            if constexpr (std::is_same_v<T, GetRequest>) {
              return lookup_trusted(o.tag, /*with_ciphertext=*/true);
            } else if constexpr (std::is_same_v<T, ProbeRequest>) {
              return lookup_trusted(o.tag, /*with_ciphertext=*/false);
            } else {
              return put_trusted(o);
            }
          },
          op));
    } catch (const Error& e) {
      resp.replies.emplace_back(serialize::ErrorResponse{
          serialize::ErrorCode::kBadRequest, e.what()});
    }
  }
  return resp;
}

GetResponse ResultStore::get(const GetRequest& req) {
  return enclave_->ecall(
      [&] { return lookup_trusted(req.tag, /*with_ciphertext=*/true); });
}

PutResponse ResultStore::put(const PutRequest& req) {
  return enclave_->ecall([&] { return put_trusted(req); });
}

GetResponse ResultStore::probe(const ProbeRequest& req) {
  return enclave_->ecall(
      [&] { return lookup_trusted(req.tag, /*with_ciphertext=*/false); });
}

// --------------------------------------------------- metadata two-tier core

std::uint64_t ResultStore::record_bytes(const MetaRecord& rec) {
  return kMetaRecordOverheadBytes + rec.challenge.size() +
         rec.wrapped_key.size();
}

std::uint32_t ResultStore::next_clock_locked(Shard& shard) {
  if (shard.clock == std::numeric_limits<std::uint32_t>::max()) {
    // Rank-compress every live stamp so relative recency survives the wrap
    // (reached once per 2^32 touches per shard; O(n log n) then).
    std::vector<std::uint32_t> stamps;
    stamps.reserve(shard.index.size());
    shard.index.for_each(
        [&](const MetaSlot& s) { stamps.push_back(s.clock); });
    std::sort(stamps.begin(), stamps.end());
    stamps.erase(std::unique(stamps.begin(), stamps.end()), stamps.end());
    shard.index.for_each([&](MetaSlot& s) {
      s.clock = static_cast<std::uint32_t>(
          std::lower_bound(stamps.begin(), stamps.end(), s.clock) -
          stamps.begin());
    });
    shard.clock = static_cast<std::uint32_t>(stamps.size());
  }
  return ++shard.clock;
}

std::uint32_t ResultStore::owner_intern_locked(Shard& shard,
                                               const serialize::AppId& app) {
  const auto it = shard.owner_lookup.find(app);
  if (it != shard.owner_lookup.end()) {
    ++shard.owners[it->second].refs;
    return it->second;
  }
  std::uint32_t ref;
  if (!shard.owner_free.empty()) {
    ref = shard.owner_free.back();
    shard.owner_free.pop_back();
  } else {
    ref = static_cast<std::uint32_t>(shard.owners.size());
    shard.owners.emplace_back();
  }
  shard.owners[ref].id = app;
  shard.owners[ref].refs = 1;
  shard.owner_lookup.emplace(app, ref);
  return ref;
}

void ResultStore::owner_release_locked(Shard& shard, std::uint32_t ref) {
  OwnerSlot& slot = shard.owners[ref];
  if (--slot.refs == 0) {
    shard.owner_lookup.erase(slot.id);
    shard.owner_free.push_back(ref);
  }
}

void ResultStore::cache_put_locked(Shard& shard, std::uint64_t loc,
                                   MetaRecord rec) {
  if (shard.cache_budget == 0) return;
  const auto it = shard.cache.find(loc);
  if (it != shard.cache.end()) {
    shard.cache_lru.splice(shard.cache_lru.begin(), shard.cache_lru,
                           it->second.lru_it);
    return;
  }
  shard.cache_bytes += record_bytes(rec);
  shard.cache_lru.push_front(loc);
  shard.cache.emplace(loc, CachedMeta{std::move(rec), shard.cache_lru.begin()});
  // Evict cold decoded records down to budget, always keeping the newest
  // (its caller is about to use it).
  while (shard.cache_bytes > shard.cache_budget && shard.cache.size() > 1) {
    const std::uint64_t victim = shard.cache_lru.back();
    const auto vit = shard.cache.find(victim);
    shard.cache_bytes -= record_bytes(vit->second.rec);
    shard.cache_lru.pop_back();
    shard.cache.erase(vit);
  }
}

const MetaRecord* ResultStore::cache_get_locked(Shard& shard,
                                                std::uint64_t loc) {
  const auto it = shard.cache.find(loc);
  if (it == shard.cache.end()) return nullptr;
  shard.cache_lru.splice(shard.cache_lru.begin(), shard.cache_lru,
                         it->second.lru_it);
  return &it->second.rec;
}

void ResultStore::cache_erase_locked(Shard& shard, std::uint64_t loc) {
  const auto it = shard.cache.find(loc);
  if (it == shard.cache.end()) return;
  shard.cache_bytes -= record_bytes(it->second.rec);
  shard.cache_lru.erase(it->second.lru_it);
  shard.cache.erase(it);
}

std::optional<MetaRecord> ResultStore::load_record_locked(
    Shard& shard, const MetaSlot& slot) {
  if (slot.loc & kPinnedLocBit) {
    const auto it = shard.pinned.find(slot.loc);
    if (it == shard.pinned.end()) return std::nullopt;
    return it->second;
  }
  if (const MetaRecord* cached = cache_get_locked(shard, slot.loc)) {
    return *cached;
  }
  // Fault-in: read the sealed record back, unseal under the metadata AAD,
  // decode. Any failure (host deleted/corrupted/swapped the spill blob)
  // reports "unreadable" — never a forged record.
  const auto sealed = backend_->get_blob(unpack_loc(slot.loc, slot.spill_len));
  if (!sealed.has_value()) return std::nullopt;
  const auto plain = enclave_->unseal(meta_seal_aad(), *sealed);
  if (!plain.has_value()) return std::nullopt;
  MetaRecord rec;
  try {
    rec = decode_meta_record(*plain);
  } catch (const SerializationError&) {
    return std::nullopt;
  }
  shard.meta_fault_ins.inc();
  std::optional<MetaRecord> out = rec;
  cache_put_locked(shard, slot.loc, std::move(rec));
  sync_trusted_charge_locked(shard);
  return out;
}

std::optional<ResultStore::Found> ResultStore::find_entry_locked(
    Shard& shard, const Tag& tag) {
  const std::uint64_t fp = MetaIndex::fingerprint(tag);
  // The probe can pass over entries whose spill record the host destroyed;
  // those are dropped and the probe restarted (a drop invalidates slot
  // pointers). Each retry removes at least one entry, so this terminates.
  for (int attempt = 0; attempt < 8; ++attempt) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> unreadable;
    MetaRecord rec;
    MetaSlot* slot = shard.index.find(fp, [&](const MetaSlot& s) {
      shard.mu.assert_held();
      auto loaded = load_record_locked(shard, s);
      if (!loaded.has_value()) {
        unreadable.emplace_back(s.fp, s.loc);
        return false;
      }
      if (loaded->tag != tag) return false;  // fingerprint collision
      rec = std::move(*loaded);
      return true;
    });
    if (unreadable.empty()) {
      if (slot == nullptr) return std::nullopt;
      return Found{slot, std::move(rec)};
    }
    for (const auto& [ufp, uloc] : unreadable) {
      drop_unreadable_locked(shard, ufp, uloc);
    }
  }
  return std::nullopt;
}

void ResultStore::drop_unreadable_locked(Shard& shard, std::uint64_t fp,
                                         std::uint64_t loc) {
  MetaSlot* slot = shard.index.find_loc(fp, loc);
  if (slot == nullptr) return;
  // The record (and with it the result blob's ref) is gone, so accounting is
  // released from resident slot fields alone; the orphaned result blob waits
  // for compaction. A durable store's WAL still holds the insert — recovery
  // resurrects the entry with a fresh spill record.
  shard.corrupt_blobs.inc();
  quota_.release(shard.owners[slot->owner_ref].id, slot->blob_bytes);
  owner_release_locked(shard, slot->owner_ref);
  shard.ciphertext_bytes.sub(static_cast<std::int64_t>(slot->blob_bytes));
  shard.entries.sub(1);
  if (loc & kPinnedLocBit) {
    const auto it = shard.pinned.find(loc);
    if (it != shard.pinned.end()) {
      shard.pinned_bytes -= record_bytes(it->second);
      shard.pinned.erase(it);
    }
  } else {
    cache_erase_locked(shard, loc);
  }
  shard.index.erase_loc(fp, loc);
  sync_trusted_charge_locked(shard);
}

void ResultStore::erase_entry_locked(Shard& shard, const MetaSlot& slot,
                                     const MetaRecord& rec, bool log_wal) {
  if (log_wal && backend_->durable() &&
      !degraded_.load(std::memory_order_relaxed)) {
    try {
      WalRecord wal;
      wal.op = WalRecord::Op::kErase;
      wal.tag = rec.tag;
      wal_append_record(wal);
    } catch (const BackendWriteError&) {
      // The in-memory erase still proceeds. A recovered store may resurrect
      // the entry; if its blob is gone by then, note_blob() drops it.
      enter_degraded();
    }
  }
  backend_->delete_blob(rec.blob);
  if (slot.loc & kPinnedLocBit) {
    const auto it = shard.pinned.find(slot.loc);
    if (it != shard.pinned.end()) {
      shard.pinned_bytes -= record_bytes(it->second);
      shard.pinned.erase(it);
    }
  } else {
    backend_->delete_blob(unpack_loc(slot.loc, slot.spill_len));
    cache_erase_locked(shard, slot.loc);
  }
  shard.ciphertext_bytes.sub(static_cast<std::int64_t>(rec.blob_bytes));
  quota_.release(rec.owner, rec.blob_bytes);
  owner_release_locked(shard, slot.owner_ref);
  shard.index.erase_loc(slot.fp, slot.loc);
  shard.entries.sub(1);
  sync_trusted_charge_locked(shard);
}

bool ResultStore::evict_one_locked(Shard& shard) {
  while (shard.index.size() > 0) {
    const bool lfu = config_.eviction == StoreConfig::Eviction::kLfu;
    bool found = false;
    std::uint64_t best_key = 0;
    std::uint64_t fp = 0;
    std::uint64_t loc = 0;
    // kLru: oldest recency stamp. kLfu: fewest hits, ties toward oldest
    // stamp — lexicographic (hits, clock), packed into one u64 key.
    shard.index.for_each([&](const MetaSlot& s) {
      const std::uint64_t key =
          lfu ? (static_cast<std::uint64_t>(s.hits) << 32) | s.clock
              : static_cast<std::uint64_t>(s.clock);
      if (!found || key < best_key) {
        found = true;
        best_key = key;
        fp = s.fp;
        loc = s.loc;
      }
    });
    if (!found) return false;
    MetaSlot* slot = shard.index.find_loc(fp, loc);
    if (slot == nullptr) return false;
    const MetaSlot victim = *slot;
    const auto rec = load_record_locked(shard, victim);
    if (!rec.has_value()) {
      // Unreadable victim: drop it (which frees space too) and rescan.
      drop_unreadable_locked(shard, fp, loc);
      continue;
    }
    erase_entry_locked(shard, victim, *rec, /*log_wal=*/true);
    shard.evictions.inc();
    return true;
  }
  return false;
}

void ResultStore::evict_for_space_locked(Shard& shard,
                                         std::uint64_t incoming_bytes) {
  while (shard.index.size() > 0 &&
         static_cast<std::uint64_t>(shard.ciphertext_bytes.value()) +
                 incoming_bytes >
             shard_capacity_bytes_) {
    if (!evict_one_locked(shard)) break;
  }
}

std::pair<std::uint64_t, std::uint16_t> ResultStore::spill_record(
    const MetaRecord& rec) {
  const Bytes sealed = enclave_->seal(meta_seal_aad(), encode_meta_record(rec));
  const BlobRef ref = backend_->put_blob(sealed);  // may throw
  const auto packed = pack_loc(ref);
  if (!packed.has_value() ||
      sealed.size() > std::numeric_limits<std::uint16_t>::max()) {
    // Locator outside the packable range (not produced by in-tree backends):
    // treat like a failed write so the caller pins or rejects.
    backend_->delete_blob(ref);
    throw BackendWriteError("meta spill locator unrepresentable");
  }
  return {*packed, static_cast<std::uint16_t>(sealed.size())};
}

std::uint64_t ResultStore::pin_record_locked(Shard& shard, MetaRecord rec) {
  const std::uint64_t loc = kPinnedLocBit | shard.next_pin++;
  shard.pinned_bytes += record_bytes(rec);
  shard.pinned.emplace(loc, std::move(rec));
  return loc;
}

void ResultStore::sync_trusted_charge_locked(Shard& shard) {
  const std::uint64_t owner_bytes =
      (shard.owners.size() - shard.owner_free.size()) * kOwnerSlotBytes;
  shard.trusted_bytes = shard.index.capacity_bytes() + shard.cache_bytes +
                        shard.pinned_bytes + owner_bytes;
  shard.trusted_charge.resize(shard.trusted_bytes);
  shard.meta_resident_bytes.set(
      static_cast<std::int64_t>(shard.trusted_bytes));
  shard.meta_index_bytes.set(
      static_cast<std::int64_t>(shard.index.capacity_bytes()));
  shard.meta_pinned_records.set(static_cast<std::int64_t>(shard.pinned.size()));
}

// ---------------------------------------------------------------- blob MAC

BlobMac ResultStore::make_blob_mac(ByteView blob) {
  static_assert(sizeof(BlobMac) ==
                crypto::kGcmTagSize + crypto::kGcmIvSize + 4);
  BlobMac mac{};
  const Bytes iv = enclave_->random_bytes(crypto::kGcmIvSize);
  std::copy(iv.begin(), iv.end(), mac.begin() + crypto::kGcmTagSize);
  blob_mac_.seal_into(iv, blob, {}, std::span(mac).first(crypto::kGcmTagSize));
  return mac;
}

bool ResultStore::verify_blob_mac(ByteView blob, const BlobMac& mac) const {
  // Recomputed tag ‖ the stored IV ‖ zeros, compared with `mac` in one
  // constant-time pass: a wrong tag or a nonzero pad both fail.
  BlobMac expected{};
  const ByteView iv =
      ByteView(mac).subspan(crypto::kGcmTagSize, crypto::kGcmIvSize);
  std::copy(iv.begin(), iv.end(), expected.begin() + crypto::kGcmTagSize);
  blob_mac_.seal_into(iv, blob, {},
                      std::span(expected).first(crypto::kGcmTagSize));
  return ct_equal(ByteView(expected), ByteView(mac));
}

std::optional<Bytes> ResultStore::read_verified_blob_locked(
    Shard& shard, const Found& found) {
  std::optional<Bytes> blob = backend_->get_blob(found.rec.blob);
  if (blob.has_value() && verify_blob_mac(*blob, found.rec.blob_digest)) {
    return blob;
  }
  // The host deleted or changed the ciphertext (the "authentication MAC"
  // kept in the dictionary entry caught it, §IV-B): drop the entry, so the
  // tag degrades to a miss here and is never shipped to a peer.
  shard.corrupt_blobs.inc();
  erase_entry_locked(shard, *found.slot, found.rec, /*log_wal=*/true);
  return std::nullopt;
}

// ----------------------------------------------------------- request paths

GetResponse ResultStore::lookup_trusted(const Tag& tag, bool with_ciphertext) {
  Shard& shard = shard_for(tag);
  shard.get_requests.inc();
  const LatencyScope timer(shard.get_ns);
  GetResponse resp;
  MutexLock lock(shard.mu);
  // Simulated in-enclave service time (marshalling + verification under
  // load); 0 outside throughput benches. Deliberately inside the critical
  // section — that is the work the lock protects.
  sgx::charge_wait(platform_.cost_model(),
                   platform_.cost_model().store_service_ns);
  auto found = find_entry_locked(shard, tag);
  if (!found.has_value()) return resp;

  if (with_ciphertext) {
    std::optional<Bytes> blob = read_verified_blob_locked(shard, *found);
    if (!blob.has_value()) return resp;
    resp.entry.result_ct = std::move(*blob);
  }

  // A probe hit keeps the entry warm exactly as a GET hit does: a put that
  // reuses a chunk only probes it, and eviction must still see the reuse.
  shard.hits.inc();
  if (found->slot->hits < std::numeric_limits<std::uint16_t>::max()) {
    ++found->slot->hits;
  }
  found->slot->clock = next_clock_locked(shard);
  resp.found = true;
  resp.entry.challenge = std::move(found->rec.challenge);
  resp.entry.wrapped_key = std::move(found->rec.wrapped_key);
  return resp;
}

PutResponse ResultStore::put_trusted(const PutRequest& req) {
  shard_for(req.tag).put_requests.inc();
  return PutResponse{
      insert_trusted(req.tag, req.requester, req.entry, /*enforce_quota=*/true)};
}

PutStatus ResultStore::insert_trusted(const Tag& tag,
                                      const serialize::AppId& owner,
                                      const EntryPayload& entry,
                                      bool enforce_quota) {
  Shard& shard = shard_for(tag);
  const LatencyScope timer(shard.put_ns);
  // The MAC reads only the request, so it is taken before the shard lock:
  // neither the blob pass nor the DRBG lock may stall the shard's GETs.
  const BlobMac blob_mac = make_blob_mac(entry.result_ct);
  MutexLock lock(shard.mu);
  sgx::charge_wait(platform_.cost_model(),
                   platform_.cost_model().store_service_ns);
  if (find_entry_locked(shard, tag).has_value()) {
    // Concurrent initial computations of the same tag: first write wins; the
    // stored ciphertext is decryptable by every eligible application anyway
    // (§IV-B Remark).
    shard.duplicate_puts.inc();
    return PutStatus::kAlreadyPresent;
  }
  const std::uint64_t blob_bytes = entry.result_ct.size();
  if (blob_bytes > shard_capacity_bytes_ ||
      blob_bytes > std::numeric_limits<std::uint32_t>::max() ||
      entry.challenge.size() > kMaxMetaVarBytes ||
      entry.wrapped_key.size() > kMaxMetaVarBytes ||
      shard.index.size() >= shard_max_entries_ ||
      degraded_.load(std::memory_order_relaxed)) {
    return PutStatus::kRejected;
  }
  if (enforce_quota) {
    if (!quota_.try_charge(owner, blob_bytes)) {
      shard.quota_rejections.inc();
      return PutStatus::kQuotaExceeded;
    }
  } else {
    quota_.charge(owner, blob_bytes);
  }
  evict_for_space_locked(shard, blob_bytes);
  if (degraded_.load(std::memory_order_relaxed)) {
    // An eviction's erase record tore the log; nothing may be acknowledged
    // past that point.
    quota_.release(owner, blob_bytes);
    return PutStatus::kRejected;
  }

  MetaRecord rec;
  rec.tag = tag;
  rec.owner = owner;
  rec.challenge = entry.challenge;
  rec.wrapped_key = entry.wrapped_key;
  rec.blob_digest = blob_mac;
  rec.blob_bytes = blob_bytes;

  // Result blob first, spill record second, WAL record last: a crash between
  // any two leaves unreferenced blobs (reclaimed by compaction), never an
  // acknowledged record whose data is missing. The backend syncs segments
  // before the log for the same reason (file_backend.cc).
  bool blob_placed = false;
  bool spill_placed = false;
  std::uint64_t loc = 0;
  std::uint16_t spill_len = 0;
  try {
    rec.blob = backend_->put_blob(entry.result_ct);
    blob_placed = true;
    std::tie(loc, spill_len) = spill_record(rec);
    spill_placed = true;
    if (backend_->durable()) {
      WalRecord wal;
      wal.op = WalRecord::Op::kInsert;
      wal.tag = tag;
      wal.owner = owner;
      wal.challenge = rec.challenge;
      wal.wrapped_key = rec.wrapped_key;
      wal.blob_digest = rec.blob_digest;
      wal.blob_bytes = blob_bytes;
      wal.ref = rec.blob;
      wal_append_record(wal);
    }
  } catch (const BackendWriteError&) {
    enter_degraded();
    if (spill_placed) backend_->delete_blob(unpack_loc(loc, spill_len));
    if (blob_placed) backend_->delete_blob(rec.blob);
    quota_.release(owner, blob_bytes);
    return PutStatus::kRejected;
  }

  MetaSlot slot;
  slot.fp = MetaIndex::fingerprint(tag);
  slot.loc = loc;
  slot.clock = next_clock_locked(shard);
  slot.blob_bytes = static_cast<std::uint32_t>(blob_bytes);
  slot.owner_ref = owner_intern_locked(shard, owner);
  slot.spill_len = spill_len;
  slot.hits = 0;
  shard.index.insert(slot);
  shard.meta_spills.inc();
  cache_put_locked(shard, loc, std::move(rec));
  shard.stored.inc();
  shard.entries.add(1);
  shard.ciphertext_bytes.add(static_cast<std::int64_t>(blob_bytes));
  sync_trusted_charge_locked(shard);
  return PutStatus::kStored;
}

SyncResponse ResultStore::sync_trusted(const SyncRequest& req) {
  // Serve the hottest entries (popularity = hit count), capped at
  // max_entries; the anti-entropy push replicates these to peers
  // (ClusterReplicator::push_hot_entries). Two-phase
  // across shards: rank a point-in-time (hits, tag) census taken one shard
  // at a time, then re-fetch the winners — entries evicted between phases
  // are simply skipped, like entries whose blob vanished. The census is
  // spill-aware: cold entries are faulted in for their tag, never skipped.
  std::vector<std::pair<std::uint64_t, Tag>> ranked;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    ranked.reserve(ranked.size() + shard->index.size());
    shard->index.for_each([&](const MetaSlot& s) {
      shard->mu.assert_held();
      const auto rec = load_record_locked(*shard, s);
      if (rec.has_value()) ranked.emplace_back(s.hits, rec->tag);
    });
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });

  SyncResponse resp;
  const std::size_t limit =
      std::min<std::size_t>(req.max_entries, ranked.size());
  resp.entries.reserve(limit);
  for (std::size_t i = 0; i < limit; ++i) {
    const Tag& tag = ranked[i].second;
    Shard& shard = shard_for(tag);
    MutexLock lock(shard.mu);
    const auto found = find_entry_locked(shard, tag);
    if (!found.has_value()) continue;
    std::optional<Bytes> blob = read_verified_blob_locked(shard, *found);
    if (!blob.has_value()) continue;
    SyncEntry e;
    e.tag = tag;
    e.entry.challenge = found->rec.challenge;
    e.entry.wrapped_key = found->rec.wrapped_key;
    e.entry.result_ct = std::move(*blob);
    e.hits = found->slot->hits;
    resp.entries.push_back(std::move(e));
  }
  return resp;
}

std::size_t ResultStore::merge_entries_trusted(
    const std::vector<SyncEntry>& entries) {
  std::size_t inserted = 0;
  serialize::AppId replica_owner{};
  replica_owner.fill(0xee);  // synthetic owner for replicated entries
  for (const SyncEntry& e : entries) {
    if (insert_trusted(e.tag, replica_owner, e.entry,
                       /*enforce_quota=*/false) != PutStatus::kStored) {
      continue;
    }
    ++inserted;
    if (e.hits > 0) {
      // Carry the sender's popularity so LFU eviction and the next sync's
      // hit ranking treat a replicated hot entry as hot, not freshly cold.
      set_hits_trusted(e.tag, e.hits);
    }
  }
  return inserted;
}

void ResultStore::set_hits_trusted(const Tag& tag, std::uint64_t hits) {
  Shard& shard = shard_for(tag);
  MutexLock lock(shard.mu);
  const auto found = find_entry_locked(shard, tag);
  if (!found.has_value()) return;
  found->slot->hits = static_cast<std::uint16_t>(std::min<std::uint64_t>(
      hits, std::numeric_limits<std::uint16_t>::max()));
}

// ----------------------------------------------------------- cluster plane

serialize::HeartbeatResponse ResultStore::heartbeat_trusted(
    const serialize::HeartbeatRequest& req) const {
  serialize::HeartbeatResponse resp;
  resp.nonce = req.nonce;
  resp.entries = stats().entries;
  {
    MutexLock lock(cluster_mu_);
    resp.cluster_epoch = cluster_.epoch;
  }
  resp.degraded = degraded();
  return resp;
}

serialize::PullResponse ResultStore::pull_trusted(
    const serialize::PullRequest& req) {
  // Census of tags past the cursor, one shard at a time (same point-in-time
  // discipline as sync_trusted), then fetch the first max_entries in tag
  // order. The lexicographic cursor makes the scan resumable: a rejoining
  // node that crashed mid-pull restarts from its last `next` and never
  // re-transfers what it already merged. Spill-aware: the census faults in
  // cold entries for their tags, so anti-entropy never silently skips an
  // entry just because it went cold.
  std::vector<Tag> tags;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    shard->index.for_each([&](const MetaSlot& s) {
      shard->mu.assert_held();
      const auto rec = load_record_locked(*shard, s);
      if (rec.has_value() && (!req.resume || rec->tag > req.after)) {
        tags.push_back(rec->tag);
      }
    });
  }
  std::sort(tags.begin(), tags.end());

  serialize::PullResponse resp;
  const std::size_t limit = std::min<std::size_t>(req.max_entries, tags.size());
  resp.entries.reserve(limit);
  for (std::size_t i = 0; i < limit; ++i) {
    const Tag& tag = tags[i];
    Shard& shard = shard_for(tag);
    MutexLock lock(shard.mu);
    const auto found = find_entry_locked(shard, tag);
    if (!found.has_value()) continue;  // evicted between phases
    std::optional<Bytes> blob = read_verified_blob_locked(shard, *found);
    if (!blob.has_value()) continue;
    SyncEntry e;
    e.tag = tag;
    e.entry.challenge = found->rec.challenge;
    e.entry.wrapped_key = found->rec.wrapped_key;
    e.entry.result_ct = std::move(*blob);
    e.hits = found->slot->hits;
    resp.entries.push_back(std::move(e));
    resp.next = tag;
  }
  resp.done = limit >= tags.size();
  pull_entries_served_.inc(resp.entries.size());
  return resp;
}

serialize::PushResponse ResultStore::push_trusted(
    const serialize::PushRequest& req) {
  serialize::PushResponse resp;
  resp.accepted =
      static_cast<std::uint32_t>(merge_entries_trusted(req.entries));
  push_accepted_.inc(resp.accepted);
  return resp;
}

serialize::MembershipAck ResultStore::membership_trusted(
    const serialize::MembershipUpdate& req) {
  MutexLock lock(cluster_mu_);
  serialize::MembershipAck ack;
  // Monotonic application: a reordered or replayed broadcast with a stale
  // epoch is acknowledged (the sender learns our epoch) but never rolls the
  // view back.
  if (req.epoch > cluster_.epoch) {
    cluster_.epoch = req.epoch;
    cluster_.members = req.members;
    ack.applied = true;
  }
  ack.epoch = cluster_.epoch;
  return ack;
}

ResultStore::ClusterView ResultStore::cluster_view() const {
  MutexLock lock(cluster_mu_);
  return cluster_;
}

// -------------------------------------------------------------- durability

void ResultStore::wal_append_record(const WalRecord& rec) {
  const Bytes plain = encode_wal_record(rec);
  MutexLock lock(wal_mu_);
  const Bytes aad = chain_aad(wal_seq_, wal_prev_);
  const Bytes sealed = enclave_->seal(aad, plain);
  backend_->wal_append(sealed);  // may throw BackendWriteError
  // Only an append the backend accepted extends the chain; a torn one leaves
  // (seq, prev) pointing at the last good record for the reopened store.
  wal_prev_ = chain_tag_of(sealed);
  ++wal_seq_;
}

void ResultStore::enter_degraded() {
  degraded_.store(true, std::memory_order_relaxed);
  backend_write_errors_.inc();
}

void ResultStore::recover_from_backend() {
  if (!backend_->durable()) return;
  const Stopwatch sw;
  bool torn = false;
  std::uint64_t truncate_at = 0;
  // One ECALL for the whole replay, mirroring the batched-transition style
  // of the paper's customized ECALLs.
  enclave_->ecall([&] {
    backend_->wal_replay([&](ByteView record, std::uint64_t offset) {
      const Bytes aad = chain_aad(wal_seq_, wal_prev_);
      const auto plain = enclave_->unseal(aad, record);
      if (!plain.has_value()) {
        // Torn, tampered, reordered, or spliced from another log: the chain
        // breaks here and everything from this record on is discarded.
        torn = true;
        truncate_at = offset;
        return false;
      }
      apply_recovered(decode_wal_record(*plain));
      wal_prev_ = chain_tag_of(record);
      ++wal_seq_;
      ++recovery_info_.replayed_records;
      return true;
    });
  });
  if (torn) {
    backend_->wal_truncate(truncate_at);
    recovery_info_.torn_tail = true;
    wal_torn_tails_.inc();
  }
  // Re-apply capacity limits: this store may be configured smaller than the
  // one that wrote the log. Evictions here append fresh erase records,
  // extending the (possibly truncated) chain.
  enclave_->ecall([&] {
    for (const auto& shard : shards_) {
      MutexLock lock(shard->mu);
      evict_for_space_locked(*shard, 0);
      while (shard->index.size() > shard_max_entries_) {
        if (!evict_one_locked(*shard)) break;
      }
    }
  });
  backend_->compact();
  recovery_info_.recovery_ms =
      static_cast<double>(sw.elapsed_ns()) / 1e6;
  recovery_ms_.set(static_cast<std::int64_t>(recovery_info_.recovery_ms));
}

void ResultStore::apply_recovered(const WalRecord& rec) {
  Shard& shard = shard_for(rec.tag);
  MutexLock lock(shard.mu);
  if (rec.op == WalRecord::Op::kErase) {
    if (const auto found = find_entry_locked(shard, rec.tag)) {
      erase_entry_locked(shard, *found->slot, found->rec, /*log_wal=*/false);
    }
    ++recovery_info_.erases;
    return;
  }
  if (find_entry_locked(shard, rec.tag).has_value()) {
    return;  // first write wins, as live
  }
  if (!backend_->note_blob(rec.ref)) {
    // The record survived but its blob did not (compaction raced a lost
    // erase record): drop the entry rather than recover a guaranteed miss.
    ++recovery_info_.dropped_blobs;
    return;
  }
  MetaRecord mr;
  mr.tag = rec.tag;
  mr.owner = rec.owner;
  mr.challenge = rec.challenge;
  mr.wrapped_key = rec.wrapped_key;
  mr.blob_digest = rec.blob_digest;
  mr.blob_bytes = rec.blob_bytes;
  mr.blob = rec.ref;

  MetaSlot slot;
  slot.fp = MetaIndex::fingerprint(rec.tag);
  slot.clock = next_clock_locked(shard);
  slot.blob_bytes = static_cast<std::uint32_t>(rec.blob_bytes);
  slot.owner_ref = owner_intern_locked(shard, rec.owner);
  slot.hits = static_cast<std::uint16_t>(std::min<std::uint64_t>(
      rec.hits, std::numeric_limits<std::uint16_t>::max()));
  bool is_pinned = false;
  try {
    std::tie(slot.loc, slot.spill_len) = spill_record(mr);
    shard.meta_spills.inc();
  } catch (const BackendWriteError&) {
    // Disk already full at recovery time: pin the record resident instead of
    // losing an acknowledged entry. Recovery itself stays non-degraded — the
    // rebuilt state is consistent; the next failing *runtime* write will
    // degrade the store as usual.
    slot.loc = pin_record_locked(shard, mr);
    slot.spill_len = 0;
    is_pinned = true;
    ++recovery_info_.pinned_records;
  }
  shard.index.insert(slot);
  if (!is_pinned) cache_put_locked(shard, slot.loc, std::move(mr));
  quota_.charge(rec.owner, rec.blob_bytes);
  shard.ciphertext_bytes.add(static_cast<std::int64_t>(rec.blob_bytes));
  shard.entries.add(1);
  sync_trusted_charge_locked(shard);
  recovered_entries_.inc();
  ++recovery_info_.inserts;
}

void ResultStore::flush_backend() {
  if (!backend_->durable() || degraded()) return;
  try {
    backend_->wal_sync();
  } catch (const BackendWriteError&) {
    enter_degraded();
  }
}

std::uint64_t ResultStore::quota_used(const serialize::AppId& app) const {
  return quota_.used(app);
}

bool ResultStore::corrupt_blob_for_testing(const serialize::Tag& tag) {
  Shard& shard = shard_for(tag);
  MutexLock lock(shard.mu);
  const auto found = find_entry_locked(shard, tag);
  if (!found.has_value()) return false;
  return backend_->corrupt_blob(found->rec.blob);
}

ResultStore::Stats ResultStore::stats() const {
  Stats s;
  for (const auto& shard : shards_) {
    s.get_requests += shard->get_requests.value();
    s.hits += shard->hits.value();
    s.put_requests += shard->put_requests.value();
    s.stored += shard->stored.value();
    s.duplicate_puts += shard->duplicate_puts.value();
    s.quota_rejections += shard->quota_rejections.value();
    s.evictions += shard->evictions.value();
    s.corrupt_blobs += shard->corrupt_blobs.value();
    s.entries += static_cast<std::uint64_t>(shard->entries.value());
    s.ciphertext_bytes +=
        static_cast<std::uint64_t>(shard->ciphertext_bytes.value());
    s.meta_spills += shard->meta_spills.value();
    s.meta_fault_ins += shard->meta_fault_ins.value();
    s.meta_resident_bytes +=
        static_cast<std::uint64_t>(shard->meta_resident_bytes.value());
    s.meta_index_bytes +=
        static_cast<std::uint64_t>(shard->meta_index_bytes.value());
    s.meta_pinned_records +=
        static_cast<std::uint64_t>(shard->meta_pinned_records.value());
  }
  s.backend_write_errors = backend_write_errors_.value();
  return s;
}

}  // namespace speed::store
