// Pluggable persistence for the ResultStore's untrusted half.
//
// The store's trust split (§IV-B) puts only the small metadata dictionary
// inside the enclave; the result ciphertexts and the durability log live in
// untrusted storage. A BlobBackend is that untrusted storage:
//
//   * a *blob arena* holding the [res] AEAD envelopes, addressed by opaque
//     BlobRefs. Blobs are ciphertext end to end, so the backend needs no
//     protection of its own — the trusted dictionary pins each blob with a
//     MAC (BlobMac) and the store degrades a mismatch to a miss;
//   * a *metadata WAL* of records the store enclave has already sealed and
//     MAC-chained (store/wal_codec.h). The backend never sees plaintext
//     metadata; it only frames, persists, replays, and truncates opaque
//     records. Torn tails are its problem, authenticity is the enclave's.
//
// Implementations: MemoryBackend (the original in-RAM arena, optionally
// recording the WAL so recovery logic can be exercised without a disk) and
// FileBackend (file_backend.h: append-only blob segments + an fsync-batched
// log). FaultInjectingBackend (fault_backend.h) wraps either to kill writes
// at arbitrary byte positions for the crash-recovery torture tests.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/annotated_lock.h"
#include "common/bytes.h"
#include "common/error.h"

namespace speed::store {

/// A write the backend could not complete (disk full, torn by a simulated
/// crash). The store reacts by rejecting the PUT and entering degraded mode:
/// once a WAL append has failed, the on-disk tail may be garbage, so no
/// further record may be appended until a reopen re-establishes the chain.
class BackendWriteError : public Error {
 public:
  explicit BackendWriteError(const std::string& what) : Error(what) {}
};

/// Location of one blob inside a backend. Opaque to the trusted dictionary
/// (stored per entry, logged in WAL insert records); meaningful only to the
/// backend that issued it.
struct BlobRef {
  std::uint32_t segment = 0;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;

  friend bool operator==(const BlobRef&, const BlobRef&) = default;
};

/// The trusted dictionary's integrity pin of one blob: a GMAC tag[16] ‖
/// its IV[12] ‖ four zero bytes, under a key only the store enclave derives
/// (ResultStore::make_blob_mac). Kept in spill and WAL records, never given
/// to the backend.
using BlobMac = std::array<std::uint8_t, 32>;

/// Cumulative backend-side accounting, exported by the store's telemetry
/// collector (speed_store_wal_* / speed_store_segments_* families).
struct BackendStats {
  std::uint64_t wal_appends = 0;
  std::uint64_t wal_fsyncs = 0;
  std::uint64_t wal_bytes = 0;        ///< framed bytes appended to the log
  std::uint64_t segments_created = 0;
  std::uint64_t segments_compacted = 0;
  std::uint64_t write_errors = 0;
  std::uint64_t live_blob_bytes = 0;
  std::uint64_t dead_blob_bytes = 0;  ///< deleted but not yet compacted away
};

class BlobBackend {
 public:
  virtual ~BlobBackend() = default;

  // ------------------------------------------------------------ blob arena

  /// Append a blob; throws BackendWriteError if it cannot be stored.
  virtual BlobRef put_blob(ByteView blob) = 0;

  /// Read a blob back; nullopt when the ref is dangling (deleted, compacted
  /// away, or pointing into a torn segment tail). The caller verifies the
  /// contents against the trusted blob MAC — the backend only fetches bytes.
  virtual std::optional<Bytes> get_blob(const BlobRef& ref) const = 0;

  /// Mark a blob dead (eviction, corruption-triggered erase). Space is
  /// reclaimed by segment compaction, not immediately.
  virtual void delete_blob(const BlobRef& ref) = 0;

  /// Recovery hook: re-register a live blob after a WAL replay so segment
  /// liveness accounting survives a reopen. Returns false when the blob is
  /// not actually present (segment missing or shorter than the ref claims) —
  /// the store then drops the recovered entry instead of serving a
  /// guaranteed miss.
  virtual bool note_blob(const BlobRef& ref) = 0;

  /// Reclaim storage whose blobs are all dead. Returns how many units
  /// (segments) were reclaimed. Backends without physical segments return 0.
  virtual std::size_t compact() { return 0; }

  /// Test hook modelling a compromised host: flip one bit of the blob at
  /// `ref`. False when the ref is dangling.
  virtual bool corrupt_blob(const BlobRef& ref) = 0;

  // ---------------------------------------------------------- metadata WAL

  /// Whether this backend persists the WAL (and therefore supports
  /// recovery). Non-durable backends make wal_append a no-op, and the store
  /// skips sealing WAL records entirely — the original in-memory fast path.
  virtual bool durable() const = 0;

  /// Append one opaque (sealed) record. Durability batching is internal:
  /// the record is on stable storage once the backend's fsync policy has
  /// synced it (FileBackendConfig::fsync_every; wal_sync() forces it).
  virtual void wal_append(ByteView record) = 0;

  /// Force everything appended so far onto stable storage.
  virtual void wal_sync() = 0;

  /// Replay intact records in append order. Framing-level torn tails are
  /// detected and truncated by the backend before `fn` sees anything. `fn`
  /// returns false to stop early (the enclave failed the MAC chain); the
  /// caller then discards the tail with wal_truncate(offset).
  /// `offset` is an opaque backend position usable with wal_truncate.
  virtual void wal_replay(
      const std::function<bool(ByteView record, std::uint64_t offset)>& fn) = 0;

  /// Discard the record at `offset` and everything after it.
  virtual void wal_truncate(std::uint64_t offset) = 0;

  virtual BackendStats stats() const = 0;
};

/// The original in-RAM arena behind the backend interface. Blob storage is
/// lock-striped so concurrent GET/PUT from different store shards keep
/// scaling as before. With `record_wal` the (already sealed) WAL records are
/// kept in memory too: the backend then survives the death of the
/// *ResultStore object* and a new store can recover from it — the pure-logic
/// crash simulation used by the torture tests. Default is non-durable.
class MemoryBackend : public BlobBackend {
 public:
  explicit MemoryBackend(bool record_wal = false) : record_wal_(record_wal) {}

  BlobRef put_blob(ByteView blob) override;
  std::optional<Bytes> get_blob(const BlobRef& ref) const override;
  void delete_blob(const BlobRef& ref) override;
  bool note_blob(const BlobRef& ref) override;
  bool corrupt_blob(const BlobRef& ref) override;

  bool durable() const override { return record_wal_; }
  void wal_append(ByteView record) override;
  void wal_sync() override;
  void wal_replay(const std::function<bool(ByteView, std::uint64_t)>& fn)
      override;
  void wal_truncate(std::uint64_t offset) override;

  BackendStats stats() const override;

 private:
  static constexpr std::size_t kStripes = 16;

  struct Stripe {
    // 760: backend I/O leaf, same tier as FileBackend's lock; at most one
    // stripe is ever held at a time (BlobRefs address a single stripe).
    mutable Mutex mu{LockRank::kBackend};
    std::unordered_map<std::uint64_t, Bytes> blobs GUARDED_BY(mu);
  };
  Stripe& stripe_for(const BlobRef& ref) const {
    return stripes_[ref.offset % kStripes];
  }

  mutable std::array<Stripe, kStripes> stripes_;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> live_bytes_{0};
  std::atomic<std::uint64_t> dead_bytes_{0};

  const bool record_wal_;
  // 780: never held with a stripe lock; ranked above so a future nesting
  // (append while a blob write is in flight) stays ordered.
  mutable Mutex wal_mu_{LockRank::kBackendWal};
  std::vector<Bytes> wal_ GUARDED_BY(wal_mu_);
  std::uint64_t wal_appends_ GUARDED_BY(wal_mu_) = 0;
  std::uint64_t wal_syncs_ GUARDED_BY(wal_mu_) = 0;
  std::uint64_t wal_bytes_ GUARDED_BY(wal_mu_) = 0;
};

}  // namespace speed::store
