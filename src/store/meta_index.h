// EPC-scale resident metadata index: a robin-hood open-addressed table of
// fixed 32-byte slots with incremental (two-table) resize.
//
// This replaces the per-shard `std::unordered_map<Tag, MetaEntry>` +
// `std::list` LRU inside ResultStore. A node-based map costs hundreds of
// bytes of EPC per entry (node header, bucket pointer, list node, three
// heap-allocated byte vectors); at tens of millions of tags that blows the
// ~90 MB EPC cap and SPEED's cost model starts charging page-swap penalties
// on every touch. Here an entry's *resident* footprint is exactly one
// MetaSlot:
//
//   fp          8B  tag fingerprint (tag bytes [0,8), little-endian, never 0)
//   loc         8B  packed spill-blob locator (meta_codec.h pack_loc), or a
//                   kPinnedLocBit-tagged handle for entries pinned resident
//   clock       4B  per-shard recency stamp (exact LRU order; LFU tiebreak)
//   blob_bytes  4B  result-ciphertext size (quota/eviction accounting)
//   owner_ref   4B  index into the shard's interned owner table
//   spill_len   2B  sealed spill record length (restores the BlobRef)
//   hits        2B  saturating popularity counter (LFU + anti-entropy)
//
// Everything else (tag, owner id, challenge, wrapped key, blob MAC, result
// BlobRef) lives in the sealed spill record and is faulted in on demand.
// Fingerprints collide (8 bytes of a 32-byte tag), so every lookup confirms
// candidates against the full record via a caller-supplied callback; `loc`
// is unique per entry and serves as the identity for erase.
//
// Resize is incremental: growth moves the current table aside and migrates a
// bounded batch of slots per subsequent mutation, so no single PUT ever pays
// an O(n) rehash inside the enclave's cost model. Lookups probe both tables
// mid-migration. Capacity only grows (a store that has seen N entries keeps
// index room for N; documented in docs/PROTOCOL.md §11).
//
// Thread-compatible, not thread-safe: every instance is guarded by its
// shard's mutex (ResultStore). Invariants are checked by the differential
// model-checking harness in tests/meta_index_test.cc.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "serialize/wire.h"

namespace speed::store {

/// Set in MetaSlot::loc for entries whose full record is pinned in trusted
/// memory (spill write failed, e.g. disk full at recovery) instead of
/// spilled. Packed spill locators never set this bit (pack_loc caps the
/// segment at 19 bits, keeping bit 63 clear).
inline constexpr std::uint64_t kPinnedLocBit = std::uint64_t{1} << 63;

struct MetaSlot {
  std::uint64_t fp = 0;  ///< 0 = empty slot (fingerprints are never 0)
  std::uint64_t loc = 0;
  std::uint32_t clock = 0;
  std::uint32_t blob_bytes = 0;
  std::uint32_t owner_ref = 0;
  std::uint16_t spill_len = 0;
  std::uint16_t hits = 0;
};
static_assert(sizeof(MetaSlot) == 32,
              "MetaSlot is the unit of resident EPC cost; keep it 32 bytes");

class MetaIndex {
 public:
  static constexpr std::size_t kInitialCapacity = 64;  ///< slots (2 KiB)
  /// Slots migrated from the draining table per mutation during a resize.
  static constexpr std::size_t kMigrateBatch = 32;
  /// Grow when size exceeds capacity * 7/8.
  static constexpr std::size_t kMaxLoadNum = 7;
  static constexpr std::size_t kMaxLoadDen = 8;

  explicit MetaIndex(std::size_t initial_capacity = kInitialCapacity);

  /// Tag bytes [0,8) as a little-endian u64, forced nonzero (0 marks an
  /// empty slot). Same byte range TagHash used, disjoint from the shard
  /// selector ([8,16)) and rendezvous ([16,24)) ranges.
  static std::uint64_t fingerprint(const serialize::Tag& tag);

  /// Probes for `fp`; calls `confirm(slot)` on every fingerprint match and
  /// returns the first slot it accepts (nullptr when none). The pointer is
  /// invalidated by any mutation (insert/erase/step_migration).
  template <typename Confirm>
  MetaSlot* find(std::uint64_t fp, Confirm&& confirm) {
    if (MetaSlot* s = probe(table_, fp, confirm)) return s;
    if (!old_.empty()) {
      if (MetaSlot* s = probe(old_, fp, confirm)) return s;
    }
    return nullptr;
  }

  /// Exact-identity lookup by (fp, loc) — loc is unique per entry.
  MetaSlot* find_loc(std::uint64_t fp, std::uint64_t loc);

  /// Inserts a slot (caller guarantees the entry is not already present).
  /// Advances migration and may grow; invalidates outstanding pointers.
  void insert(const MetaSlot& slot);

  /// Erases the entry identified by (fp, loc) via backward-shift deletion.
  /// Returns false when absent. Advances migration.
  bool erase_loc(std::uint64_t fp, std::uint64_t loc);

  /// Visits every live slot (both tables mid-migration). `fn(MetaSlot&)`
  /// may mutate bookkeeping fields (clock/hits) but not fp/loc.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (MetaSlot& s : table_) {
      if (s.fp != 0) fn(s);
    }
    for (MetaSlot& s : old_) {
      if (s.fp != 0) fn(s);
    }
  }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const MetaSlot& s : table_) {
      if (s.fp != 0) fn(s);
    }
    for (const MetaSlot& s : old_) {
      if (s.fp != 0) fn(s);
    }
  }

  std::size_t size() const { return size_; }
  /// Total slot capacity (both tables while a migration is draining).
  std::size_t capacity() const { return table_.size() + old_.size(); }
  /// Resident bytes this index charges against the EPC.
  std::uint64_t capacity_bytes() const {
    return static_cast<std::uint64_t>(capacity()) * sizeof(MetaSlot);
  }
  bool migrating() const { return !old_.empty(); }
  double load_factor() const {
    return capacity() == 0
               ? 0.0
               : static_cast<double>(size_) / static_cast<double>(capacity());
  }

  /// Migrates up to `n` slots from the draining table (tests use this to
  /// park the index at adversarial mid-resize states).
  void step_migration(std::size_t n);

  /// Longest probe sequence any current entry needs (scan; test-only).
  std::size_t max_probe_length() const;

  /// Structural self-check: every entry reachable, no duplicate identities,
  /// size consistent, load factor within bounds. Returns an empty string
  /// when healthy, else a description of the first violation.
  std::string check_invariants() const;

 private:
  static std::uint64_t mix(std::uint64_t x);
  static std::size_t home(std::uint64_t fp, std::size_t capacity) {
    return static_cast<std::size_t>(mix(fp)) & (capacity - 1);
  }
  static std::size_t probe_distance(const std::vector<MetaSlot>& t,
                                    std::size_t idx);

  template <typename Confirm>
  static MetaSlot* probe(std::vector<MetaSlot>& t, std::uint64_t fp,
                         Confirm&& confirm) {
    if (t.empty()) return nullptr;
    const std::size_t mask = t.size() - 1;
    std::size_t idx = home(fp, t.size());
    for (std::size_t dist = 0; dist < t.size(); ++dist) {
      MetaSlot& s = t[idx];
      if (s.fp == 0) return nullptr;
      // Robin-hood early exit: a resident entry poorer than our probe age
      // would have been displaced if fp were stored here.
      if (probe_distance(t, idx) < dist) return nullptr;
      if (s.fp == fp && confirm(s)) return &s;
      idx = (idx + 1) & mask;
    }
    return nullptr;
  }

  static void insert_into(std::vector<MetaSlot>& t, MetaSlot slot);
  static bool erase_from(std::vector<MetaSlot>& t, std::uint64_t fp,
                         std::uint64_t loc);

  void maybe_grow();
  void drain_all();

  std::vector<MetaSlot> table_;
  std::vector<MetaSlot> old_;  ///< draining source table (empty = no resize)
  std::size_t old_cursor_ = 0;
  std::size_t size_ = 0;
};

}  // namespace speed::store
