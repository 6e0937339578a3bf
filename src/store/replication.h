// Cluster replication driver: anti-entropy between ResultStore nodes
// (docs/PROTOCOL.md §8). Its hot-entry push is the paper's §IV-B Remark:
// popular entries spread to the other stores that should hold them.
//
// Three mechanisms make up a replicated cluster:
//
//   * membership: a monotonically-versioned view broadcast to every node
//     (MembershipUpdate); nodes apply it idempotently, so the driver can
//     re-broadcast after any churn;
//   * hot-entry push: ask one node for its most-hit entries (the popularity
//     counters the store already keeps) and push each to the rendezvous
//     owners the ring assigns it — the steady-state convergence path that
//     keeps popular results at full replication after churn;
//   * resumable bulk pull: a rejoining node pages a live peer's whole
//     dictionary through PullRequest's lexicographic cursor, keeping only
//     the tags the ring assigns it. Interrupting and restarting a pull
//     re-transfers nothing that already merged.
//
// Entries are self-protecting — AEAD ciphertexts whose keys only eligible
// applications can recover — so the driver speaks the host-side framed
// protocol without a per-application secure channel, and a PeerStore::call
// can be an in-process ResultStore::handle or a TCP conduit. Because tags
// are deterministic, one ciphertext per computation serves every eligible
// application, whichever machine computed it. All failures surface as
// net::StoreUnavailableError — replication is an optimization and must
// degrade quietly.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "net/channel.h"
#include "serialize/rendezvous.h"
#include "serialize/wire.h"
#include "sgx/enclave.h"
#include "telemetry/registry.h"

namespace speed::store {

/// Host-side conduit to one node's infra plane.
struct PeerStore {
  std::string name;
  /// Framed request -> framed response (e.g. ResultStore::handle).
  std::function<Bytes(ByteView)> call;
};

struct ReplicationConfig {
  /// Hottest entries requested per push round.
  std::uint32_t hot_entries = 64;
  /// Page size of resumable bulk pulls.
  std::uint32_t pull_page = 128;
  /// Copies per tag (primary + replicas), matching the client's
  /// ClusterConfig::replicas + 1.
  std::size_t copies = 2;
};

/// Mutual local attestation between a (re)joining store enclave and a live
/// peer's enclave: each side produces a report targeted at the other and
/// verifies the peer's. False means the joiner must not be admitted.
inline bool attest_peers(sgx::Enclave& joiner, sgx::Enclave& peer) {
  const auto joiner_report =
      joiner.create_report(peer.measurement(), as_bytes("cluster-join"));
  const auto peer_report =
      peer.create_report(joiner.measurement(), as_bytes("cluster-join"));
  return peer.verify_report(joiner_report) &&
         joiner.verify_report(peer_report);
}

class ClusterReplicator {
 public:
  ClusterReplicator(std::vector<PeerStore> peers,
                    ReplicationConfig config = ReplicationConfig{});

  ClusterReplicator(const ClusterReplicator&) = delete;
  ClusterReplicator& operator=(const ClusterReplicator&) = delete;

  /// Broadcast the current view (statuses from `up`) at the next epoch.
  /// Unreachable nodes are skipped; returns how many applied the update.
  std::size_t broadcast_membership(const std::vector<bool>& up);

  /// One hot-entry push round originating at `from`: fetch its hottest
  /// entries, route each to the ring owners among the other nodes, push.
  /// Returns entries newly accepted across all receivers.
  std::size_t push_hot_entries(std::size_t from);

  /// One page of a resumable bulk pull: `to` merges a page of `from`'s
  /// entries, keeping only tags the ring assigns `to`. Returns the cursor
  /// for the next page (nullopt when the scan is complete) via `cursor`.
  struct PullPage {
    std::optional<serialize::Tag> cursor;  ///< resume point; nullopt = done
    std::size_t merged = 0;
  };
  PullPage pull_page(std::size_t to, std::size_t from,
                     std::optional<serialize::Tag> cursor);

  /// Full bulk pull `from` -> `to` (loops pull_page to completion).
  std::size_t pull_all(std::size_t to, std::size_t from);

  /// Rejoin protocol for `node`: refresh membership (every node up except
  /// those in `still_down`), then bulk-pull the node's ring share from every
  /// other live peer. Returns entries merged.
  std::size_t rejoin(std::size_t node,
                     const std::vector<std::size_t>& still_down = {});

  std::uint64_t epoch() const { return epoch_; }
  std::size_t node_count() const { return peers_.size(); }
  const ReplicationConfig& config() const { return config_; }

  struct Stats {
    std::uint64_t membership_rounds = 0;
    std::uint64_t pushed_entries = 0;
    std::uint64_t pulled_entries = 0;
    std::uint64_t sync_failures = 0;
    /// Entries the last push round could not place (receiver down/full) —
    /// the cluster's replication lag signal.
    std::uint64_t sync_lag = 0;
  };
  Stats stats() const;

 private:
  /// One framed infra round trip; failures throw StoreUnavailableError.
  serialize::Message call(std::size_t node, const serialize::Message& request);
  /// Owners (node indices) the ring assigns `tag`, first `copies` of the
  /// preference order.
  std::vector<std::size_t> owners_of(const serialize::Tag& tag) const;

  std::vector<PeerStore> peers_;
  ReplicationConfig config_;
  std::vector<serialize::MemberInfo> members_;
  std::uint64_t epoch_ = 0;

  telemetry::Counter membership_rounds_;
  telemetry::Counter pushed_entries_;
  telemetry::Counter pulled_entries_;
  telemetry::Counter sync_failures_;
  telemetry::Gauge sync_lag_;
  telemetry::Registry::Handle telemetry_handle_;
};

}  // namespace speed::store
