// Client-side store routing (docs/PROTOCOL.md §8): every runtime's one data
// path, from a single store (a one-node cluster) to a replicated cluster.
//
// ClusterTransport routes GETs, PUTs and probes across N store nodes by
// rendezvous-hashing each computation tag (serialize/rendezvous.h): element 0
// of the preference order is the tag's primary owner, the next `replicas`
// elements its replicas. Unlike the single-connection Transport it operates
// on decoded ops, not opaque frames — routing needs the tag, and the tag is
// inside the frame — so every node has its *own* StoreLink
// (net/store_link.h): an attested SecureChannel (sequence numbers are
// per-connection) over its own transport. A node's link dials the node
// itself, and re-dials it after its connection drops; a single store
// adopts the caller's attested connection as it is, and never re-dials.
//
// route() is the one routing call: a single op is a list of one. All of a
// call's ops walk together, in rounds. In each round every unsettled op
// takes its next leg, and each node some op needs gets one frame, in
// ascending node index: a plain message when it carries one op, a
// BatchRequest otherwise. A frame that fails fails that leg for every op in
// it. Every leg runs on the calling thread.
//
// Failure semantics, chaos-tested (tests/chaos_cluster_test.cc):
//
//   * PUT is a sloppy-quorum walk: the preference order is walked until
//     min(replicas+1, N) nodes accepted the entry; node failures extend the
//     walk to the next candidate. The PUT is acknowledged (kStored /
//     kAlreadyPresent) ONLY at full quorum — anything less returns
//     kRejected, so an acked result provably survives any single node loss.
//   * GET walks the same order until an entry is found or a quorum of
//     *definitive* answers (found / not-found) accumulates; failures extend
//     the walk, which also finds sloppily-placed entries. Zero definitive
//     answers means the cluster is unreachable: the op's reply is
//     ErrorResponse{kUnavailable}, the runtime's degrade-to-compute signal.
//   * A header-only probe walks exactly like a GET.
//   * Read-repair: when a replica serves a GET hit after the tag's owner
//     definitively missed, the entry is pushed back to the owner as an
//     ordinary quota-charged PUT (the infra-only PUSH plane is not reachable
//     from application credentials). A probe hit carries no ciphertext and
//     never repairs.
//   * Health, the one failure detector per node and the one clock that
//     spaces reconnect attempts: up/suspect/down states driven by the
//     requests themselves plus explicit heartbeat probes. A failed leg to an
//     up node, or a failed heartbeat, is retried once inline, and the retry
//     re-dials (re-attest, fresh key); a down node is skipped without I/O
//     until `probe_interval_ms` elapses, when one frame is admitted as the
//     probe.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/store_link.h"
#include "serialize/rendezvous.h"
#include "serialize/wire.h"
#include "sgx/enclave.h"
#include "telemetry/registry.h"

namespace speed::net {

/// One member endpoint. `dial` establishes a fresh connection: transport
/// plus the session key from the attested handshake with that node's store
/// enclave (e.g. store::tcp_node, or a connect_app closure). The node's
/// StoreLink invokes it for the initial connection and for every
/// reconnect, so a restarted node is automatically re-attested.
struct ClusterNode {
  std::string name;
  DialFn dial;
};

struct ClusterConfig {
  /// Additional copies beyond the primary; effective copy count per tag is
  /// min(replicas + 1, N).
  std::size_t replicas = 1;
  /// A down node is skipped without I/O until this much time has passed
  /// since the last attempt; then one request is admitted as the probe.
  std::uint64_t probe_interval_ms = 50;
  /// Consecutive failures that take a node from suspect to down.
  int down_threshold = 2;
};

class ClusterTransport {
 public:
  enum class NodeHealth : std::uint8_t { kUp = 0, kSuspect = 1, kDown = 2 };

  /// Dials every node eagerly; a node that cannot be reached starts out
  /// down, and the first walk that probes it dials it once. Throws if
  /// `nodes` is empty.
  ClusterTransport(sgx::Enclave& app_enclave, std::vector<ClusterNode> nodes,
                   ClusterConfig config = ClusterConfig{});

  /// A single store as a one-node cluster: adopts `store`, an attested
  /// connection, as it is. With no dial, the node never reconnects: once
  /// its connection drops, it stays down. A single store that reconnects is
  /// a one-node cluster built from a dial (store::tcp_node). Throws
  /// ProtocolError if `store.transport` is null.
  ClusterTransport(sgx::Enclave& app_enclave, Connection store);

  ClusterTransport(const ClusterTransport&) = delete;
  ClusterTransport& operator=(const ClusterTransport&) = delete;

  /// Route `ops` across the cluster and answer each one, index-aligned.
  /// Must be called from inside the application enclave (each frame is one
  /// StoreLink round trip, with its own OCALL). Ops move into each frame
  /// and back out of it, and a found entry is moved into its reply, so no
  /// payload is copied. Never throws for a store failure: an op that no
  /// node answered gets ErrorResponse{kUnavailable}.
  std::vector<serialize::BatchReply> route(
      std::vector<serialize::BatchOp> ops);

  /// Heartbeat one node (by index); updates its health state. Returns the
  /// response when the node answered.
  std::optional<serialize::HeartbeatResponse> probe(std::size_t node);
  /// Heartbeat every node; returns how many answered.
  std::size_t probe_all();

  NodeHealth node_health(std::size_t node) const;
  std::size_t node_count() const { return links_.size(); }
  const ClusterConfig& config() const { return config_; }

  /// Preference order for a tag (test/bench introspection).
  std::vector<std::size_t> preference_order(const serialize::Tag& tag) const {
    return serialize::rendezvous_order(members_, tag);
  }

  struct Stats {
    std::uint64_t gets = 0;
    std::uint64_t puts = 0;
    std::uint64_t failovers = 0;       ///< node legs that failed mid-walk
    std::uint64_t read_repairs = 0;    ///< entries pushed back to an owner
    std::uint64_t partial_puts = 0;    ///< PUTs below quorum (not acked)
    std::uint64_t unavailable = 0;     ///< walks with zero definitive answers
    std::uint64_t probes = 0;
    std::uint64_t reconnects = 0;          ///< re-dials that connected
    std::uint64_t reconnect_failures = 0;  ///< re-dials that failed
  };
  Stats stats() const;

 private:
  struct Link {
    Link(sgx::Enclave& enclave, Connection initial, DialFn dial)
        : store_link(enclave, std::move(initial), std::move(dial)) {}

    StoreLink store_link;
    std::atomic<std::uint8_t> health{
        static_cast<std::uint8_t>(NodeHealth::kUp)};
    std::atomic<int> consecutive_failures{0};
    /// steady_clock ns of the last attempt (for down-node probe gating).
    std::atomic<std::int64_t> last_attempt_ns{0};
  };

  /// One StoreLink round trip to `link`'s node; throws on any failure after
  /// updating health.
  serialize::Message link_round_trip(Link& link,
                                     const serialize::Message& request);
  /// link_round_trip plus one inline retry for a node that was up: the
  /// first failure may only mean the connection was stale (node restarted
  /// under a new incarnation), and it dropped that connection, so the retry
  /// re-dials — re-attest, fresh key, the request sealed again — and a walk
  /// or heartbeat right after a node restart succeeds instead of failing.
  /// A suspect or down node's link has no connection, so its attempt
  /// already begins with the dial, and is not retried.
  serialize::Message link_round_trip_retry(Link& link,
                                           const serialize::Message& request);
  void note_success(Link& link);
  void note_failure(Link& link);
  /// True when the walk should skip this node without attempting I/O.
  bool skip_down(Link& link) const;
  void register_telemetry();
  /// Push a GET hit's entry back to `owner`, which definitively missed it:
  /// one plain, quota-charged PUT, best effort.
  void read_repair(std::size_t owner, const serialize::GetRequest& req,
                   const serialize::GetResponse& found);

  sgx::Enclave& enclave_;
  ClusterConfig config_;
  std::vector<serialize::MemberInfo> members_;
  std::vector<std::unique_ptr<Link>> links_;

  telemetry::Counter gets_;
  telemetry::Counter puts_;
  telemetry::Counter failovers_;
  telemetry::Counter read_repairs_;
  telemetry::Counter partial_puts_;
  telemetry::Counter unavailable_;
  telemetry::Counter probes_;
  telemetry::Histogram walk_ns_;
  // Declared after the cells it reads (deregistered first).
  telemetry::Registry::Handle telemetry_handle_;
};

}  // namespace speed::net
