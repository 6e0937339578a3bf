// Client-side store routing (docs/PROTOCOL.md §8): every runtime's one data
// path, from a single store (a one-node cluster) to a replicated cluster.
//
// ClusterTransport routes each GET/PUT across N store nodes by rendezvous-
// hashing the computation tag (serialize/rendezvous.h): element 0 of the
// preference order is the tag's primary owner, the next `replicas` elements
// its replicas. Unlike the single-connection Transport it operates on
// decoded messages, not opaque frames — routing needs the tag, and the tag
// is inside the frame — so every node has its *own* StoreLink
// (net/store_link.h): an attested SecureChannel (sequence numbers are
// per-connection) over its own transport. A dialed node's transport is a
// ResilientTransport (reconnect with backoff, net/resilient.h); a single
// store adopts the caller's attested connection as it is. Every leg of a
// walk runs on the calling thread.
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
//     answers means the cluster is unreachable: StoreUnavailableError, the
//     runtime's degrade-to-compute signal.
//   * Read-repair: when a replica serves a hit after the tag's owner
//     definitively missed, the entry is pushed back to the owner as an
//     ordinary quota-charged PUT (the infra-only PUSH plane is not reachable
//     from application credentials).
//   * Health, the one failure detector per node: up/suspect/down states
//     driven by the requests themselves plus explicit heartbeat probes. A
//     failed leg to an up node is retried once inline, through recover()
//     (re-dial, re-attest, fresh key); a down node is skipped without I/O
//     until `probe_interval_ms` elapses, when one request is admitted as
//     the probe.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/resilient.h"
#include "net/store_link.h"
#include "serialize/rendezvous.h"
#include "serialize/wire.h"
#include "sgx/enclave.h"
#include "telemetry/registry.h"

namespace speed::net {

/// One member endpoint. `dial` establishes a fresh connection: transport
/// plus the session key from the attested handshake with that node's store
/// enclave (e.g. a store::connect_tcp_app or connect_app closure). It is
/// invoked for the initial connection and for every reconnect, so a
/// restarted node is automatically re-attested.
struct ClusterNode {
  std::string name;
  ResilientTransport::ReconnectFn dial;
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
  /// Reconnect settings of each dialed node's ResilientTransport.
  ResilienceConfig resilience;
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
  /// connection, as it is — no dial, no reconnect layer added. A failed
  /// node recovers through `store.transport`'s own recover() (a plain
  /// transport cannot, and the node then stays down). Throws ProtocolError
  /// if `store.transport` is null.
  ClusterTransport(sgx::Enclave& app_enclave,
                   ResilientTransport::Connection store);

  ClusterTransport(const ClusterTransport&) = delete;
  ClusterTransport& operator=(const ClusterTransport&) = delete;

  /// Route one application request (GET, PUT or a BatchRequest of both)
  /// across the cluster. Must be called from inside the application enclave
  /// (each node leg is one StoreLink round trip, with its own OCALL).
  /// Payloads move through the walk: every leg seals from `request`, and a
  /// found entry is moved into the reply. Throws StoreUnavailableError when
  /// no node can serve — the degrade-to-compute signal.
  serialize::Message round_trip_message(serialize::Message request);

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
  };
  Stats stats() const;

 private:
  struct Link {
    Link(sgx::Enclave& enclave, ResilientTransport::Connection initial,
         ResilientTransport::ReconnectFn dial)
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
  /// under a new incarnation), and the retry goes through recover() —
  /// re-dial, re-attest, fresh key, the request sealed again — so a walk
  /// right after a node restart succeeds instead of failing over. A suspect
  /// or down node's attempt already recovers, and is not retried.
  serialize::Message link_round_trip_retry(Link& link,
                                           const serialize::Message& request);
  void note_success(Link& link);
  void note_failure(Link& link);
  /// True when the walk should skip this node without attempting I/O.
  bool skip_down(Link& link) const;
  void register_telemetry();

  /// The quorum walks over `request`'s preference order. `primary_reply`,
  /// when given, is the primary's answer from a batched sub-frame: it counts
  /// as the walk's first leg, and the walk goes on at the next node.
  serialize::Message cluster_get(
      const serialize::Message& request,
      serialize::BatchReply* primary_reply = nullptr);
  serialize::Message cluster_put(
      const serialize::Message& request,
      const serialize::BatchReply* primary_reply = nullptr);
  /// Batched routing: ops are grouped by rendezvous primary and forwarded as
  /// one BatchRequest per node. A batched sub-answer is authoritative when a
  /// single leg settles it (found GETs always; everything when the quorum is
  /// 1); otherwise — quorum PUTs, definitive misses with replicas, per-op
  /// errors — the op's walk goes on from that answer. An op whose primary
  /// could not be reached walks its whole order. So batching never weakens
  /// the chaos-tested ack/read-repair guarantees. An op whose walk also
  /// fails yields ErrorResponse{kUnavailable}; the call itself always
  /// returns a full BatchResponse.
  serialize::Message cluster_batch(serialize::BatchRequest req);
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
