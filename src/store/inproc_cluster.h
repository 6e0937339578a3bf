// In-process replicated store cluster: N ResultStore nodes, one simulated
// platform, with the chaos hooks the fault-tolerance suite needs
// (tests/chaos_cluster_test.cc).
//
// Node model:
//   * kill(i): the node stops answering (both the application plane and the
//     infra plane throw StoreUnavailableError). The dead store object stays
//     alive until restart so an in-flight request races the kill safely —
//     exactly the "node acked, then died" case replication must tolerate.
//   * restart(i): a FRESH store enclave with an empty dictionary (memory
//     backends lose state, like a machine that lost power). The node's
//     incarnation counter bumps, which invalidates every connection dialed
//     against the old incarnation: clients observe StoreUnavailableError,
//     their StoreLink re-dials, and the dial runs a fresh attested
//     handshake against the NEW store enclave. Before admission the fresh
//     enclave mutually re-attests with a live peer (replication.h).
//   * partition(i): blackholes the node without killing it — requests fail,
//     state survives, heal by partition(i, false).
//
// The application plane goes through GuardedTransport (the Transport each
// dial hands a ClusterTransport node's StoreLink); the infra plane goes
// through ClusterReplicator peers calling ResultStore::handle.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/annotated_lock.h"
#include "net/cluster.h"
#include "store/replication.h"
#include "store/store_session.h"

namespace speed::store {

struct InprocClusterConfig {
  std::size_t nodes = 3;
  /// Per-node store settings. `backend` must stay null: every node owns a
  /// private in-memory backend (a restarted node loses its state).
  StoreConfig store;
  /// Client-side routing/failover settings (replicas, hedging, probes).
  net::ClusterConfig cluster;
  ReplicationConfig replication;
};

class InprocCluster {
 public:
  InprocCluster(sgx::Platform& platform, InprocClusterConfig config)
      : platform_(platform), config_(std::move(config)) {
    if (config_.nodes == 0) {
      throw ProtocolError("InprocCluster: need at least one node");
    }
    if (config_.store.backend != nullptr) {
      throw ProtocolError(
          "InprocCluster: nodes own private backends; set store.backend=null");
    }
    // Copies the client routes and the replicator places must agree.
    config_.replication.copies = config_.cluster.replicas + 1;
    nodes_.reserve(config_.nodes);
    std::vector<PeerStore> peers;
    for (std::size_t i = 0; i < config_.nodes; ++i) {
      auto node = std::make_unique<Node>();
      node->name = "store-" + std::to_string(i);
      // Built BEFORE taking node->mu: the store constructor registers
      // telemetry collectors (rank 450), which must not nest under 530.
      auto store = std::make_shared<ResultStore>(platform_, config_.store);
      {
        MutexLock lock(node->mu);  // uncontended; satisfies the analysis
        node->store = std::move(store);
      }
      nodes_.push_back(std::move(node));
      peers.push_back({nodes_.back()->name, infra_call(i)});
    }
    replicator_.emplace(std::move(peers), config_.replication);
  }

  std::size_t node_count() const { return nodes_.size(); }
  bool alive(std::size_t i) const {
    return nodes_[i]->alive.load(std::memory_order_acquire);
  }
  std::uint64_t incarnation(std::size_t i) const {
    return nodes_[i]->incarnation.load(std::memory_order_acquire);
  }

  /// The node's live store; throws StoreUnavailableError when killed.
  ResultStore& store(std::size_t i) {
    Node& node = *nodes_[i];
    MutexLock lock(node.mu);
    if (!node.alive.load(std::memory_order_acquire)) {
      throw net::StoreUnavailableError("InprocCluster: node " + node.name +
                                       " is down");
    }
    return *node.store;
  }

  // ------------------------------------------------------------ chaos hooks

  void kill(std::size_t i) {
    nodes_[i]->alive.store(false, std::memory_order_release);
  }

  void partition(std::size_t i, bool on) {
    nodes_[i]->partitioned.store(on, std::memory_order_release);
  }

  /// Fresh empty store under a new incarnation; mutually re-attests with the
  /// first live peer before admission. Returns false (node stays down) if
  /// attestation fails — with the simulated platform that only happens when
  /// the fresh enclave is not a genuine store enclave.
  bool restart(std::size_t i) {
    Node& node = *nodes_[i];
    auto fresh = std::make_shared<ResultStore>(platform_, config_.store);
    for (std::size_t j = 0; j < nodes_.size(); ++j) {
      if (j == i || !alive(j)) continue;
      MutexLock lock(nodes_[j]->mu);
      if (!attest_peers(fresh->enclave(), nodes_[j]->store->enclave())) {
        return false;
      }
      break;  // one live witness suffices
    }
    // Displaced BEFORE the lock declaration so the dead store (whose
    // destructor deregisters telemetry collectors, rank 450) is destroyed
    // only after node.mu (530) is released.
    std::shared_ptr<ResultStore> retired;
    {
      MutexLock lock(node.mu);
      retired = std::move(node.store);
      node.store = std::move(fresh);
      node.incarnation.fetch_add(1, std::memory_order_acq_rel);
      node.partitioned.store(false, std::memory_order_release);
      node.alive.store(true, std::memory_order_release);
    }
    return true;
  }

  // -------------------------------------------------------- application plane

  /// Dial closures for a client-side ClusterTransport owned by `app`. Each
  /// dial attests against the node's CURRENT store enclave, so a client
  /// reconnecting after a restart lands on the new incarnation.
  std::vector<net::ClusterNode> dial_list(sgx::Enclave& app) {
    std::vector<net::ClusterNode> out;
    out.reserve(nodes_.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      out.push_back({nodes_[i]->name, dial(i, app)});
    }
    return out;
  }

  std::shared_ptr<net::ClusterTransport> connect(sgx::Enclave& app) {
    return std::make_shared<net::ClusterTransport>(app, dial_list(app),
                                                   config_.cluster);
  }

  // -------------------------------------------------------------- infra plane

  ClusterReplicator& replicator() { return *replicator_; }

  /// Convenience: one anti-entropy round — every live node pushes its hot
  /// entries to their ring owners. Returns entries accepted cluster-wide.
  std::size_t anti_entropy_round() {
    std::size_t accepted = 0;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (alive(i)) accepted += replicator_->push_hot_entries(i);
    }
    return accepted;
  }

  /// Rejoin protocol for a restarted node: membership refresh + ring-share
  /// bulk pull from every live peer (see ClusterReplicator::rejoin).
  std::size_t rejoin(std::size_t i) {
    std::vector<std::size_t> still_down;
    for (std::size_t j = 0; j < nodes_.size(); ++j) {
      if (!alive(j)) still_down.push_back(j);
    }
    return replicator_->rejoin(i, still_down);
  }

 private:
  struct Node {
    std::string name;
    /// Guards store swaps; shared_ptr keeps a killed store alive for
    /// requests that raced the kill. 530: dialed under a StoreLink strand
    /// (200), above it.
    Mutex mu{LockRank::kClusterNode};
    std::shared_ptr<ResultStore> store GUARDED_BY(mu);
    std::atomic<std::uint64_t> incarnation{1};
    std::atomic<bool> alive{true};
    std::atomic<bool> partitioned{false};
  };

  /// Application-plane transport bound to one dialed connection: rejects
  /// traffic the moment the node dies, partitions, or restarts under a new
  /// incarnation (the session key would no longer match the live enclave).
  class GuardedTransport : public net::Transport {
   public:
    GuardedTransport(Node& node, std::shared_ptr<ResultStore> store,
                     std::unique_ptr<StoreSession> session,
                     std::uint64_t incarnation)
        : node_(node),
          store_(std::move(store)),
          session_(std::move(session)),
          incarnation_(incarnation) {}

    Bytes round_trip(ByteView frame) override {
      if (!node_.alive.load(std::memory_order_acquire) ||
          node_.partitioned.load(std::memory_order_acquire) ||
          node_.incarnation.load(std::memory_order_acquire) != incarnation_) {
        throw net::StoreUnavailableError(
            "InprocCluster: node " + node_.name +
            " unreachable (down, partitioned, or restarted)");
      }
      return session_->handle_frame(frame);
    }

   private:
    Node& node_;
    std::shared_ptr<ResultStore> store_;  ///< pins the dialed incarnation
    std::unique_ptr<StoreSession> session_;
    std::uint64_t incarnation_;
  };

  net::DialFn dial(std::size_t i, sgx::Enclave& app) {
    return [this, i, &app]() -> net::Connection {
      Node& node = *nodes_[i];
      std::shared_ptr<ResultStore> store;
      std::uint64_t incarnation;
      {
        MutexLock lock(node.mu);
        if (!node.alive.load(std::memory_order_acquire) ||
            node.partitioned.load(std::memory_order_acquire)) {
          throw net::StoreUnavailableError("InprocCluster: node " +
                                           node.name + " refused dial");
        }
        store = node.store;
        incarnation = node.incarnation.load(std::memory_order_acquire);
      }
      // Attested handshake against this incarnation's store enclave.
      AppConnection conn = connect_app(*store, app);
      net::Connection out;
      out.session_key = std::move(conn.session_key);
      out.transport = std::make_unique<GuardedTransport>(
          node, std::move(store), std::move(conn.session), incarnation);
      return out;
    };
  }

  std::function<Bytes(ByteView)> infra_call(std::size_t i) {
    return [this, i](ByteView frame) -> Bytes {
      Node& node = *nodes_[i];
      std::shared_ptr<ResultStore> store;
      {
        MutexLock lock(node.mu);
        if (!node.alive.load(std::memory_order_acquire) ||
            node.partitioned.load(std::memory_order_acquire)) {
          throw net::StoreUnavailableError("InprocCluster: node " +
                                           node.name + " unreachable");
        }
        store = node.store;
      }
      return store->handle(frame);
    };
  }

  sgx::Platform& platform_;
  InprocClusterConfig config_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::optional<ClusterReplicator> replicator_;
};

}  // namespace speed::store
