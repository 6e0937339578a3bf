#include "net/cluster.h"

#include <algorithm>
#include <chrono>
#include <type_traits>

#include "common/clock.h"

namespace speed::net {

using serialize::BatchOp;
using serialize::BatchReply;
using serialize::ErrorCode;
using serialize::ErrorResponse;
using serialize::GetRequest;
using serialize::GetResponse;
using serialize::HeartbeatRequest;
using serialize::HeartbeatResponse;
using serialize::Message;
using serialize::PutRequest;
using serialize::PutResponse;
using serialize::PutStatus;

namespace {

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr std::size_t kNoLeg = SIZE_MAX;

/// One op's progress through the rounds of a route() call.
struct Walk {
  std::vector<std::size_t> order;  ///< the tag's preference order
  std::size_t next = 0;            ///< position in `order` of the next leg
  std::size_t leg = kNoLeg;        ///< this round's node, if any
  bool settled = false;            ///< answered, or every node tried
  std::size_t definitive = 0;      ///< nodes that answered (GET: missed)
  std::size_t copies = 0;          ///< PUT: nodes that hold the entry
  bool any_stored = false;         ///< PUT: some node stored it just now
  bool any_quota = false;          ///< PUT: some node refused on quota
  std::optional<std::size_t> first_missing;  ///< GET: earliest miss
};

const serialize::Tag& tag_of(const BatchOp& op) {
  return std::visit(
      [](const auto& o) -> const serialize::Tag& { return o.tag; }, op);
}

/// Moves a one-op frame's op back out of its message.
void take_back(Message& frame, BatchOp& op) {
  std::visit(
      [&op](auto& m) {
        if constexpr (std::is_constructible_v<BatchOp,
                                              std::decay_t<decltype(m)>&&>) {
          op = std::move(m);
        }
      },
      frame);
}

}  // namespace

ClusterTransport::ClusterTransport(sgx::Enclave& app_enclave,
                                   std::vector<ClusterNode> nodes,
                                   ClusterConfig config)
    : enclave_(app_enclave), config_(config) {
  if (nodes.empty()) {
    throw StoreUnavailableError("ClusterTransport: no member nodes");
  }
  members_.reserve(nodes.size());
  links_.reserve(nodes.size());
  for (ClusterNode& node : nodes) {
    members_.push_back({std::move(node.name), serialize::MemberStatus::kUp});
    links_.push_back(
        std::make_unique<Link>(enclave_, Connection{}, std::move(node.dial)));
    Link& link = *links_.back();
    if (!link.store_link.connect()) {
      // Unreachable now: the node starts out down, and the first walk that
      // probes it dials it.
      note_failure(link);
      link.health.store(static_cast<std::uint8_t>(NodeHealth::kDown),
                        std::memory_order_relaxed);
    }
  }
  register_telemetry();
}

ClusterTransport::ClusterTransport(sgx::Enclave& app_enclave, Connection store)
    : enclave_(app_enclave),
      members_{{"store", serialize::MemberStatus::kUp}} {
  links_.push_back(
      std::make_unique<Link>(enclave_, std::move(store), DialFn{}));
  register_telemetry();
}

void ClusterTransport::register_telemetry() {
  telemetry_handle_ = telemetry::Registry::global().add_collector(
      [this](telemetry::SampleSink& sink) {
        constexpr auto kNode = telemetry::LabelKey::of("node");
        for (std::size_t i = 0; i < links_.size(); ++i) {
          const telemetry::LabelSet labels{
              {kNode, telemetry::LabelValue::index(i)}};
          sink.gauge("speed_cluster_node_up",
                     "1 while the node serves requests (0 = suspect/down)",
                     labels,
                     node_health(i) == NodeHealth::kUp ? 1 : 0);
        }
        sink.counter("speed_cluster_gets_total",
                     "GET walks routed across the cluster", {}, gets_.value());
        sink.counter("speed_cluster_puts_total",
                     "PUT walks routed across the cluster", {}, puts_.value());
        sink.counter("speed_cluster_failovers_total",
                     "Node legs that failed and extended a walk", {},
                     failovers_.value());
        sink.counter("speed_cluster_read_repairs_total",
                     "Entries pushed back to an owner that missed", {},
                     read_repairs_.value());
        sink.counter("speed_cluster_partial_puts_total",
                     "PUT walks that ended below quorum (not acked)", {},
                     partial_puts_.value());
        sink.counter("speed_cluster_unavailable_total",
                     "Walks with zero definitive answers", {},
                     unavailable_.value());
        sink.counter("speed_cluster_probes_total",
                     "Heartbeat probes issued", {}, probes_.value());
        const Stats totals = stats();
        sink.counter("speed_cluster_reconnects_total",
                     "Node re-dials that connected (fresh attested handshake)",
                     {}, totals.reconnects);
        sink.counter("speed_cluster_reconnect_failures_total",
                     "Node re-dials that failed", {},
                     totals.reconnect_failures);
        sink.histogram("speed_cluster_walk_ns",
                       "Whole-walk latency of routed requests", {}, walk_ns_);
      });
}

ClusterTransport::NodeHealth ClusterTransport::node_health(
    std::size_t node) const {
  return static_cast<NodeHealth>(
      links_[node]->health.load(std::memory_order_relaxed));
}

ClusterTransport::Stats ClusterTransport::stats() const {
  Stats s;
  s.gets = gets_.value();
  s.puts = puts_.value();
  s.failovers = failovers_.value();
  s.read_repairs = read_repairs_.value();
  s.partial_puts = partial_puts_.value();
  s.unavailable = unavailable_.value();
  s.probes = probes_.value();
  for (const auto& link : links_) {
    const StoreLink::Stats l = link->store_link.stats();
    s.reconnects += l.reconnects;
    s.reconnect_failures += l.reconnect_failures;
  }
  return s;
}

std::vector<BatchReply> ClusterTransport::route(std::vector<BatchOp> ops) {
  const Stopwatch sw;
  const std::size_t quorum = std::min(config_.replicas + 1, links_.size());
  std::vector<BatchReply> replies(ops.size());
  std::vector<Walk> walks(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    walks[i].order = serialize::rendezvous_order(members_, tag_of(ops[i]));
    (std::holds_alternative<PutRequest>(ops[i]) ? puts_ : gets_).inc();
  }

  // Fold one leg's answer (null: the leg failed) into op i's walk. A found
  // entry is moved into the op's reply, never copied.
  const auto note = [&](std::size_t i, BatchReply* answer) {
    Walk& w = walks[i];
    if (std::holds_alternative<PutRequest>(ops[i])) {
      const auto* pr =
          answer != nullptr ? std::get_if<PutResponse>(answer) : nullptr;
      if (pr == nullptr) {
        failovers_.inc();
        return;
      }
      ++w.definitive;
      switch (pr->status) {
        case PutStatus::kStored:
          w.any_stored = true;
          [[fallthrough]];
        case PutStatus::kAlreadyPresent:
          ++w.copies;
          break;
        case PutStatus::kQuotaExceeded:
          w.any_quota = true;
          break;
        case PutStatus::kRejected:
          break;  // degraded node: definitive, but not a copy
      }
      w.settled = w.copies >= quorum;
      return;
    }
    auto* gr = answer != nullptr ? std::get_if<GetResponse>(answer) : nullptr;
    if (gr == nullptr) {
      failovers_.inc();
      return;
    }
    if (gr->found) {
      replies[i] = std::move(*gr);
      w.settled = true;
      return;
    }
    ++w.definitive;
    if (!w.first_missing.has_value()) w.first_missing = w.leg;
    w.settled = w.definitive >= quorum;
  };

  std::vector<BatchOp> batch_ops;  // a BatchRequest's buffer, kept per call
  for (;;) {
    // Each unsettled op takes its next leg: the next node of its order that
    // is not down inside its probe window.
    bool any_leg = false;
    for (Walk& w : walks) {
      w.leg = kNoLeg;
      if (w.settled) continue;
      while (w.next < w.order.size() && skip_down(*links_[w.order[w.next]])) {
        ++w.next;
      }
      if (w.next == w.order.size()) {
        w.settled = true;  // every node tried or skipped
        continue;
      }
      w.leg = w.order[w.next++];
      any_leg = true;
    }
    if (!any_leg) break;

    // One frame per node this round, in ascending node index. The ops move
    // into it and back out, whether or not the node answered.
    for (std::size_t node = 0; node < links_.size(); ++node) {
      std::size_t count = 0;
      std::size_t first = 0;
      for (std::size_t i = 0; i < walks.size(); ++i) {
        if (walks[i].leg == node && count++ == 0) first = i;
      }
      if (count == 0) continue;
      Link& link = *links_[node];
      if (count == 1) {
        Message frame = std::visit(
            [](auto& op) { return Message(std::move(op)); }, ops[first]);
        std::optional<BatchReply> answer;
        try {
          answer =
              serialize::to_batch_reply(link_round_trip_retry(link, frame));
        } catch (const Error&) {
        }
        take_back(frame, ops[first]);
        note(first, answer.has_value() ? &*answer : nullptr);
        continue;
      }
      Message frame{serialize::BatchRequest{std::move(batch_ops)}};
      auto& sent = std::get<serialize::BatchRequest>(frame).ops;
      sent.reserve(count);
      for (std::size_t i = first; i < walks.size(); ++i) {
        if (walks[i].leg == node) sent.push_back(std::move(ops[i]));
      }
      std::optional<Message> answer;
      try {
        answer = link_round_trip_retry(link, frame);
      } catch (const Error&) {
      }
      auto* resp = answer.has_value()
                       ? std::get_if<serialize::BatchResponse>(&*answer)
                       : nullptr;
      if (resp != nullptr && resp->replies.size() != count) resp = nullptr;
      for (std::size_t i = first, j = 0; i < walks.size(); ++i) {
        if (walks[i].leg != node) continue;
        ops[i] = std::move(sent[j]);
        note(i, resp != nullptr ? &resp->replies[j] : nullptr);
        ++j;
      }
      sent.clear();
      batch_ops = std::move(sent);
    }
  }

  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Walk& w = walks[i];
    if (std::holds_alternative<PutRequest>(ops[i])) {
      if (w.copies >= quorum) {
        // Full quorum: the ack provably survives any single node loss.
        replies[i] = PutResponse{w.any_stored ? PutStatus::kStored
                                              : PutStatus::kAlreadyPresent};
      } else if (w.definitive == 0) {
        unavailable_.inc();
        replies[i] = ErrorResponse{ErrorCode::kUnavailable,
                                   "ClusterTransport: no node answered PUT"};
      } else {
        // Below quorum: never acknowledge — the caller treats this like any
        // rejected PUT (the result was computed anyway; only future dedup
        // is lost).
        partial_puts_.inc();
        replies[i] = PutResponse{w.any_quota ? PutStatus::kQuotaExceeded
                                             : PutStatus::kRejected};
      }
      continue;
    }
    const auto& found = std::get<GetResponse>(replies[i]);
    if (found.found) {
      // A probe's hit carries no ciphertext, so there is nothing to repair
      // with; the next full GET of the tag repairs its owner.
      const auto* get = std::get_if<GetRequest>(&ops[i]);
      if (w.first_missing.has_value() && get != nullptr) {
        read_repair(*w.first_missing, *get, found);
      }
    } else if (w.definitive == 0) {
      unavailable_.inc();
      replies[i] = ErrorResponse{
          ErrorCode::kUnavailable,
          "ClusterTransport: no node answered GET or probe"};
    }
    // Otherwise a real miss: the default GetResponse, degrade to compute.
  }
  walk_ns_.record(sw.elapsed_ns());
  return replies;
}

void ClusterTransport::read_repair(std::size_t owner, const GetRequest& req,
                                   const GetResponse& found) {
  // Best-effort, quota-charged PUT back to the owner that missed: repairs
  // go through the application plane, so a client cannot use them to store
  // bytes its quota never sees.
  try {
    PutRequest put;
    put.tag = req.tag;
    put.requester = req.requester;
    put.entry = found.entry;
    const Message m = link_round_trip(*links_[owner], Message(put));
    if (const auto* pr = std::get_if<PutResponse>(&m);
        pr != nullptr && pr->status == PutStatus::kStored) {
      read_repairs_.inc();
    }
  } catch (const Error&) {
    // The owner is still unhealthy; anti-entropy will converge it later.
  }
}

// ------------------------------------------------------------------ probes

std::optional<HeartbeatResponse> ClusterTransport::probe(std::size_t node) {
  probes_.inc();
  static std::atomic<std::uint64_t> nonce_source{1};
  const std::uint64_t nonce =
      nonce_source.fetch_add(1, std::memory_order_relaxed);
  try {
    const Message m =
        link_round_trip_retry(*links_[node], Message(HeartbeatRequest{nonce}));
    const auto* hr = std::get_if<HeartbeatResponse>(&m);
    if (hr == nullptr || hr->nonce != nonce) return std::nullopt;
    return *hr;
  } catch (const Error&) {
    return std::nullopt;
  }
}

std::size_t ClusterTransport::probe_all() {
  std::size_t alive = 0;
  for (std::size_t i = 0; i < links_.size(); ++i) {
    if (probe(i).has_value()) ++alive;
  }
  return alive;
}

// ------------------------------------------------------------- link plumbing

Message ClusterTransport::link_round_trip(Link& link, const Message& request) {
  link.last_attempt_ns.store(steady_now_ns(), std::memory_order_relaxed);
  try {
    Message out = link.store_link.round_trip(request);
    note_success(link);
    return out;
  } catch (...) {
    note_failure(link);
    throw;
  }
}

Message ClusterTransport::link_round_trip_retry(Link& link,
                                                const Message& request) {
  const bool was_up =
      static_cast<NodeHealth>(link.health.load(std::memory_order_relaxed)) ==
      NodeHealth::kUp;
  try {
    return link_round_trip(link, request);
  } catch (const Error&) {
    // A suspect or down node's link had no connection, so this attempt
    // began with its dial: one dial per leg is enough.
    if (!was_up) throw;
    // The failure dropped the link's connection; the retry's StoreLink
    // round trip re-dials (re-attest, fresh key) and seals the request
    // again under the fresh channel key.
    return link_round_trip(link, request);
  }
}

void ClusterTransport::note_success(Link& link) {
  link.consecutive_failures.store(0, std::memory_order_relaxed);
  link.health.store(static_cast<std::uint8_t>(NodeHealth::kUp),
                    std::memory_order_relaxed);
}

void ClusterTransport::note_failure(Link& link) {
  const int failures =
      link.consecutive_failures.fetch_add(1, std::memory_order_relaxed) + 1;
  link.health.store(static_cast<std::uint8_t>(failures >= config_.down_threshold
                                                  ? NodeHealth::kDown
                                                  : NodeHealth::kSuspect),
                    std::memory_order_relaxed);
}

bool ClusterTransport::skip_down(Link& link) const {
  if (static_cast<NodeHealth>(link.health.load(std::memory_order_relaxed)) !=
      NodeHealth::kDown) {
    return false;
  }
  // One request per probe interval is admitted as the probe; inside the
  // window the walk skips the node without I/O.
  const std::int64_t since =
      steady_now_ns() - link.last_attempt_ns.load(std::memory_order_relaxed);
  return since <
         static_cast<std::int64_t>(config_.probe_interval_ms) * 1'000'000;
}

}  // namespace speed::net
