#include "net/cluster.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "common/clock.h"

namespace speed::net {

using serialize::GetRequest;
using serialize::GetResponse;
using serialize::HeartbeatRequest;
using serialize::HeartbeatResponse;
using serialize::Message;
using serialize::ProbeRequest;
using serialize::PutRequest;
using serialize::PutResponse;
using serialize::PutStatus;

namespace {

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
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

Message ClusterTransport::round_trip_message(Message request) {
  const Stopwatch sw;
  struct Record {
    telemetry::Histogram& hist;
    const Stopwatch& sw;
    ~Record() { hist.record(sw.elapsed_ns()); }
  } record{walk_ns_, sw};
  if (std::holds_alternative<GetRequest>(request) ||
      std::holds_alternative<ProbeRequest>(request)) {
    return cluster_get(request);
  }
  if (std::holds_alternative<PutRequest>(request)) return cluster_put(request);
  if (auto* batch_req = std::get_if<serialize::BatchRequest>(&request)) {
    return cluster_batch(std::move(*batch_req));
  }
  throw ProtocolError(
      "ClusterTransport: only GET, PUT and probe are routable");
}

Message ClusterTransport::cluster_batch(serialize::BatchRequest req) {
  serialize::BatchResponse resp;
  resp.replies.resize(req.ops.size());
  const std::size_t quorum = std::min(config_.replicas + 1, members_.size());

  // Group ops by their rendezvous primary: one forwarded BatchRequest per
  // node keeps the transition-amortization win while every op still lands
  // on its tag's owner first.
  std::unordered_map<std::size_t, std::vector<std::size_t>> by_primary;
  for (std::size_t i = 0; i < req.ops.size(); ++i) {
    const serialize::Tag& tag = std::visit(
        [](const auto& op) -> const serialize::Tag& { return op.tag; },
        req.ops[i]);
    const auto order = serialize::rendezvous_order(members_, tag);
    by_primary[order.front()].push_back(i);
  }

  for (auto& [node, indices] : by_primary) {
    Link& link = *links_[node];
    // The sub-frame takes its ops by move; an op that still has to walk
    // moves back out of it.
    Message forward{serialize::BatchRequest{}};
    auto& forward_ops = std::get<serialize::BatchRequest>(forward).ops;
    forward_ops.reserve(indices.size());
    for (const std::size_t i : indices) {
      forward_ops.push_back(std::move(req.ops[i]));
    }
    std::optional<serialize::BatchResponse> node_resp;
    if (!skip_down(link)) {
      try {
        Message answer = link_round_trip_retry(link, forward);
        if (auto* batch_resp = std::get_if<serialize::BatchResponse>(&answer);
            batch_resp != nullptr &&
            batch_resp->replies.size() == indices.size()) {
          node_resp = std::move(*batch_resp);
        }
      } catch (const Error&) {
        failovers_.inc();  // the per-op walks below pick up the slack
      }
    }
    for (std::size_t j = 0; j < indices.size(); ++j) {
      const std::size_t i = indices[j];
      serialize::BatchReply* primary =
          node_resp.has_value() ? &node_resp->replies[j] : nullptr;
      if (primary != nullptr) {
        // A hit from the owner is always authoritative; a definitive miss,
        // or a PUT's answer, only is when there are no replicas to consult.
        const auto* get_resp = std::get_if<GetResponse>(primary);
        if ((get_resp != nullptr && (get_resp->found || quorum == 1)) ||
            (std::holds_alternative<PutResponse>(*primary) && quorum == 1)) {
          (get_resp != nullptr ? gets_ : puts_).inc();
          resp.replies[i] = std::move(*primary);
          continue;
        }
      }
      try {
        const Message op = std::visit(
            [](auto& o) { return Message(std::move(o)); }, forward_ops[j]);
        Message walked = std::holds_alternative<PutRequest>(op)
                             ? cluster_put(op, primary)
                             : cluster_get(op, primary);
        resp.replies[i] = serialize::to_batch_reply(std::move(walked));
      } catch (const Error& e) {
        // Only this op degrades; its neighbors keep their answers.
        resp.replies[i] =
            serialize::ErrorResponse{serialize::ErrorCode::kUnavailable,
                                     e.what()};
      }
    }
  }
  return Message(std::move(resp));
}

// ------------------------------------------------------------------- walks

Message ClusterTransport::cluster_get(const Message& request,
                                      serialize::BatchReply* primary_reply) {
  gets_.inc();
  const auto* get_req = std::get_if<GetRequest>(&request);
  const serialize::Tag& tag = get_req != nullptr
                                  ? get_req->tag
                                  : std::get<ProbeRequest>(request).tag;
  const auto order = serialize::rendezvous_order(members_, tag);
  const std::size_t quorum = std::min(config_.replicas + 1, order.size());

  std::size_t definitive = 0;
  std::optional<GetResponse> found;
  std::optional<std::size_t> first_missing;  ///< earliest definitive miss

  // Interpret one node's answer (null: not a GET answer); returns true when
  // the walk can stop. A found entry is moved, never copied.
  const auto process = [&](std::size_t idx, GetResponse* gr) {
    if (gr == nullptr) {
      failovers_.inc();
      return false;
    }
    if (gr->found) {
      found = std::move(*gr);
      return true;
    }
    ++definitive;
    if (!first_missing.has_value()) first_missing = idx;
    return definitive >= quorum;
  };

  std::size_t next = 0;
  bool done = false;
  if (primary_reply != nullptr) {
    done = process(order.front(), std::get_if<GetResponse>(primary_reply));
    next = 1;
  }
  for (; !done && next < order.size(); ++next) {
    Link& link = *links_[order[next]];
    if (skip_down(link)) continue;
    try {
      Message m = link_round_trip_retry(link, request);
      done = process(order[next], std::get_if<GetResponse>(&m));
    } catch (const Error&) {
      failovers_.inc();
    }
  }

  if (found.has_value()) {
    // A probe's hit carries no ciphertext, so there is nothing to repair
    // with; the next full GET of the tag repairs its owner.
    if (first_missing.has_value() && get_req != nullptr) {
      read_repair(*first_missing, *get_req, *found);
    }
    return Message(std::move(*found));
  }
  if (definitive > 0) return GetResponse{};  // a real miss: degrade to compute
  unavailable_.inc();
  throw StoreUnavailableError(
      "ClusterTransport: no node answered GET or probe");
}

Message ClusterTransport::cluster_put(
    const Message& request, const serialize::BatchReply* primary_reply) {
  puts_.inc();
  const auto& req = std::get<PutRequest>(request);
  const auto order = serialize::rendezvous_order(members_, req.tag);
  const std::size_t target = std::min(config_.replicas + 1, order.size());

  std::size_t successes = 0;
  std::size_t definitive = 0;
  bool any_stored = false;
  bool any_quota = false;
  // Tally one node's answer (null: not a PUT answer).
  const auto tally = [&](const PutResponse* pr) {
    if (pr == nullptr) {
      failovers_.inc();
      return;
    }
    ++definitive;
    switch (pr->status) {
      case PutStatus::kStored:
        ++successes;
        any_stored = true;
        break;
      case PutStatus::kAlreadyPresent:
        ++successes;
        break;
      case PutStatus::kQuotaExceeded:
        any_quota = true;
        break;
      case PutStatus::kRejected:
        break;  // degraded node: definitive, but not a copy
    }
  };

  // Sloppy quorum: walk past failed owners so the entry still lands on
  // `target` live nodes; the rendezvous walk on GET finds it there.
  std::size_t next = 0;
  if (primary_reply != nullptr) {
    tally(std::get_if<PutResponse>(primary_reply));
    next = 1;
  }
  for (; successes < target && next < order.size(); ++next) {
    Link& link = *links_[order[next]];
    if (skip_down(link)) continue;
    try {
      const Message m = link_round_trip_retry(link, request);
      tally(std::get_if<PutResponse>(&m));
    } catch (const Error&) {
      failovers_.inc();
    }
  }

  if (successes >= target) {
    // Full quorum: the ack provably survives any single node loss.
    return PutResponse{any_stored ? PutStatus::kStored
                                  : PutStatus::kAlreadyPresent};
  }
  if (definitive == 0) {
    unavailable_.inc();
    throw StoreUnavailableError("ClusterTransport: no node answered PUT");
  }
  // Below quorum: never acknowledge — the caller treats this like any
  // rejected PUT (the result was computed anyway; only future dedup is lost).
  partial_puts_.inc();
  return PutResponse{any_quota ? PutStatus::kQuotaExceeded
                               : PutStatus::kRejected};
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
