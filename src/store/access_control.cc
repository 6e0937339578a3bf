#include "store/access_control.h"

namespace speed::store {

serialize::Message GatedResultStore::dispatch_trusted(
    const serialize::Message& request, std::uint64_t now_ns) {
  // Extract the requester identity (GET/PUT/probe carry it; SYNC is
  // infra-only and passes through — deployments gate it at the connection
  // layer).
  const serialize::AppId* requester = nullptr;
  if (const auto* get = std::get_if<serialize::GetRequest>(&request)) {
    requester = &get->requester;
  } else if (const auto* put = std::get_if<serialize::PutRequest>(&request)) {
    requester = &put->requester;
  } else if (const auto* probe =
                 std::get_if<serialize::ProbeRequest>(&request)) {
    requester = &probe->requester;
  }
  // A refused read (GET or probe) answers a miss.
  const bool read = !std::holds_alternative<serialize::PutRequest>(request);

  if (requester != nullptr) {
    if (!policy_.permits(*requester)) {
      MutexLock lock(mu_);
      ++stats_.denied;
      if (read) return serialize::GetResponse{};  // miss
      return serialize::PutResponse{serialize::PutStatus::kQuotaExceeded};
    }
    if (limiter_ != nullptr && !limiter_->admit(*requester, now_ns)) {
      MutexLock lock(mu_);
      ++stats_.throttled;
      if (read) return serialize::GetResponse{};
      return serialize::PutResponse{serialize::PutStatus::kQuotaExceeded};
    }
  }
  return store_.dispatch_trusted(request);
}

}  // namespace speed::store
