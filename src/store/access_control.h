// Access control and rate limiting for the ResultStore (paper §III-D).
//
// Two policies the paper discusses beyond the byte quota:
//
//   * "Discussion on controlled deduplication": the keyless RCE scheme lets
//     any application that owns (func, m) decrypt, so restricting *who may
//     talk to the store at all* requires an additional authorization
//     mechanism. AccessPolicy is that mechanism — an allowlist/denylist of
//     enclave measurements, checked against the attested identity of each
//     requester.
//
//   * "Mitigating denial-of-service attacks": a malicious application may
//     flood the store with update requests. RateLimiter is a per-identity
//     token bucket over requests/second (complementing the per-app byte
//     quota already enforced by ResultStore).
//
// Both are enforced inside the store enclave by GatedResultStore's dispatch.
#pragma once

#include <cstdint>
#include <set>
#include <unordered_map>

#include "common/annotated_lock.h"
#include "serialize/wire.h"
#include "store/result_store.h"

namespace speed::store {

/// Measurement-based authorization.
class AccessPolicy {
 public:
  enum class Mode {
    kOpen,       ///< everyone may connect (the paper's default deployment)
    kAllowlist,  ///< only listed measurements
  };

  AccessPolicy() = default;

  void set_mode(Mode mode) {
    WriterLock lock(mu_);
    mode_ = mode;
  }

  void allow(const serialize::AppId& app) {
    WriterLock lock(mu_);
    allowed_.insert(app);
  }

  void revoke(const serialize::AppId& app) {
    WriterLock lock(mu_);
    allowed_.erase(app);
  }

  /// Hot path (checked per request): shared lock so concurrent dispatch
  /// threads never serialize on a read-mostly policy.
  bool permits(const serialize::AppId& app) const {
    ReaderLock lock(mu_);
    if (mode_ == Mode::kOpen) return true;
    return allowed_.contains(app);
  }

 private:
  mutable SharedMutex mu_{LockRank::kAccess};  // 590: checked before shards
  Mode mode_ GUARDED_BY(mu_) = Mode::kOpen;
  std::set<serialize::AppId> allowed_ GUARDED_BY(mu_);
};

/// Per-identity token bucket, `rate` tokens/second up to `burst`.
/// Time is injected (monotonic nanoseconds) so tests are deterministic.
class RateLimiter {
 public:
  RateLimiter(double tokens_per_second, double burst)
      : rate_(tokens_per_second), burst_(burst) {}

  /// Consume one token for `app` at time `now_ns`; false = rate exceeded.
  bool admit(const serialize::AppId& app, std::uint64_t now_ns) {
    MutexLock lock(mu_);
    Bucket& b = buckets_[app];
    if (!b.initialized) {
      b.tokens = burst_;
      b.last_ns = now_ns;
      b.initialized = true;
    }
    const double elapsed_s =
        static_cast<double>(now_ns - b.last_ns) / 1e9;
    b.tokens = std::min(burst_, b.tokens + elapsed_s * rate_);
    b.last_ns = now_ns;
    if (b.tokens < 1.0) return false;
    b.tokens -= 1.0;
    return true;
  }

 private:
  struct Bucket {
    double tokens = 0;
    std::uint64_t last_ns = 0;
    bool initialized = false;
  };
  struct AppIdHash {
    std::size_t operator()(const serialize::AppId& a) const {
      std::size_t h;
      __builtin_memcpy(&h, a.data(), sizeof(h));
      return h;
    }
  };

  Mutex mu_{LockRank::kAccess};  // 590: checked before shard locks
  double rate_;
  double burst_;
  std::unordered_map<serialize::AppId, Bucket, AppIdHash> buckets_
      GUARDED_BY(mu_);
};

/// ResultStore front that enforces the policy and the limiter before
/// delegating to the trusted dictionary. GETs and probes of unauthorized or
/// throttled apps return "not found"; PUTs return kQuotaExceeded (the client
/// treats both as cache-unavailable and recomputes — correctness is
/// unaffected).
class GatedResultStore {
 public:
  GatedResultStore(ResultStore& store, AccessPolicy& policy,
                   RateLimiter* limiter = nullptr)
      : store_(store), policy_(policy), limiter_(limiter) {}

  serialize::Message dispatch_trusted(const serialize::Message& request,
                                      std::uint64_t now_ns);

  struct Stats {
    std::uint64_t denied = 0;
    std::uint64_t throttled = 0;
  };
  Stats stats() const {
    MutexLock lock(mu_);
    return stats_;
  }

 private:
  ResultStore& store_;
  AccessPolicy& policy_;
  RateLimiter* limiter_;
  mutable Mutex mu_{LockRank::kAccess};
  Stats stats_ GUARDED_BY(mu_);
};

}  // namespace speed::store
