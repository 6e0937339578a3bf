// Capability-annotated locks with a global acquisition-order (rank) check.
//
// Every mutex in this codebase is a speed::Mutex (or speed::SharedMutex)
// constructed with an explicit LockRank. Two independent mechanisms make
// lock discipline a checked property instead of a convention:
//
//   * Clang Thread Safety Analysis (compile time). Under clang the wrapper
//     types carry `capability` attributes and the GUARDED_BY / REQUIRES /
//     ACQUIRE / RELEASE macros expand to the corresponding annotations, so
//     `-Wthread-safety -Wthread-safety-beta` (wired as -Werror in CI via
//     SPEED_WERROR) rejects unlocked access to guarded fields and calls to
//     *_locked methods without their lock. On non-clang compilers every
//     macro expands to nothing and the wrappers degrade to thin shims over
//     std::mutex / std::shared_mutex — zero overhead, zero semantic change.
//
//   * LockRank ordering (run time, SPEED_LOCK_RANK_CHECK builds). Locks may
//     only be acquired in strictly increasing rank order per thread; a
//     violation calls the rank-violation handler (default: report + abort).
//     Any interleaving that would need ranks to decrease is a potential
//     deadlock cycle, so a clean run of the suite is evidence the documented
//     order in docs/LOCK_ORDER.md is acyclic — deadlock freedom by
//     construction. The canonical rank table lives in docs/LOCK_ORDER.md;
//     tools/lint/lockdiscipline.py keeps this enum and that table in sync.
//
// Condition variables: use speed::CondVar (std::condition_variable_any) and
// wait on the annotated Mutex directly — wait() releases/reacquires through
// Mutex::unlock()/lock(), so rank bookkeeping stays exact. Write waits as
// explicit `while (!pred) cv.wait(mu);` loops rather than the predicate
// overloads: the analysis treats a lambda as a separate function, so guarded
// fields read inside a predicate lambda would (correctly) fail to compile.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

// --------------------------------------------------------------------------
// Clang Thread Safety Analysis attribute macros (standard names, see
// https://clang.llvm.org/docs/ThreadSafetyAnalysis.html). Empty on other
// compilers.
// --------------------------------------------------------------------------

#if defined(__clang__) && (!defined(SWIG))
#define SPEED_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define SPEED_THREAD_ANNOTATION(x)  // no-op
#endif

#define CAPABILITY(x) SPEED_THREAD_ANNOTATION(capability(x))
#define SCOPED_CAPABILITY SPEED_THREAD_ANNOTATION(scoped_lockable)
#define GUARDED_BY(x) SPEED_THREAD_ANNOTATION(guarded_by(x))
#define PT_GUARDED_BY(x) SPEED_THREAD_ANNOTATION(pt_guarded_by(x))
#define ACQUIRED_BEFORE(...) SPEED_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) SPEED_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define REQUIRES(...) SPEED_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  SPEED_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) SPEED_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  SPEED_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) SPEED_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  SPEED_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define RELEASE_GENERIC(...) \
  SPEED_THREAD_ANNOTATION(release_generic_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) SPEED_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) \
  SPEED_THREAD_ANNOTATION(try_acquire_shared_capability(__VA_ARGS__))
#define EXCLUDES(...) SPEED_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) SPEED_THREAD_ANNOTATION(assert_capability(x))
#define ASSERT_SHARED_CAPABILITY(x) \
  SPEED_THREAD_ANNOTATION(assert_shared_capability(x))
#define RETURN_CAPABILITY(x) SPEED_THREAD_ANNOTATION(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS \
  SPEED_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace speed {

// --------------------------------------------------------------------------
// Lock ranks. A thread may only acquire a lock of STRICTLY greater rank than
// every lock it already holds — no exceptions, so two locks of equal rank
// are never held together. The values are the
// documented acquisition order — see docs/LOCK_ORDER.md for the full table,
// the invariants behind each gap, and the two non-obvious placements
// (telemetry registry, transport sub-ranks).
// --------------------------------------------------------------------------

enum class LockRank : std::uint16_t {
  kApp = 100,              ///< BlockStore index, mapreduce result merge
  kRuntimeChannel = 200,   ///< StoreLink::mu_ (client channel strand)
  kRuntimeAdaptive = 240,  ///< AdaptiveProfile::mu_ (standalone EMAs)
  kBatch = 300,            ///< DedupRuntime::batch_mu_ (micro-batcher)
  kTelemetryRegistry = 450,///< Registry::mu_ (held across collectors)
  kRuntimeCache = 460,     ///< DedupRuntime::cache_mu_ (hot-result LRU)
  kRuntimeQueue = 470,     ///< DedupRuntime::queue_mu_ (async PUT queue)
  kTransport = 500,        ///< ResilientTransport::mu_ (reconnect)
  kTransportInject = 505,  ///< FaultInjectingTransport::mu_ (under resilient)
  kTransportLink = 510,    ///< TcpTransport / LoopbackTransport (innermost)
  kClusterNode = 530,      ///< InprocCluster Node::mu (dialed under resilient)
  kRekeyStaging = 540,     ///< StoreLink::rekey_mu_ (staged rekey key)
  kSession = 560,          ///< StoreSession::mu_ (per-session strand)
  kAccess = 590,           ///< AccessPolicy / RateLimiter / GatedResultStore
  kStoreShard = 600,       ///< ResultStore Shard::mu (lock-striped dict)
  kStoreCluster = 620,     ///< ResultStore::cluster_mu_ (membership epoch)
  kQuota = 650,            ///< QuotaLedger Stripe::mu (inside a shard lock)
  kStoreWal = 700,         ///< ResultStore::wal_mu_ (MAC-chained WAL order)
  kBackendInject = 750,    ///< FaultInjectingBackend::mu_ (fault schedule)
  kBackend = 760,          ///< FileBackend::mu_, MemoryBackend Stripe::mu
  kBackendWal = 780,       ///< MemoryBackend::wal_mu_ (in-memory WAL tape)
  kTrace = 900,            ///< TraceRing::mu_ (span push from any context)
  kCryptoDrbg = 950,       ///< Enclave::drbg_mu_, Drbg::system_bytes
};

constexpr std::uint16_t rank_value(LockRank r) {
  return static_cast<std::uint16_t>(r);
}

/// Called on an out-of-order acquisition attempt in rank-checked builds:
/// `acquiring` is the offending lock's rank, `held` the highest rank already
/// held by this thread. The default handler prints both and aborts. Tests
/// install their own handler to assert the check fires; the handler runs
/// INSTEAD of abort, and the acquisition then proceeds (the caller is a
/// test that knows what it is doing).
using RankViolationHandler = void (*)(LockRank acquiring, LockRank held);

namespace lockdetail {

#if defined(SPEED_LOCK_RANK_CHECK)

inline std::atomic<RankViolationHandler>& violation_handler() {
  static std::atomic<RankViolationHandler> handler{nullptr};
  return handler;
}

[[noreturn]] inline void default_violation(LockRank acquiring, LockRank held) {
  std::fprintf(stderr,
               "speed: lock-rank violation: acquiring rank %u while holding "
               "rank %u (acquisition order must strictly increase; see "
               "docs/LOCK_ORDER.md)\n",
               rank_value(acquiring), rank_value(held));
  std::abort();
}

/// Per-thread multiset of held ranks. Fixed capacity: a thread that nests
/// more than kMaxHeld locks is itself a discipline bug. Unlock order may be
/// arbitrary (guard objects in containers), so release removes the newest
/// matching entry rather than popping.
struct HeldRanks {
  static constexpr std::size_t kMaxHeld = 32;
  std::uint16_t ranks[kMaxHeld];
  std::size_t depth = 0;

  std::uint16_t max_held() const {
    std::uint16_t m = 0;
    for (std::size_t i = 0; i < depth; ++i) {
      if (ranks[i] > m) m = ranks[i];
    }
    return m;
  }
};

inline HeldRanks& held_ranks() {
  thread_local HeldRanks held;
  return held;
}

/// Rank check + bookkeeping for a blocking acquisition.
inline void note_acquire(LockRank rank) {
  HeldRanks& held = held_ranks();
  if (held.depth > 0) {
    const std::uint16_t top = held.max_held();
    if (top >= rank_value(rank)) {
      RankViolationHandler handler =
          violation_handler().load(std::memory_order_acquire);
      if (handler != nullptr) {
        handler(rank, static_cast<LockRank>(top));
      } else {
        default_violation(rank, static_cast<LockRank>(top));
      }
    }
  }
  if (held.depth < HeldRanks::kMaxHeld) held.ranks[held.depth] = rank_value(rank);
  ++held.depth;
}

/// Bookkeeping for a successful try-lock: no order check (a try that would
/// deadlock merely fails), but the rank still counts against later blocking
/// acquisitions.
inline void note_try_acquire(LockRank rank) {
  HeldRanks& held = held_ranks();
  if (held.depth < HeldRanks::kMaxHeld) held.ranks[held.depth] = rank_value(rank);
  ++held.depth;
}

inline void note_release(LockRank rank) {
  HeldRanks& held = held_ranks();
  if (held.depth > HeldRanks::kMaxHeld) {
    // Deep overflow: entries past the array were not recorded; just shrink.
    --held.depth;
    return;
  }
  for (std::size_t i = held.depth; i > 0; --i) {
    if (held.ranks[i - 1] == rank_value(rank)) {
      for (std::size_t j = i - 1; j + 1 < held.depth; ++j) {
        held.ranks[j] = held.ranks[j + 1];
      }
      --held.depth;
      return;
    }
  }
  // Releasing a rank that was never noted: tolerated (handler-continued
  // tests can reach here); do not underflow.
}

#else  // !SPEED_LOCK_RANK_CHECK

inline void note_acquire(LockRank) {}
inline void note_try_acquire(LockRank) {}
inline void note_release(LockRank) {}

#endif  // SPEED_LOCK_RANK_CHECK

}  // namespace lockdetail

/// Install a rank-violation handler (tests only); returns the previous one.
/// Passing nullptr restores the default report-and-abort behavior. In
/// builds without SPEED_LOCK_RANK_CHECK this is a no-op returning nullptr.
inline RankViolationHandler set_rank_violation_handler(
    RankViolationHandler handler) {
#if defined(SPEED_LOCK_RANK_CHECK)
  return lockdetail::violation_handler().exchange(handler,
                                                  std::memory_order_acq_rel);
#else
  (void)handler;
  return nullptr;
#endif
}

/// True when this build enforces rank order at run time.
constexpr bool lock_rank_check_enabled() {
#if defined(SPEED_LOCK_RANK_CHECK)
  return true;
#else
  return false;
#endif
}

// --------------------------------------------------------------------------
// Annotated mutex types.
// --------------------------------------------------------------------------

class CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(LockRank rank) noexcept : rank_(rank) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() {
    lockdetail::note_acquire(rank_);
    mu_.lock();
  }

  void unlock() RELEASE() {
    mu_.unlock();
    lockdetail::note_release(rank_);
  }

  bool try_lock() TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    lockdetail::note_try_acquire(rank_);
    return true;
  }

  LockRank rank() const { return rank_; }

  /// Tell the analysis this capability is held — for code whose acquisition
  /// the analysis cannot track (a lambda or ECALL body run under the
  /// caller's lock). Purely a compile-time fact; no runtime effect.
  void assert_held() const ASSERT_CAPABILITY(this) {}

 private:
  std::mutex mu_;
  const LockRank rank_;
};

class CAPABILITY("shared_mutex") SharedMutex {
 public:
  explicit SharedMutex(LockRank rank) noexcept : rank_(rank) {}
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() ACQUIRE() {
    lockdetail::note_acquire(rank_);
    mu_.lock();
  }

  void unlock() RELEASE() {
    mu_.unlock();
    lockdetail::note_release(rank_);
  }

  void lock_shared() ACQUIRE_SHARED() {
    lockdetail::note_acquire(rank_);
    mu_.lock_shared();
  }

  void unlock_shared() RELEASE_SHARED() {
    mu_.unlock_shared();
    lockdetail::note_release(rank_);
  }

  bool try_lock() TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    lockdetail::note_try_acquire(rank_);
    return true;
  }

  bool try_lock_shared() TRY_ACQUIRE_SHARED(true) {
    if (!mu_.try_lock_shared()) return false;
    lockdetail::note_try_acquire(rank_);
    return true;
  }

  LockRank rank() const { return rank_; }

  void assert_held() const ASSERT_CAPABILITY(this) {}

 private:
  std::shared_mutex mu_;
  const LockRank rank_;
};

// --------------------------------------------------------------------------
// Scoped guards.
// --------------------------------------------------------------------------

/// Exclusive RAII guard (the std::lock_guard shape).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Shared (reader) RAII guard over a SharedMutex.
class SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.lock_shared();
  }
  ~ReaderLock() RELEASE_GENERIC() { mu_.unlock_shared(); }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Exclusive writer guard over a SharedMutex.
class SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~WriterLock() RELEASE() { mu_.unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Guard with a mid-scope release/reacquire window (the std::unique_lock
/// shape the micro-batcher leader needs: drop the rendezvous lock across
/// the wire round trip, retake it to publish replies).
class SCOPED_CAPABILITY ScopedLock {
 public:
  explicit ScopedLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }

  ~ScopedLock() RELEASE() {
    if (held_) mu_.unlock();
  }

  void unlock() RELEASE() {
    mu_.unlock();
    held_ = false;
  }

  void lock() ACQUIRE() {
    mu_.lock();
    held_ = true;
  }

  ScopedLock(const ScopedLock&) = delete;
  ScopedLock& operator=(const ScopedLock&) = delete;

 private:
  Mutex& mu_;
  bool held_ = true;
};

/// Condition variable usable with the annotated Mutex: wait(mu) releases and
/// reacquires through the annotated lock()/unlock(), keeping rank
/// bookkeeping exact. The analysis treats the capability as held across the
/// wait (the abseil CondVar convention).
using CondVar = std::condition_variable_any;

}  // namespace speed
