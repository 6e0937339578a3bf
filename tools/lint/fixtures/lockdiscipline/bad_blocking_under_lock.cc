// lint-as: src/fixture/bad_blocking_under_lock.cc
// LD004: a lock held across a blocking transport call stalls every other
// thread that wants the lock for as long as the wire takes — unless the
// serialization is the documented contract (allow comment + LOCK_ORDER.md).
#include "common/annotated_lock.h"

namespace speed {

class Transportish {
 public:
  virtual ~Transportish() = default;
  virtual int round_trip(int request) = 0;
};

class Caller {
 public:
  int bad(int request) {
    MutexLock lock(mu_);
    last_ = inner_->round_trip(request);  // EXPECT: LD004
    return last_;
  }

  void bad_sleep() {
    MutexLock lock(mu_);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));  // EXPECT: LD004
  }

  // The strand contract: one in-flight exchange per connection, serialized
  // by this very lock (mirrors TcpTransport / StoreSession).
  // lockdiscipline-allow: LD004 the lock is the per-connection strand
  int sanctioned(int request) {
    MutexLock lock(mu_);
    last_ = inner_->round_trip(request);
    return last_;
  }

  int unlocked(int request) { return inner_->round_trip(request); }

 private:
  Mutex mu_{LockRank::kTransportLink};
  Transportish* inner_ = nullptr;
  int last_ GUARDED_BY(mu_) = 0;
};

}  // namespace speed
