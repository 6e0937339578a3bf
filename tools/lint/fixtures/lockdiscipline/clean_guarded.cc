// lint-as: src/fixture/clean_guarded.cc
// Clean control: the sanctioned patterns must produce zero findings, proving
// the harness is not vacuously flagging every lock in sight.
#include "common/annotated_lock.h"

namespace speed {

class CleanCounter {
 public:
  void bump() {
    MutexLock lock(mu_);
    ++value_;
  }

  std::uint64_t read() const {
    MutexLock lock(mu_);
    return value_;
  }

  // Correct nesting: 200 is held, then 510 is acquired — strictly ascending.
  void ascend() {
    MutexLock outer(low_mu_);
    MutexLock inner(mu_);
    ++value_;
  }

  // The wait releases the lock, so a CV wait under a guard is not LD004.
  void wait_ready() {
    MutexLock lock(mu_);
    while (value_ == 0) cv_.wait(mu_);
  }

 private:
  Mutex low_mu_{LockRank::kRuntimeChannel};
  mutable Mutex mu_{LockRank::kTransportLink};
  CondVar cv_;
  std::uint64_t value_ GUARDED_BY(mu_) = 0;
};

}  // namespace speed
