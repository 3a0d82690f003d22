// Fixture: the two-call compare-and-swap SegmentMutex once shipped — must
// trip segment-word-rmw. Load reads the mutex word and StoreChecked writes
// it back in a separate kernel call, so two waiters can interleave: a lost
// wake-up leaves the word at 2 with no holder, and every thread then sleeps
// out its futex timeout forever.
#include "src/kernel/kernel.h"

namespace histar {

class SegmentMutex {
 public:
  SegmentMutex(Kernel* kernel, ContainerEntry seg, uint64_t offset)
      : kernel_(kernel), seg_(seg), offset_(offset) {}

  bool Lock(ObjectId self) {
    for (;;) {
      uint64_t expected = 0;
      if (CompareExchange(self, 0, 1, &expected)) {
        return true;
      }
      if (expected == ~uint64_t{0}) {
        return false;
      }
      uint64_t observed;
      if (!CompareExchange(self, 1, 2, &observed) && observed == 0) {
        continue;
      }
      kernel_->sys_futex_wait(self, seg_, offset_, 2, 50);
    }
  }

  void Unlock(ObjectId self) {
    uint64_t v = Load(self);
    Store(self, 0);
    if (v == 2) {
      kernel_->sys_futex_wake(self, seg_, offset_, 1);
    }
  }

 private:
  bool CompareExchange(ObjectId self, uint64_t want, uint64_t to, uint64_t* observed) {
    uint64_t v = Load(self);
    *observed = v;
    if (v != want) {
      return false;
    }
    if (!StoreChecked(self, to)) {
      *observed = ~uint64_t{0};
      return false;
    }
    return true;
  }

  uint64_t Load(ObjectId self) {
    uint64_t v = ~uint64_t{0};
    if (kernel_->sys_segment_read(self, seg_, &v, offset_, 8) != Status::kOk) {
      return ~uint64_t{0};
    }
    return v;
  }

  void Store(ObjectId self, uint64_t v) { (void)StoreChecked(self, v); }

  bool StoreChecked(ObjectId self, uint64_t v) {
    return kernel_->sys_segment_write(self, seg_, &v, offset_, 8) == Status::kOk;  // BAD
  }

  Kernel* kernel_;
  ContainerEntry seg_;
  uint64_t offset_;
};

// The same race inside one free function.
void BumpCounter(Kernel* k, ObjectId self, ContainerEntry seg) {
  uint64_t n = 0;
  k->sys_segment_read(self, seg, &n, 16, 8);
  ++n;
  k->sys_segment_write(self, seg, &n, 16, 8);  // BAD
}

}  // namespace histar
