// Fixture: segment words change by sys_segment_cas — segment-word-rmw must
// stay quiet. The mutex is the three-state futex mutex on the CAS call.
// Decoys: a read and a write of the same word in comments and strings, a
// read of the whole header with a write of one other word (the pipe
// cursor commit), and a read helper and a write helper that are separate
// functions.
#include "src/kernel/kernel.h"

namespace histar {

class SegmentMutex {
 public:
  SegmentMutex(Kernel* kernel, ContainerEntry seg, uint64_t offset)
      : kernel_(kernel), seg_(seg), offset_(offset) {}

  bool Lock(ObjectId self) {
    Result<uint64_t> c = kernel_->sys_segment_cas(self, seg_, offset_, 0, 1);
    while (c.ok() && c.value() != 0) {
      if (c.value() != 2) {
        c = kernel_->sys_segment_cas(self, seg_, offset_, 1, 2);
        if (!c.ok()) {
          break;
        }
      }
      if (c.value() != 0) {
        kernel_->sys_futex_wait(self, seg_, offset_, 2, 50);
      }
      c = kernel_->sys_segment_cas(self, seg_, offset_, 0, 2);
    }
    return c.ok();
  }

  void Unlock(ObjectId self) {
    // Not: sys_segment_read(self, seg_, &v, offset_, 8) then
    // sys_segment_write(self, seg_, &v, offset_, 8).
    Result<uint64_t> c = kernel_->sys_segment_cas(self, seg_, offset_, 1, 0);
    if (c.ok() && c.value() == 2) {
      kernel_->sys_segment_cas(self, seg_, offset_, 2, 0);
      kernel_->sys_futex_wake(self, seg_, offset_, 1);
    }
  }

 private:
  Kernel* kernel_;
  ContainerEntry seg_;
  uint64_t offset_;
};

struct Header {
  uint64_t mutex;
  uint64_t rpos;
};

void CommitCursor(Kernel* k, ObjectId self, ContainerEntry buf, uint64_t n) {
  const char* doc = "sys_segment_write(self, buf, &h, 0, sizeof(h))";
  (void)doc;
  Header h;
  k->sys_segment_read(self, buf, &h, 0, sizeof(h));
  h.rpos += n;
  k->sys_segment_write(self, buf, &h.rpos, 8, 8);
}

uint64_t ReadWord(Kernel* k, ObjectId self, ContainerEntry seg, uint64_t off) {
  uint64_t v = 0;
  k->sys_segment_read(self, seg, &v, off, 8);
  return v;
}

void WriteWord(Kernel* k, ObjectId self, ContainerEntry seg, uint64_t off, uint64_t v) {
  k->sys_segment_write(self, seg, &v, off, 8);
}

}  // namespace histar
