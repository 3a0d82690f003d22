// User-level mutex built on the kernel futex (paper §4.1: "IPC support,
// aside from shared memory and gates, is limited to a memory-based futex
// synchronization primitive, on which the user-level library implements
// mutexes").
#ifndef SRC_UNIXLIB_MUTEX_H_
#define SRC_UNIXLIB_MUTEX_H_

#include "src/kernel/kernel.h"

namespace histar {

// A mutex living at byte `offset` (8-byte aligned) of a shared segment.
// States: 0 free, 1 locked, 2 locked-with-waiters — the classic three-state
// futex mutex. HiStar's library runs it on hardware atomics over mapped
// segment memory and enters the kernel only to sleep and to wake; here
// every word transition is one sys_segment_cas, atomic under the segment's
// shard lock, and the kernel is entered additionally only for the futex.
//
//   lock:   CAS 0→1. On contention, mark the word 2 (CAS 1→2 unless it
//           already is 2) and futex-wait on 2; after any wait, acquire with
//           CAS 0→2, since other waiters may still be asleep.
//   unlock: CAS 1→0. Observing 2 instead means someone may sleep: store 0
//           (CAS 2→0; only the holder moves the word off 2) and wake one.
//
// LockReq/UnlockReq hand out the first transition of each as a batch entry,
// so a caller can fuse it with its own requests in one SubmitBatch; the
// Finish* calls complete the protocol from that entry's completion.
class SegmentMutex {
 public:
  SegmentMutex(Kernel* kernel, ContainerEntry seg, uint64_t offset)
      : kernel_(kernel), seg_(seg), offset_(offset) {}

  SyscallReq LockReq() const { return SegmentCasReq{seg_, offset_, 0, 1}; }
  SyscallReq UnlockReq() const { return SegmentCasReq{seg_, offset_, 1, 0}; }

  // Returns false if the segment is inaccessible (label denial) — a thread
  // that cannot write the directory cannot take its lock (§5.1).
  bool Lock(ObjectId self) { return FinishLock(self, Cas(self, 0, 1)); }

  void Unlock(ObjectId self) { FinishUnlock(self, Cas(self, 1, 0)); }

  // Completes a lock whose CAS 0→1 ran as `first` (LockReq's completion).
  bool FinishLock(ObjectId self, const SyscallRes& first) {
    const auto* r = std::get_if<SegmentCasRes>(&first);
    if (r == nullptr || r->status != Status::kOk) {
      return false;
    }
    uint64_t c = r->observed;
    while (c != 0) {
      if (c != 2) {
        Result<uint64_t> marked = kernel_->sys_segment_cas(self, seg_, offset_, 1, 2);
        if (!marked.ok()) {
          return false;
        }
        c = marked.value();
      }
      if (c != 0) {
        kernel_->sys_futex_wait(self, seg_, offset_, 2, kWaitSliceMs);
      }
      Result<uint64_t> got = kernel_->sys_segment_cas(self, seg_, offset_, 0, 2);
      if (!got.ok()) {
        return false;
      }
      c = got.value();
    }
    return true;
  }

  // Completes an unlock whose CAS 1→0 ran as `first` (UnlockReq's
  // completion): wakes a waiter only if the word said there may be one.
  void FinishUnlock(ObjectId self, const SyscallRes& first) {
    const auto* r = std::get_if<SegmentCasRes>(&first);
    if (r == nullptr || r->status != Status::kOk || r->observed != 2) {
      return;
    }
    SyscallReq reqs[2] = {SegmentCasReq{seg_, offset_, 2, 0},
                          FutexWakeReq{seg_, offset_, 1}};
    SyscallRes res[2];
    kernel_->SubmitBatch(self, reqs, res);
  }

 private:
  // The word changes only by CAS, so no wake is lost and the timeout is a
  // backstop, not part of the protocol: a waiter that times out re-runs
  // the CAS like a woken one.
  static constexpr uint32_t kWaitSliceMs = 50;

  SyscallRes Cas(ObjectId self, uint64_t expected, uint64_t desired) {
    SyscallReq req = SegmentCasReq{seg_, offset_, expected, desired};
    SyscallRes res;
    kernel_->SubmitBatch(self, std::span<const SyscallReq>(&req, 1),
                         std::span<SyscallRes>(&res, 1));
    return res;
  }

  Kernel* kernel_;
  ContainerEntry seg_;
  uint64_t offset_;
};

}  // namespace histar

#endif  // SRC_UNIXLIB_MUTEX_H_
