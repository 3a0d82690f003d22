// A latency-modeled virtual disk.
//
// The paper's evaluation ran on a 7,200 RPM Seagate ST340014A EIDE drive
// (8.3 ms rotational period, ~58 MB/s sustained bandwidth). We reproduce the
// I/O-bound rows of Figure 12 on a virtual-time model of that drive: every
// read/write advances a simulated-nanosecond clock by seek + rotation +
// transfer, with sequential accesses paying transfer cost only and an
// optional read-lookahead window emulating the drive's prefetch cache (the
// paper's "no IDE disk prefetch" row is this flag turned off).
//
// Two storage modes:
//  * data mode: bytes are stored in memory, in fixed 4 KiB pages allocated
//    on first write; host memory grows with the pages written, never with
//    the highest offset (used by tests, recovery and the store benches)
//  * latency-only mode: bytes are discarded; only the clock advances (saves
//    memory only for benches that write hundreds of MB)
#ifndef SRC_STORE_DISK_MODEL_H_
#define SRC_STORE_DISK_MODEL_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/core/status.h"
#include "src/core/sync.h"
#include "src/core/thread_annotations.h"

namespace histar {

struct DiskGeometry {
  uint64_t capacity_bytes = 40ULL << 30;        // 40 GB
  uint64_t avg_seek_ns = 8'500'000;             // 8.5 ms average seek
  // Short head movements (within a few tracks) settle much faster than the
  // capacity-average seek; nearby extents therefore cost ~1 ms, not 8.5 ms.
  uint64_t track_seek_ns = 1'000'000;
  uint64_t near_seek_bytes = 32 << 20;          // "nearby" radius
  uint64_t rotation_ns = 8'333'333;             // 8.33 ms per revolution (7200 RPM)
  uint64_t bandwidth_bytes_per_sec = 58'000'000;  // sustained media rate
  uint64_t lookahead_window_bytes = 256 * 1024;   // drive prefetch reach
  bool lookahead_enabled = true;
  // Cost of a synchronous barrier (Flush) when writes are outstanding: the
  // time until the sector passes under the head and the drive acknowledges.
  uint64_t sync_barrier_ns = 8'333'333;  // one rotation
  // Per-request setup cost charged to every write (controller/DMA setup and
  // completion). This is what separates block-granular writeback (ext3
  // submits one request per 4 kB block) from extent-granular writeback
  // (HiStar submits one request per object image) — the paper's explanation
  // for ext3's slower large-file streaming.
  uint64_t write_request_overhead_ns = 64'000;
  // If false, latency-only mode: contents are not retained.
  bool store_data = true;
  // If true, every operation costs zero simulated time (unit tests).
  bool zero_latency = false;
};

// Programmable fault injection (PR 7). A FaultPlan is a list of one-shot
// rules; each rule targets reads or writes and fires on the first operation
// whose index-since-arming and offset range both match. Kinds:
//  * kTorn        (write) persist only the first `arg` bytes, then the
//                 device crashes — a torn write with an ARBITRARY prefix,
//                 unlike CrashAfterBytes' byte-budget tear
//  * kMisdirect   (write) the full payload silently lands `arg` bytes away
//                 from the requested offset; the op reports kOk (the disk
//                 lies — firmware misdirected write)
//  * kBitFlip     (write) persist with bit `arg mod len*8` inverted, report
//                 kOk; (read) return the true data with that bit inverted —
//                 durable vs transient silent corruption
//  * kReadError   (read) fail with kIoError, returning nothing; transient
//                 (the rule is consumed, a retry succeeds)
//  * kWriteError  (write) fail with kIoError, persisting nothing
//  * kCrashDevice (either) the device crashes before performing the op
// Rules are consumed on firing; per-kind counters record what actually
// fired so campaigns can assert coverage. ClearFaults() drops unfired
// rules; Repair() keeps its historical meaning (clear the crashed state,
// contents survive) and does NOT touch the plan.
enum class FaultKind : uint8_t {
  kTorn = 0,
  kMisdirect,
  kBitFlip,
  kReadError,
  kWriteError,
  kCrashDevice,
};
inline constexpr size_t kNumFaultKinds = 6;

struct FaultRule {
  FaultKind kind = FaultKind::kCrashDevice;
  bool on_read = false;      // match reads (true) or writes (false)
  // Operation index, counted per direction from SetFaultPlan (0 = the next
  // matching op). kAnyIndex fires on the first op in the offset range.
  static constexpr uint64_t kAnyIndex = ~uint64_t{0};
  uint64_t op_index = kAnyIndex;
  // Offset window [offset_lo, offset_hi) the op's start offset must fall in.
  uint64_t offset_lo = 0;
  uint64_t offset_hi = ~uint64_t{0};
  // Kind-specific: torn prefix length / misdirect delta / bit index.
  uint64_t arg = 0;
};

struct FaultPlan {
  std::vector<FaultRule> rules;
};

class DiskModel {
 public:
  explicit DiskModel(const DiskGeometry& geometry);

  // Reads `len` bytes at `offset`. In latency-only mode the buffer is
  // zero-filled. Returns kRange past capacity, kCrashed after a simulated
  // crash point has been hit.
  Status Read(uint64_t offset, void* buf, uint64_t len);
  // Writes `len` bytes. In a torn-write crash, a prefix may be persisted.
  Status Write(uint64_t offset, const void* buf, uint64_t len);
  // Barrier: every write issued before it is durable when it returns, and
  // no write issued after it lands before them. Writes between two barriers
  // carry no order of their own: a device may persist any subset of them,
  // so a commit that puts several writes under one barrier must detect the
  // ones that never landed (the store checks checksums, node seals and
  // epochs at recovery). The model persists writes in issue order, which
  // the contract allows. Charges sync_barrier_ns when writes are
  // outstanding and loses the head position. (The EIDE write cache of the
  // paper's OpenBSD footnote is out of scope.)
  Status Flush();

  // Simulated time consumed so far, in nanoseconds.
  uint64_t sim_time_ns() const;
  double sim_time_seconds() const { return static_cast<double>(sim_time_ns()) / 1e9; }
  void ResetSimTime();

  // Operation counters for benchmarks and tests. Locked: a bench thread may
  // poll them while store worker threads are mid-write (these used to read
  // the counters bare — a data race the annotation pass surfaced).
  uint64_t read_ops() const {
    MutexLock lock(&mu_);
    return read_ops_;
  }
  uint64_t write_ops() const {
    MutexLock lock(&mu_);
    return write_ops_;
  }
  uint64_t bytes_written() const {
    MutexLock lock(&mu_);
    return bytes_written_;
  }
  // Operations that paid a mechanical positioning cost (seek + rotational
  // latency) — the restore-path benchmarks' "how sequential was that" metric.
  uint64_t seek_ops() const {
    MutexLock lock(&mu_);
    return seek_ops_;
  }
  // Host bytes backing the disk image: pages held times kPageBytes (0 in
  // latency-only mode).
  uint64_t resident_bytes() const {
    MutexLock lock(&mu_);
    return pages_.size() * kPageBytes;
  }

  // Crash injection: after `n` more bytes have been written, fail every
  // subsequent operation with kCrashed; the write that crosses the boundary
  // persists only its first bytes (a torn write).
  void CrashAfterBytes(uint64_t n);
  // Clears the crash condition (the machine "reboots"; contents survive).
  void Repair();
  bool crashed() const {
    MutexLock lock(&mu_);
    return crashed_;
  }

  // Installs a fault plan (replacing any previous one) and resets the
  // per-direction op counters rules match against.
  void SetFaultPlan(FaultPlan plan);
  // Drops unfired rules. Does not clear a crash the plan already caused.
  void ClearFaults();
  // Rules that have fired since construction, total and per kind.
  uint64_t faults_injected() const;
  uint64_t faults_injected(FaultKind kind) const;
  // Unfired rules still armed (campaigns: did the scheduled fault fire?).
  size_t pending_faults() const;

  // geo_ is configuration: written only by the constructor and
  // set_lookahead_enabled (now under mu_ — it used to race AccessCost's
  // reads), read everywhere. The returned reference outlives the lock, so
  // callers treat the geometry as settle-then-read configuration.
  const DiskGeometry& geometry() const { return geo_; }
  void set_lookahead_enabled(bool on) {
    MutexLock lock(&mu_);
    geo_.lookahead_enabled = on;
  }

 private:
  // Service-time model, mu_ held.
  uint64_t AccessCost(uint64_t offset, uint64_t len, bool is_read) REQUIRES(mu_);
  // Pops the first armed rule matching this op (mu_ held); counts the fire.
  std::optional<FaultRule> MatchFault(bool is_read, uint64_t offset) REQUIRES(mu_);
  // The page holding byte `offset`, allocated zeroed on first touch (mu_ held).
  uint8_t* PageAt(uint64_t offset) REQUIRES(mu_);

  static constexpr uint64_t kPageBytes = 4096;

  DiskGeometry geo_;
  mutable Mutex mu_;
  // Data-mode disk image, keyed by page index; absent pages read as zeros.
  std::unordered_map<uint64_t, std::unique_ptr<uint8_t[]>> pages_ GUARDED_BY(mu_);
  uint64_t sim_time_ns_ GUARDED_BY(mu_) = 0;
  uint64_t head_pos_ GUARDED_BY(mu_) = 0;       // byte offset the head is "at"
  uint64_t prefetch_end_ GUARDED_BY(mu_) = 0;   // end of the lookahead window
  uint64_t read_ops_ GUARDED_BY(mu_) = 0;
  uint64_t write_ops_ GUARDED_BY(mu_) = 0;
  uint64_t writes_since_flush_ GUARDED_BY(mu_) = 0;
  uint64_t bytes_written_ GUARDED_BY(mu_) = 0;
  uint64_t seek_ops_ GUARDED_BY(mu_) = 0;
  bool crash_armed_ GUARDED_BY(mu_) = false;
  uint64_t crash_after_ GUARDED_BY(mu_) = 0;
  bool crashed_ GUARDED_BY(mu_) = false;

  // Fault plan state: armed rules plus the per-direction op indices counted
  // from the most recent SetFaultPlan.
  std::vector<FaultRule> fault_rules_ GUARDED_BY(mu_);
  uint64_t fault_read_index_ GUARDED_BY(mu_) = 0;
  uint64_t fault_write_index_ GUARDED_BY(mu_) = 0;
  uint64_t fault_counts_[kNumFaultKinds] GUARDED_BY(mu_) = {};
};

}  // namespace histar

#endif  // SRC_STORE_DISK_MODEL_H_
