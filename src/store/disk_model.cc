#include "src/store/disk_model.h"

#include <algorithm>
#include <cstring>

#include "src/core/trace.h"

namespace histar {

// Data mode allocates a page only when a write first touches it, so a 40 GB
// nominal capacity costs host memory only for the bytes the store wrote, and
// the untouched gap below a high offset (the WAL region's tail) costs none.
DiskModel::DiskModel(const DiskGeometry& geometry) : geo_(geometry) {}

uint8_t* DiskModel::PageAt(uint64_t offset) {
  std::unique_ptr<uint8_t[]>& page = pages_[offset / kPageBytes];
  if (page == nullptr) {
    page = std::make_unique<uint8_t[]>(kPageBytes);  // value-initialized: zeros
  }
  return page.get();
}

uint64_t DiskModel::AccessCost(uint64_t offset, uint64_t len, bool is_read) {
  if (geo_.zero_latency) {
    return 0;
  }
  uint64_t cost = 0;
  bool sequential = offset == head_pos_;
  bool prefetched = is_read && geo_.lookahead_enabled && offset >= head_pos_ &&
                    offset + len <= prefetch_end_;
  uint64_t distance = offset > head_pos_ ? offset - head_pos_ : head_pos_ - offset;
  uint64_t seek = distance <= geo_.near_seek_bytes ? geo_.track_seek_ns : geo_.avg_seek_ns;
  if (is_read && !geo_.lookahead_enabled) {
    // Without the drive's read lookahead, even a sequential stream of
    // separate read requests misses the sector each time and waits a full
    // revolution — the paper's "no IDE disk prefetch" row, where both
    // systems degrade to ~8.6 ms per small file.
    cost += geo_.rotation_ns;
    if (!sequential) {
      cost += seek;
      ++seek_ops_;
    }
  } else if (!sequential && !prefetched) {
    // Positioning: distance-dependent seek plus half a rotation of latency.
    cost += seek + geo_.rotation_ns / 2;
    ++seek_ops_;
  }
  // Media transfer.
  cost += len * 1'000'000'000ULL / geo_.bandwidth_bytes_per_sec;
  if (is_read && geo_.lookahead_enabled) {
    // The drive keeps streaming into its buffer after a read; subsequent
    // nearby reads are free of positioning cost.
    prefetch_end_ = offset + len + geo_.lookahead_window_bytes;
  } else if (!is_read) {
    prefetch_end_ = 0;  // writes invalidate the prefetch window
  }
  head_pos_ = offset + len;
  return cost;
}

std::optional<FaultRule> DiskModel::MatchFault(bool is_read, uint64_t offset) {
  uint64_t& index = is_read ? fault_read_index_ : fault_write_index_;
  uint64_t this_index = index++;
  for (size_t i = 0; i < fault_rules_.size(); ++i) {
    const FaultRule& r = fault_rules_[i];
    if (r.on_read != is_read) {
      continue;
    }
    if (r.op_index != FaultRule::kAnyIndex && r.op_index != this_index) {
      continue;
    }
    if (offset < r.offset_lo || offset >= r.offset_hi) {
      continue;
    }
    FaultRule fired = r;
    fault_rules_.erase(fault_rules_.begin() + static_cast<ptrdiff_t>(i));
    ++fault_counts_[static_cast<size_t>(fired.kind)];
    // Every injected fault leaves a flight-recorder event: a failing
    // campaign schedule's dump shows exactly which faults fired before
    // the oracle tripped (tests/store/fault_campaign_test.cc).
    trace::RecordEvent(trace::EventKind::kFault,
                       static_cast<uint64_t>(fired.kind), offset,
                       is_read ? 1 : 0);
    return fired;
  }
  return std::nullopt;
}

Status DiskModel::Read(uint64_t offset, void* buf, uint64_t len) {
  MutexLock lock(&mu_);
  if (crashed_) {
    return Status::kCrashed;
  }
  // Overflow-safe: `offset + len > capacity` wraps for huge offsets and
  // would turn a range error into an out-of-bounds access (the same wrap
  // the kernel's RangeOk closes on the syscall byte-range paths).
  if (offset > geo_.capacity_bytes || len > geo_.capacity_bytes - offset) {
    return Status::kRange;
  }
  std::optional<FaultRule> fault = MatchFault(/*is_read=*/true, offset);
  if (fault.has_value()) {
    switch (fault->kind) {
      case FaultKind::kReadError:
        return Status::kIoError;  // transient: nothing returned, no crash
      case FaultKind::kCrashDevice:
        crashed_ = true;
        return Status::kCrashed;
      case FaultKind::kBitFlip:
        break;  // read proceeds; the flip is applied to the returned bytes
      default:
        fault.reset();  // write-only kinds armed on reads: ignore
        break;
    }
  }
  sim_time_ns_ += AccessCost(offset, len, /*is_read=*/true);
  ++read_ops_;
  if (len != 0) {  // len == 0 legitimately pairs with a null buf
    memset(buf, 0, len);
  }
  if (geo_.store_data) {
    // Copy the pages that exist; holes stay zero from the memset above.
    for (uint64_t done = 0; done < len;) {
      uint64_t pos = offset + done;
      uint64_t n = std::min(len - done, kPageBytes - pos % kPageBytes);
      auto it = pages_.find(pos / kPageBytes);
      if (it != pages_.end()) {
        memcpy(static_cast<uint8_t*>(buf) + done, it->second.get() + pos % kPageBytes, n);
      }
      done += n;
    }
  }
  if (fault.has_value() && fault->kind == FaultKind::kBitFlip && len != 0) {
    uint64_t bit = fault->arg % (len * 8);
    static_cast<uint8_t*>(buf)[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  }
  return Status::kOk;
}

Status DiskModel::Write(uint64_t offset, const void* buf, uint64_t len) {
  MutexLock lock(&mu_);
  if (crashed_) {
    return Status::kCrashed;
  }
  if (offset > geo_.capacity_bytes || len > geo_.capacity_bytes - offset) {
    return Status::kRange;
  }
  uint64_t persist_len = len;
  bool tearing = false;
  std::optional<uint64_t> flip_bit;
  std::optional<FaultRule> fault = MatchFault(/*is_read=*/false, offset);
  if (fault.has_value()) {
    switch (fault->kind) {
      case FaultKind::kTorn:
        // Arbitrary persisted prefix, then the device is gone — unlike the
        // CrashAfterBytes tear, the prefix is the rule's choice.
        persist_len = std::min<uint64_t>(fault->arg, len);
        tearing = true;
        break;
      case FaultKind::kMisdirect: {
        // The payload lands `arg` bytes away — silently: kOk is reported
        // and the intended extent keeps its old contents.
        uint64_t bad = offset + (fault->arg % std::max<uint64_t>(geo_.capacity_bytes, 1));
        if (bad > geo_.capacity_bytes || len > geo_.capacity_bytes - bad) {
          bad = (bad % std::max<uint64_t>(geo_.capacity_bytes - len + 1, 1));
        }
        offset = bad;
        break;
      }
      case FaultKind::kBitFlip:
        if (len != 0) {
          flip_bit = fault->arg % (len * 8);
        }
        break;
      case FaultKind::kWriteError:
        return Status::kIoError;  // transient controller error: nothing hit media
      case FaultKind::kCrashDevice:
        crashed_ = true;
        return Status::kCrashed;  // crash BEFORE the op: nothing persisted
      case FaultKind::kReadError:
        break;  // read-only kind armed on writes: ignore
    }
  }
  if (crash_armed_) {
    if (len >= crash_after_) {
      persist_len = std::min(persist_len, crash_after_);
      tearing = true;
    } else {
      crash_after_ -= len;
    }
  }
  sim_time_ns_ += AccessCost(offset, persist_len, /*is_read=*/false);
  if (!geo_.zero_latency) {
    sim_time_ns_ += geo_.write_request_overhead_ns;
  }
  ++write_ops_;
  ++writes_since_flush_;
  bytes_written_ += persist_len;
  if (geo_.store_data) {
    for (uint64_t done = 0; done < persist_len;) {
      uint64_t pos = offset + done;
      uint64_t n = std::min(persist_len - done, kPageBytes - pos % kPageBytes);
      memcpy(PageAt(pos) + pos % kPageBytes, static_cast<const uint8_t*>(buf) + done, n);
      done += n;
    }
    if (flip_bit.has_value() && flip_bit.value() / 8 < persist_len) {
      // Durable silent corruption: the media holds the flipped bit while
      // the op reports success.
      uint64_t pos = offset + flip_bit.value() / 8;
      PageAt(pos)[pos % kPageBytes] ^= static_cast<uint8_t>(1u << (flip_bit.value() % 8));
    }
  }
  if (tearing) {
    crashed_ = true;
    crash_armed_ = false;
    return Status::kCrashed;
  }
  return Status::kOk;
}

Status DiskModel::Flush() {
  MutexLock lock(&mu_);
  if (crashed_) {
    return Status::kCrashed;
  }
  if (!geo_.zero_latency && writes_since_flush_ > 0) {
    sim_time_ns_ += geo_.sync_barrier_ns;
    // A barrier forces the queue to the platter and loses positioning: the
    // next access repositions (seek + rotation) even if logically
    // sequential. This is what makes per-file-sync workloads pay a full
    // mechanical round trip per operation (Figure 12's 459 s row).
    head_pos_ = ~uint64_t{0};
    prefetch_end_ = 0;
  }
  writes_since_flush_ = 0;
  return Status::kOk;
}

uint64_t DiskModel::sim_time_ns() const {
  MutexLock lock(&mu_);
  return sim_time_ns_;
}

void DiskModel::ResetSimTime() {
  MutexLock lock(&mu_);
  sim_time_ns_ = 0;
  read_ops_ = 0;
  write_ops_ = 0;
  bytes_written_ = 0;
  seek_ops_ = 0;
}

void DiskModel::CrashAfterBytes(uint64_t n) {
  MutexLock lock(&mu_);
  crash_armed_ = true;
  crash_after_ = n;
}

void DiskModel::Repair() {
  MutexLock lock(&mu_);
  crashed_ = false;
  crash_armed_ = false;
}

void DiskModel::SetFaultPlan(FaultPlan plan) {
  MutexLock lock(&mu_);
  fault_rules_ = std::move(plan.rules);
  fault_read_index_ = 0;
  fault_write_index_ = 0;
}

void DiskModel::ClearFaults() {
  MutexLock lock(&mu_);
  fault_rules_.clear();
}

uint64_t DiskModel::faults_injected() const {
  MutexLock lock(&mu_);
  uint64_t total = 0;
  for (uint64_t c : fault_counts_) {
    total += c;
  }
  return total;
}

uint64_t DiskModel::faults_injected(FaultKind kind) const {
  MutexLock lock(&mu_);
  return fault_counts_[static_cast<size_t>(kind)];
}

size_t DiskModel::pending_faults() const {
  MutexLock lock(&mu_);
  return fault_rules_.size();
}

}  // namespace histar
