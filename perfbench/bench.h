// Shared pieces of the repo benchmark: the per-round result a workload
// returns, the sample statistics, the liveness watchdog, and the outside-in
// readers of each layer's public counters.
//
// A run is a sequence of fixed-count rounds. Every round boots a fresh
// world, runs the same seed-generated operations, and tears the world down,
// so per-operation cost (which grows with history: the spawner's label,
// directory size) is the same in every round and on every commit. The run
// repeats rounds until --seconds have passed and reports medians across
// rounds. RATIONALE.md gives the reasons.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/kernel/kernel.h"

namespace perfbench {

using histar::Status;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// splitmix64: every input of a round is drawn from this, seeded by --seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t s_;
};

// Deterministic file contents: `len` bytes from a key.
inline std::vector<uint8_t> Bytes(uint64_t key, size_t len) {
  std::vector<uint8_t> out(len);
  Rng r(key);
  for (size_t i = 0; i < len; i += 8) {
    uint64_t v = r.Next();
    for (size_t j = 0; j < 8 && i + j < len; ++j) {
      out[i + j] = static_cast<uint8_t>(v >> (8 * j));
    }
  }
  return out;
}

inline uint64_t Fnv(const uint8_t* p, size_t n, uint64_t h = 1469598103934665603ULL) {
  for (size_t i = 0; i < n; ++i) {
    h = (h ^ p[i]) * 1099511628211ULL;
  }
  return h;
}

// ---- per-layer metric --------------------------------------------------------

// Every per-layer metric, in BENCHMARK.json order, with its unit. Both
// workloads print all of them; a layer a workload does not reach reads 0.
// `repeatable` marks the fs_durable counts that must repeat exactly for one
// seed. run.py checks the printed names and units against BENCHMARK.json.
struct LayerMetric {
  const char* name;
  const char* unit;
  bool repeatable = false;
};
inline constexpr LayerMetric kLayerMetrics[] = {
    {"store.disk.sim_ms_per_sync", "ms"},
    {"store.disk.write_ops_per_sync", "count/sync", true},
    {"store.disk.seeks_per_sync", "count/sync"},
    {"store.write_amp", "ratio"},
    {"store.checkpoint.host_ms", "ms"},
    {"store.recover.read_ops", "count"},
    {"store.recover.seeks", "count", true},
    {"store.recover.sim_ms", "ms"},
    {"store.chain_length_end", "count"},
    {"store.chain_folds", "count"},
    {"store.log_records", "count"},
    {"kernel.syscalls_per_op", "count/op", true},
    {"kernel.objtable.lock_acq_per_op", "count/op"},
    {"kernel.objects_live_end", "count"},
    {"kernel.syscall.segment_read.n", "count"},
    {"kernel.syscall.segment_read.us", "us"},
    {"kernel.syscall.segment_write.n", "count"},
    {"kernel.syscall.segment_write.us", "us"},
    {"kernel.syscall.futex_wait.n", "count"},
    {"kernel.syscall.futex_wait.us", "us"},
    {"kernel.syscall.futex_wake.n", "count"},
    {"kernel.syscall.futex_wake.us", "us"},
    {"kernel.syscall.container_create.n", "count"},
    {"kernel.syscall.container_create.us", "us"},
    {"kernel.syscall.container_unref.n", "count"},
    {"kernel.syscall.container_unref.us", "us"},
    {"kernel.syscall.gate_invoke.n", "count"},
    {"kernel.syscall.gate_invoke.us", "us"},
    {"kernel.syscall.thread_create.n", "count"},
    {"kernel.syscall.thread_create.us", "us"},
    {"kernel.syscall.sync.n", "count"},
    {"kernel.syscall.sync.us", "us"},
    {"core.registry.labels_interned", "count", true},
    {"core.registry.memo_hit_ratio", "ratio"},
    {"core.registry.lookups_per_op", "count/op"},
    {"core.registry.lock_acq_per_op", "count/op"},
    {"core.label.driver_categories", "count"},
    {"unixlib.fs.Create.self_us", "us"},
    {"unixlib.fs.Lookup.self_us", "us"},
    {"unixlib.fs.ReadAt.self_us", "us"},
    {"unixlib.fs.WriteAt.self_us", "us"},
    {"unixlib.fs.Unlink.self_us", "us"},
    {"unixlib.fs.ReadDir.self_us", "us"},
    {"unixlib.fs.SyncFile.self_us", "us"},
    {"unixlib.proc.Spawn.self_us", "us"},
    {"unixlib.proc.Wait.self_us", "us"},
    {"unixlib.proc.Destroy.self_us", "us"},
    {"unixlib.proc.driver_busy_ratio", "ratio"},
    {"bench.span_coverage", "ratio"},
    {"bench.trace_overhead_ratio", "ratio"},
};

inline bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

struct LayerValue {
  double value = 0;
  std::string base;  // for ratios: "numerator / denominator", printed beside
};

// What one fixed-count round measured.
struct RoundResult {
  double setup_s = 0;
  double wall_s = 0;  // host wall time of the measured phase
  uint64_t ops = 0;   // workload operations completed in the measured phase
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // first few failure descriptions
  // Latency samples per series ("create_us", "op_ms", ...).
  std::map<std::string, std::vector<double>> samples;
  // One value per round ("ops_per_s", "recover_s", ...).
  std::map<std::string, double> scalars;
  // Per-layer values, filled in traced rounds only.
  std::map<std::string, LayerValue> layer;

  // Counts a checked call; returns whether it succeeded. The description is
  // built only on failure, so checks cost nothing inside timed operations.
  bool Check(bool ok, const char* what, const std::string& detail = "") {
    ++attempted;
    if (!ok) {
      ++failed;
      if (errors.size() < 8) {
        errors.push_back(std::string(what) + (detail.empty() ? "" : ": " + detail));
      }
    }
    return ok;
  }
  bool Check(Status st, const char* what) {
    return st == Status::kOk ? Check(true, what)
                             : Check(false, what, std::string(histar::StatusName(st)));
  }
};

struct RoundCtx {
  uint64_t seed = 0;
  bool traced = false;
  class Watchdog* watchdog = nullptr;
};

// ---- statistics ----------------------------------------------------------------

inline double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// The tail of a round: the highest percentile that still has at least ten
// samples beyond it among a round's `per_round` samples, i.e. percentile
// 100 * (per_round - 10) / per_round. Every round does the same work, so the
// percentile is the same on every commit. Its value is read from the samples
// of all rounds pooled, which keeps ten or more samples beyond it per round.
struct Tail {
  double value = 0;
  double pct = 0;
};
inline Tail PooledTail(std::vector<double> pooled, size_t per_round) {
  Tail t;
  if (per_round < 11 || pooled.empty()) {
    return t;
  }
  std::sort(pooled.begin(), pooled.end());
  t.pct = 100.0 * static_cast<double>(per_round - 10) / static_cast<double>(per_round);
  size_t rank = static_cast<size_t>(std::ceil(t.pct / 100.0 * static_cast<double>(pooled.size())));
  t.value = pooled[std::clamp<size_t>(rank, 1, pooled.size()) - 1];
  return t;
}

// ---- liveness watchdog -----------------------------------------------------------
//
// Every operation runs inside a lane with a deadline. A lane is one caller:
// lane 0 is the driver, lanes 1.. are par_jobs job slots. A thread polls the
// lanes; an operation past its deadline is a stall: the watchdog counts it
// as failed, prints the workload, op and seed, writes the flight recorder
// with trace::DumpToFile, and ends the process with kStallExit — a hung
// thread cannot be joined, so exiting is the only way not to hang.
inline constexpr int kStallExit = 3;

class Watchdog {
 public:
  static constexpr size_t kLanes = 64;

  Watchdog(std::string workload, uint64_t seed, std::string dump_path)
      : workload_(std::move(workload)),
        seed_(seed),
        dump_path_(std::move(dump_path)),
        thread_([this] { Loop(); }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void Begin(size_t lane, const char* op, double deadline_s) {
    Lane& l = lanes_[lane % kLanes];
    l.op.store(op, std::memory_order_relaxed);
    l.deadline_ns.store(NowNs() + static_cast<uint64_t>(deadline_s * 1e9),
                        std::memory_order_release);
  }
  void End(size_t lane) { lanes_[lane % kLanes].deadline_ns.store(0, std::memory_order_release); }

 private:
  struct Lane {
    std::atomic<uint64_t> deadline_ns{0};
    std::atomic<const char*> op{nullptr};
  };

  void Loop();

  std::string workload_;
  uint64_t seed_;
  std::string dump_path_;
  Lane lanes_[kLanes];
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;  // last: starts after every member it reads
};

// Scoped deadline on one lane.
class Deadline {
 public:
  Deadline(Watchdog* wd, size_t lane, const char* op, double seconds) : wd_(wd), lane_(lane) {
    if (wd_ != nullptr) {
      wd_->Begin(lane_, op, seconds);
    }
  }
  ~Deadline() {
    if (wd_ != nullptr) {
      wd_->End(lane_);
    }
  }
  Deadline(const Deadline&) = delete;
  Deadline& operator=(const Deadline&) = delete;

 private:
  Watchdog* wd_;
  size_t lane_;
};

// ---- layer counters read from outside --------------------------------------------
//
// Everything here reads public accessors; nothing is added inside src/.

// The syscall kinds whose flight-recorder histograms are reported.
inline const char* const kHistKinds[] = {
    "segment_read",     "segment_write",   "futex_wait",  "futex_wake", "container_create",
    "container_unref",  "gate_invoke",     "thread_create", "sync"};
inline constexpr size_t kNumHistKinds = sizeof(kHistKinds) / sizeof(kHistKinds[0]);

// Count and approximate total time (bucket midpoints) per reported kind,
// summed over every recorder slot.
struct SyscallHist {
  uint64_t n[kNumHistKinds] = {};
  double us[kNumHistKinds] = {};
  static SyscallHist Read();
  SyscallHist Minus(const SyscallHist& before) const {
    SyscallHist d;
    for (size_t i = 0; i < kNumHistKinds; ++i) {
      d.n[i] = n[i] - before.n[i];
      d.us[i] = us[i] - before.us[i];
    }
    return d;
  }
};

// Kernel and registry counters of one kernel instance.
struct KernelCounters {
  uint64_t syscalls = 0;
  uint64_t table_locks = 0;
  uint64_t memo_hits = 0;
  uint64_t memo_misses = 0;
  uint64_t registry_locks = 0;
  static KernelCounters Read(histar::Kernel& k) {
    KernelCounters c;
    c.syscalls = k.syscall_count();
    c.table_locks = k.object_table().lock_acquisitions();
    c.memo_hits = k.label_registry().hits();
    c.memo_misses = k.label_registry().misses();
    c.registry_locks = k.label_registry().lock_acquisitions();
    return c;
  }
};

// Turns on the shared-atomic lock accounting; traced rounds only.
inline void EnableLockAccounting(histar::Kernel& k) {
  k.object_table().set_lock_accounting(true);
  k.label_registry().set_lock_accounting(true);
}

// Fills the kernel and core per-layer metrics for a measured phase of
// `ops` operations that ran between `before` and the current state of `k`,
// with `init` as the driver thread.
void FillKernelLayers(histar::Kernel& k, histar::ObjectId init, const KernelCounters& before,
                      const SyscallHist& hist_before, uint64_t ops, RoundResult* r);

// Zero values for every store metric (workloads without a store).
void FillAbsentStoreLayers(RoundResult* r);

// Peak resident set of this process, in MB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
