#include "perfbench/bench.h"

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>

#include "src/core/trace.h"
#include "src/kernel/syscall_abi.h"

namespace perfbench {

void Watchdog::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    cv_.wait_for(lock, std::chrono::milliseconds(20));
    uint64_t now = NowNs();
    for (size_t i = 0; i < kLanes; ++i) {
      uint64_t deadline = lanes_[i].deadline_ns.load(std::memory_order_acquire);
      if (deadline == 0 || now <= deadline) {
        continue;
      }
      const char* op = lanes_[i].op.load(std::memory_order_relaxed);
      std::printf(
          "watchdog: stall: workload=%s op=%s lane=%zu seed=%llu passed its deadline; "
          "the operation counts as failed (failed=1)\n",
          workload_.c_str(), op != nullptr ? op : "?", i,
          static_cast<unsigned long long>(seed_));
      bool dumped = histar::trace::DumpToFile(dump_path_, 256);
      std::printf("watchdog: flight recorder %s %s\n", dumped ? "written to" : "NOT written to",
                  dump_path_.c_str());
      std::fflush(stdout);
      std::_Exit(kStallExit);
    }
  }
}

SyscallHist SyscallHist::Read() {
  SyscallHist h;
  for (size_t k = 0; k < kNumHistKinds; ++k) {
    for (size_t idx = 0; idx < histar::kNumSyscallKinds; ++idx) {
      if (std::string(histar::SyscallKindName(idx)) != kHistKinds[k]) {
        continue;
      }
      uint64_t buckets[histar::trace::kHistBuckets] = {};
      histar::trace::SumSyscallHist(static_cast<uint16_t>(idx), buckets);
      for (size_t b = 0; b < histar::trace::kHistBuckets; ++b) {
        // Bucket b holds [2^b, 2^(b+1)) ns; count it at its midpoint.
        double mid_ns = b == 0 ? 1.0 : 1.5 * static_cast<double>(uint64_t{1} << b);
        h.n[k] += buckets[b];
        h.us[k] += static_cast<double>(buckets[b]) * mid_ns / 1e3;
      }
    }
  }
  return h;
}

namespace {

std::string Base(uint64_t num, const char* num_what, uint64_t den, const char* den_what) {
  return std::to_string(num) + " " + num_what + " / " + std::to_string(den) + " " + den_what;
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

void FillKernelLayers(histar::Kernel& k, histar::ObjectId init, const KernelCounters& before,
                      const SyscallHist& hist_before, uint64_t ops, RoundResult* r) {
  KernelCounters now = KernelCounters::Read(k);
  SyscallHist hist = SyscallHist::Read().Minus(hist_before);
  uint64_t syscalls = now.syscalls - before.syscalls;
  uint64_t table_locks = now.table_locks - before.table_locks;
  uint64_t hits = now.memo_hits - before.memo_hits;
  uint64_t misses = now.memo_misses - before.memo_misses;
  uint64_t reg_locks = now.registry_locks - before.registry_locks;
  auto& l = r->layer;
  l["kernel.syscalls_per_op"] = {Ratio(syscalls, ops), Base(syscalls, "syscalls", ops, "ops")};
  l["kernel.objtable.lock_acq_per_op"] = {Ratio(table_locks, ops),
                                          Base(table_locks, "acquisitions", ops, "ops")};
  l["kernel.objects_live_end"] = {static_cast<double>(k.ObjectCount()), ""};
  for (size_t i = 0; i < kNumHistKinds; ++i) {
    std::string name = std::string("kernel.syscall.") + kHistKinds[i];
    l[name + ".n"] = {static_cast<double>(hist.n[i]), ""};
    l[name + ".us"] = {hist.us[i], ""};
  }
  l["core.registry.labels_interned"] = {static_cast<double>(k.label_registry().size()), ""};
  l["core.registry.memo_hit_ratio"] = {Ratio(hits, hits + misses),
                                       Base(hits, "hits", hits + misses, "lookups")};
  l["core.registry.lookups_per_op"] = {Ratio(hits + misses, ops),
                                       Base(hits + misses, "lookups", ops, "ops")};
  l["core.registry.lock_acq_per_op"] = {Ratio(reg_locks, ops),
                                        Base(reg_locks, "acquisitions", ops, "ops")};
  histar::Result<histar::Label> label = k.sys_self_get_label(init);
  r->Check(label.status(), "self_get_label(driver)");
  l["core.label.driver_categories"] = {
      label.ok() ? static_cast<double>(label.value().entry_count()) : 0, ""};
}

void FillAbsentStoreLayers(RoundResult* r) {
  for (const LayerMetric& m : kLayerMetrics) {
    if (StartsWith(m.name, "store.")) {
      r->layer[m.name] = {0, "no store attached"};
    }
  }
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
