// Shared scaffolding for the Figure 12 / Figure 13 benchmark binaries.
//
// Conventions used by every bench in this directory:
//  * CPU-bound rows (IPC, fork/exec, label checks, clamscan) report real
//    wall-clock time through google-benchmark as usual.
//  * I/O-bound rows (the LFS phases) run against the latency-modeled virtual
//    disk and report *simulated* seconds via UseManualTime(); the "paper"
//    counter on each row carries the number Figure 12 reports for HiStar so
//    the shape (ordering, ratios) can be eyeballed directly.
//  * Each bench prints one row per paper row; EXPERIMENTS.md records the
//    mapping and the measured-vs-paper comparison.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>

#include "src/store/disk_model.h"
#include "src/store/single_level_store.h"
#include "src/unixlib/unix.h"

namespace histar::bench {

// A booted Unix world with an optional persistent store on a virtual disk.
struct World {
  std::unique_ptr<DiskModel> disk;
  std::unique_ptr<SingleLevelStore> store;
  std::unique_ptr<Kernel> kernel;
  std::unique_ptr<UnixWorld> unix;

  ObjectId init() const { return unix->init_thread(); }
  ProcessContext& ctx() { return unix->init_context(); }
};

// Boots a world. If `with_store` is set, the kernel checkpoints to a
// latency-modeled disk with the paper's drive geometry (ST340014A: 8.5 ms
// seek, 7200 RPM, 58 MB/s); `store_data` keeps the bytes (needed by
// recovery; the image costs host memory only for the pages written, so
// latency-only mode saves memory only for benches that write hundreds of
// MB). `tuning` carries the store's knobs (WAL size, Bε-tree shape).
inline World BootWorld(bool with_store, uint64_t capacity_bytes = 2ULL << 30,
                       bool store_data = false,
                       const StoreTuning& tuning = StoreTuning{}) {
  World w;
  w.kernel = std::make_unique<Kernel>();
  if (with_store) {
    DiskGeometry g;
    g.capacity_bytes = capacity_bytes;
    g.store_data = store_data;
    w.disk = std::make_unique<DiskModel>(g);
    w.store = std::make_unique<SingleLevelStore>(w.disk.get(), tuning);
    if (w.store->Format() != Status::kOk) {
      std::abort();
    }
    w.kernel->AttachPersistTarget(w.store.get());
  }
  w.unix = UnixWorld::Boot(w.kernel.get());
  if (w.unix == nullptr) {
    std::abort();
  }
  CurrentThread::Set(w.unix->init_thread());
  return w;
}

// Times one I/O phase as the sum of simulated disk time and real host time
// (the host time is what the paper's wall clock would have charged for the
// CPU portion; async phases are pure host time).
class PhaseTimer {
 public:
  explicit PhaseTimer(DiskModel* disk)
      : disk_(disk), t0_(std::chrono::steady_clock::now()), sim0_(disk->sim_time_ns()) {}

  double Seconds() const {
    double real = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_).count();
    double sim = static_cast<double>(disk_->sim_time_ns() - sim0_) / 1e9;
    return real + sim;
  }

 private:
  DiskModel* disk_;
  std::chrono::steady_clock::time_point t0_;
  uint64_t sim0_;
};

// Attaches the paper's published number (in the same unit as the measured
// value) to a row, so `benchmark` output shows measured and paper side by
// side.
inline void PaperCounter(::benchmark::State& state, double paper_value) {
  state.counters["paper"] = ::benchmark::Counter(paper_value);
}

}  // namespace histar::bench

#endif  // BENCH_BENCH_UTIL_H_
