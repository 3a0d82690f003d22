// Ablation: the sharded object table (PR 2's split of Kernel::mu_).
//
// PR 1 made label checks a memoized hash probe, which left the old
// kernel-wide mutex as the dominant cost of a read-only syscall: every
// ResolveEntry serialized on one lock no matter which object it touched.
// This bench pits table shards=1 (one shared_mutex in front of the whole
// table — the closest sharded-code analogue of the old single-mutex design)
// against the default shard count, mirroring BM_RegistryLeqContended in
// ablation_labels.cc:
//
//   * BM_ObjTableResolveContended — pure read-mostly resolve (segment
//     reads over a pool of segments spread across shards). With one shard
//     every reader bounces the same lock cache line; sharded, readers
//     touch disjoint locks and the row should stay near-flat on multicore
//     hosts (the single-CPU CI container flattens both rows — see
//     EXPERIMENTS.md for the caveat).
//   * BM_ObjTableMixedContended — same read stream with a private-segment
//     write mixed in every 4th op. Writers take exclusive shard locks, so
//     one shard serializes readers behind every write; sharded, a write
//     only stalls the 1/N of readers hashing into its shard.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "src/kernel/kernel.h"

namespace histar::bench {
namespace {

constexpr int kMaxThreads = 8;
constexpr int kSegments = 64;

// Shared across the benchmark's threads; (re)built by thread 0 before each
// run (the google-benchmark multi-threaded setup idiom, as in
// ablation_labels.cc).
struct ObjWorld {
  std::unique_ptr<Kernel> kernel;
  ObjectId root = kInvalidObject;
  std::vector<ObjectId> threads;        // one kernel thread per bench thread
  std::vector<ObjectId> shared_segs;    // read pool, spread across shards
  std::vector<ObjectId> private_segs;   // one write target per bench thread
};
ObjWorld g_world;

bool BuildWorld(size_t shards) {
  g_world.kernel = std::make_unique<Kernel>(shards);
  Kernel* k = g_world.kernel.get();
  g_world.root = k->root_container();
  g_world.threads.clear();
  g_world.shared_segs.clear();
  g_world.private_segs.clear();
  for (int i = 0; i < kMaxThreads; ++i) {
    ObjectId t = k->BootstrapThread(Label(Level::k1), Label(Level::k2),
                                    "bench-t" + std::to_string(i));
    if (t == kInvalidObject) {
      return false;
    }
    g_world.threads.push_back(t);
  }
  auto make_seg = [&](const std::string& d) {
    CreateSpec spec;
    spec.container = g_world.root;
    spec.label = Label(Level::k1);
    spec.descrip = d;
    spec.quota = kObjectOverheadBytes + 2 * kPageSize;
    Result<ObjectId> s = k->sys_segment_create(g_world.threads[0], spec, 64);
    return s.ok() ? s.value() : kInvalidObject;
  };
  for (int i = 0; i < kSegments; ++i) {
    ObjectId s = make_seg("ro" + std::to_string(i));
    if (s == kInvalidObject) {
      return false;
    }
    g_world.shared_segs.push_back(s);
  }
  for (int i = 0; i < kMaxThreads; ++i) {
    ObjectId s = make_seg("rw" + std::to_string(i));
    if (s == kInvalidObject) {
      return false;
    }
    g_world.private_segs.push_back(s);
  }
  return true;
}

void TearDownWorld(::benchmark::State& state) {
  state.counters["shards"] = ::benchmark::Counter(
      static_cast<double>(g_world.kernel->object_table().shard_count()));
  g_world.kernel.reset();
}

// Pure resolve: every iteration is one sys_segment_read — ResolveEntry plus
// a memoized label check — against a random shared segment.
void BM_ObjTableResolveContended(::benchmark::State& state) {
  if (state.thread_index() == 0) {
    if (!BuildWorld(static_cast<size_t>(state.range(0)))) {
      state.SkipWithError("world boot failed");
      return;
    }
  }
  // Globals are touched only inside the iteration loop: the loop's entry
  // barrier is what orders thread 0's setup before the other threads run.
  Kernel* k = nullptr;
  ObjectId self = kInvalidObject;
  uint64_t x = 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(state.thread_index() + 1);
  uint64_t buf = 0;
  for (auto _ : state) {
    if (k == nullptr) {
      k = g_world.kernel.get();
      self = g_world.threads[static_cast<size_t>(state.thread_index())];
    }
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    ObjectId seg = g_world.shared_segs[(x >> 16) % g_world.shared_segs.size()];
    if (k->sys_segment_read(self, ContainerEntry{g_world.root, seg}, &buf, 0, 8) !=
        Status::kOk) {
      state.SkipWithError("read failed");
      return;
    }
    ::benchmark::DoNotOptimize(buf);
  }
  // Summed over threads and divided by wall time: aggregate resolves/s.
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  if (state.thread_index() == 0) {
    TearDownWorld(state);
  }
}
BENCHMARK(BM_ObjTableResolveContended)
    ->Arg(1)
    ->Arg(16)
    ->ArgName("shards")
    ->ThreadRange(1, kMaxThreads)
    ->UseRealTime()
    ->Unit(::benchmark::kNanosecond);

// Mixed: 3 reads of random shared segments + 1 write to this thread's
// private segment per 4 iterations. The write's exclusive lock is what
// separates the two configurations: at shards=1 it stalls every reader.
void BM_ObjTableMixedContended(::benchmark::State& state) {
  if (state.thread_index() == 0) {
    if (!BuildWorld(static_cast<size_t>(state.range(0)))) {
      state.SkipWithError("world boot failed");
      return;
    }
  }
  size_t ti = static_cast<size_t>(state.thread_index());
  Kernel* k = nullptr;
  ObjectId self = kInvalidObject;
  ObjectId own = kInvalidObject;
  uint64_t x = 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(ti + 1);
  uint64_t buf = 0;
  uint64_t i = 0;
  for (auto _ : state) {
    if (k == nullptr) {
      k = g_world.kernel.get();
      self = g_world.threads[ti];
      own = g_world.private_segs[ti];
    }
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    Status st;
    if (++i % 4 == 0) {
      st = k->sys_segment_write(self, ContainerEntry{g_world.root, own}, &x, 0, 8);
    } else {
      ObjectId seg = g_world.shared_segs[(x >> 16) % g_world.shared_segs.size()];
      st = k->sys_segment_read(self, ContainerEntry{g_world.root, seg}, &buf, 0, 8);
    }
    if (st != Status::kOk) {
      state.SkipWithError("syscall failed");
      return;
    }
    ::benchmark::DoNotOptimize(buf);
  }
  if (state.thread_index() == 0) {
    TearDownWorld(state);
  }
}
BENCHMARK(BM_ObjTableMixedContended)
    ->Arg(1)
    ->Arg(16)
    ->ArgName("shards")
    ->ThreadRange(1, kMaxThreads)
    ->UseRealTime()
    ->Unit(::benchmark::kNanosecond);

// Create/unref round trip: the heavyweight path (exclusive create +
// all-shards destroy). Kept single-configuration-comparable so EXPERIMENTS
// can report how much the all-shards unref costs relative to resolve.
void BM_ObjTableCreateUnref(::benchmark::State& state) {
  if (state.thread_index() == 0) {
    if (!BuildWorld(static_cast<size_t>(state.range(0)))) {
      state.SkipWithError("world boot failed");
      return;
    }
  }
  Kernel* k = nullptr;
  ObjectId self = kInvalidObject;
  for (auto _ : state) {
    if (k == nullptr) {
      k = g_world.kernel.get();
      self = g_world.threads[static_cast<size_t>(state.thread_index())];
    }
    CreateSpec spec;
    spec.container = g_world.root;
    spec.label = Label(Level::k1);
    spec.descrip = "churn";
    spec.quota = kObjectOverheadBytes + 2 * kPageSize;
    Result<ObjectId> s = k->sys_segment_create(self, spec, 64);
    if (!s.ok() ||
        k->sys_container_unref(self, ContainerEntry{g_world.root, s.value()}) !=
            Status::kOk) {
      state.SkipWithError("create/unref failed");
      return;
    }
  }
  if (state.thread_index() == 0) {
    TearDownWorld(state);
  }
}
BENCHMARK(BM_ObjTableCreateUnref)
    ->Arg(1)
    ->Arg(16)
    ->ArgName("shards")
    ->ThreadRange(1, 4)
    ->UseRealTime()
    ->Unit(::benchmark::kNanosecond);

}  // namespace
}  // namespace histar::bench

BENCHMARK_MAIN();
