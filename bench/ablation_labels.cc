// Ablation: the §4 label-comparison cache, now the sharded LabelRegistry.
//
// "The kernel performs several key optimizations. It caches the result of
// comparisons between immutable labels." — this bench measures that claim
// by running a label-check-heavy syscall loop (segment reads, which perform
// a CanObserve ⊑ check on every call) with memoization enabled and disabled,
// across labels of increasing explicit-entry counts. The win should grow
// with label size: an uncached ⊑ walks both entry lists, a memoized one is
// a hash probe on a precomputed id pair.
//
// Further groups measure (a) the raw Label::Leq cost by entry count — the
// quantity the registry amortizes — (b) cached-vs-uncached registry lookups
// in isolation, and (c) the registry under thread contention at shard count
// 1 (the old LabelCache's single-mutex design) versus the default sharding,
// which is the Corey-style scalability argument for sharding in the first
// place.
#include <benchmark/benchmark.h>

#include <memory>
#include <random>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/label_registry.h"

namespace histar::bench {
namespace {

// A segment read performs one observe check (L_O ⊑ L_T^J) per syscall.
void BM_SegmentReadLabelCheck(::benchmark::State& state) {
  const int categories = static_cast<int>(state.range(0));
  const bool cache_on = state.range(1) != 0;

  World w = BootWorld(/*with_store=*/false);
  Kernel* k = w.kernel.get();
  ObjectId self = w.init();

  // Build a thread and an object whose labels share `categories` explicit
  // entries (the worst case for Leq: every entry must be compared). The
  // thread additionally keeps ⋆ in one category the object doesn't mention:
  // with interned labels, a thread whose raised label is *identical* to the
  // object's would short-circuit on id equality before ever reaching the
  // memo table — the ⋆ keeps the two ids distinct so the rows below measure
  // the memoized-vs-direct comparison, not the reflexivity fast path.
  Label obj_label;
  Label thread_label;
  Label thread_clear(Level::k2);
  for (int i = 0; i < categories; ++i) {
    Result<CategoryId> c = k->sys_cat_create(self);
    if (!c.ok()) {
      state.SkipWithError("cat_create failed");
      return;
    }
    obj_label.set(c.value(), Level::k2);
    thread_label.set(c.value(), Level::k2);
    thread_clear.set(c.value(), Level::k3);
  }
  Result<CategoryId> owned = k->sys_cat_create(self);
  if (!owned.ok()) {
    state.SkipWithError("cat_create failed");
    return;
  }
  thread_label.set(owned.value(), Level::kStar);
  thread_clear.set(owned.value(), Level::k3);
  // The probe lives in a container at the same taint — a 2-tainted thread
  // cannot write the untainted root. Created while we still own every
  // category, before self-tainting.
  CreateSpec cspec;
  cspec.container = k->root_container();
  cspec.label = obj_label;
  cspec.descrip = "probe-ct";
  cspec.quota = 1 << 20;
  Result<ObjectId> ct = k->sys_container_create(self, cspec, 0);
  if (!ct.ok()) {
    state.SkipWithError("container_create failed");
    return;
  }
  if (k->sys_self_set_label(self, thread_label) != Status::kOk) {
    state.SkipWithError("set_label failed");
    return;
  }
  CreateSpec spec;
  spec.container = ct.value();
  spec.label = obj_label;
  spec.descrip = "probe";
  spec.quota = kObjectOverheadBytes + 2 * kPageSize;
  Result<ObjectId> seg = k->sys_segment_create(self, spec, 64);
  if (!seg.ok()) {
    state.SkipWithError("segment_create failed");
    return;
  }

  k->label_registry().set_enabled(cache_on);
  k->label_registry().ResetStats();
  uint64_t buf = 0;
  ContainerEntry ce{ct.value(), seg.value()};
  for (auto _ : state) {
    if (k->sys_segment_read(self, ce, &buf, 0, 8) != Status::kOk) {
      state.SkipWithError("read failed");
      return;
    }
    ::benchmark::DoNotOptimize(buf);
  }
  state.counters["cache_hits"] =
      ::benchmark::Counter(static_cast<double>(k->label_registry().hits()));
  k->label_registry().set_enabled(true);
  CurrentThread::Set(kInvalidObject);
}
BENCHMARK(BM_SegmentReadLabelCheck)
    ->ArgsProduct({{1, 4, 16, 64}, {1, 0}})
    ->ArgNames({"cats", "cache"})
    ->Unit(::benchmark::kNanosecond);

// Raw ⊑ cost as a function of explicit entries — what the cache short-cuts.
void BM_RawLabelLeq(::benchmark::State& state) {
  const int categories = static_cast<int>(state.range(0));
  CategoryAllocator alloc;
  Label l1;
  Label l2;
  for (int i = 0; i < categories; ++i) {
    CategoryId c = alloc.Allocate();
    l1.set(c, Level::k1);
    l2.set(c, Level::k2);
  }
  bool r = false;
  for (auto _ : state) {
    r ^= l1.Leq(l2);
    ::benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_RawLabelLeq)->Arg(1)->Arg(4)->Arg(16)->Arg(64)->Arg(256)
    ->ArgName("cats")
    ->Unit(::benchmark::kNanosecond);

// Cached-vs-uncached registry ⊑ in isolation: the same id pair queried with
// memoization on (hash probe) and off (full merge walk per query). The
// spread between cache=1 and cache=0 at a given entry count is the per-check
// win the kernel hot paths collect.
void BM_RegistryLeq(::benchmark::State& state) {
  const int categories = static_cast<int>(state.range(0));
  const bool cache_on = state.range(1) != 0;
  LabelRegistry reg;
  CategoryAllocator alloc;
  Label l1;
  Label l2;
  for (int i = 0; i < categories; ++i) {
    CategoryId c = alloc.Allocate();
    l1.set(c, Level::k1);
    l2.set(c, Level::k2);
  }
  LabelId i1 = reg.Intern(l1);
  LabelId i2 = reg.Intern(l2);
  reg.set_enabled(cache_on);
  bool r = false;
  for (auto _ : state) {
    r ^= reg.Leq(i1, i2);
    ::benchmark::DoNotOptimize(r);
  }
  state.counters["hits"] = ::benchmark::Counter(static_cast<double>(reg.hits()));
}
BENCHMARK(BM_RegistryLeq)
    ->ArgsProduct({{1, 4, 16, 64, 256}, {1, 0}})
    ->ArgNames({"cats", "cache"})
    ->Unit(::benchmark::kNanosecond);

namespace contended {

// Shared across the benchmark's threads; (re)built by thread 0 before each
// run (the google-benchmark multi-threaded setup idiom).
std::unique_ptr<LabelRegistry> g_reg;
std::vector<LabelId> g_ids;

}  // namespace contended

// Sharded-vs-single-mutex: all threads hammer memoized Leq over a shared
// working set of label pairs. shards=1 approximates the old LabelCache (one
// lock in front of every check); shards=16 is the default registry. The
// single-shard row should degrade as threads grow while the sharded row
// stays near-flat — the first scalability ceiling Corey-style arguments say
// to remove.
void BM_RegistryLeqContended(::benchmark::State& state) {
  const size_t shards = static_cast<size_t>(state.range(0));
  if (state.thread_index() == 0) {
    contended::g_reg = std::make_unique<LabelRegistry>(shards);
    contended::g_ids.clear();
    CategoryAllocator alloc;
    std::vector<CategoryId> cats;
    for (int i = 0; i < 8; ++i) {
      cats.push_back(alloc.Allocate());
    }
    // 64 distinct labels over a small shared category universe → a dense
    // 64×64 memo the threads keep re-probing, like a syscall-heavy steady
    // state where every label pair has been seen before.
    std::mt19937_64 rng(1234);
    for (int i = 0; i < 64; ++i) {
      Label l;
      for (CategoryId c : cats) {
        if (rng() % 2 == 0) {
          l.set(c, static_cast<Level>(1 + rng() % 4));
        }
      }
      contended::g_ids.push_back(contended::g_reg->Intern(l));
    }
  }
  uint64_t x = 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(state.thread_index() + 1);
  bool r = false;
  for (auto _ : state) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    LabelId a = contended::g_ids[(x >> 16) % contended::g_ids.size()];
    LabelId b = contended::g_ids[(x >> 40) % contended::g_ids.size()];
    r ^= contended::g_reg->Leq(a, b);
    ::benchmark::DoNotOptimize(r);
  }
  // Summed over threads and divided by wall time: aggregate checks/s.
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  if (state.thread_index() == 0) {
    state.counters["shards"] =
        ::benchmark::Counter(static_cast<double>(contended::g_reg->shard_count()));
    state.counters["hit_rate"] = ::benchmark::Counter(
        static_cast<double>(contended::g_reg->hits()) /
        static_cast<double>(contended::g_reg->hits() + contended::g_reg->misses() + 1));
    contended::g_reg.reset();
  }
}
BENCHMARK(BM_RegistryLeqContended)
    ->Arg(1)
    ->Arg(16)
    ->ArgName("shards")
    ->ThreadRange(1, 8)
    ->UseRealTime()
    ->Unit(::benchmark::kNanosecond);

// Join cost, the other hot label operation (every gate call computes one).
void BM_RawLabelJoin(::benchmark::State& state) {
  const int categories = static_cast<int>(state.range(0));
  CategoryAllocator alloc;
  Label l1;
  Label l2;
  for (int i = 0; i < categories; ++i) {
    CategoryId c = alloc.Allocate();
    (i % 2 == 0 ? l1 : l2).set(c, Level::k3);
  }
  for (auto _ : state) {
    Label j = l1.Join(l2);
    ::benchmark::DoNotOptimize(j);
  }
}
BENCHMARK(BM_RawLabelJoin)->Arg(1)->Arg(4)->Arg(16)->Arg(64)->Arg(256)
    ->ArgName("cats")
    ->Unit(::benchmark::kNanosecond);

}  // namespace
}  // namespace histar::bench

BENCHMARK_MAIN();
