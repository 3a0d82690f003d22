// Figure 12, LFS small-file benchmark [Rosenblum & Ousterhout]: create,
// read, and unlink N 1 kB files, in several durability variants.
//
//   phase / variant            paper (10,000 files, seconds)
//   create, async              HiStar 0.31 · Linux 0.316 · OpenBSD 0.22
//   create, per-file sync      HiStar 459  · Linux 558
//   create, group sync         HiStar 2.57 (no Linux equivalent)
//   read, cached               HiStar 0.16 · Linux 0.068
//   read, uncached             HiStar 6.49 · Linux 1.86
//   read, no IDE prefetch      HiStar 86.4 · Linux 86.6
//   unlink, async              HiStar 0.09 · Linux 0.244
//   unlink, per-file sync      HiStar 456  · Linux 173
//   unlink, group sync         HiStar 0.38
//
// I/O rows report *simulated* seconds (UseManualTime) from the virtual
// ST340014A; the cached-read row reports real time. The shapes to check:
//   * per-file sync ≫ group sync ≈ async (the group-sync win is the paper's
//     "as high as a factor of 200");
//   * create-sync is comparable between HiStar (WAL append per op) and the
//     ext3 baseline (journal commit per op), with ~1 log application per
//     1,000 synchronous operations;
//   * unlink-sync is where HiStar loses: fsync of a directory checkpoints
//     the entire system state, and the object-map rewrite grows with the
//     number of live objects;
//   * uncached reads favor the baseline's directory-clustered layout until
//     drive lookahead is disabled, after which both pay full rotational
//     latency and converge (86.4 vs 86.6 in the paper).
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/baseline/mono_fs.h"

namespace histar::bench {
namespace {

enum class SyncMode { kAsync, kPerFile, kGroup };

constexpr uint64_t kFileBytes = 1024;
// Small files get a tight quota so 1,000 of them fit a 64 MB directory.
constexpr uint64_t kSmallQuota = kObjectOverheadBytes + 4 * kPageSize;

std::string FileName(int i) { return "f" + std::to_string(i); }

// ---- HiStar phases -----------------------------------------------------------

struct SmallFileWorld {
  World w;
  ObjectId dir = kInvalidObject;
  std::vector<ObjectId> files;

  // Creates n files so read/unlink phases have a populated directory. A
  // checkpoint runs every `sync_every` files (0 = only at the end), giving
  // the on-disk layout the multi-epoch character of a real run: each epoch
  // lands its files contiguously, but directory-segment and object-map
  // rewrites interleave between epochs and freed extents get reused, so the
  // read phase is mostly — not perfectly — sequential.
  bool Populate(int n, int sync_every = 0) {
    FileSystem& fs = w.unix->fs();
    std::vector<uint8_t> payload(kFileBytes, 0xab);
    for (int i = 0; i < n; ++i) {
      Result<ObjectId> f = fs.Create(w.init(), dir, FileName(i), Label(), kSmallQuota);
      if (!f.ok()) {
        return false;
      }
      if (fs.WriteAt(w.init(), dir, f.value(), payload.data(), 0, payload.size()) !=
          Status::kOk) {
        return false;
      }
      files.push_back(f.value());
      if (sync_every > 0 && (i + 1) % sync_every == 0 &&
          fs.SyncEverything(w.init()) != Status::kOk) {
        return false;
      }
    }
    return true;
  }
};

SmallFileWorld MakeSmallFileWorld() {
  SmallFileWorld s;
  s.w = BootWorld(/*with_store=*/true);
  Result<ObjectId> dir = s.w.unix->fs().MakeDir(s.w.init(), s.w.unix->fs_root(), "lfs",
                                                Label(), 64 << 20);
  if (!dir.ok()) {
    std::abort();
  }
  s.dir = dir.value();
  return s;
}

void BM_HiStarCreate(::benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const SyncMode mode = static_cast<SyncMode>(state.range(1));
  for (auto _ : state) {
    SmallFileWorld s = MakeSmallFileWorld();
    FileSystem& fs = s.w.unix->fs();
    std::vector<uint8_t> payload(kFileBytes, 0xab);
    PhaseTimer timer(s.w.disk.get());
    for (int i = 0; i < n; ++i) {
      Result<ObjectId> f = fs.Create(s.w.init(), s.dir, FileName(i), Label(), kSmallQuota);
      if (!f.ok()) {
        state.SkipWithError("create failed");
        return;
      }
      if (fs.WriteAt(s.w.init(), s.dir, f.value(), payload.data(), 0, payload.size()) !=
          Status::kOk) {
        state.SkipWithError("write failed");
        return;
      }
      if (mode == SyncMode::kPerFile &&
          fs.SyncFile(s.w.init(), s.dir, f.value()) != Status::kOk) {
        state.SkipWithError("fsync failed");
        return;
      }
    }
    if (mode == SyncMode::kGroup && fs.SyncEverything(s.w.init()) != Status::kOk) {
      state.SkipWithError("group sync failed");
      return;
    }
    state.SetIterationTime(timer.Seconds());
    state.counters["log_applies"] =
        ::benchmark::Counter(static_cast<double>(s.w.store->log_applies()));
    CurrentThread::Set(kInvalidObject);
  }
  state.counters["files"] = ::benchmark::Counter(static_cast<double>(n));
}
BENCHMARK(BM_HiStarCreate)
    ->ArgsProduct({{1000}, {0, 1, 2}})
    ->ArgNames({"files", "sync"})
    ->UseManualTime()
    ->Unit(::benchmark::kMillisecond)
    ->Iterations(1);

void BM_HiStarReadUncached(::benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const bool lookahead = state.range(1) != 0;
  for (auto _ : state) {
    SmallFileWorld s = MakeSmallFileWorld();
    if (!s.Populate(n, /*sync_every=*/100)) {
      state.SkipWithError("populate failed");
      return;
    }
    // Make everything resident on disk, then "drop caches": charge a fresh
    // page-in for every file, in directory order.
    if (s.w.unix->fs().SyncEverything(s.w.init()) != Status::kOk) {
      state.SkipWithError("sync failed");
      return;
    }
    s.w.disk->set_lookahead_enabled(lookahead);
    PhaseTimer timer(s.w.disk.get());
    for (ObjectId f : s.files) {
      if (!s.w.store->TouchObject(f).ok()) {
        state.SkipWithError("page-in failed");
        return;
      }
    }
    state.SetIterationTime(timer.Seconds());
    CurrentThread::Set(kInvalidObject);
  }
  state.counters["files"] = ::benchmark::Counter(static_cast<double>(n));
}
BENCHMARK(BM_HiStarReadUncached)
    ->ArgsProduct({{1000}, {1, 0}})
    ->ArgNames({"files", "lookahead"})
    ->UseManualTime()
    ->Unit(::benchmark::kMillisecond)
    ->Iterations(1);

// Cached reads never touch the disk: this row is real time through the
// whole unixlib read path (directory lookup + segment read).
void BM_HiStarReadCached(::benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  SmallFileWorld s = MakeSmallFileWorld();
  if (!s.Populate(n)) {
    state.SkipWithError("populate failed");
    return;
  }
  FileSystem& fs = s.w.unix->fs();
  std::vector<uint8_t> buf(kFileBytes);
  for (auto _ : state) {
    for (int i = 0; i < n; ++i) {
      Result<ObjectId> f = fs.Lookup(s.w.init(), s.dir, FileName(i));
      if (!f.ok() ||
          !fs.ReadAt(s.w.init(), s.dir, f.value(), buf.data(), 0, buf.size()).ok()) {
        state.SkipWithError("read failed");
        return;
      }
      ::benchmark::DoNotOptimize(buf);
    }
  }
  state.counters["files"] = ::benchmark::Counter(static_cast<double>(n));
  PaperCounter(state, 0.16);
  CurrentThread::Set(kInvalidObject);
}
BENCHMARK(BM_HiStarReadCached)->Arg(1000)->Unit(::benchmark::kMillisecond);

void BM_HiStarUnlink(::benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const SyncMode mode = static_cast<SyncMode>(state.range(1));
  for (auto _ : state) {
    SmallFileWorld s = MakeSmallFileWorld();
    if (!s.Populate(n)) {
      state.SkipWithError("populate failed");
      return;
    }
    FileSystem& fs = s.w.unix->fs();
    if (fs.SyncEverything(s.w.init()) != Status::kOk) {
      state.SkipWithError("sync failed");
      return;
    }
    PhaseTimer timer(s.w.disk.get());
    for (int i = 0; i < n; ++i) {
      if (fs.Unlink(s.w.init(), s.dir, FileName(i)) != Status::kOk) {
        state.SkipWithError("unlink failed");
        return;
      }
      // fsync of a directory = checkpoint of the entire system state (§7.1):
      // this is the row where HiStar loses to the journaling baseline.
      if (mode == SyncMode::kPerFile && fs.SyncEverything(s.w.init()) != Status::kOk) {
        state.SkipWithError("dir fsync failed");
        return;
      }
    }
    if (mode == SyncMode::kGroup && fs.SyncEverything(s.w.init()) != Status::kOk) {
      state.SkipWithError("group sync failed");
      return;
    }
    state.SetIterationTime(timer.Seconds());
    CurrentThread::Set(kInvalidObject);
  }
  state.counters["files"] = ::benchmark::Counter(static_cast<double>(n));
}
BENCHMARK(BM_HiStarUnlink)
    ->ArgsProduct({{1000}, {0, 1, 2}})
    ->ArgNames({"files", "sync"})
    ->UseManualTime()
    ->Unit(::benchmark::kMillisecond)
    ->Iterations(1);

// ---- checkpoint format rows (ISSUE 4: label table + incremental epochs) ------
//
// Not Figure 12 rows — these measure the checkpoint subsystem itself on a
// label-heavy world (1,000 files sharing 27 labels, the acceptance shape):
//   * checkpoint size: disk bytes for a full base under the label-ref
//     format, with counters for what the self-contained format would have
//     written (the dedup win = inline_bytes - blob_bytes);
//   * incremental cost: touch k of n files, sync — bytes and blob count
//     must scale with k, not n;
//   * restore time: boot a fresh kernel from the label-heavy image
//     (simulated disk time + host time, like the other I/O rows).

// 27 distinct labels from three categories (level combinations), all owned
// by init so creation passes the §3.2 rules.
std::vector<Label> MakeLabelSet(Kernel* kernel, ObjectId init) {
  CategoryId cats[3];
  for (auto& c : cats) {
    Result<CategoryId> r = kernel->sys_cat_create(init);
    if (!r.ok()) {
      std::abort();
    }
    c = r.value();
  }
  const Level levels[3] = {Level::k0, Level::k2, Level::k3};
  std::vector<Label> labels;
  for (int i = 0; i < 27; ++i) {
    Label l(Level::k1);
    l.set(cats[0], levels[i % 3]);
    l.set(cats[1], levels[(i / 3) % 3]);
    l.set(cats[2], levels[(i / 9) % 3]);
    labels.push_back(l);
  }
  return labels;
}

struct LabelHeavyWorld {
  World w;
  ObjectId dir = kInvalidObject;
  std::vector<ObjectId> files;
};

// `tuning` shapes the store's Bε-tree; `sync_every` checkpoints
// mid-population (0 = never), giving the on-disk image the multi-epoch
// history of a real run — the restore row needs that to expose the read
// layout.
LabelHeavyWorld MakeLabelHeavyWorld(int n, bool store_data = false,
                                    const StoreTuning& tuning = StoreTuning{},
                                    int sync_every = 0) {
  LabelHeavyWorld s;
  s.w = BootWorld(/*with_store=*/true, /*capacity_bytes=*/2ULL << 30, store_data, tuning);
  FileSystem& fs = s.w.unix->fs();
  Result<ObjectId> dir = fs.MakeDir(s.w.init(), s.w.unix->fs_root(), "lbl", Label(), 64 << 20);
  if (!dir.ok()) {
    std::abort();
  }
  s.dir = dir.value();
  std::vector<Label> labels = MakeLabelSet(s.w.kernel.get(), s.w.init());
  std::vector<uint8_t> payload(kFileBytes, 0xab);
  for (int i = 0; i < n; ++i) {
    Result<ObjectId> f = fs.Create(s.w.init(), s.dir, FileName(i),
                                   labels[static_cast<size_t>(i) % labels.size()],
                                   kSmallQuota);
    if (!f.ok() ||
        fs.WriteAt(s.w.init(), s.dir, f.value(), payload.data(), 0, payload.size()) !=
            Status::kOk) {
      std::abort();
    }
    s.files.push_back(f.value());
    if (sync_every > 0 && (i + 1) % sync_every == 0 &&
        s.w.kernel->sys_sync(s.w.init()) != Status::kOk) {
      std::abort();
    }
  }
  return s;
}

void BM_HiStarCheckpointLabelHeavy(::benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    LabelHeavyWorld s = MakeLabelHeavyWorld(n);
    uint64_t inline_bytes = 0;
    uint64_t ref_bytes = 0;
    for (ObjectId f : s.files) {
      std::vector<uint8_t> b;
      s.w.kernel->SerializeObject(f, &b);
      inline_bytes += b.size();
      s.w.kernel->SerializeObject(f, &b, /*label_refs=*/true);
      ref_bytes += b.size();
    }
    uint64_t before = s.w.disk->bytes_written();
    PhaseTimer timer(s.w.disk.get());
    if (s.w.kernel->sys_sync(s.w.init()) != Status::kOk) {
      state.SkipWithError("sync failed");
      return;
    }
    state.SetIterationTime(timer.Seconds());
    state.counters["ckpt_bytes"] =
        ::benchmark::Counter(static_cast<double>(s.w.disk->bytes_written() - before));
    state.counters["blob_bytes"] = ::benchmark::Counter(static_cast<double>(ref_bytes));
    state.counters["inline_blob_bytes"] =
        ::benchmark::Counter(static_cast<double>(inline_bytes));
    state.counters["section_bytes"] =
        ::benchmark::Counter(static_cast<double>(s.w.store->last_section_bytes()));
    state.counters["table_labels"] =
        ::benchmark::Counter(static_cast<double>(s.w.store->label_table_size()));
    CurrentThread::Set(kInvalidObject);
  }
  state.counters["files"] = ::benchmark::Counter(static_cast<double>(n));
}
BENCHMARK(BM_HiStarCheckpointLabelHeavy)
    ->Arg(1000)
    ->ArgName("files")
    ->UseManualTime()
    ->Unit(::benchmark::kMillisecond)
    ->Iterations(1);

void BM_HiStarIncrementalCheckpoint(::benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int touched = static_cast<int>(state.range(1));
  for (auto _ : state) {
    LabelHeavyWorld s = MakeLabelHeavyWorld(n);
    FileSystem& fs = s.w.unix->fs();
    if (s.w.kernel->sys_sync(s.w.init()) != Status::kOk) {  // the base epoch
      state.SkipWithError("base sync failed");
      return;
    }
    std::vector<uint8_t> payload(kFileBytes, 0xcd);
    for (int i = 0; i < touched; ++i) {
      if (fs.WriteAt(s.w.init(), s.dir, s.files[static_cast<size_t>(i)], payload.data(), 0,
                     payload.size()) != Status::kOk) {
        state.SkipWithError("touch failed");
        return;
      }
    }
    uint64_t before = s.w.disk->bytes_written();
    PhaseTimer timer(s.w.disk.get());
    if (s.w.kernel->sys_sync(s.w.init()) != Status::kOk) {
      state.SkipWithError("incremental sync failed");
      return;
    }
    state.SetIterationTime(timer.Seconds());
    state.counters["incr_bytes"] =
        ::benchmark::Counter(static_cast<double>(s.w.disk->bytes_written() - before));
    state.counters["blobs_written"] =
        ::benchmark::Counter(static_cast<double>(s.w.store->last_commit_objects()));
    state.counters["was_base"] =
        ::benchmark::Counter(s.w.store->last_commit_was_base() ? 1 : 0);
    CurrentThread::Set(kInvalidObject);
  }
  state.counters["files"] = ::benchmark::Counter(static_cast<double>(n));
  state.counters["touched"] = ::benchmark::Counter(static_cast<double>(touched));
}
BENCHMARK(BM_HiStarIncrementalCheckpoint)
    ->ArgsProduct({{1000}, {10, 100}})
    ->ArgNames({"files", "touched"})
    ->UseManualTime()
    ->Unit(::benchmark::kMillisecond)
    ->Iterations(1);

void BM_HiStarRestoreLabelHeavy(::benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    // Recovery reads real bytes back, so this world keeps disk contents.
    LabelHeavyWorld s = MakeLabelHeavyWorld(n, /*store_data=*/true);
    if (s.w.kernel->sys_sync(s.w.init()) != Status::kOk) {
      state.SkipWithError("sync failed");
      return;
    }
    SingleLevelStore store2(s.w.disk.get());
    Kernel k2;
    PhaseTimer timer(s.w.disk.get());
    if (store2.Recover(&k2) != Status::kOk) {
      state.SkipWithError("recover failed");
      return;
    }
    state.SetIterationTime(timer.Seconds());
    state.counters["objects"] = ::benchmark::Counter(static_cast<double>(k2.ObjectCount()));
    state.counters["labels_interned"] =
        ::benchmark::Counter(static_cast<double>(k2.label_registry().size()));
    CurrentThread::Set(kInvalidObject);
  }
  state.counters["files"] = ::benchmark::Counter(static_cast<double>(n));
}
BENCHMARK(BM_HiStarRestoreLabelHeavy)
    ->Arg(1000)
    ->ArgName("files")
    ->UseManualTime()
    ->Unit(::benchmark::kMillisecond)
    ->Iterations(1);

// ---- engine rows (the Bε-tree store engine) ----------------------------------
//
// Two machine-checked rows, emitted into BENCH_pr8.json by
// scripts/bench_json.sh and bounded by scripts/check_bench_pr8.sh:
//   * dirty-1000 checkpoint: the engine folds the whole batch into one
//     message section (the section with its checksum, then the
//     superblock: 2 device writes under one barrier), with total bytes
//     within 2x of the serialized payload;
//   * restore: the image is a handful of sequential node/section runs, so
//     recovery seeks a couple of dozen times, not once per object.

void BM_EngineCheckpointDirty(::benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    // An 8 MB root buffer keeps the dirty-1000 batch inside one message
    // section: the write-op count is engine policy, not buffer sizing.
    StoreTuning t;
    t.betree.root_buffer_bytes = 8ULL << 20;
    LabelHeavyWorld s = MakeLabelHeavyWorld(n, /*store_data=*/false, t);
    if (s.w.kernel->sys_sync(s.w.init()) != Status::kOk) {  // the base epoch
      state.SkipWithError("base sync failed");
      return;
    }
    std::vector<uint8_t> payload(kFileBytes, 0xcd);
    uint64_t payload_bytes = 0;
    FileSystem& fs = s.w.unix->fs();
    for (ObjectId f : s.files) {
      if (fs.WriteAt(s.w.init(), s.dir, f, payload.data(), 0, payload.size()) !=
          Status::kOk) {
        state.SkipWithError("touch failed");
        return;
      }
      std::vector<uint8_t> b;
      s.w.kernel->SerializeObject(f, &b, /*label_refs=*/true);
      payload_bytes += b.size();
    }
    uint64_t wops0 = s.w.disk->write_ops();
    uint64_t wbytes0 = s.w.disk->bytes_written();
    PhaseTimer timer(s.w.disk.get());
    if (s.w.kernel->sys_sync(s.w.init()) != Status::kOk) {
      state.SkipWithError("dirty sync failed");
      return;
    }
    state.SetIterationTime(timer.Seconds());
    state.counters["ctr_wops"] =
        ::benchmark::Counter(static_cast<double>(s.w.disk->write_ops() - wops0));
    state.counters["ctr_wbytes"] =
        ::benchmark::Counter(static_cast<double>(s.w.disk->bytes_written() - wbytes0));
    state.counters["ctr_payload"] = ::benchmark::Counter(static_cast<double>(payload_bytes));
    state.counters["ctr_was_base"] =
        ::benchmark::Counter(s.w.store->last_commit_was_base() ? 1 : 0);
    CurrentThread::Set(kInvalidObject);
  }
  state.counters["files"] = ::benchmark::Counter(static_cast<double>(n));
}
BENCHMARK(BM_EngineCheckpointDirty)
    ->Arg(1000)
    ->ArgName("files")
    ->UseManualTime()
    ->Unit(::benchmark::kMillisecond)
    ->Iterations(1);

void BM_EngineRestore(::benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    // A 256 KB root buffer forces real tree-node flushes during the
    // multi-epoch populate, so the image is nodes + a short message chain
    // rather than one giant root buffer.
    StoreTuning t;
    t.betree.root_buffer_bytes = 256 << 10;
    LabelHeavyWorld s =
        MakeLabelHeavyWorld(n, /*store_data=*/true, t, /*sync_every=*/100);
    if (s.w.kernel->sys_sync(s.w.init()) != Status::kOk) {
      state.SkipWithError("sync failed");
      return;
    }
    SingleLevelStore store2(s.w.disk.get(), t);
    Kernel k2;
    uint64_t seeks0 = s.w.disk->seek_ops();
    uint64_t rops0 = s.w.disk->read_ops();
    PhaseTimer timer(s.w.disk.get());
    if (store2.Recover(&k2) != Status::kOk) {
      state.SkipWithError("recover failed");
      return;
    }
    state.SetIterationTime(timer.Seconds());
    state.counters["ctr_seeks"] =
        ::benchmark::Counter(static_cast<double>(s.w.disk->seek_ops() - seeks0));
    state.counters["ctr_rops"] =
        ::benchmark::Counter(static_cast<double>(s.w.disk->read_ops() - rops0));
    state.counters["ctr_objects"] =
        ::benchmark::Counter(static_cast<double>(k2.ObjectCount()));
    CurrentThread::Set(kInvalidObject);
  }
  state.counters["files"] = ::benchmark::Counter(static_cast<double>(n));
}
BENCHMARK(BM_EngineRestore)
    ->Arg(1000)
    ->ArgName("files")
    ->UseManualTime()
    ->Unit(::benchmark::kMillisecond)
    ->Iterations(1);

// ---- ext3-flavored baseline phases ---------------------------------------------

monosim::MonoFs MakeMonoFs(std::unique_ptr<DiskModel>* disk_out) {
  DiskGeometry g;
  g.capacity_bytes = 2ULL << 30;
  g.store_data = false;
  auto disk = std::make_unique<DiskModel>(g);
  monosim::MonoFs fs(disk.get());
  if (fs.Mkfs() != Status::kOk) {
    std::abort();
  }
  *disk_out = std::move(disk);
  return fs;
}

void BM_BaselineCreate(::benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const SyncMode mode = static_cast<SyncMode>(state.range(1));
  for (auto _ : state) {
    std::unique_ptr<DiskModel> disk;
    monosim::MonoFs fs = MakeMonoFs(&disk);
    std::vector<uint8_t> payload(kFileBytes, 0xcd);
    PhaseTimer timer(disk.get());
    for (int i = 0; i < n; ++i) {
      Result<uint64_t> ino = fs.Create(FileName(i));
      if (!ino.ok() ||
          fs.Write(ino.value(), 0, payload.data(), payload.size()) != Status::kOk) {
        state.SkipWithError("create failed");
        return;
      }
      if (mode == SyncMode::kPerFile && fs.Fsync(ino.value()) != Status::kOk) {
        state.SkipWithError("fsync failed");
        return;
      }
    }
    if (mode == SyncMode::kGroup && fs.SyncAll() != Status::kOk) {
      state.SkipWithError("sync failed");
      return;
    }
    state.SetIterationTime(timer.Seconds());
  }
  state.counters["files"] = ::benchmark::Counter(static_cast<double>(n));
}
BENCHMARK(BM_BaselineCreate)
    ->ArgsProduct({{1000}, {0, 1, 2}})
    ->ArgNames({"files", "sync"})
    ->UseManualTime()
    ->Unit(::benchmark::kMillisecond)
    ->Iterations(1);

void BM_BaselineReadUncached(::benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const bool lookahead = state.range(1) != 0;
  for (auto _ : state) {
    std::unique_ptr<DiskModel> disk;
    monosim::MonoFs fs = MakeMonoFs(&disk);
    std::vector<uint8_t> payload(kFileBytes, 0xcd);
    std::vector<uint64_t> inos;
    for (int i = 0; i < n; ++i) {
      Result<uint64_t> ino = fs.Create(FileName(i));
      if (!ino.ok() ||
          fs.Write(ino.value(), 0, payload.data(), payload.size()) != Status::kOk) {
        state.SkipWithError("create failed");
        return;
      }
      inos.push_back(ino.value());
    }
    if (fs.SyncAll() != Status::kOk) {
      state.SkipWithError("sync failed");
      return;
    }
    fs.DropCaches();
    disk->set_lookahead_enabled(lookahead);
    PhaseTimer timer(disk.get());
    std::vector<uint8_t> buf(kFileBytes);
    for (uint64_t ino : inos) {
      if (!fs.Read(ino, 0, buf.data(), buf.size()).ok()) {
        state.SkipWithError("read failed");
        return;
      }
    }
    state.SetIterationTime(timer.Seconds());
  }
  state.counters["files"] = ::benchmark::Counter(static_cast<double>(n));
}
BENCHMARK(BM_BaselineReadUncached)
    ->ArgsProduct({{1000}, {1, 0}})
    ->ArgNames({"files", "lookahead"})
    ->UseManualTime()
    ->Unit(::benchmark::kMillisecond)
    ->Iterations(1);

void BM_BaselineUnlink(::benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const SyncMode mode = static_cast<SyncMode>(state.range(1));
  for (auto _ : state) {
    std::unique_ptr<DiskModel> disk;
    monosim::MonoFs fs = MakeMonoFs(&disk);
    std::vector<uint8_t> payload(kFileBytes, 0xcd);
    std::vector<uint64_t> inos;
    for (int i = 0; i < n; ++i) {
      Result<uint64_t> ino = fs.Create(FileName(i));
      if (!ino.ok() ||
          fs.Write(ino.value(), 0, payload.data(), payload.size()) != Status::kOk) {
        state.SkipWithError("create failed");
        return;
      }
      inos.push_back(ino.value());
    }
    if (fs.SyncAll() != Status::kOk) {
      state.SkipWithError("sync failed");
      return;
    }
    PhaseTimer timer(disk.get());
    for (int i = 0; i < n; ++i) {
      if (fs.Unlink(FileName(i)) != Status::kOk) {
        state.SkipWithError("unlink failed");
        return;
      }
      // ext3 fsync of the directory: one journal commit, not a checkpoint —
      // the source of the paper's 456 s vs 173 s gap.
      if (mode == SyncMode::kPerFile && fs.FsyncDir() != Status::kOk) {
        state.SkipWithError("fsync failed");
        return;
      }
    }
    if (mode == SyncMode::kGroup && fs.SyncAll() != Status::kOk) {
      state.SkipWithError("sync failed");
      return;
    }
    state.SetIterationTime(timer.Seconds());
  }
  state.counters["files"] = ::benchmark::Counter(static_cast<double>(n));
}
BENCHMARK(BM_BaselineUnlink)
    ->ArgsProduct({{1000}, {0, 1, 2}})
    ->ArgNames({"files", "sync"})
    ->UseManualTime()
    ->Unit(::benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace
}  // namespace histar::bench

BENCHMARK_MAIN();
