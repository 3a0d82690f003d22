// fs_durable: the paper's LFS small-file row plus crash recovery.
//
// One client thread runs the LFS small-file phases [Rosenblum & Ousterhout]
// on labeled 1 kB files in several directories of a world whose kernel
// checkpoints to the single-level store on the latency-modeled disk: create
// every file, read every file back, unlink every file. Each read and unlink
// phase first lists the directories, and sys_sync checkpoints every
// kSyncEvery creates or unlinks. A last phase creates and fsyncs a few
// files (the write-ahead log), checkpoints, rewrites and fsyncs them again,
// and the flushed image is recovered into a fresh Kernel to check that what
// was acknowledged survived. The store and the unixlib directory code do
// most of the work; no process or IPC code runs.
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "perfbench/spans.h"
#include "perfbench/workloads.h"
#include "src/store/disk_model.h"
#include "src/store/single_level_store.h"
#include "src/unixlib/unix.h"

namespace perfbench {
namespace {

using histar::ContainerEntry;
using histar::CurrentThread;
using histar::Label;
using histar::Level;
using histar::ObjectId;
using histar::Result;
using spans::Span;

// Where each number comes from is recorded in RATIONALE.md.
constexpr int kFiles = 1000;      // files per phase, as bench/fig12_lfs_small.cc
constexpr int kSyncEvery = 100;   // creates or unlinks per checkpoint, as fig12's Populate
constexpr uint64_t kFileBytes = 1024;  // the paper's small file
constexpr int kCategories = 4;    // driver-owned; levels {0,2,3} give 81 labels
constexpr int kDirs = 8;          // unverified: "several directories"
constexpr int kWalFiles = 10;     // unverified: files the log must replay
constexpr uint64_t kFileQuota = histar::kObjectOverheadBytes + 4 * histar::kPageSize;
constexpr uint64_t kDirQuota = 8 << 20;
constexpr double kOpDeadlineS = 10;
constexpr double kPhaseDeadlineS = 60;

struct FileModel {
  int dir = 0;
  std::string name;
  ObjectId id = histar::kInvalidObject;
  int label = 0;
  uint64_t version = 0;
};

class FsDurable {
 public:
  FsDurable(const RoundCtx& ctx, RoundResult* r) : ctx_(ctx), r_(r), rng_(ctx.seed) {}

  void Run();

 private:
  bool Setup();
  void RunOps();
  void Recover();

  std::vector<uint8_t> Content(const FileModel& f) const {
    uint64_t key = Fnv(reinterpret_cast<const uint8_t*>(f.name.data()), f.name.size(), ctx_.seed);
    return Bytes(key + f.version, kFileBytes);
  }
  histar::FileSystem& fs() { return unix_->fs(); }

  // Timed operation wrapper: records the op's latency (host wall plus the
  // simulated device time it charged) into op_ms and the given series.
  template <typename Fn>
  void Timed(const char* span, const char* series, double scale, Fn&& fn);

  void CreateFile();
  void ReadFile(const FileModel& f);
  void UnlinkFile(FileModel f);
  void ListDirs();
  void FsyncFile(FileModel& f);
  void Sync();

  const RoundCtx& ctx_;
  RoundResult* r_;
  Rng rng_;
  uint64_t op_id_ = 0;
  uint64_t payload_bytes_ = 0;
  uint64_t span_window_start_ = 0;

  std::unique_ptr<histar::DiskModel> disk_;
  std::unique_ptr<histar::SingleLevelStore> store_;
  std::unique_ptr<histar::Kernel> kernel_;
  std::unique_ptr<histar::UnixWorld> unix_;
  ObjectId init_ = histar::kInvalidObject;
  std::vector<Label> labels_;
  std::vector<ObjectId> dirs_;
  std::vector<FileModel> live_;  // in creation order
  std::set<std::string> dir_names_[kDirs];
  std::vector<FileModel> unlinked_;

  // Per-sync device and host figures for the store layer.
  std::vector<double> sync_sim_ms_, sync_host_ms_;
  uint64_t sync_writes_ = 0, sync_seeks_ = 0;
};

template <typename Fn>
void FsDurable::Timed(const char* span, const char* series, double scale, Fn&& fn) {
  Deadline d(ctx_.watchdog, 0, span, kOpDeadlineS);
  Span s(span, ++op_id_);
  uint64_t sim0 = disk_->sim_time_ns();
  uint64_t t0 = NowNs();
  fn();
  double ns = static_cast<double>(NowNs() - t0 + (disk_->sim_time_ns() - sim0));
  r_->samples["op_ms"].push_back(ns / 1e6);
  if (series != nullptr) {
    r_->samples[series].push_back(ns / scale);
  }
  ++r_->ops;
}

bool FsDurable::Setup() {
  Deadline d(ctx_.watchdog, 0, "setup", kPhaseDeadlineS);
  histar::DiskGeometry g;
  g.capacity_bytes = 1ULL << 30;
  g.store_data = true;  // recovery reads the image back
  disk_ = std::make_unique<histar::DiskModel>(g);
  store_ = std::make_unique<histar::SingleLevelStore>(disk_.get());
  if (!r_->Check(store_->Format(), "store.Format")) {
    return false;
  }
  kernel_ = std::make_unique<histar::Kernel>();
  if (ctx_.traced) {
    EnableLockAccounting(*kernel_);
  }
  kernel_->AttachPersistTarget(store_.get());
  unix_ = histar::UnixWorld::Boot(kernel_.get());
  if (!r_->Check(unix_ != nullptr, "UnixWorld::Boot")) {
    return false;
  }
  init_ = unix_->init_thread();
  CurrentThread::Set(init_);

  histar::CategoryId cats[kCategories];
  for (auto& c : cats) {
    Result<histar::CategoryId> cr = kernel_->sys_cat_create(init_);
    if (!r_->Check(cr.status(), "cat_create")) {
      return false;
    }
    c = cr.value();
  }
  const Level levels[3] = {Level::k0, Level::k2, Level::k3};
  for (int i = 0; i < 81; ++i) {
    Label l(Level::k1);
    for (int c = 0, div = 1; c < kCategories; ++c, div *= 3) {
      l.set(cats[c], levels[(i / div) % 3]);
    }
    labels_.push_back(l);
  }
  for (int i = 0; i < kDirs; ++i) {
    Result<ObjectId> dir =
        fs().MakeDir(init_, unix_->fs_root(), "d" + std::to_string(i), Label(), kDirQuota);
    if (!r_->Check(dir.status(), "MakeDir")) {
      return false;
    }
    dirs_.push_back(dir.value());
  }
  return r_->Check(kernel_->sys_sync(init_), "setup sys_sync");
}

void FsDurable::CreateFile() {
  FileModel f;
  f.dir = static_cast<int>(rng_.Below(kDirs));
  f.name = "f" + std::to_string(live_.size() + unlinked_.size());
  f.label = static_cast<int>(rng_.Below(labels_.size()));
  std::vector<uint8_t> bytes = Content(f);
  bool ok = false;
  Timed("op.create", "create_us", 1e3, [&] {
    Result<ObjectId> id = [&] {
      Span s("fs.Create");
      return fs().Create(init_, dirs_[f.dir], f.name, labels_[f.label], kFileQuota);
    }();
    if (!r_->Check(id.status(), "fs.Create")) {
      return;
    }
    f.id = id.value();
    Span s("fs.WriteAt");
    ok = r_->Check(fs().WriteAt(init_, dirs_[f.dir], f.id, bytes.data(), 0, bytes.size()),
                   "fs.WriteAt");
  });
  if (f.id != histar::kInvalidObject) {
    payload_bytes_ += ok ? kFileBytes : 0;
    dir_names_[f.dir].insert(f.name);
    live_.push_back(std::move(f));
  }
}

void FsDurable::ReadFile(const FileModel& f) {
  ObjectId dir = dirs_[f.dir];
  std::vector<uint8_t> buf(kFileBytes);
  Result<ObjectId> id = histar::Status::kNotFound;
  Result<uint64_t> n = histar::Status::kNotFound;
  Timed("op.read", "read_us", 1e3, [&] {
    {
      Span s("fs.Lookup");
      id = fs().Lookup(init_, dir, f.name);
    }
    if (id.ok()) {
      Span s("fs.ReadAt");
      n = fs().ReadAt(init_, dir, id.value(), buf.data(), 0, buf.size());
    }
  });
  if (!r_->Check(id.status(), "fs.Lookup") || !r_->Check(n.status(), "fs.ReadAt")) {
    return;
  }
  r_->Check(id.value() == f.id && n.value() == kFileBytes && buf == Content(f),
            "read: wrong object or bytes", f.name);
  Result<Label> label = kernel_->sys_obj_get_label(init_, ContainerEntry{dir, f.id});
  r_->Check(label.ok() && label.value() == labels_[f.label], "read: wrong label", f.name);
}

void FsDurable::UnlinkFile(FileModel f) {
  histar::Status st = histar::Status::kOk;
  Timed("op.unlink", nullptr, 0, [&] {
    Span s("fs.Unlink");
    st = fs().Unlink(init_, dirs_[f.dir], f.name);
  });
  r_->Check(st, "fs.Unlink");
  dir_names_[f.dir].erase(f.name);
  unlinked_.push_back(std::move(f));
}

// Lists every directory, as `cat d*/*` or `rm d*/*` would before a phase.
void FsDurable::ListDirs() {
  for (int d = 0; d < kDirs; ++d) {
    Result<std::vector<std::pair<std::string, ObjectId>>> list = histar::Status::kNotFound;
    Timed("op.readdir", nullptr, 0, [&] {
      Span s("fs.ReadDir");
      list = fs().ReadDir(init_, dirs_[d]);
    });
    if (!r_->Check(list.status(), "fs.ReadDir")) {
      continue;
    }
    std::set<std::string> names;
    for (const auto& [name, id] : list.value()) {
      names.insert(name);
    }
    r_->Check(names == dir_names_[d], "readdir: listing differs from the model");
  }
}

// Writes the file's next version and fsyncs it: the write-ahead-log path.
void FsDurable::FsyncFile(FileModel& f) {
  ++f.version;
  std::vector<uint8_t> bytes = Content(f);
  histar::Status wst = histar::Status::kOk, sst = histar::Status::kOk;
  Timed("op.fsync", "fsync_ms", 1e6, [&] {
    {
      Span s("fs.WriteAt");
      wst = fs().WriteAt(init_, dirs_[f.dir], f.id, bytes.data(), 0, bytes.size());
    }
    Span s("fs.SyncFile");
    sst = fs().SyncFile(init_, dirs_[f.dir], f.id);
  });
  payload_bytes_ += kFileBytes;
  r_->Check(wst, "fs.WriteAt");
  r_->Check(sst, "fs.SyncFile");
}

void FsDurable::Sync() {
  uint64_t sim0 = disk_->sim_time_ns();
  uint64_t writes0 = disk_->write_ops();
  uint64_t seeks0 = disk_->seek_ops();
  uint64_t t0 = NowNs();
  histar::Status st = histar::Status::kOk;
  Timed("op.sync", "sync_ms", 1e6, [&] {
    Span s("kernel.sys_sync");
    st = kernel_->sys_sync(init_);
  });
  r_->Check(st, "sys_sync");
  uint64_t sim = disk_->sim_time_ns() - sim0;
  sync_host_ms_.push_back(static_cast<double>(NowNs() - t0) / 1e6);
  sync_sim_ms_.push_back(static_cast<double>(sim) / 1e6);
  sync_writes_ += disk_->write_ops() - writes0;
  sync_seeks_ += disk_->seek_ops() - seeks0;
}

void FsDurable::RunOps() {
  KernelCounters kc0 = KernelCounters::Read(*kernel_);
  SyscallHist hist0 = SyscallHist::Read();
  uint64_t bytes0 = disk_->bytes_written();
  uint64_t payload0 = payload_bytes_;
  uint64_t sim0 = disk_->sim_time_ns();
  uint64_t t0 = NowNs();
  // Create phase.
  for (int i = 0; i < kFiles; ++i) {
    CreateFile();
    if ((i + 1) % kSyncEvery == 0) {
      Sync();
    }
  }
  // Read phase, in creation order.
  ListDirs();
  for (const FileModel& f : live_) {
    ReadFile(f);
  }
  // Unlink phase, in creation order.
  ListDirs();
  std::vector<FileModel> doomed = std::move(live_);
  live_.clear();
  for (size_t i = 0; i < doomed.size(); ++i) {
    UnlinkFile(std::move(doomed[i]));
    if ((i + 1) % kSyncEvery == 0) {
      Sync();
    }
  }
  // Log phase: fsynced creates, a checkpoint that covers them, then fsynced
  // rewrites that recovery must replay from the log on top of it.
  for (int i = 0; i < kWalFiles; ++i) {
    CreateFile();
    FsyncFile(live_.back());
  }
  Sync();
  for (FileModel& f : live_) {
    FsyncFile(f);
  }
  uint64_t wall = NowNs() - t0;
  uint64_t sim = disk_->sim_time_ns() - sim0;
  r_->wall_s = static_cast<double>(wall) / 1e9;
  r_->scalars["ops_per_s"] = static_cast<double>(r_->ops) / (static_cast<double>(wall + sim) / 1e9);

  if (!ctx_.traced) {
    return;
  }
  FillKernelLayers(*kernel_, init_, kc0, hist0, r_->ops, r_);
  auto& l = r_->layer;
  uint64_t syncs = sync_sim_ms_.size();
  double sim_ms = 0;
  for (double v : sync_sim_ms_) {
    sim_ms += v;
  }
  l["store.disk.sim_ms_per_sync"] = {sim_ms / static_cast<double>(syncs),
                                     std::to_string(sim_ms) + " ms / " + std::to_string(syncs) +
                                         " syncs"};
  l["store.disk.write_ops_per_sync"] = {
      static_cast<double>(sync_writes_) / static_cast<double>(syncs),
      std::to_string(sync_writes_) + " writes / " + std::to_string(syncs) + " syncs"};
  l["store.disk.seeks_per_sync"] = {
      static_cast<double>(sync_seeks_) / static_cast<double>(syncs),
      std::to_string(sync_seeks_) + " seeks / " + std::to_string(syncs) + " syncs"};
  uint64_t dev = disk_->bytes_written() - bytes0;
  uint64_t user = payload_bytes_ - payload0;
  l["store.write_amp"] = {static_cast<double>(dev) / static_cast<double>(user),
                          std::to_string(dev) + " device bytes / " + std::to_string(user) +
                              " payload bytes"};
  l["store.checkpoint.host_ms"] = {Median(sync_host_ms_), "median of " +
                                                              std::to_string(syncs) + " syncs"};
  l["store.chain_length_end"] = {static_cast<double>(store_->chain_length()), ""};
  l["store.chain_folds"] = {static_cast<double>(store_->chain_folds()), ""};
  l["store.log_records"] = {static_cast<double>(store_->log_records()), ""};
}

void FsDurable::Recover() {
  // The running world is gone; only the disk survives.
  CurrentThread::Set(histar::kInvalidObject);
  unix_.reset();
  kernel_.reset();
  store_.reset();

  Deadline d(ctx_.watchdog, 0, "recover", kPhaseDeadlineS);
  uint64_t reads0 = disk_->read_ops();
  uint64_t seeks0 = disk_->seek_ops();
  uint64_t sim0 = disk_->sim_time_ns();
  uint64_t t0 = NowNs();
  auto store = std::make_unique<histar::SingleLevelStore>(disk_.get());
  auto kernel = std::make_unique<histar::Kernel>();
  histar::Status st;
  {
    Span s("store.Recover", ++op_id_);
    st = store->Recover(kernel.get());
  }
  spans::SetEnabled(false);
  r_->scalars["span_wall_s"] = static_cast<double>(NowNs() - span_window_start_) / 1e9;
  uint64_t sim = disk_->sim_time_ns() - sim0;
  r_->scalars["recover_s"] = static_cast<double>(NowNs() - t0 + sim) / 1e9;
  if (ctx_.traced) {
    r_->layer["store.recover.read_ops"] = {static_cast<double>(disk_->read_ops() - reads0), ""};
    r_->layer["store.recover.seeks"] = {static_cast<double>(disk_->seek_ops() - seeks0), ""};
    r_->layer["store.recover.sim_ms"] = {static_cast<double>(sim) / 1e6, ""};
  }
  if (!r_->Check(st, "store.Recover")) {
    return;
  }

  // Durability oracle: every file acknowledged by the last sync or a later
  // fsync is present with its label and latest bytes; every file unlinked
  // before that sync is absent.
  CurrentThread bind(init_);
  histar::FileSystem fs2(kernel.get());
  std::vector<uint8_t> buf(kFileBytes);
  for (const FileModel& f : live_) {
    ObjectId dir = dirs_[f.dir];
    Result<ObjectId> id = fs2.Lookup(init_, dir, f.name);
    if (!r_->Check(id.ok() && id.value() == f.id, "recovered file missing", f.name)) {
      continue;
    }
    Result<uint64_t> n = fs2.ReadAt(init_, dir, f.id, buf.data(), 0, buf.size());
    r_->Check(n.ok() && n.value() == kFileBytes && buf == Content(f),
              "recovered file has wrong bytes", f.name);
    Result<Label> label = kernel->sys_obj_get_label(init_, ContainerEntry{dir, f.id});
    r_->Check(label.ok() && label.value() == labels_[f.label], "recovered file has wrong label",
              f.name);
  }
  for (const FileModel& f : unlinked_) {
    Result<ObjectId> id = fs2.Lookup(init_, dirs_[f.dir], f.name);
    r_->Check(id.status() == histar::Status::kNotFound, "unlinked file came back", f.name);
  }
}

void FsDurable::Run() {
  uint64_t t0 = NowNs();
  bool ok = Setup();
  // Host time plus the device time of formatting the store and the first
  // checkpoint: the disk is new, so all of its simulated time is set-up's.
  uint64_t sim = disk_ ? disk_->sim_time_ns() : 0;
  r_->setup_s = static_cast<double>(NowNs() - t0 + sim) / 1e9;
  if (ok) {
    // Spans cover the measured operations and the recovery call.
    spans::SetEnabled(ctx_.traced);
    span_window_start_ = NowNs();
    RunOps();
    Recover();
  }
  CurrentThread::Set(histar::kInvalidObject);
}

}  // namespace

RoundResult RunFsDurable(const RoundCtx& ctx) {
  RoundResult r;
  FsDurable(ctx, &r).Run();
  return r;
}

}  // namespace perfbench
