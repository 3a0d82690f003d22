// Status-propagation audit, pinned (PR 7 satellite): an injected DiskModel
// error anywhere under a sync must surface as that sync's failure status —
// kIoError for device errors, kNoMem for allocation failure — with the
// kernel still live, the world still dirty, and a clean retry committing.
// No store path may swallow a Read/Write status (each call site in
// single_level_store.cc checks and forwards; these tests keep it that way).
#include <gtest/gtest.h>

#include "src/store/single_level_store.h"
#include "src/store/store_alloc.h"
#include "tests/kernel/kernel_test_util.h"
#include "tests/store/crash_oracle.h"

namespace histar {
namespace {

StoreTuning AuditTuning() {
  StoreTuning t;
  t.log_region_bytes = 1 << 20;
  return t;
}

class SyncFaultStatusTest : public KernelTest {
 protected:
  void SetUp() override { NewWorld(); }

  // A fresh kernel on a freshly formatted disk (SetUp's world; tests that
  // sweep fault positions call it again for each position).
  void NewWorld() {
    KernelTest::SetUp();
    DiskGeometry g;
    g.capacity_bytes = 64 << 20;
    g.zero_latency = true;
    g.store_data = true;
    disk_ = std::make_unique<DiskModel>(g);
    store_ = std::make_unique<SingleLevelStore>(disk_.get(), AuditTuning());
    ASSERT_EQ(store_->Format(), Status::kOk);
    kernel_->AttachPersistTarget(store_.get());
  }

  void TearDown() override {
    StoreAlloc::Disarm();
    KernelTest::TearDown();
  }

  void ArmWriteError(uint64_t nth_write = 0) {
    FaultPlan plan;
    FaultRule rule;
    rule.kind = FaultKind::kWriteError;
    rule.on_read = false;
    rule.op_index = nth_write;
    plan.rules.push_back(rule);
    disk_->SetFaultPlan(std::move(plan));
  }

  void ArmReadError(uint64_t nth_read) {
    FaultPlan plan;
    FaultRule rule;
    rule.kind = FaultKind::kReadError;
    rule.on_read = true;
    rule.op_index = nth_read;
    plan.rules.push_back(rule);
    disk_->SetFaultPlan(std::move(plan));
  }

  std::unique_ptr<DiskModel> disk_;
  std::unique_ptr<SingleLevelStore> store_;
};

// The headline property: a device write error fails sys_sync with kIoError,
// the kernel keeps running with its dirty marks intact, and the retry (the
// fault is one-shot) commits the same world a reboot then reproduces.
TEST_F(SyncFaultStatusTest, WriteErrorFailsSyncKernelStaysLiveWorldStaysDirty) {
  ObjectId seg = MakeSegment(Label(), 128);
  uint64_t stamp = 1;
  ASSERT_EQ(kernel_->sys_segment_write(init_, RootEntry(seg), &stamp, 0, 8), Status::kOk);

  ArmWriteError();
  EXPECT_EQ(kernel_->sys_sync(init_), Status::kIoError);
  EXPECT_EQ(disk_->faults_injected(FaultKind::kWriteError), 1u);
  EXPECT_FALSE(disk_->crashed()) << "a transient I/O error is not a device crash";

  // Kernel live: dirty marks survive, reads and writes still work.
  EXPECT_FALSE(kernel_->DirtyObjects().empty());
  uint64_t read_back = 0;
  ASSERT_EQ(kernel_->sys_segment_read(init_, RootEntry(seg), &read_back, 0, 8), Status::kOk);
  EXPECT_EQ(read_back, 1u);

  // Retry commits; reboot agrees byte-for-byte.
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);
  EXPECT_TRUE(kernel_->DirtyObjects().empty());
  RebootResult r = RebootFromDisk(disk_.get(), AuditTuning());
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(WorldImage(*r.kernel), WorldImage(*kernel_));
}

// Same contract on the WAL path.
TEST_F(SyncFaultStatusTest, WriteErrorFailsSyncObject) {
  ObjectId seg = MakeSegment(Label(), 128);
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);
  uint64_t stamp = 2;
  ASSERT_EQ(kernel_->sys_segment_write(init_, RootEntry(seg), &stamp, 0, 8), Status::kOk);

  ArmWriteError();
  EXPECT_EQ(kernel_->sys_sync_object(init_, RootEntry(seg)), Status::kIoError);
  EXPECT_FALSE(kernel_->DirtyObjects().empty());
  ASSERT_EQ(kernel_->sys_sync_object(init_, RootEntry(seg)), Status::kOk);

  RebootResult r = RebootFromDisk(disk_.get(), AuditTuning());
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(WorldImage(*r.kernel), WorldImage(*kernel_));
}

// A device error on any write INTO the checkpoint (not the first) still
// propagates — mid-operation statuses are not dropped on the floor. The
// checkpoint's writes are counted on an unarmed twin world, then every
// index past the first is failed in turn, each on a fresh world.
TEST_F(SyncFaultStatusTest, MidCheckpointWriteErrorPropagates) {
  auto populate = [this] {
    for (int i = 0; i < 6; ++i) {
      ObjectId seg = MakeSegment(Label(), 128);
      uint64_t stamp = static_cast<uint64_t>(i);
      ASSERT_EQ(kernel_->sys_segment_write(init_, RootEntry(seg), &stamp, 0, 8),
                Status::kOk);
    }
  };
  populate();
  uint64_t before = disk_->write_ops();
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);
  const uint64_t n = disk_->write_ops() - before;
  // A base checkpoint: tree node(s), section, section checksum, superblock.
  ASSERT_GT(n, 2u);

  for (uint64_t index = 1; index < n; ++index) {
    NewWorld();
    populate();
    ArmWriteError(index);
    EXPECT_EQ(kernel_->sys_sync(init_), Status::kIoError) << "write index " << index;
    EXPECT_EQ(disk_->faults_injected(FaultKind::kWriteError), 1u) << "write index " << index;
    EXPECT_FALSE(kernel_->DirtyObjects().empty()) << "write index " << index;
    ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk) << "write index " << index;
    RebootResult r = RebootFromDisk(disk_.get(), AuditTuning());
    ASSERT_EQ(r.status, Status::kOk) << "write index " << index;
    EXPECT_EQ(WorldImage(*r.kernel), WorldImage(*kernel_)) << "write index " << index;
  }
}

// Allocation failure surfaces as kNoMem, distinct from device errors, with
// the same live-kernel/retry contract.
TEST_F(SyncFaultStatusTest, AllocationFailureSurfacesAsNoMem) {
  ObjectId seg = MakeSegment(Label(), 128);
  uint64_t stamp = 3;
  ASSERT_EQ(kernel_->sys_segment_write(init_, RootEntry(seg), &stamp, 0, 8), Status::kOk);

  StoreAlloc::FailNth(1);
  EXPECT_EQ(kernel_->sys_sync(init_), Status::kNoMem);
  EXPECT_FALSE(kernel_->DirtyObjects().empty());
  EXPECT_EQ(kernel_->sys_sync(init_), Status::kOk);
}

// Demand paging (TouchObject) forwards read errors instead of fabricating a
// length; the next attempt succeeds.
TEST_F(SyncFaultStatusTest, TouchObjectForwardsReadError) {
  ObjectId seg = MakeSegment(Label(), 4096);
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);

  ArmReadError(0);
  Result<uint64_t> touched = store_->TouchObject(seg);
  EXPECT_EQ(touched.status(), Status::kIoError);
  Result<uint64_t> retry = store_->TouchObject(seg);
  ASSERT_TRUE(retry.ok());
  EXPECT_GT(retry.value(), 0u);
}

// Superblock reads are redundant: an error on one slot's read falls back to
// the other copy and recovery succeeds.
TEST_F(SyncFaultStatusTest, SuperblockReadErrorFallsBackToMirror) {
  ObjectId seg = MakeSegment(Label(), 128);
  uint64_t stamp = 4;
  ASSERT_EQ(kernel_->sys_segment_write(init_, RootEntry(seg), &stamp, 0, 8), Status::kOk);
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);

  ArmReadError(0);  // the first read of recovery: superblock slot A
  RebootResult r = RebootFromDisk(disk_.get(), AuditTuning());
  ASSERT_EQ(r.status, Status::kOk) << "one failed superblock read must not end recovery";
  EXPECT_EQ(WorldImage(*r.kernel), WorldImage(*kernel_));
}

// A read error on checkpoint-section or blob data has no mirror: Recover
// must return the error (a failed boot, never an abort), and the clean
// retry must come up on the same world.
TEST_F(SyncFaultStatusTest, SectionReadErrorFailsRecoverCleanRetryWorks) {
  ObjectId seg = MakeSegment(Label(), 128);
  uint64_t stamp = 5;
  ASSERT_EQ(kernel_->sys_segment_write(init_, RootEntry(seg), &stamp, 0, 8), Status::kOk);
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);
  WorldMap committed = WorldImage(*kernel_);

  ArmReadError(2);  // past both superblock slots: the first section read
  RebootResult faulty = RebootFromDisk(disk_.get(), AuditTuning());
  EXPECT_EQ(faulty.status, Status::kIoError);
  disk_->ClearFaults();

  RebootResult clean = RebootFromDisk(disk_.get(), AuditTuning());
  ASSERT_EQ(clean.status, Status::kOk);
  EXPECT_EQ(WorldImage(*clean.kernel), committed);
}

}  // namespace
}  // namespace histar
