// Allocation-failure sweep (PR 7 satellite): every allocating step on the
// store path carries a StoreAlloc::Check() injection point. Failing the
// Nth check for every N a workload performs must surface as Status::kNoMem
// from the syscall — kernel live, world dirty, allocator and object map
// consistent — and the immediately retried commit must succeed and recover
// byte-identically. Run under ASan in CI, the sweep also proves failure
// unwinding leaks nothing.
#include <gtest/gtest.h>

#include "src/store/single_level_store.h"
#include "src/store/store_alloc.h"
#include "tests/kernel/kernel_test_util.h"
#include "tests/store/crash_oracle.h"

namespace histar {
namespace {

StoreTuning SweepTuning() {
  StoreTuning t;
  t.log_region_bytes = 1 << 20;
  t.log_apply_threshold = 4;  // WAL folds commit inside the sweep too
  t.max_increments = 2;       // and base rollovers
  return t;
}

class AllocFailureTest : public KernelTest {
 protected:
  void SetUp() override {
    KernelTest::SetUp();
    DiskGeometry g;
    g.capacity_bytes = 64 << 20;
    g.zero_latency = true;
    g.store_data = true;
    disk_ = std::make_unique<DiskModel>(g);
    store_ = std::make_unique<SingleLevelStore>(disk_.get(), SweepTuning());
    ASSERT_EQ(store_->Format(), Status::kOk);
    kernel_->AttachPersistTarget(store_.get());
  }

  void TearDown() override {
    StoreAlloc::Disarm();
    KernelTest::TearDown();
  }

  std::unique_ptr<DiskModel> disk_;
  std::unique_ptr<SingleLevelStore> store_;
};

// The sweep proper: measure how many allocation checks one checkpoint
// round performs, then re-run the round failing check 1, 2, ... N. Every
// injected failure must yield kNoMem (or land after the round's store work
// and hit nothing), the retry must commit, and the recovered world must
// equal the live one.
TEST_F(AllocFailureTest, EveryNthFailurePointRetriesClean) {
  std::vector<ObjectId> segs;
  for (int i = 0; i < 5; ++i) {
    segs.push_back(MakeSegment(Label(), 128));
  }
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);

  // Calibration round, unarmed: count the checks a round performs.
  auto run_round = [&](uint64_t salt) {
    for (size_t i = 0; i < segs.size(); ++i) {
      uint64_t stamp = salt * 1000 + i;
      EXPECT_EQ(kernel_->sys_segment_write(init_, RootEntry(segs[i]), &stamp, 0, 8),
                Status::kOk);
    }
    return kernel_->sys_sync(init_);
  };
  StoreAlloc::ResetAttempts();
  ASSERT_EQ(run_round(0), Status::kOk);
  const uint64_t checks_per_round = StoreAlloc::attempts();
  // The round is an increment (max_increments = 2, one base behind it), and
  // every StoreAlloc::Check() site it reaches is counted exactly, so a lost
  // injection point and an added one both fail here:
  //   1                SingleLevelStore::CheckpointLocked entry
  //   + segs.size()    BetreeEngine::WriteObject, one per dirty segment
  //   + 1              SingleLevelStore::CommitSection entry
  //   + 1              ExtentAllocator::Allocate for the section extent
  // (the superseded-extent release after the flip runs under
  // StoreAllocNoFail and counts nothing).
  ASSERT_EQ(checks_per_round, 1 + segs.size() + 1 + 1)
      << "the store path lost or gained an injection point";

  for (uint64_t n = 1; n <= checks_per_round; ++n) {
    for (size_t i = 0; i < segs.size(); ++i) {
      uint64_t stamp = n * 1000 + i;
      ASSERT_EQ(kernel_->sys_segment_write(init_, RootEntry(segs[i]), &stamp, 0, 8),
                Status::kOk);
    }
    StoreAlloc::FailNth(n);
    Status st = kernel_->sys_sync(init_);
    StoreAlloc::Disarm();
    if (st != Status::kOk) {
      EXPECT_EQ(st, Status::kNoMem) << "allocation failure surfaced as " << StatusName(st)
                                    << " at injection point " << n;
      // The kernel survived: the world is still dirty and retryable.
      EXPECT_FALSE(kernel_->DirtyObjects().empty());
      EXPECT_EQ(kernel_->sys_sync(init_), Status::kOk)
          << "retry after injected failure " << n << " did not recover";
    }
    // No corruption latent in the commit: a reboot reproduces the live
    // world exactly.
    RebootResult r = RebootFromDisk(disk_.get(), SweepTuning());
    ASSERT_EQ(r.status, Status::kOk) << "recovery broken after injection point " << n;
    ASSERT_EQ(WorldImage(*r.kernel), WorldImage(*kernel_))
        << "world diverged after injection point " << n;
  }
}

// The WAL path swept the same way: per-object syncs with a low apply
// threshold, so injections land in log appends, log folds, and the
// increments they commit.
TEST_F(AllocFailureTest, WalPathSweepRetriesClean) {
  ObjectId seg = MakeSegment(Label(), 256);
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);

  StoreAlloc::ResetAttempts();
  uint64_t stamp = 7;
  ASSERT_EQ(kernel_->sys_segment_write(init_, RootEntry(seg), &stamp, 0, 8), Status::kOk);
  ASSERT_EQ(kernel_->sys_sync_object(init_, RootEntry(seg)), Status::kOk);
  const uint64_t checks = StoreAlloc::attempts() + 1;

  for (uint64_t n = 1; n <= checks; ++n) {
    stamp = 100 + n;
    ASSERT_EQ(kernel_->sys_segment_write(init_, RootEntry(seg), &stamp, 0, 8), Status::kOk);
    StoreAlloc::FailNth(n);
    Status st = kernel_->sys_sync_object(init_, RootEntry(seg));
    StoreAlloc::Disarm();
    if (st != Status::kOk) {
      EXPECT_EQ(st, Status::kNoMem);
      EXPECT_EQ(kernel_->sys_sync_object(init_, RootEntry(seg)), Status::kOk);
    }
    RebootResult r = RebootFromDisk(disk_.get(), SweepTuning());
    ASSERT_EQ(r.status, Status::kOk);
    ASSERT_EQ(WorldImage(*r.kernel), WorldImage(*kernel_));
  }
}

// Recovery itself allocates (tree rebuilds, label re-interning, blob
// loads): an injected failure there must return kNoMem from Recover — a
// failed boot, not a crashed one — and a clean retry must succeed.
TEST_F(AllocFailureTest, RecoverPathFailureReturnsNoMemAndRetries) {
  std::vector<ObjectId> segs;
  for (int i = 0; i < 4; ++i) {
    segs.push_back(MakeSegment(Label(), 128));
    uint64_t stamp = 40 + static_cast<uint64_t>(i);
    ASSERT_EQ(kernel_->sys_segment_write(init_, RootEntry(segs.back()), &stamp, 0, 8),
              Status::kOk);
  }
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);
  WorldMap committed = WorldImage(*kernel_);

  // Calibrate a clean recovery's check count.
  StoreAlloc::ResetAttempts();
  {
    RebootResult r = RebootFromDisk(disk_.get(), SweepTuning());
    ASSERT_EQ(r.status, Status::kOk);
  }
  const uint64_t checks = StoreAlloc::attempts();
  ASSERT_GT(checks, 0u);

  for (uint64_t n = 1; n <= checks; ++n) {
    StoreAlloc::FailNth(n);
    RebootResult faulty = RebootFromDisk(disk_.get(), SweepTuning());
    StoreAlloc::Disarm();
    EXPECT_TRUE(faulty.status == Status::kNoMem || faulty.status == Status::kOk)
        << "recovery under allocation failure " << n << " returned "
        << StatusName(faulty.status);
    RebootResult clean = RebootFromDisk(disk_.get(), SweepTuning());
    ASSERT_EQ(clean.status, Status::kOk) << "clean retry failed after injection " << n;
    ASSERT_EQ(WorldImage(*clean.kernel), committed);
  }
}

}  // namespace
}  // namespace histar
