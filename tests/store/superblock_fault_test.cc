// Superblock corruption coverage (PR 7 satellite): the two alternating
// superblock slots are the store's commit points, and recovery must treat
// them as mutually redundant — a torn, misdirected, or bit-flipped write to
// the NEWER slot falls back to the older (consistent, possibly older-epoch)
// one; only losing both ends recovery, and then with kNotFound, never an
// abort or a fabricated world.
#include <gtest/gtest.h>

#include <cstring>

#include "src/store/single_level_store.h"
#include "tests/kernel/kernel_test_util.h"
#include "tests/store/crash_oracle.h"

namespace histar {
namespace {

StoreTuning SbTuning() {
  StoreTuning t;
  t.log_region_bytes = 1 << 20;
  t.max_increments = 4;
  return t;
}

class SuperblockFaultTest : public KernelTest {
 protected:
  void SetUp() override {
    KernelTest::SetUp();
    DiskGeometry g;
    g.capacity_bytes = 64 << 20;
    g.zero_latency = true;
    g.store_data = true;
    disk_ = std::make_unique<DiskModel>(g);
    store_ = std::make_unique<SingleLevelStore>(disk_.get(), SbTuning());
    ASSERT_EQ(store_->Format(), Status::kOk);
    kernel_->AttachPersistTarget(store_.get());
  }

  // Commits one epoch: stamp a segment and group-sync.
  void CommitStamp(ObjectId seg, uint64_t stamp) {
    ASSERT_EQ(kernel_->sys_segment_write(init_, RootEntry(seg), &stamp, 0, 8), Status::kOk);
    ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);
  }

  // The superblock's generation field lives 8 bytes into each slot; the
  // slot with the larger generation is what recovery prefers.
  uint64_t SlotGeneration(uint64_t slot) {
    uint64_t gen = 0;
    EXPECT_EQ(disk_->Read(slot + 8, &gen, 8), Status::kOk);
    return gen;
  }

  uint64_t NewerSlot() { return SlotGeneration(0) >= SlotGeneration(4096) ? 0 : 4096; }

  // Flips one bit inside a slot's checksummed region (the epoch field).
  void FlipBitInSlot(uint64_t slot) {
    uint8_t b = 0;
    ASSERT_EQ(disk_->Read(slot + 32, &b, 1), Status::kOk);
    b ^= 0x10;
    ASSERT_EQ(disk_->Write(slot + 32, &b, 1), Status::kOk);
  }

  std::unique_ptr<DiskModel> disk_;
  std::unique_ptr<SingleLevelStore> store_;
};

// A checksum-defeating flip on the newer copy: recovery must come up on the
// older copy's world — the state of the previous commit — and keep
// committing from there.
TEST_F(SuperblockFaultTest, BitFlipOnNewerCopyFallsBackToOlderEpoch) {
  ObjectId seg = MakeSegment(Label(), 64);
  CommitStamp(seg, 1);
  WorldMap older = WorldImage(*kernel_);
  CommitStamp(seg, 2);
  WorldMap newer = WorldImage(*kernel_);
  ASSERT_NE(older, newer);

  FlipBitInSlot(NewerSlot());
  RebootResult r = RebootFromDisk(disk_.get(), SbTuning());
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(WorldImage(*r.kernel), older)
      << "fallback should land on the previous commit, not a hybrid";

  // The fallen-back store must still be able to advance its commit point.
  CurrentThread bind(init_);
  uint64_t stamp = 3;
  ASSERT_EQ(r.kernel->sys_segment_write(
                init_, ContainerEntry{r.kernel->root_container(), seg}, &stamp, 0, 8),
            Status::kOk);
  EXPECT_EQ(r.kernel->sys_sync(init_), Status::kOk);
}

// Format must forget the old store. It writes generation 1 to slot A; an
// older build left slot B holding the old store's higher generation, so
// Recover after a reformat came back with the old store (generation 4,
// chain 3 after four syncs).
TEST_F(SuperblockFaultTest, RecoverAfterReformatSeesAnEmptyStore) {
  ObjectId seg = MakeSegment(Label(), 64);
  for (uint64_t stamp = 1; stamp <= 4; ++stamp) {
    CommitStamp(seg, stamp);
  }
  ASSERT_GT(store_->chain_length(), 0u);
  ASSERT_EQ(store_->Format(), Status::kOk);
  RebootResult r = RebootFromDisk(disk_.get(), SbTuning());
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(r.store->generation(), 1u);
  EXPECT_EQ(r.store->chain_length(), 0u);
  Kernel fresh;
  EXPECT_EQ(WorldImage(*r.kernel), WorldImage(fresh)) << "objects of the old store came back";
}

// Both copies individually corrupted: recovery reports an unformatted /
// unrecoverable disk via kNotFound. No crash, no partial world.
TEST_F(SuperblockFaultTest, BothCopiesCorruptReportsNotFound) {
  ObjectId seg = MakeSegment(Label(), 64);
  CommitStamp(seg, 1);
  CommitStamp(seg, 2);
  FlipBitInSlot(0);
  FlipBitInSlot(4096);
  RebootResult r = RebootFromDisk(disk_.get(), SbTuning());
  EXPECT_EQ(r.status, Status::kNotFound);
}

// A torn superblock write (fault plan, offset window over the slots): the
// device crashes with only a prefix of the new superblock persisted. Its
// checksum cannot validate, so recovery uses the other slot — both slots
// now describe pre-sync epochs ("both stale"), and the pre-sync world is
// what must come back.
TEST_F(SuperblockFaultTest, TornSuperblockWriteRecoversPreviousCommit) {
  ObjectId seg = MakeSegment(Label(), 64);
  CommitStamp(seg, 1);
  WorldMap committed = WorldImage(*kernel_);

  FaultPlan plan;
  FaultRule rule;
  rule.kind = FaultKind::kTorn;
  rule.on_read = false;
  rule.offset_lo = 0;
  rule.offset_hi = 8192;  // only superblock writes match
  rule.arg = 100;         // persist 100 bytes of the new superblock
  plan.rules.push_back(rule);
  disk_->SetFaultPlan(std::move(plan));

  uint64_t stamp = 2;
  ASSERT_EQ(kernel_->sys_segment_write(init_, RootEntry(seg), &stamp, 0, 8), Status::kOk);
  EXPECT_NE(kernel_->sys_sync(init_), Status::kOk);
  EXPECT_EQ(disk_->faults_injected(FaultKind::kTorn), 1u);
  disk_->Repair();

  RebootResult r = RebootFromDisk(disk_.get(), SbTuning());
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(WorldImage(*r.kernel), committed);
}

// A misdirected superblock write: the flip lands somewhere in the heap's
// free space and the device reports success, so the SYNC CLAIMS SUCCESS but
// the commit point never advanced. This is the one legal
// acknowledged-but-lost case in the fault model (a firmware lie); recovery
// must still produce the previous commit, not garbage.
TEST_F(SuperblockFaultTest, MisdirectedSuperblockWriteLosesAckedCommit) {
  ObjectId seg = MakeSegment(Label(), 64);
  CommitStamp(seg, 1);
  WorldMap committed = WorldImage(*kernel_);

  FaultPlan plan;
  FaultRule rule;
  rule.kind = FaultKind::kMisdirect;
  rule.on_read = false;
  rule.offset_lo = 0;
  rule.offset_hi = 8192;
  rule.arg = 32 << 20;  // far into the heap: deterministically free space
  plan.rules.push_back(rule);
  disk_->SetFaultPlan(std::move(plan));

  uint64_t stamp = 2;
  ASSERT_EQ(kernel_->sys_segment_write(init_, RootEntry(seg), &stamp, 0, 8), Status::kOk);
  Status st = kernel_->sys_sync(init_);
  EXPECT_EQ(st, Status::kOk) << "a misdirected write is silent by definition";
  EXPECT_EQ(disk_->faults_injected(FaultKind::kMisdirect), 1u);

  RebootResult r = RebootFromDisk(disk_.get(), SbTuning());
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(WorldImage(*r.kernel), committed)
      << "lost flip must fall back to the last real commit";
}

// Crash parked before the flip (write error on the superblock window): the
// sync fails, both slots stay at their pre-sync generations, and recovery
// lands exactly on the last commit.
TEST_F(SuperblockFaultTest, WriteErrorOnFlipKeepsBothSlotsStale) {
  ObjectId seg = MakeSegment(Label(), 64);
  CommitStamp(seg, 1);
  WorldMap committed = WorldImage(*kernel_);
  uint64_t gen_a = SlotGeneration(0);
  uint64_t gen_b = SlotGeneration(4096);

  FaultPlan plan;
  FaultRule rule;
  rule.kind = FaultKind::kWriteError;
  rule.on_read = false;
  rule.offset_lo = 0;
  rule.offset_hi = 8192;
  plan.rules.push_back(rule);
  disk_->SetFaultPlan(std::move(plan));

  uint64_t stamp = 2;
  ASSERT_EQ(kernel_->sys_segment_write(init_, RootEntry(seg), &stamp, 0, 8), Status::kOk);
  EXPECT_EQ(kernel_->sys_sync(init_), Status::kIoError);

  // Neither slot advanced: the failed flip left no trace in either copy.
  EXPECT_EQ(SlotGeneration(0), gen_a);
  EXPECT_EQ(SlotGeneration(4096), gen_b);

  RebootResult r = RebootFromDisk(disk_.get(), SbTuning());
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(WorldImage(*r.kernel), committed);
}

// A failed flip must NOT advance the slot alternation. The writer used to
// alternate on every attempt: after a write error (target slot keeps its
// old generation) the next commit aimed at the OTHER slot — the one holding
// the newest durable superblock — and a torn write there destroyed the only
// recent commit point, time-traveling recovery past every commit (caught by
// the randomized campaign as a recovered root container matching no state
// the oracle ever recorded). The retry must target the same slot, so a
// second fault can never reach the newest durable copy.
TEST_F(SuperblockFaultTest, FailedFlipRetriesSameSlotSoSecondFaultCannotWipeNewestCommit) {
  ObjectId seg = MakeSegment(Label(), 64);
  CommitStamp(seg, 1);
  WorldMap committed = WorldImage(*kernel_);

  // Commit 2: write error inside the superblock window — the flip fails and
  // the target slot keeps its stale generation.
  {
    FaultPlan plan;
    FaultRule rule;
    rule.kind = FaultKind::kWriteError;
    rule.on_read = false;
    rule.offset_lo = 0;
    rule.offset_hi = 8192;
    plan.rules.push_back(rule);
    disk_->SetFaultPlan(std::move(plan));
  }
  uint64_t stamp = 2;
  ASSERT_EQ(kernel_->sys_segment_write(init_, RootEntry(seg), &stamp, 0, 8), Status::kOk);
  EXPECT_EQ(kernel_->sys_sync(init_), Status::kIoError);
  disk_->ClearFaults();

  // Commit 3: torn write inside the superblock window, then the device is
  // gone. With the retry aimed at the SAME stale slot, the newest durable
  // superblock is untouchable; before the fix this tore the newest slot.
  {
    FaultPlan plan;
    FaultRule rule;
    rule.kind = FaultKind::kTorn;
    rule.arg = 64;
    rule.on_read = false;
    rule.offset_lo = 0;
    rule.offset_hi = 8192;
    plan.rules.push_back(rule);
    disk_->SetFaultPlan(std::move(plan));
  }
  stamp = 3;
  ASSERT_EQ(kernel_->sys_segment_write(init_, RootEntry(seg), &stamp, 0, 8), Status::kOk);
  EXPECT_NE(kernel_->sys_sync(init_), Status::kOk);
  disk_->ClearFaults();
  disk_->Repair();

  RebootResult r = RebootFromDisk(disk_.get(), SbTuning());
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(WorldImage(*r.kernel), committed)
      << "a faulted retry reached (and destroyed) the newest durable superblock";
}

}  // namespace
}  // namespace histar
