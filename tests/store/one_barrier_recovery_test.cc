// The one-barrier commit and the recovery rule that makes it safe.
//
// Every store commit point (group sync, WAL fold, large per-object sync)
// writes its tree nodes, its section and the superblock, then issues ONE
// barrier. A device may reorder writes between barriers (DiskModel::Flush's
// contract), so the flip can land without a write it shares the barrier
// with. Recovery validates the newest superblock's whole chain before the
// kernel sees any of it — section checksums, node seals, and the newest
// section's epoch against the superblock's — re-reads once on a mismatch
// (a transient read fault), and otherwise boots the other slot: the
// previous commit, exactly what a crash before the barrier leaves.
//
// Properties under test:
//  * each commit point costs exactly one sync_barrier_ns;
//  * a flip whose newest section (or base root node) never landed boots
//    the previous commit exactly, and the next sync restores exact mode;
//  * a stale, checksum-valid section of the same length at the newest
//    extent is caught by its epoch, and a stale node at a recycled extent
//    by its seal, not replayed;
//  * a one-shot read bit flip on the newest section, or on the newer
//    superblock, still boots it.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/store/single_level_store.h"
#include "src/store/wire_format.h"
#include "tests/kernel/kernel_test_util.h"
#include "tests/store/crash_oracle.h"

namespace histar {
namespace {

StoreTuning Tuning() {
  StoreTuning t;
  t.log_region_bytes = 1 << 20;
  t.log_apply_threshold = 3;
  return t;
}

// Chain extents named by the newest superblock (docs/persistence.md
// "Superblock": u64 words magic, generation, root, log_applied_seq, epoch,
// chain_len, then (offset, length) pairs).
std::vector<Extent> NewestChain(DiskModel* disk) {
  constexpr uint64_t kSuperblockMagic = 0x48695374'61724f53ULL;  // "HiStarOS"
  std::vector<uint64_t> best;
  for (uint64_t slot : {uint64_t{0}, uint64_t{4096}}) {
    std::vector<uint64_t> words(6 + 2 * 48);
    EXPECT_EQ(disk->Read(slot, words.data(), words.size() * 8), Status::kOk);
    if (words[0] == kSuperblockMagic && (best.empty() || words[1] > best[1])) {
      best = words;
    }
  }
  std::vector<Extent> chain;
  for (uint64_t i = 0; !best.empty() && i < best[5]; ++i) {
    chain.push_back(Extent{best[6 + 2 * i], best[7 + 2 * i]});
  }
  return chain;
}

std::vector<uint8_t> ReadExtent(DiskModel* disk, const Extent& e) {
  std::vector<uint8_t> bytes(e.length);
  EXPECT_EQ(disk->Read(e.offset, bytes.data(), bytes.size()), Status::kOk);
  return bytes;
}

void ZeroExtent(DiskModel* disk, const Extent& e) {
  std::vector<uint8_t> zeros(e.length, 0);
  ASSERT_EQ(disk->Write(e.offset, zeros.data(), zeros.size()), Status::kOk);
}

// The root node extent a base section names: its header (u64 magic, u64
// epoch, u8 kind, u8 engine), the label records, then u64 root_off, u64
// root_len.
Extent BaseRootNode(DiskModel* disk, const Extent& base) {
  std::vector<uint8_t> image = ReadExtent(disk, base);
  wire::Reader r{image.data(), image.size() - 8};
  r.U64();
  r.U64();
  r.U8();
  r.U8();
  uint32_t n_labels = r.U32();
  for (uint32_t i = 0; i < n_labels; ++i) {
    r.U32();
    uint32_t len = r.U32();
    r.pos += len;
  }
  Extent root;
  root.offset = r.U64();
  root.length = r.U64();
  EXPECT_FALSE(r.fail);
  return root;
}

class OneBarrierRecoveryTest : public KernelTest {
 protected:
  static DiskGeometry TestGeometry() {
    DiskGeometry g;
    g.capacity_bytes = 64 << 20;
    g.zero_latency = true;
    g.store_data = true;
    return g;
  }

  void SetUp() override { MakeWorld(TestGeometry(), Tuning()); }

  // A fresh kernel on a freshly formatted disk.
  void MakeWorld(const DiskGeometry& g, const StoreTuning& t) {
    KernelTest::SetUp();
    tuning_ = t;
    disk_ = std::make_unique<DiskModel>(g);
    store_ = std::make_unique<SingleLevelStore>(disk_.get(), tuning_);
    ASSERT_EQ(store_->Format(), Status::kOk);
    kernel_->AttachPersistTarget(store_.get());
  }

  void Stamp(ObjectId seg, uint64_t stamp) {
    ASSERT_EQ(kernel_->sys_segment_write(init_, RootEntry(seg), &stamp, 0, 8), Status::kOk);
  }

  void CommitStamp(ObjectId seg, uint64_t stamp) {
    Stamp(seg, stamp);
    ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);
  }

  // The next sync of a recovered world commits, and a reboot then
  // reproduces it byte for byte: the fallback left a store that commits
  // in exact mode again.
  void ExpectExactAfterNextSync(RebootResult* r, ObjectId seg) {
    CurrentThread bind(init_);
    uint64_t stamp = 99;
    ASSERT_EQ(r->kernel->sys_segment_write(
                  init_, ContainerEntry{r->kernel->root_container(), seg}, &stamp, 0, 8),
              Status::kOk);
    ASSERT_EQ(r->kernel->sys_sync(init_), Status::kOk);
    RebootResult again = RebootFromDisk(disk_.get(), tuning_);
    ASSERT_EQ(again.status, Status::kOk);
    EXPECT_EQ(WorldImage(*again.kernel), WorldImage(*r->kernel));
  }

  StoreTuning tuning_;
  std::unique_ptr<DiskModel> disk_;
  std::unique_ptr<SingleLevelStore> store_;
};

// A geometry whose only cost is the barrier: sim-time deltas count
// barriers exactly.
DiskGeometry BarrierOnlyGeometry() {
  DiskGeometry g;
  g.capacity_bytes = 64 << 20;
  g.avg_seek_ns = 0;
  g.track_seek_ns = 0;
  g.rotation_ns = 0;
  g.write_request_overhead_ns = 0;
  g.bandwidth_bytes_per_sec = 1ULL << 62;
  g.store_data = true;
  return g;
}

TEST_F(OneBarrierRecoveryTest, EveryCommitPointCostsOneBarrier) {
  MakeWorld(BarrierOnlyGeometry(), Tuning());
  const uint64_t barrier = disk_->geometry().sync_barrier_ns;
  auto barriers = [&](auto&& op) {
    uint64_t t0 = disk_->sim_time_ns();
    op();
    uint64_t dt = disk_->sim_time_ns() - t0;
    EXPECT_EQ(dt % barrier, 0u) << "a cost other than barriers leaked in";
    return dt / barrier;
  };

  ObjectId seg = MakeSegment(Label(), 256);
  EXPECT_EQ(barriers([&] { ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk); }), 1u);
  EXPECT_TRUE(store_->last_commit_was_base());

  Stamp(seg, 1);
  EXPECT_EQ(barriers([&] { ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk); }), 1u);
  EXPECT_FALSE(store_->last_commit_was_base());

  // WAL appends keep their own barrier; the append that reaches the apply
  // threshold adds exactly one more for the fold's commit.
  for (uint64_t i = 0; i < tuning_.log_apply_threshold; ++i) {
    Stamp(seg, 10 + i);
    bool folds = i + 1 == tuning_.log_apply_threshold;
    uint64_t applies = store_->log_applies();
    EXPECT_EQ(barriers([&] {
                ASSERT_EQ(kernel_->sys_sync_object(init_, RootEntry(seg)), Status::kOk);
              }),
              folds ? 2u : 1u)
        << "fsync " << i;
    EXPECT_EQ(store_->log_applies(), applies + (folds ? 1 : 0));
  }

  // An image too large for the log commits as its own section.
  ObjectId big = MakeSegment(Label(), tuning_.log_region_bytes / 4 + 4096);
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);
  Stamp(big, 7);
  uint64_t epoch = store_->epoch();
  EXPECT_EQ(barriers([&] {
              ASSERT_EQ(kernel_->sys_sync_object(init_, RootEntry(big)), Status::kOk);
            }),
            1u);
  EXPECT_EQ(store_->epoch(), epoch + 1) << "the large sync must commit a section";

  // And the world those commits made boots.
  RebootResult r = RebootFromDisk(disk_.get(), tuning_);
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(WorldImage(*r.kernel), WorldImage(*kernel_));
}

TEST_F(OneBarrierRecoveryTest, LostIncrementSectionBootsPreviousCommit) {
  ObjectId seg = MakeSegment(Label(), 64);
  CommitStamp(seg, 1);  // base
  CommitStamp(seg, 2);  // increment N-1
  WorldMap previous = WorldImage(*kernel_);
  uint64_t previous_epoch = store_->epoch();
  CommitStamp(seg, 3);  // increment N
  ASSERT_FALSE(store_->last_commit_was_base());

  // The superblock landed, the section it names did not.
  std::vector<Extent> chain = NewestChain(disk_.get());
  ASSERT_EQ(chain.size(), 3u);
  ZeroExtent(disk_.get(), chain.back());

  RebootResult r = RebootFromDisk(disk_.get(), tuning_);
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(WorldImage(*r.kernel), previous);
  EXPECT_EQ(r.store->epoch(), previous_epoch);
  ExpectExactAfterNextSync(&r, seg);
}

TEST_F(OneBarrierRecoveryTest, LostBaseSectionOrRootNodeBootsPreviousCommit) {
  for (bool lose_node : {false, true}) {
    SCOPED_TRACE(lose_node ? "root node lost" : "section lost");
    MakeWorld(TestGeometry(), Tuning());
    ObjectId seg = MakeSegment(Label(), 64);
    CommitStamp(seg, 1);  // base
    CommitStamp(seg, 2);  // increment N-1
    WorldMap previous = WorldImage(*kernel_);
    store_->DemandBase();
    CommitStamp(seg, 3);  // base N
    ASSERT_TRUE(store_->last_commit_was_base());

    std::vector<Extent> chain = NewestChain(disk_.get());
    ASSERT_EQ(chain.size(), 1u);
    ZeroExtent(disk_.get(), lose_node ? BaseRootNode(disk_.get(), chain[0]) : chain[0]);

    RebootResult r = RebootFromDisk(disk_.get(), tuning_);
    ASSERT_EQ(r.status, Status::kOk);
    EXPECT_EQ(WorldImage(*r.kernel), previous);
    ExpectExactAfterNextSync(&r, seg);
  }
}

TEST_F(OneBarrierRecoveryTest, StaleSectionOfSameLengthIsCaughtByItsEpoch) {
  // Every commit a base, so each section is the label table plus the root
  // pointer: the same length every time.
  StoreTuning t = Tuning();
  t.max_increments = 0;
  MakeWorld(TestGeometry(), t);
  ObjectId seg = MakeSegment(Label(), 64);
  CommitStamp(seg, 1);
  CommitStamp(seg, 2);
  std::vector<uint8_t> older = ReadExtent(disk_.get(), NewestChain(disk_.get()).back());

  // An acknowledged fsync after commit N-1: the WAL holds it until commit N
  // folds it in (and records it as applied).
  Stamp(seg, 3);
  ASSERT_EQ(kernel_->sys_sync_object(init_, RootEntry(seg)), Status::kOk);
  WorldMap fsynced = WorldImage(*kernel_);
  CommitStamp(seg, 4);
  ASSERT_TRUE(store_->last_commit_was_base());

  // Commit N's extent holds the older, checksum-valid section instead.
  Extent newest = NewestChain(disk_.get()).back();
  ASSERT_EQ(newest.length, older.size());
  ASSERT_EQ(disk_->Write(newest.offset, older.data(), older.size()), Status::kOk);

  // Replaying it under commit N's superblock would treat the fsync as
  // applied while booting a tree that never held it. The epoch gives it
  // away; the previous superblock plus the WAL is the real state.
  RebootResult r = RebootFromDisk(disk_.get(), tuning_);
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(WorldImage(*r.kernel), fsynced);
  ExpectExactAfterNextSync(&r, seg);
}

TEST_F(OneBarrierRecoveryTest, StaleNodeAtRecycledExtentFailsItsSeal) {
  // Every commit a base. Shadow paging alternates the tree between two
  // arenas, so base N's root lands where base N-2's did, and the same
  // length when only object metadata changed.
  StoreTuning t = Tuning();
  t.max_increments = 0;
  MakeWorld(TestGeometry(), t);
  ObjectId seg = MakeSegment(Label(), 64);
  std::vector<Extent> roots;
  std::vector<std::vector<uint8_t>> images;
  std::vector<WorldMap> worlds;
  for (uint8_t stamp = 1; stamp <= 3; ++stamp) {
    uint8_t meta[8] = {stamp};
    ASSERT_EQ(kernel_->sys_obj_set_metadata(init_, RootEntry(seg), meta, sizeof(meta)),
              Status::kOk);
    ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);
    roots.push_back(BaseRootNode(disk_.get(), NewestChain(disk_.get()).front()));
    images.push_back(ReadExtent(disk_.get(), roots.back()));
    worlds.push_back(WorldImage(*kernel_));
  }
  ASSERT_EQ(roots[2].offset, roots[0].offset);
  ASSERT_EQ(roots[2].length, roots[0].length);
  ASSERT_NE(images[2], images[0]);

  // Base 3's root write never landed: base 1's image, checksum-valid, is
  // still there. Only the seal in base 3's section tells them apart.
  ASSERT_EQ(disk_->Write(roots[2].offset, images[0].data(), images[0].size()), Status::kOk);
  RebootResult r = RebootFromDisk(disk_.get(), tuning_);
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(WorldImage(*r.kernel), worlds[1]);
  ExpectExactAfterNextSync(&r, seg);
}

TEST_F(OneBarrierRecoveryTest, TransientReadFlipOnNewestSectionIsReadAgain) {
  ObjectId seg = MakeSegment(Label(), 64);
  CommitStamp(seg, 1);
  CommitStamp(seg, 2);
  WorldMap newest_world = WorldImage(*kernel_);
  Extent newest = NewestChain(disk_.get()).back();

  FaultPlan plan;
  FaultRule rule;
  rule.kind = FaultKind::kBitFlip;
  rule.on_read = true;
  rule.offset_lo = newest.offset;
  rule.offset_hi = newest.offset + 1;
  rule.arg = 77;
  plan.rules.push_back(rule);
  disk_->SetFaultPlan(std::move(plan));

  RebootResult r = RebootFromDisk(disk_.get(), tuning_);
  EXPECT_EQ(disk_->faults_injected(FaultKind::kBitFlip), 1u);
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(WorldImage(*r.kernel), newest_world);
  EXPECT_EQ(r.store->epoch(), store_->epoch());
}

TEST_F(OneBarrierRecoveryTest, TransientReadFlipOnNewerSuperblockIsReadAgain) {
  ObjectId seg = MakeSegment(Label(), 64);
  CommitStamp(seg, 1);
  CommitStamp(seg, 2);
  ASSERT_EQ(store_->epoch(), 2u);
  WorldMap newest_world = WorldImage(*kernel_);

  // Format wrote slot A, the first sync slot B, the second slot A again:
  // the newer superblock is at offset 0. One read of it returns a flipped
  // bit; the disk itself is intact.
  FaultPlan plan;
  FaultRule rule;
  rule.kind = FaultKind::kBitFlip;
  rule.on_read = true;
  rule.offset_lo = 0;
  rule.offset_hi = 1;
  rule.arg = 8 * 8 + 3;  // a bit of the generation word
  plan.rules.push_back(rule);
  disk_->SetFaultPlan(std::move(plan));

  RebootResult r = RebootFromDisk(disk_.get(), tuning_);
  EXPECT_EQ(disk_->faults_injected(FaultKind::kBitFlip), 1u);
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(r.store->epoch(), 2u);
  EXPECT_EQ(WorldImage(*r.kernel), newest_world);
}

TEST_F(OneBarrierRecoveryTest, BlankSuperblockSlotIsReadOnce) {
  // After Format, slot B is zeroed: a boot reads it once. The same slot
  // holding non-blank bytes that fail validation is read a second time.
  auto boot_reads = [&] {
    uint64_t before = disk_->read_ops();
    EXPECT_EQ(RebootFromDisk(disk_.get(), tuning_).status, Status::kOk);
    return disk_->read_ops() - before;
  };
  uint64_t blank = boot_reads();
  uint64_t junk = 0x5a5a5a5a5a5a5a5aULL;
  ASSERT_EQ(disk_->Write(4096, &junk, sizeof(junk)), Status::kOk);
  EXPECT_EQ(boot_reads(), blank + 1);
}

TEST_F(OneBarrierRecoveryTest, MismatchInBothSlotsIsCorrupt) {
  ObjectId seg = MakeSegment(Label(), 64);
  CommitStamp(seg, 1);
  CommitStamp(seg, 2);
  // Both slots' chains share the base; losing it leaves nothing to boot.
  ZeroExtent(disk_.get(), NewestChain(disk_.get()).front());
  EXPECT_EQ(RebootFromDisk(disk_.get(), tuning_).status, Status::kCorrupt);
}

}  // namespace
}  // namespace histar
