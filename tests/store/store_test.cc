// Extent allocator, disk model, and single-level store tests, including
// crash-recovery via torn-write injection (paper §3, §4).
#include <gtest/gtest.h>

#include <random>

#include "src/store/disk_model.h"
#include "src/store/extent_alloc.h"
#include "src/store/single_level_store.h"
#include "tests/kernel/kernel_test_util.h"

namespace histar {
namespace {

// ---- ExtentAllocator ---------------------------------------------------------

TEST(ExtentAllocator, AllocateAndFreeRoundTrip) {
  ExtentAllocator a(0, 1 << 20);
  EXPECT_EQ(a.free_bytes(), 1u << 20);
  Result<uint64_t> x = a.Allocate(4096);
  ASSERT_TRUE(x.ok());
  EXPECT_EQ(a.free_bytes(), (1u << 20) - 4096);
  a.Free(x.value(), 4096);
  EXPECT_EQ(a.free_bytes(), 1u << 20);
  EXPECT_EQ(a.fragment_count(), 1u);  // coalesced back to one extent
}

TEST(ExtentAllocator, CoalescesNeighbors) {
  ExtentAllocator a(0, 1 << 16);
  Result<uint64_t> x = a.Allocate(1000);
  Result<uint64_t> y = a.Allocate(1000);
  Result<uint64_t> z = a.Allocate(1000);
  ASSERT_TRUE(x.ok() && y.ok() && z.ok());
  a.Free(x.value(), 1000);
  a.Free(z.value(), 1000);            // coalesces with the free tail
  EXPECT_EQ(a.fragment_count(), 2u);  // [x) and [z..end)
  a.Free(y.value(), 1000);            // bridges everything
  EXPECT_EQ(a.fragment_count(), 1u);
}

TEST(ExtentAllocator, ExhaustionReturnsNoSpace) {
  ExtentAllocator a(0, 8192);
  ASSERT_TRUE(a.Allocate(8192).ok());
  EXPECT_EQ(a.Allocate(1).status(), Status::kNoSpace);
}

TEST(ExtentAllocator, BestFitPrefersSmallestSufficientExtent) {
  ExtentAllocator a(0, 1 << 16);
  // Carve the pool into a small and a large free extent.
  Result<uint64_t> pad1 = a.Allocate(1000);   // [0, 1000)
  Result<uint64_t> small = a.Allocate(200);   // [1000, 1200)
  Result<uint64_t> pad2 = a.Allocate(1000);   // [1200, 2200)
  ASSERT_TRUE(pad1.ok() && small.ok() && pad2.ok());
  a.Free(small.value(), 200);  // free hole of 200 at 1000
  // A 150-byte request should use the 200-byte hole, not the big tail.
  Result<uint64_t> r = a.Allocate(150);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), small.value());
}

TEST(ExtentAllocator, ReserveRangeCarvesHoles) {
  ExtentAllocator a(0, 1 << 16);
  ASSERT_TRUE(a.ReserveRange(100, 50));
  EXPECT_EQ(a.free_bytes(), (1u << 16) - 50);
  // Overlapping reserve fails.
  EXPECT_FALSE(a.ReserveRange(120, 50));
  // Disjoint reserve succeeds.
  EXPECT_TRUE(a.ReserveRange(200, 10));
  // Freeing restores.
  a.Free(100, 50);
  a.Free(200, 10);
  EXPECT_EQ(a.free_bytes(), 1u << 16);
}

TEST(ExtentAllocator, RandomizedNoOverlapInvariant) {
  std::mt19937_64 rng(99);
  ExtentAllocator a(0, 1 << 20);
  std::vector<std::pair<uint64_t, uint64_t>> live;
  for (int i = 0; i < 2000; ++i) {
    if (live.empty() || rng() % 2 == 0) {
      uint64_t len = 1 + rng() % 5000;
      Result<uint64_t> r = a.Allocate(len);
      if (r.ok()) {
        // Check no overlap with any live extent.
        for (const auto& [off, l] : live) {
          EXPECT_TRUE(r.value() + len <= off || off + l <= r.value())
              << "overlap at " << r.value();
        }
        live.emplace_back(r.value(), len);
      }
    } else {
      size_t idx = rng() % live.size();
      a.Free(live[idx].first, live[idx].second);
      live.erase(live.begin() + static_cast<ptrdiff_t>(idx));
    }
  }
  uint64_t live_bytes = 0;
  for (const auto& [off, l] : live) {
    live_bytes += l;
  }
  EXPECT_EQ(a.free_bytes(), (1u << 20) - live_bytes);
}

// ---- DiskModel ---------------------------------------------------------------

DiskGeometry TestGeometry() {
  DiskGeometry g;
  g.capacity_bytes = 64 << 20;
  g.zero_latency = false;
  g.store_data = true;
  return g;
}

TEST(DiskModel, SequentialCheaperThanRandom) {
  DiskModel d(TestGeometry());
  uint8_t buf[4096] = {};
  // Sequential: two adjacent writes.
  ASSERT_EQ(d.Write(0, buf, 4096), Status::kOk);
  uint64_t t1 = d.sim_time_ns();
  ASSERT_EQ(d.Write(4096, buf, 4096), Status::kOk);
  uint64_t seq_cost = d.sim_time_ns() - t1;
  // Random: a far jump.
  uint64_t t2 = d.sim_time_ns();
  ASSERT_EQ(d.Write(32 << 20, buf, 4096), Status::kOk);
  uint64_t rand_cost = d.sim_time_ns() - t2;
  EXPECT_GT(rand_cost, seq_cost * 10);
}

TEST(DiskModel, LookaheadMakesNearbyReadsCheap) {
  DiskModel d(TestGeometry());
  uint8_t buf[4096] = {};
  ASSERT_EQ(d.Read(1 << 20, buf, 4096), Status::kOk);  // seeds the window
  uint64_t t1 = d.sim_time_ns();
  ASSERT_EQ(d.Read((1 << 20) + 8192, buf, 4096), Status::kOk);  // within window
  uint64_t hit_cost = d.sim_time_ns() - t1;
  d.set_lookahead_enabled(false);
  ASSERT_EQ(d.Read(1 << 20, buf, 4096), Status::kOk);
  uint64_t t2 = d.sim_time_ns();
  ASSERT_EQ(d.Read((1 << 20) + 8192, buf, 4096), Status::kOk);
  uint64_t miss_cost = d.sim_time_ns() - t2;
  EXPECT_GT(miss_cost, hit_cost * 10);
}

TEST(DiskModel, DataRoundTrip) {
  DiskModel d(TestGeometry());
  const char msg[] = "stable storage";
  ASSERT_EQ(d.Write(12345, msg, sizeof(msg)), Status::kOk);
  char out[sizeof(msg)] = {};
  ASSERT_EQ(d.Read(12345, out, sizeof(msg)), Status::kOk);
  EXPECT_STREQ(out, msg);
}

// ---- DiskModel page map: the data-mode image is held in 4 KiB pages, allocated
// on first write. Every test below crosses at least one page boundary.

constexpr uint64_t kPage = 4096;

std::vector<uint8_t> Pattern(size_t len, uint8_t seed) {
  std::vector<uint8_t> v(len);
  for (size_t i = 0; i < len; ++i) {
    v[i] = static_cast<uint8_t>(seed + i * 7 + i / 251);
  }
  return v;
}

std::vector<uint8_t> ReadBack(DiskModel& d, uint64_t offset, uint64_t len) {
  std::vector<uint8_t> out(len, 0xEE);
  EXPECT_EQ(d.Read(offset, out.data(), len), Status::kOk);
  return out;
}

TEST(DiskModel, WriteSpanningThreePagesReadsBackExactly) {
  DiskModel d(TestGeometry());
  EXPECT_EQ(d.resident_bytes(), 0u);
  // [4000, 9000) touches pages 0, 1 and 2.
  std::vector<uint8_t> in = Pattern(5000, 3);
  ASSERT_EQ(d.Write(4000, in.data(), in.size()), Status::kOk);
  EXPECT_EQ(ReadBack(d, 4000, in.size()), in);
  EXPECT_EQ(d.resident_bytes(), 3 * kPage);
}

TEST(DiskModel, ReadAcrossHoleReturnsZeros) {
  DiskModel d(TestGeometry());
  std::vector<uint8_t> a = Pattern(kPage, 1);
  std::vector<uint8_t> b = Pattern(kPage, 2);
  ASSERT_EQ(d.Write(0, a.data(), kPage), Status::kOk);         // page 0
  ASSERT_EQ(d.Write(2 * kPage, b.data(), kPage), Status::kOk);  // page 2; page 1 a hole
  EXPECT_EQ(d.resident_bytes(), 2 * kPage);
  std::vector<uint8_t> out = ReadBack(d, 100, 3 * kPage - 200);
  std::vector<uint8_t> want(a.begin() + 100, a.end());
  want.resize(want.size() + kPage, 0);
  want.insert(want.end(), b.begin(), b.end() - 100);
  EXPECT_EQ(out, want);
  // A read wholly inside the hole allocates nothing.
  EXPECT_EQ(ReadBack(d, kPage, kPage), std::vector<uint8_t>(kPage, 0));
  EXPECT_EQ(d.resident_bytes(), 2 * kPage);
}

TEST(DiskModel, CrashAfterBytesTearsMidSecondPage) {
  DiskModel d(TestGeometry());
  // [1000, 13288) spans pages 0-3; the budget runs out at 6000, in page 1.
  std::vector<uint8_t> in = Pattern(3 * kPage, 5);
  d.CrashAfterBytes(5000);
  EXPECT_EQ(d.Write(1000, in.data(), in.size()), Status::kCrashed);
  EXPECT_TRUE(d.crashed());
  d.Repair();
  std::vector<uint8_t> want(in.begin(), in.begin() + 5000);
  want.resize(in.size(), 0);
  EXPECT_EQ(ReadBack(d, 1000, in.size()), want);
  EXPECT_EQ(d.resident_bytes(), 2 * kPage);  // the lost tail allocated nothing
}

TEST(DiskModel, BitFlipOnSecondPageFlipsOnlyThatByte) {
  DiskModel d(TestGeometry());
  FaultPlan plan;
  FaultRule flip;
  flip.kind = FaultKind::kBitFlip;
  flip.on_read = false;
  flip.arg = 200 * 8 + 3;  // byte 200 of the write = disk offset 4200, page 1
  plan.rules.push_back(flip);
  d.SetFaultPlan(plan);
  std::vector<uint8_t> in = Pattern(300, 9);
  ASSERT_EQ(d.Write(4000, in.data(), in.size()), Status::kOk);
  EXPECT_EQ(d.faults_injected(FaultKind::kBitFlip), 1u);
  std::vector<uint8_t> want = in;
  want[200] ^= 1u << 3;
  EXPECT_EQ(ReadBack(d, 4000, in.size()), want);
}

TEST(DiskModel, MisdirectAcrossPagesLandsAtShiftedOffset) {
  DiskModel d(TestGeometry());
  std::vector<uint8_t> old = Pattern(200, 11);
  ASSERT_EQ(d.Write(4000, old.data(), old.size()), Status::kOk);
  FaultPlan plan;
  FaultRule mis;
  mis.kind = FaultKind::kMisdirect;
  mis.on_read = false;
  mis.arg = 2 * kPage;  // [4000, 4200) lands at [12192, 12392), across page 2/3
  plan.rules.push_back(mis);
  d.SetFaultPlan(plan);
  std::vector<uint8_t> in = Pattern(200, 13);
  ASSERT_EQ(d.Write(4000, in.data(), in.size()), Status::kOk);
  EXPECT_EQ(d.faults_injected(FaultKind::kMisdirect), 1u);
  EXPECT_EQ(ReadBack(d, 4000, old.size()), old);  // the intended range is untouched
  EXPECT_EQ(ReadBack(d, 4000 + 2 * kPage, in.size()), in);
}

TEST(DiskModel, LastByteOfLargeDiskHoldsOnePage) {
  DiskGeometry g = TestGeometry();
  g.capacity_bytes = 1ULL << 30;
  DiskModel d(g);
  const uint8_t x = 0x5A;
  ASSERT_EQ(d.Write(g.capacity_bytes - 1, &x, 1), Status::kOk);
  EXPECT_EQ(d.resident_bytes(), kPage);
  EXPECT_EQ(ReadBack(d, g.capacity_bytes - 1, 1), std::vector<uint8_t>{x});
  EXPECT_EQ(d.Write(g.capacity_bytes, &x, 1), Status::kRange);

  g.store_data = false;  // latency-only mode holds nothing
  DiskModel lat(g);
  ASSERT_EQ(lat.Write(g.capacity_bytes - 1, &x, 1), Status::kOk);
  EXPECT_EQ(lat.resident_bytes(), 0u);
}

// The persistent-store benchmark's set-up: Format plus one checkpoint with
// the default 16 MB WAL, whose object heap starts past the log region. Only
// the bytes written may cost host memory, not the untouched WAL gap.
using DiskImageTest = KernelTest;

TEST_F(DiskImageTest, FormatAndFirstCheckpointStaySparse) {
  DiskGeometry g;
  g.capacity_bytes = 1ULL << 30;
  g.zero_latency = true;
  g.store_data = true;
  DiskModel disk(g);
  SingleLevelStore store(&disk);
  ASSERT_EQ(store.Format(), Status::kOk);
  kernel_->AttachPersistTarget(&store);
  MakeSegment(Label(), 64);
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);
  EXPECT_GT(disk.resident_bytes(), 0u);
  EXPECT_LT(disk.resident_bytes(), 1u << 20);
  kernel_->AttachPersistTarget(nullptr);
}

TEST(DiskModel, TornWriteCrash) {
  DiskModel d(TestGeometry());
  uint8_t ones[100];
  memset(ones, 1, sizeof(ones));
  d.CrashAfterBytes(50);
  EXPECT_EQ(d.Write(0, ones, 100), Status::kCrashed);
  EXPECT_TRUE(d.crashed());
  EXPECT_EQ(d.Write(200, ones, 10), Status::kCrashed);
  d.Repair();
  // The torn prefix persisted; the tail did not.
  uint8_t out[100] = {};
  ASSERT_EQ(d.Read(0, out, 100), Status::kOk);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[49], 1);
  EXPECT_EQ(out[50], 0);
}

// ---- SingleLevelStore ----------------------------------------------------------

class StoreTest : public KernelTest {
 protected:
  static StoreTuning Tuning() {
    StoreTuning tuning;
    tuning.log_region_bytes = 1 << 20;
    tuning.log_apply_threshold = 50;
    return tuning;
  }

  void SetUp() override {
    KernelTest::SetUp();
    DiskGeometry g;
    g.capacity_bytes = 256 << 20;
    g.zero_latency = true;
    g.store_data = true;
    disk_ = std::make_unique<DiskModel>(g);
    store_ = std::make_unique<SingleLevelStore>(disk_.get(), Tuning());
    ASSERT_EQ(store_->Format(), Status::kOk);
    kernel_->AttachPersistTarget(store_.get());
  }

  // Boots a fresh kernel from the disk image.
  std::unique_ptr<Kernel> Reboot() {
    auto k = std::make_unique<Kernel>();
    store2_ = std::make_unique<SingleLevelStore>(disk_.get(), Tuning());
    EXPECT_EQ(store2_->Recover(k.get()), Status::kOk);
    return k;
  }

  std::unique_ptr<DiskModel> disk_;
  std::unique_ptr<SingleLevelStore> store_;
  std::unique_ptr<SingleLevelStore> store2_;
};

TEST_F(StoreTest, CheckpointAndRecover) {
  ObjectId seg = MakeSegment(Label(), 64);
  const char msg[] = "single level store";
  ASSERT_EQ(kernel_->sys_segment_write(init_, RootEntry(seg), msg, 0, sizeof(msg)),
            Status::kOk);
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);

  std::unique_ptr<Kernel> k2 = Reboot();
  ASSERT_TRUE(k2->ObjectExists(seg));
  char out[sizeof(msg)] = {};
  CurrentThread bind(init_);
  ASSERT_EQ(k2->sys_segment_read(init_, ContainerEntry{k2->root_container(), seg}, out, 0,
                                 sizeof(msg)),
            Status::kOk);
  EXPECT_STREQ(out, msg);
  EXPECT_EQ(k2->root_container(), kernel_->root_container());
}

TEST_F(StoreTest, UnsyncedStateIsLostOnReboot) {
  ObjectId early = MakeSegment(Label(), 16);
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);
  ObjectId late = MakeSegment(Label(), 16);  // never synced
  std::unique_ptr<Kernel> k2 = Reboot();
  EXPECT_TRUE(k2->ObjectExists(early));
  EXPECT_FALSE(k2->ObjectExists(late));
}

TEST_F(StoreTest, PerObjectSyncSurvivesViaLog) {
  ObjectId seg = MakeSegment(Label(), 32);
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);
  const char msg[] = "walled";
  ASSERT_EQ(kernel_->sys_segment_write(init_, RootEntry(seg), msg, 0, sizeof(msg)),
            Status::kOk);
  // fsync just this object: goes to the WAL, not a full checkpoint.
  ASSERT_EQ(kernel_->sys_sync_object(init_, RootEntry(seg)), Status::kOk);
  EXPECT_EQ(store_->log_records(), 1u);

  std::unique_ptr<Kernel> k2 = Reboot();
  char out[sizeof(msg)] = {};
  CurrentThread bind(init_);
  ASSERT_EQ(k2->sys_segment_read(init_, ContainerEntry{k2->root_container(), seg}, out, 0,
                                 sizeof(msg)),
            Status::kOk);
  EXPECT_STREQ(out, msg);
}

TEST_F(StoreTest, LogAppliesInBatches) {
  ObjectId seg = MakeSegment(Label(), 32);
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);
  // 120 syncs with threshold 50 → 2 batch applies.
  for (int i = 0; i < 120; ++i) {
    uint32_t v = static_cast<uint32_t>(i);
    ASSERT_EQ(kernel_->sys_segment_write(init_, RootEntry(seg), &v, 0, 4), Status::kOk);
    ASSERT_EQ(kernel_->sys_sync_object(init_, RootEntry(seg)), Status::kOk);
  }
  EXPECT_EQ(store_->log_applies(), 2u);
  EXPECT_EQ(store_->log_records(), 120u);
}

TEST_F(StoreTest, TornLogRecordIsDiscardedOnRecovery) {
  ObjectId seg = MakeSegment(Label(), 32);
  uint32_t v = 0xaaaa5555;
  ASSERT_EQ(kernel_->sys_segment_write(init_, RootEntry(seg), &v, 0, 4), Status::kOk);
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);

  // Write a new value and fsync, but tear the log record mid-write.
  uint32_t v2 = 0x1111eeee;
  ASSERT_EQ(kernel_->sys_segment_write(init_, RootEntry(seg), &v2, 0, 4), Status::kOk);
  disk_->CrashAfterBytes(40);  // the record is > 40 bytes: it tears
  EXPECT_NE(kernel_->sys_sync_object(init_, RootEntry(seg)), Status::kOk);
  disk_->Repair();

  std::unique_ptr<Kernel> k2 = Reboot();
  uint32_t out = 0;
  CurrentThread bind(init_);
  ASSERT_EQ(k2->sys_segment_read(init_, ContainerEntry{k2->root_container(), seg}, &out, 0, 4),
            Status::kOk);
  // The torn sync never happened: the checkpointed value is intact.
  EXPECT_EQ(out, v);
}

TEST_F(StoreTest, CrashDuringCheckpointKeepsOldSnapshot) {
  ObjectId seg = MakeSegment(Label(), 1024);
  std::vector<uint8_t> ones(1024, 1);
  ASSERT_EQ(kernel_->sys_segment_write(init_, RootEntry(seg), ones.data(), 0, 1024),
            Status::kOk);
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);

  std::vector<uint8_t> twos(1024, 2);
  ASSERT_EQ(kernel_->sys_segment_write(init_, RootEntry(seg), twos.data(), 0, 1024),
            Status::kOk);
  // Crash partway into the second checkpoint: the first thing it writes is
  // the increment section carrying the >=1024-byte segment image, so a
  // 512-byte budget guarantees a torn section write long before the
  // superblock flip.
  disk_->CrashAfterBytes(512);
  EXPECT_NE(kernel_->sys_sync(init_), Status::kOk);
  disk_->Repair();

  std::unique_ptr<Kernel> k2 = Reboot();
  uint8_t out = 0;
  CurrentThread bind(init_);
  ASSERT_EQ(k2->sys_segment_read(init_, ContainerEntry{k2->root_container(), seg}, &out, 0, 1),
            Status::kOk);
  EXPECT_EQ(out, 1);  // the old snapshot, never the torn one
}

TEST_F(StoreTest, DeletedObjectsDropFromDisk) {
  ObjectId seg = MakeSegment(Label(), 64);
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);
  uint64_t free_with = store_->heap_free_bytes();
  ASSERT_EQ(kernel_->sys_container_unref(init_, RootEntry(seg)), Status::kOk);
  // The engine stages the delete as a tombstone message; only a base flush
  // applies it to the on-disk tree and returns the space. Demand one so the
  // reclaim shows on this sync.
  store_->DemandBase();
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);
  EXPECT_GT(store_->heap_free_bytes(), free_with);
  std::unique_ptr<Kernel> k2 = Reboot();
  EXPECT_FALSE(k2->ObjectExists(seg));
}

TEST_F(StoreTest, RecoverOnBlankDiskFails) {
  DiskGeometry g;
  g.capacity_bytes = 16 << 20;
  g.zero_latency = true;
  DiskModel blank(g);
  SingleLevelStore s(&blank, Tuning());
  Kernel k;
  EXPECT_EQ(s.Recover(&k), Status::kNotFound);
}

TEST_F(StoreTest, GenerationsAdvanceMonotonically) {
  uint64_t g0 = store_->generation();
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);
  EXPECT_GT(store_->generation(), g0);
}

}  // namespace
}  // namespace histar
