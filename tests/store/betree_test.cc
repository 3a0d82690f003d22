// The Bε-tree engine (PR 8 tentpole; src/store/betree.{h,cc}, msg.h).
//
// Layers under test, bottom up:
//  * the message algebra (MsgBuffer latest-wins coalescing, the wire format,
//    range extraction — the unit an interior node flushes to one child);
//  * the tree itself: a base flush injects staged messages, splits leaves
//    and interior nodes, writes dirty nodes children-first, and the whole
//    structure reloads bit-exactly through a reboot;
//  * increment overlay: message batches in committed sections override the
//    on-disk tree during recovery without touching a node;
//  * crash discipline: a crash or torn node write mid-base-flush fails the
//    commit before the superblock flip (old root boots), and the sticky
//    base-pending flag forces the retry to be a base;
//  * the sys_sync_pages split: in place on a clean leaf blob (no commit),
//    staged restage + commit otherwise;
//  * the engine byte: a section whose header names any engine but the
//    Bε-tree (byte 0 was the removed blob engine) fails recovery with
//    kCorrupt instead of being parsed as a Bε-tree body; so does a
//    message of the retired kind 4;
//  * fold equivalence: MergeSectionBodies replays like the originals;
//  * allocation-failure sweep over the base flush path.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "src/store/betree.h"
#include "src/store/msg.h"
#include "src/store/single_level_store.h"
#include "src/store/store_alloc.h"
#include "tests/kernel/kernel_test_util.h"
#include "tests/store/crash_oracle.h"

namespace histar {
namespace {

// ---- message algebra ---------------------------------------------------------

Msg Upsert(uint64_t id, std::vector<uint8_t> bytes, uint64_t meta_len) {
  Msg m;
  m.kind = MsgKind::kUpsert;
  m.id = id;
  m.meta_len = meta_len;
  m.bytes = std::move(bytes);
  return m;
}

Msg Delete(uint64_t id) {
  Msg m;
  m.kind = MsgKind::kDelete;
  m.id = id;
  return m;
}

Msg LabelDelta(uint32_t id, std::vector<uint8_t> bytes) {
  Msg m;
  m.kind = MsgKind::kLabelDelta;
  m.id = id;
  m.bytes = std::move(bytes);
  return m;
}

TEST(BetreeMsg, BufferCoalescesLatestWins) {
  MsgBuffer b;
  b.Apply(Upsert(7, {1, 2, 3, 4}, 4));
  b.Apply(Upsert(7, {9, 9}, 2));  // newer image replaces
  ASSERT_EQ(b.objects().size(), 1u);
  EXPECT_EQ(b.objects().at(7).bytes, (std::vector<uint8_t>{9, 9}));

  b.Apply(Delete(7));  // tombstone replaces the upsert...
  EXPECT_EQ(b.objects().at(7).kind, MsgKind::kDelete);
  b.Apply(Upsert(7, {4}, 1));  // ...and a newer image replaces the tombstone
  EXPECT_EQ(b.objects().at(7).kind, MsgKind::kUpsert);
  EXPECT_EQ(b.objects().at(7).meta_len, 1u);

  b.Apply(Delete(8));  // a tombstone with nothing staged is kept for the leaf
  EXPECT_EQ(b.objects().at(8).kind, MsgKind::kDelete);

  b.Apply(LabelDelta(3, {1}));
  b.Apply(LabelDelta(3, {2, 2}));  // latest label image wins
  ASSERT_EQ(b.labels().size(), 1u);
  EXPECT_EQ(b.labels().at(3), (std::vector<uint8_t>{2, 2}));
  EXPECT_EQ(b.count(), 3u);  // two object entries + one label
}

TEST(BetreeMsg, WireRoundTripAllKinds) {
  std::vector<Msg> in;
  in.push_back(Upsert(42, {5, 6, 7}, 2));
  in.push_back(Delete(43));
  in.push_back(LabelDelta(9, {8, 8, 8, 8}));
  std::vector<uint8_t> wire;
  for (const Msg& m : in) {
    size_t before = wire.size();
    SerializeMsg(m, &wire);
    EXPECT_EQ(wire.size() - before, MsgWireBytes(m));
  }
  wire::Reader r{wire.data(), wire.size()};
  for (const Msg& want : in) {
    Msg got;
    ASSERT_TRUE(ParseMsg(&r, &got));
    EXPECT_EQ(got.kind, want.kind);
    EXPECT_EQ(got.id, want.id);
    EXPECT_EQ(got.meta_len, want.meta_len);
    EXPECT_EQ(got.bytes, want.bytes);
  }
  EXPECT_EQ(r.pos, wire.size());

  // Truncation anywhere inside the last message fails cleanly.
  wire::Reader t{wire.data(), wire.size() - 1};
  Msg m;
  ASSERT_TRUE(ParseMsg(&t, &m));
  ASSERT_TRUE(ParseMsg(&t, &m));
  EXPECT_FALSE(ParseMsg(&t, &m));
}

TEST(BetreeMsg, ParseRefusesRetiredAndUnknownKinds) {
  // Kind 4 was the never-produced metadata patch: retired, not reused. It
  // parses as no message at all, even followed by a well-formed body of its
  // old shape (u64 id, u64 meta_len).
  for (uint8_t kind : {uint8_t{0}, uint8_t{4}, uint8_t{5}, uint8_t{0xff}}) {
    std::vector<uint8_t> wire = {kind};
    wire::PutU64(&wire, 44);
    wire::PutU64(&wire, 16);
    wire::Reader r{wire.data(), wire.size()};
    Msg m;
    EXPECT_FALSE(ParseMsg(&r, &m)) << "kind " << int{kind};
    EXPECT_TRUE(r.fail) << "kind " << int{kind};
  }
}

TEST(BetreeMsg, ExtractRangePartitions) {
  MsgBuffer b;
  for (uint64_t id = 1; id <= 10; ++id) {
    b.Apply(Upsert(id, {static_cast<uint8_t>(id)}, 1));
  }
  uint64_t total = b.bytes();
  std::map<uint64_t, Msg> mid = b.ExtractRange(3, 7);
  ASSERT_EQ(mid.size(), 4u);
  EXPECT_EQ(mid.begin()->first, 3u);
  EXPECT_EQ(mid.rbegin()->first, 6u);
  EXPECT_EQ(b.objects().size(), 6u);
  EXPECT_LT(b.bytes(), total);

  std::map<uint64_t, Msg> tail = b.ExtractRange(7, ~0ULL);  // "to the end"
  ASSERT_EQ(tail.size(), 4u);
  EXPECT_EQ(tail.rbegin()->first, 10u);
  EXPECT_EQ(b.objects().size(), 2u);  // ids 1, 2 remain
}

TEST(BetreeMsg, MergeBodiesEquivalentToSequentialReplay) {
  // The fold path: two increment bodies coalesce into one whose replay
  // matches replaying them oldest-first.
  DiskGeometry g;
  g.capacity_bytes = 1 << 20;
  g.zero_latency = true;
  DiskModel disk(g);
  ExtentAllocator alloc(0, 1 << 20);
  std::vector<Extent> frees;
  BetreeEngine engine(&disk, &alloc, &frees, BetreeParams{});

  MsgBuffer older;
  older.Apply(Upsert(1, {1, 1}, 2));
  older.Apply(Upsert(2, {2, 2}, 2));
  older.Apply(LabelDelta(5, {10}));
  MsgBuffer newer;
  newer.Apply(Delete(1));
  newer.Apply(Upsert(3, {3}, 1));
  newer.Apply(LabelDelta(5, {20}));

  std::vector<std::vector<uint8_t>> bodies(2);
  older.Serialize(&bodies[0]);
  newer.Serialize(&bodies[1]);
  std::vector<uint8_t> merged_wire;
  ASSERT_EQ(engine.MergeSectionBodies(bodies, &merged_wire), Status::kOk);

  wire::Reader r{merged_wire.data(), merged_wire.size()};
  uint32_t n = r.U32();
  MsgBuffer merged;
  for (uint32_t i = 0; i < n; ++i) {
    Msg m;
    ASSERT_TRUE(ParseMsg(&r, &m));
    merged.Apply(std::move(m));
  }
  EXPECT_EQ(r.pos, merged_wire.size());
  ASSERT_EQ(merged.objects().size(), 3u);
  EXPECT_EQ(merged.objects().at(1).kind, MsgKind::kDelete);  // tombstone survives
  EXPECT_EQ(merged.objects().at(2).bytes, (std::vector<uint8_t>{2, 2}));
  EXPECT_EQ(merged.objects().at(3).bytes, (std::vector<uint8_t>{3}));
  ASSERT_EQ(merged.labels().size(), 1u);
  EXPECT_EQ(merged.labels().at(5), (std::vector<uint8_t>{20}));  // latest wins

  std::vector<std::vector<uint8_t>> torn = bodies;
  torn[1].pop_back();
  std::vector<uint8_t> out;
  EXPECT_EQ(engine.MergeSectionBodies(torn, &out), Status::kCorrupt);
}

// ---- the tree under the store ------------------------------------------------

class BetreeStoreTest : public KernelTest {
 protected:
  // Toy geometry: ~2 kB nodes and a 2 kB root buffer, so a few dozen
  // 200-byte objects build a real multi-level tree and nearly every group
  // sync wants a base flush.
  static StoreTuning TinyTuning(uint64_t root_buffer_bytes = 2048) {
    StoreTuning t;
    t.log_region_bytes = 1 << 20;
    t.log_apply_threshold = 50;
    t.betree.node_bytes = 2048;
    t.betree.buffer_bytes = 1024;
    t.betree.root_buffer_bytes = root_buffer_bytes;
    t.betree.fanout = 4;
    return t;
  }

  void SetUp() override {
    KernelTest::SetUp();
    DiskGeometry g;
    g.capacity_bytes = 64 << 20;
    g.zero_latency = true;
    g.store_data = true;
    disk_ = std::make_unique<DiskModel>(g);
    MakeStore(TinyTuning());
  }

  void MakeStore(const StoreTuning& t) {
    tuning_ = t;
    store_ = std::make_unique<SingleLevelStore>(disk_.get(), tuning_);
    ASSERT_EQ(store_->Format(), Status::kOk);
    kernel_->AttachPersistTarget(store_.get());
  }

  BetreeEngine* Tree(SingleLevelStore* s = nullptr) {
    return (s != nullptr ? s : store_.get())->engine();
  }

  std::unique_ptr<DiskModel> disk_;
  StoreTuning tuning_;
  std::unique_ptr<SingleLevelStore> store_;
};

TEST_F(BetreeStoreTest, BaseFlushBuildsMultiLevelTreeThatReloads) {
  std::vector<ObjectId> segs;
  for (int i = 0; i < 80; ++i) {
    segs.push_back(MakeSegment(Label(), 200));
  }
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);
  ASSERT_TRUE(store_->last_commit_was_base());
  EXPECT_GE(Tree()->height(), 2);  // 80 images never fit one 2 kB leaf
  EXPECT_GT(Tree()->node_count(), 4u);
  EXPECT_EQ(Tree()->staged_bytes(), 0u);  // the flush consumed the buffers

  WorldMap before = WorldImage(*kernel_);
  RebootResult r = RebootFromDisk(disk_.get(), tuning_);
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(WorldImage(*r.kernel), before);
  // The reloaded tree is the written tree, not a rebuilt one.
  EXPECT_EQ(Tree(r.store.get())->node_count(), Tree()->node_count());
  EXPECT_EQ(Tree(r.store.get())->height(), Tree()->height());
}

TEST_F(BetreeStoreTest, IncrementMessagesOverlayTreeOnRecovery) {
  // Big root buffer: after the first base, everything stays an increment —
  // recovery must lay the message batches over the on-disk tree.
  MakeStore(TinyTuning(/*root_buffer_bytes=*/1 << 20));
  std::vector<ObjectId> segs;
  for (int i = 0; i < 40; ++i) {
    segs.push_back(MakeSegment(Label(), 200));
  }
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);
  ASSERT_TRUE(store_->last_commit_was_base());
  uint64_t nodes_after_base = Tree()->node_count();

  char b = '!';
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(kernel_->sys_segment_write(init_, RootEntry(segs[static_cast<size_t>(i)]),
                                         &b, 0, 1),
              Status::kOk);
  }
  ASSERT_EQ(kernel_->sys_container_unref(init_, RootEntry(segs[10])), Status::kOk);
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);
  EXPECT_FALSE(store_->last_commit_was_base());
  // The increment staged messages; the on-disk tree is untouched.
  EXPECT_EQ(Tree()->node_count(), nodes_after_base);
  EXPECT_GT(Tree()->staged_bytes(), 0u);

  WorldMap before = WorldImage(*kernel_);
  RebootResult r = RebootFromDisk(disk_.get(), tuning_);
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(WorldImage(*r.kernel), before);
  EXPECT_FALSE(r.kernel->ObjectExists(segs[10]));  // the tombstone applied
  CurrentThread bind(init_);
  char out = 0;
  ASSERT_EQ(r.kernel->sys_segment_read(
                init_, ContainerEntry{r.kernel->root_container(), segs[0]}, &out, 0, 1),
            Status::kOk);
  EXPECT_EQ(out, '!');
}

TEST_F(BetreeStoreTest, CrashMidBaseFlushBootsOldRootThenRetriesAsBase) {
  std::vector<ObjectId> segs;
  for (int i = 0; i < 30; ++i) {
    segs.push_back(MakeSegment(Label(), 200));
  }
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);
  WorldMap committed = WorldImage(*kernel_);

  // Dirty enough to overflow the 2 kB root buffer (next sync = base flush),
  // then crash a few thousand bytes into the node writes.
  char b = '?';
  for (ObjectId s : segs) {
    ASSERT_EQ(kernel_->sys_segment_write(init_, RootEntry(s), &b, 0, 1), Status::kOk);
  }
  disk_->CrashAfterBytes(3000);
  EXPECT_NE(kernel_->sys_sync(init_), Status::kOk);
  EXPECT_TRUE(Tree()->base_pending()) << "failed base flush must stay sticky";

  // The flip never happened: a reboot sees the last committed world.
  disk_->Repair();
  RebootResult r = RebootFromDisk(disk_.get(), tuning_);
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(WorldImage(*r.kernel), committed);

  // The live store retries — and the retry must be a base (the consumed
  // messages live only in the in-memory tree now).
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);
  EXPECT_TRUE(store_->last_commit_was_base());
  EXPECT_FALSE(Tree()->base_pending());
  RebootResult r2 = RebootFromDisk(disk_.get(), tuning_);
  ASSERT_EQ(r2.status, Status::kOk);
  EXPECT_EQ(WorldImage(*r2.kernel), WorldImage(*kernel_));
}

TEST_F(BetreeStoreTest, TornInteriorNodeWriteFailsCommitBeforeFlip) {
  std::vector<ObjectId> segs;
  for (int i = 0; i < 40; ++i) {
    segs.push_back(MakeSegment(Label(), 200));
  }
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);
  ASSERT_GE(Tree()->height(), 2);
  WorldMap committed = WorldImage(*kernel_);

  char b = '#';
  for (ObjectId s : segs) {
    ASSERT_EQ(kernel_->sys_segment_write(init_, RootEntry(s), &b, 0, 1), Status::kOk);
  }
  // Tear the first heap write of the flush (node writes precede the section
  // write): an arbitrary 17-byte prefix persists, then the device dies.
  FaultPlan plan;
  FaultRule rule;
  rule.kind = FaultKind::kTorn;
  rule.on_read = false;
  // Past the superblock slots (8 kB) and the 1 MB WAL region: heap only.
  // A group sync writes no WAL, so the first heap write of this sync is a
  // tree node (the flush precedes the section write).
  rule.offset_lo = (8 << 10) + (1 << 20);
  rule.arg = 17;
  plan.rules.push_back(rule);
  disk_->SetFaultPlan(std::move(plan));
  EXPECT_NE(kernel_->sys_sync(init_), Status::kOk);
  EXPECT_EQ(disk_->faults_injected(FaultKind::kTorn), 1u);

  // The torn node is unreachable — the old superblock still names the old
  // root, and recovery checksums would reject the torn image anyway.
  disk_->Repair();
  RebootResult r = RebootFromDisk(disk_.get(), tuning_);
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(WorldImage(*r.kernel), committed);

  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);
  RebootResult r2 = RebootFromDisk(disk_.get(), tuning_);
  ASSERT_EQ(r2.status, Status::kOk);
  EXPECT_EQ(WorldImage(*r2.kernel), WorldImage(*kernel_));
}

TEST_F(BetreeStoreTest, SyncPagesWritesInPlaceOnCleanLeafStagesOtherwise) {
  // Big root buffer so the second group sync stays an increment — its
  // object image lives in the committed message buffer, not the tree.
  MakeStore(TinyTuning(/*root_buffer_bytes=*/1 << 20));
  ObjectId seg = MakeSegment(Label(), 256);
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);  // base: object home = leaf blob
  uint64_t epoch_clean = store_->epoch();

  // Clean leaf: the payload flush goes in place — no commit, no new epoch.
  char b = 'p';
  ASSERT_EQ(kernel_->sys_segment_write(init_, RootEntry(seg), &b, 64, 1), Status::kOk);
  ASSERT_EQ(kernel_->sys_sync_pages(init_, RootEntry(seg), 64, 1), Status::kOk);
  EXPECT_EQ(store_->epoch(), epoch_clean);

  RebootResult r = RebootFromDisk(disk_.get(), tuning_);
  ASSERT_EQ(r.status, Status::kOk);
  CurrentThread bind(init_);
  char out = 0;
  ASSERT_EQ(r.kernel->sys_segment_read(
                init_, ContainerEntry{r.kernel->root_container(), seg}, &out, 64, 1),
            Status::kOk);
  EXPECT_EQ(out, 'p');

  // Staged image (an object whose freshest bytes rode an increment and sit
  // in the root buffer, not a leaf): the flush must restage and commit.
  ObjectId young = MakeSegment(Label(), 256);
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);  // increment: image = message
  EXPECT_FALSE(store_->last_commit_was_base());
  char c = 'q';
  ASSERT_EQ(kernel_->sys_segment_write(init_, RootEntry(young), &c, 32, 1), Status::kOk);
  uint64_t epoch_before = store_->epoch();
  ASSERT_EQ(kernel_->sys_sync_pages(init_, RootEntry(young), 32, 1), Status::kOk);
  EXPECT_GT(store_->epoch(), epoch_before) << "staged flush must commit";

  RebootResult r2 = RebootFromDisk(disk_.get(), tuning_);
  ASSERT_EQ(r2.status, Status::kOk);
  out = 0;
  ASSERT_EQ(r2.kernel->sys_segment_read(
                init_, ContainerEntry{r2.kernel->root_container(), young}, &out, 32, 1),
            Status::kOk);
  EXPECT_EQ(out, 'q');
}

// Chain extents of the newest superblock (docs/persistence.md "Superblock":
// u64 words magic, generation, root, log_applied_seq, epoch, chain_len,
// then (offset, length) pairs).
std::vector<Extent> CommittedChain(DiskModel* disk) {
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

// Rewrites a committed section's engine byte (header offset 17: u64 magic,
// u64 epoch, u8 kind, u8 engine) and re-seals its checksum, so the byte is
// the only thing recovery can object to. Returns the byte it replaced.
uint8_t PatchEngineByte(DiskModel* disk, const Extent& section, uint8_t engine) {
  std::vector<uint8_t> image(section.length);
  EXPECT_EQ(disk->Read(section.offset, image.data(), image.size()), Status::kOk);
  uint8_t old = image[17];
  image[17] = engine;
  uint64_t csum = StoreChecksum(image.data(), image.size() - 8);
  memcpy(image.data() + image.size() - 8, &csum, 8);
  EXPECT_EQ(disk->Write(section.offset, image.data(), image.size()), Status::kOk);
  return old;
}

TEST_F(BetreeStoreTest, RecoveryRefusesForeignEngineByte) {
  // Every disk the blob engine formatted carries engine byte 0, and its
  // section bodies are not Bε-tree bodies: recovery must refuse them
  // (kCorrupt), base and increment alike, rather than parse them.
  ObjectId seg = MakeSegment(Label(), 128);
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);  // base
  char b = 'q';
  ASSERT_EQ(kernel_->sys_segment_write(init_, RootEntry(seg), &b, 0, 1), Status::kOk);
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);  // increment
  ASSERT_FALSE(store_->last_commit_was_base());
  WorldMap committed = WorldImage(*kernel_);

  std::vector<Extent> chain = CommittedChain(disk_.get());
  ASSERT_EQ(chain.size(), 2u);
  for (const Extent& section : chain) {
    for (uint8_t engine : {uint8_t{0}, uint8_t{2}, uint8_t{0xff}}) {
      ASSERT_EQ(PatchEngineByte(disk_.get(), section, engine), 1u);
      EXPECT_EQ(RebootFromDisk(disk_.get(), tuning_).status, Status::kCorrupt)
          << "engine byte " << int{engine};
      ASSERT_EQ(PatchEngineByte(disk_.get(), section, 1), engine);
      // Restoring the byte restores the boot: the patch itself is sound.
      RebootResult r = RebootFromDisk(disk_.get(), tuning_);
      ASSERT_EQ(r.status, Status::kOk);
      EXPECT_EQ(WorldImage(*r.kernel), committed);
    }
  }
}

// Rewrites the type byte of object `id`'s image inside a committed
// section (an upsert carries u8 format, u8 type, u64 object_id, ...) and
// re-seals the section checksum, so the type is the only thing recovery
// can object to. Returns the byte it replaced, or 0xff if the image was
// not found.
uint8_t PatchObjectTypeByte(DiskModel* disk, const Extent& section, ObjectId id,
                            uint8_t type) {
  std::vector<uint8_t> image(section.length);
  EXPECT_EQ(disk->Read(section.offset, image.data(), image.size()), Status::kOk);
  uint8_t id_bytes[8];
  memcpy(id_bytes, &id, 8);
  for (size_t i = 2; i + 9 <= image.size() - 8; ++i) {
    bool format_byte = image[i - 1] == 0x01 || image[i - 1] == 0x02;
    if (format_byte && image[i] < 8 && memcmp(image.data() + i + 1, id_bytes, 8) == 0) {
      uint8_t old = image[i];
      image[i] = type;
      uint64_t csum = StoreChecksum(image.data(), image.size() - 8);
      memcpy(image.data() + image.size() - 8, &csum, 8);
      EXPECT_EQ(disk->Write(section.offset, image.data(), image.size()), Status::kOk);
      return old;
    }
  }
  return 0xff;
}

TEST_F(BetreeStoreTest, RecoveryRefusesRetiredObjectType) {
  // ObjectType value 6 named the deleted async ring and is never reused: a
  // blob carrying it is refused (kCorrupt), not restored as some other
  // type. The increment's upsert is patched, so the rest of the chain is
  // untouched.
  ObjectId seg = MakeSegment(Label(), 128);
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);  // base
  char b = 't';
  ASSERT_EQ(kernel_->sys_segment_write(init_, RootEntry(seg), &b, 0, 1), Status::kOk);
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);  // increment: upserts seg
  ASSERT_FALSE(store_->last_commit_was_base());
  WorldMap committed = WorldImage(*kernel_);

  std::vector<Extent> chain = CommittedChain(disk_.get());
  ASSERT_EQ(chain.size(), 2u);
  const uint8_t segment_type = static_cast<uint8_t>(ObjectType::kSegment);
  ASSERT_EQ(PatchObjectTypeByte(disk_.get(), chain[1], seg, 6), segment_type);
  EXPECT_EQ(RebootFromDisk(disk_.get(), tuning_).status, Status::kCorrupt);
  ASSERT_EQ(PatchObjectTypeByte(disk_.get(), chain[1], seg, segment_type), 6);
  // Restoring the byte restores the boot: the patch itself is sound.
  RebootResult r = RebootFromDisk(disk_.get(), tuning_);
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(WorldImage(*r.kernel), committed);
}

// Rewrites the kind byte of the upsert message carrying object `id` in a
// committed section — the message is [u8 kind][u64 id][u64 meta_len][u32
// len] and its image starts [u8 format][u8 type][u64 object_id] — and
// re-seals the section checksum. The kind found may be an upsert's or the
// retired 4 (to undo a patch). Returns the byte it replaced, or 0 if no
// such message was found.
uint8_t PatchUpsertKindByte(DiskModel* disk, const Extent& section, ObjectId id,
                            uint8_t kind) {
  std::vector<uint8_t> image(section.length);
  EXPECT_EQ(disk->Read(section.offset, image.data(), image.size()), Status::kOk);
  uint8_t id_bytes[8];
  memcpy(id_bytes, &id, 8);
  constexpr size_t kImageAt = 1 + 8 + 8 + 4;
  for (size_t i = 0; i + kImageAt + 10 <= image.size() - 8; ++i) {
    const uint8_t* img = image.data() + i + kImageAt;
    bool upsert = image[i] == static_cast<uint8_t>(MsgKind::kUpsert) || image[i] == 4;
    if (upsert && memcmp(image.data() + i + 1, id_bytes, 8) == 0 &&
        (img[0] == 0x01 || img[0] == 0x02) && memcmp(img + 2, id_bytes, 8) == 0) {
      uint8_t old = image[i];
      image[i] = kind;
      uint64_t csum = StoreChecksum(image.data(), image.size() - 8);
      memcpy(image.data() + image.size() - 8, &csum, 8);
      EXPECT_EQ(disk->Write(section.offset, image.data(), image.size()), Status::kOk);
      return old;
    }
  }
  return 0;
}

TEST_F(BetreeStoreTest, RecoveryRefusesRetiredMessageKind) {
  // Message kind 4 (the retired metadata patch) is refused (kCorrupt), not
  // replayed: the increment's upsert of `seg` is patched to kind 4, so the
  // kind byte is the only thing recovery can object to.
  ObjectId seg = MakeSegment(Label(), 128);
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);  // base
  char b = 'm';
  ASSERT_EQ(kernel_->sys_segment_write(init_, RootEntry(seg), &b, 0, 1), Status::kOk);
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);  // increment: upserts seg
  ASSERT_FALSE(store_->last_commit_was_base());
  WorldMap committed = WorldImage(*kernel_);

  std::vector<Extent> chain = CommittedChain(disk_.get());
  ASSERT_EQ(chain.size(), 2u);
  const uint8_t upsert = static_cast<uint8_t>(MsgKind::kUpsert);
  ASSERT_EQ(PatchUpsertKindByte(disk_.get(), chain[1], seg, 4), upsert);
  EXPECT_EQ(RebootFromDisk(disk_.get(), tuning_).status, Status::kCorrupt);
  ASSERT_EQ(PatchUpsertKindByte(disk_.get(), chain[1], seg, upsert), 4);
  // Restoring the byte restores the boot: the patch itself is sound.
  RebootResult r = RebootFromDisk(disk_.get(), tuning_);
  ASSERT_EQ(r.status, Status::kOk);
  EXPECT_EQ(WorldImage(*r.kernel), committed);
}

TEST_F(BetreeStoreTest, AllocationFailureSweepOverBaseFlush) {
  // Fail the Nth allocator check for N = 1..24, each against a base flush
  // with real tree work. Whatever fails must leave the store retriable and
  // the disk bootable to the last committed world.
  std::vector<ObjectId> segs;
  for (int i = 0; i < 20; ++i) {
    segs.push_back(MakeSegment(Label(), 200));
  }
  ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk);

  for (int n = 1; n <= 24; ++n) {
    WorldMap committed = WorldImage(*kernel_);
    char b = static_cast<char>('a' + n);
    for (ObjectId s : segs) {
      ASSERT_EQ(kernel_->sys_segment_write(init_, RootEntry(s), &b, 0, 1), Status::kOk);
    }
    StoreAlloc::FailNth(static_cast<uint64_t>(n));
    Status st = kernel_->sys_sync(init_);
    StoreAlloc::Disarm();
    if (st != Status::kOk) {
      // Failed before the flip: the disk still boots the old world, the
      // kernel still holds the dirty marks.
      EXPECT_FALSE(kernel_->DirtyObjects().empty()) << "N=" << n;
      RebootResult r = RebootFromDisk(disk_.get(), tuning_);
      ASSERT_EQ(r.status, Status::kOk) << "N=" << n;
      EXPECT_EQ(WorldImage(*r.kernel), committed) << "N=" << n;
      ASSERT_EQ(kernel_->sys_sync(init_), Status::kOk) << "N=" << n;
    }
    RebootResult r = RebootFromDisk(disk_.get(), tuning_);
    ASSERT_EQ(r.status, Status::kOk) << "N=" << n;
    EXPECT_EQ(WorldImage(*r.kernel), WorldImage(*kernel_)) << "N=" << n;
  }
}

}  // namespace
}  // namespace histar
