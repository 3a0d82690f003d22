// File system tests (paper §5.1): directories as containers, kernel-enforced
// permissions, atomic rename, mount tables.
#include "src/unixlib/fs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>

#include "src/store/single_level_store.h"
#include "src/unixlib/unix.h"

namespace histar {
namespace {

// The directory segment of `dir` (its id is the first metadata word).
ContainerEntry DirSeg(Kernel* k, ObjectId self, ObjectId dir) {
  Result<std::vector<uint8_t>> md = k->sys_obj_get_metadata(self, SelfEntry(dir));
  EXPECT_TRUE(md.ok());
  uint64_t seg = 0;
  if (md.ok()) {
    memcpy(&seg, md.value().data(), sizeof(seg));
  }
  return ContainerEntry{dir, seg};
}

// An older build raised and lowered a directory header's busy word (offset
// 16) in separate syscalls, so a checkpoint between them stored busy = 1.
void SetBusyWord(Kernel* k, ObjectId self, ObjectId dir) {
  uint64_t busy = 1;
  ASSERT_EQ(k->sys_segment_write(self, DirSeg(k, self, dir), &busy, 16, 8), Status::kOk);
}

// Readers must not wait on the busy word: `dir`, holding only `file` named
// "there", still serves Lookup, ReadDir and Create.
void ExpectBusyWordIgnored(Kernel* k, ObjectId self, ObjectId dir, ObjectId file) {
  FileSystem fs(k);
  Result<ObjectId> found = fs.Lookup(self, dir, "there");
  ASSERT_TRUE(found.ok()) << StatusName(found.status());
  EXPECT_EQ(found.value(), file);
  Result<std::vector<std::pair<std::string, ObjectId>>> list = fs.ReadDir(self, dir);
  ASSERT_TRUE(list.ok()) << StatusName(list.status());
  EXPECT_EQ(list.value().size(), 1u);
  EXPECT_TRUE(fs.Create(self, dir, "after", Label()).ok());
}

class FsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    kernel_ = std::make_unique<Kernel>();
    world_ = UnixWorld::Boot(kernel_.get());
    ASSERT_NE(world_, nullptr);
    self_ = world_->init_thread();
    CurrentThread::Set(self_);
  }
  void TearDown() override { CurrentThread::Set(kInvalidObject); }

  FileSystem& fs() { return world_->fs(); }

  size_t Links(ObjectId container) {
    Result<std::vector<ObjectId>> l = kernel_->sys_container_list(self_, container);
    EXPECT_TRUE(l.ok());
    return l.ok() ? l.value().size() : 0;
  }

  std::unique_ptr<Kernel> kernel_;
  std::unique_ptr<UnixWorld> world_;
  ObjectId self_;
};

TEST_F(FsTest, CreateWriteReadFile) {
  ObjectId tmp = world_->tmp_dir();
  Result<ObjectId> f = fs().Create(self_, tmp, "hello.txt", Label());
  ASSERT_TRUE(f.ok()) << StatusName(f.status());
  const char msg[] = "hello, world";
  ASSERT_EQ(fs().WriteAt(self_, tmp, f.value(), msg, 0, sizeof(msg)), Status::kOk);
  char buf[64] = {};
  Result<uint64_t> n = fs().ReadAt(self_, tmp, f.value(), buf, 0, sizeof(buf));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), sizeof(msg));
  EXPECT_STREQ(buf, msg);
}

TEST_F(FsTest, LookupFindsCreatedFiles) {
  ObjectId tmp = world_->tmp_dir();
  Result<ObjectId> f = fs().Create(self_, tmp, "a", Label());
  ASSERT_TRUE(f.ok());
  Result<ObjectId> found = fs().Lookup(self_, tmp, "a");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value(), f.value());
  EXPECT_EQ(fs().Lookup(self_, tmp, "missing").status(), Status::kNotFound);
}

TEST_F(FsTest, DuplicateCreateFails) {
  ObjectId tmp = world_->tmp_dir();
  ASSERT_TRUE(fs().Create(self_, tmp, "dup", Label()).ok());
  EXPECT_EQ(fs().Create(self_, tmp, "dup", Label()).status(), Status::kExists);
}

TEST_F(FsTest, FailedCreateOrphansNothing) {
  // Create and MakeDir make their object before the scan under the mutex
  // finds the name taken; the object must then be unreferenced, leaving
  // the directory container's links as they were.
  ObjectId tmp = world_->tmp_dir();
  ASSERT_TRUE(fs().Create(self_, tmp, "file", Label()).ok());
  ASSERT_TRUE(fs().MakeDir(self_, tmp, "dir", Label(), 1 << 16).ok());
  size_t links = Links(tmp);
  for (const char* name : {"file", "dir"}) {
    EXPECT_EQ(fs().Create(self_, tmp, name, Label()).status(), Status::kExists) << name;
    EXPECT_EQ(fs().MakeDir(self_, tmp, name, Label(), 1 << 16).status(), Status::kExists)
        << name;
  }
  EXPECT_EQ(Links(tmp), links);
  // A container without a directory segment is not a directory: Create
  // fails before making anything in it.
  CreateSpec spec;
  spec.container = tmp;
  spec.quota = 1 << 16;
  Result<ObjectId> plain = kernel_->sys_container_create(self_, spec, 0);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(fs().Create(self_, plain.value(), "f", Label()).status(), Status::kWrongType);
  EXPECT_EQ(Links(plain.value()), 0u);
}

TEST_F(FsTest, UnlinkRemovesFileAndObject) {
  ObjectId tmp = world_->tmp_dir();
  Result<ObjectId> f = fs().Create(self_, tmp, "gone", Label());
  ASSERT_TRUE(f.ok());
  ASSERT_EQ(fs().Unlink(self_, tmp, "gone"), Status::kOk);
  EXPECT_EQ(fs().Lookup(self_, tmp, "gone").status(), Status::kNotFound);
  EXPECT_FALSE(kernel_->ObjectExists(f.value()));
}

TEST_F(FsTest, RenameIsAtomicWithinDirectory) {
  ObjectId tmp = world_->tmp_dir();
  Result<ObjectId> f = fs().Create(self_, tmp, "old", Label());
  ASSERT_TRUE(f.ok());
  ASSERT_EQ(fs().Rename(self_, tmp, "old", "new"), Status::kOk);
  EXPECT_EQ(fs().Lookup(self_, tmp, "old").status(), Status::kNotFound);
  Result<ObjectId> moved = fs().Lookup(self_, tmp, "new");
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved.value(), f.value());
  // Renaming a name onto itself leaves it bound.
  ASSERT_EQ(fs().Rename(self_, tmp, "new", "new"), Status::kOk);
  moved = fs().Lookup(self_, tmp, "new");
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved.value(), f.value());
}

TEST_F(FsTest, RenameReplacesTarget) {
  ObjectId tmp = world_->tmp_dir();
  Result<ObjectId> a = fs().Create(self_, tmp, "src", Label());
  Result<ObjectId> b = fs().Create(self_, tmp, "dst", Label());
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(fs().Rename(self_, tmp, "src", "dst"), Status::kOk);
  Result<ObjectId> now = fs().Lookup(self_, tmp, "dst");
  ASSERT_TRUE(now.ok());
  EXPECT_EQ(now.value(), a.value());
  EXPECT_FALSE(kernel_->ObjectExists(b.value()));  // displaced object reclaimed
}

TEST_F(FsTest, ReadDirListsEntries) {
  ObjectId tmp = world_->tmp_dir();
  ASSERT_TRUE(fs().Create(self_, tmp, "one", Label()).ok());
  ASSERT_TRUE(fs().Create(self_, tmp, "two", Label()).ok());
  ASSERT_TRUE(fs().MakeDir(self_, tmp, "sub", Label(), 1 << 16).ok());
  Result<std::vector<std::pair<std::string, ObjectId>>> list = fs().ReadDir(self_, tmp);
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list.value().size(), 3u);
}

TEST_F(FsTest, WalkResolvesNestedPaths) {
  ObjectId root = world_->fs_root();
  Result<ObjectId> sub = fs().MakeDir(self_, world_->tmp_dir(), "deep", Label(), 1 << 18);
  ASSERT_TRUE(sub.ok());
  Result<ObjectId> f = fs().Create(self_, sub.value(), "leaf", Label());
  ASSERT_TRUE(f.ok());
  Result<ObjectId> got = fs().Walk(self_, root, "/tmp/deep/leaf");
  ASSERT_TRUE(got.ok()) << StatusName(got.status());
  EXPECT_EQ(got.value(), f.value());
  // Dot and dot-dot.
  Result<ObjectId> via_dots = fs().Walk(self_, root, "/tmp/./deep/../deep/leaf");
  ASSERT_TRUE(via_dots.ok());
  EXPECT_EQ(via_dots.value(), f.value());
}

TEST_F(FsTest, WalkParentSplitsLeaf) {
  Result<std::pair<ObjectId, std::string>> r =
      fs().WalkParent(self_, world_->fs_root(), "/tmp/x");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().first, world_->tmp_dir());
  EXPECT_EQ(r.value().second, "x");
}

TEST_F(FsTest, MountOverlaysDirectory) {
  // Mount /tmp at /home's "scratch" name, Plan 9 style (§5.7 uses this for
  // selecting /netd).
  fs().mounts().Mount(world_->home_dir(), "scratch", world_->tmp_dir());
  Result<ObjectId> via = fs().Walk(self_, world_->fs_root(), "/home/scratch");
  ASSERT_TRUE(via.ok());
  EXPECT_EQ(via.value(), world_->tmp_dir());
  fs().mounts().Unmount(world_->home_dir(), "scratch");
  EXPECT_FALSE(fs().Walk(self_, world_->fs_root(), "/home/scratch").ok());
}

TEST_F(FsTest, FileGrowsAcrossQuotaViaQuotaMove) {
  ObjectId tmp = world_->tmp_dir();
  Result<ObjectId> f = fs().Create(self_, tmp, "big", Label(), kObjectOverheadBytes + 1024);
  ASSERT_TRUE(f.ok());
  std::vector<uint8_t> chunk(8192, 7);
  // 8 kB write exceeds the 1 kB quota: WriteAt must pull quota from /tmp.
  ASSERT_EQ(fs().WriteAt(self_, tmp, f.value(), chunk.data(), 0, chunk.size()), Status::kOk);
  Result<uint64_t> size = fs().FileSize(self_, tmp, f.value());
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(size.value(), 8192u);
}

TEST_F(FsTest, KernelEnforcesFileLabels) {
  // A file labeled {ur3, uw0, 1} is protected by the kernel, not the
  // library: a thread without the categories cannot read it even by
  // forging direct syscalls.
  Result<UnixUser> bob = world_->AddUser("bob");
  ASSERT_TRUE(bob.ok());
  Result<ObjectId> secret =
      fs().Create(self_, bob.value().home, "diary", bob.value().FileLabel());
  ASSERT_TRUE(secret.ok()) << StatusName(secret.status());
  const char msg[] = "private";
  ASSERT_EQ(fs().WriteAt(self_, bob.value().home, secret.value(), msg, 0, sizeof(msg)),
            Status::kOk);

  ObjectId stranger = kernel_->BootstrapThread(Label(), Label(Level::k2), "stranger");
  char buf[16];
  // Both through the library...
  FileSystem their_fs(kernel_.get());
  EXPECT_FALSE(their_fs.ReadAt(stranger, bob.value().home, secret.value(), buf, 0, 8).ok());
  // ...and via raw syscalls.
  EXPECT_EQ(kernel_->sys_segment_read(stranger, ContainerEntry{bob.value().home, secret.value()},
                                      buf, 0, 8),
            Status::kLabelCheckFailed);
}

TEST_F(FsTest, MtimeTrackedNoAtime) {
  // §9: HiStar keeps modification time in object metadata; access times are
  // deliberately not tracked (fundamentally at odds with IFC).
  ObjectId tmp = world_->tmp_dir();
  Result<ObjectId> f = fs().Create(self_, tmp, "stamped", Label());
  ASSERT_TRUE(f.ok());
  ASSERT_EQ(fs().TouchMtime(self_, tmp, f.value(), 1234567), Status::kOk);
  Result<uint64_t> mtime = fs().GetMtime(self_, tmp, f.value());
  ASSERT_TRUE(mtime.ok());
  EXPECT_EQ(mtime.value(), 1234567u);
  // Reading does not bump anything.
  char buf[4];
  fs().ReadAt(self_, tmp, f.value(), buf, 0, 0);
  EXPECT_EQ(fs().GetMtime(self_, tmp, f.value()).value(), 1234567u);
}

TEST_F(FsTest, DirectoryListingWithoutWritePermission) {
  // Users that cannot write a directory can still obtain consistent
  // listings via the generation protocol (§5.1).
  Result<UnixUser> bob = world_->AddUser("bob");
  ASSERT_TRUE(bob.ok());
  // Bob's home dir is {ur3, uw0, 1}; a reader owning ur but not uw can
  // list but not create.
  Label reader_label(Level::k1, {{bob.value().ur, Level::kStar}});
  Label reader_clear(Level::k2, {{bob.value().ur, Level::k3}});
  CreateSpec spec;
  spec.container = kernel_->root_container();
  spec.quota = 64 * kPageSize;
  Result<ObjectId> reader =
      kernel_->sys_thread_create(self_, spec, reader_label, reader_clear);
  ASSERT_TRUE(reader.ok()) << StatusName(reader.status());
  ASSERT_TRUE(fs().Create(self_, bob.value().home, "visible", bob.value().FileLabel()).ok());

  FileSystem reader_fs(kernel_.get());
  Result<std::vector<std::pair<std::string, ObjectId>>> list =
      reader_fs.ReadDir(reader.value(), bob.value().home);
  ASSERT_TRUE(list.ok()) << StatusName(list.status());
  EXPECT_EQ(list.value().size(), 1u);
  EXPECT_EQ(list.value()[0].first, "visible");
  // But creation requires write permission (uw).
  EXPECT_FALSE(reader_fs.Create(reader.value(), bob.value().home, "nope", Label()).ok());
}

TEST_F(FsTest, ScansSeeEveryEntryOfALargeDirectory) {
  // 41 entries in one snapshot read: ReadDir lists them all, and Lookup
  // exercises the early-stopping scan.
  ObjectId tmp = world_->tmp_dir();
  std::vector<std::string> names;
  for (int i = 0; i < 41; ++i) {
    std::string name = "f" + std::to_string(i);
    ASSERT_TRUE(fs().Create(self_, tmp, name, Label()).ok());
    names.push_back(name);
  }
  Result<std::vector<std::pair<std::string, ObjectId>>> list = fs().ReadDir(self_, tmp);
  ASSERT_TRUE(list.ok());
  for (const std::string& name : names) {
    EXPECT_NE(std::find_if(list.value().begin(), list.value().end(),
                           [&](const auto& e) { return e.first == name; }),
              list.value().end())
        << name;
    EXPECT_TRUE(fs().Lookup(self_, tmp, name).ok()) << name;
  }
  EXPECT_EQ(fs().Lookup(self_, tmp, "missing").status(), Status::kNotFound);
  // A freed slot is reused: the directory segment does not grow.
  ContainerEntry seg = DirSeg(kernel_.get(), self_, tmp);
  uint64_t len = kernel_->sys_segment_get_len(self_, seg).value();
  ASSERT_EQ(fs().Unlink(self_, tmp, "f20"), Status::kOk);
  ASSERT_TRUE(fs().Create(self_, tmp, "again", Label()).ok());
  EXPECT_EQ(kernel_->sys_segment_get_len(self_, seg).value(), len);
  EXPECT_TRUE(fs().Lookup(self_, tmp, "again").ok());
  EXPECT_EQ(fs().Lookup(self_, tmp, "f20").status(), Status::kNotFound);
}

TEST_F(FsTest, DirectoryOpsCostAConstantNumberOfKernelCalls) {
  // A scan is sys_segment_get_len plus one read of the whole segment, and an
  // update is one batch, so neither depends on the directory's size.
  // Every entry of a batch counts as one call.
  ObjectId tmp = world_->tmp_dir();
  Result<ObjectId> small = fs().MakeDir(self_, tmp, "small", Label(), 1 << 20);
  Result<ObjectId> large = fs().MakeDir(self_, tmp, "large", Label(), 4 << 20);
  ASSERT_TRUE(small.ok() && large.ok());
  const uint64_t kFileQuota = kObjectOverheadBytes + 1024;
  ASSERT_TRUE(fs().Create(self_, small.value(), "f0", Label(), kFileQuota).ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        fs().Create(self_, large.value(), "f" + std::to_string(i), Label(), kFileQuota).ok());
  }
  uint64_t create_calls[2];
  for (ObjectId dir : {small.value(), large.value()}) {
    uint64_t c0 = kernel_->thread_syscall_count(self_);
    EXPECT_EQ(fs().Lookup(self_, dir, "missing").status(), Status::kNotFound);
    uint64_t c1 = kernel_->thread_syscall_count(self_);
    EXPECT_EQ(c1 - c0, 3u) << "Lookup, directory " << dir;
    ASSERT_TRUE(fs().Create(self_, dir, "new", Label(), kFileQuota).ok());
    create_calls[dir == large.value()] = kernel_->thread_syscall_count(self_) - c1;
  }
  EXPECT_EQ(create_calls[1], create_calls[0]);
}

TEST_F(FsTest, CreateTakesFourRoundTripsAndFiveLocks) {
  // Create is [dir metadata, segment create], [CAS lock, get_len], the
  // snapshot read, and [resize?, entry write, generation write, CAS
  // unlock]: four kernel round trips. Their TableLock acquisitions are the
  // create's id probe plus one per group, the get_len running lock-free.
  ObjectId tmp = world_->tmp_dir();
  Result<ObjectId> small = fs().MakeDir(self_, tmp, "small", Label(), 1 << 20);
  Result<ObjectId> large = fs().MakeDir(self_, tmp, "large", Label(), 4 << 20);
  ASSERT_TRUE(small.ok() && large.ok());
  const uint64_t kFileQuota = kObjectOverheadBytes + 1024;
  ASSERT_TRUE(fs().Create(self_, small.value(), "f0", Label(), kFileQuota).ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        fs().Create(self_, large.value(), "f" + std::to_string(i), Label(), kFileQuota).ok());
  }
  const ObjectTable& table = kernel_->object_table();
  for (ObjectId dir : {small.value(), large.value()}) {
    uint64_t e0 = kernel_->thread_entry_count(self_);
    table.set_lock_accounting(true);
    uint64_t l0 = table.lock_acquisitions();
    ASSERT_TRUE(fs().Create(self_, dir, "new", Label(), kFileQuota).ok());
    uint64_t locks = table.lock_acquisitions() - l0;
    table.set_lock_accounting(false);
    uint64_t entries = kernel_->thread_entry_count(self_) - e0;
    EXPECT_LE(entries, 4u) << "directory " << dir;
    EXPECT_LE(locks, 5u) << "directory " << dir;

    uint64_t c0 = kernel_->thread_syscall_count(self_);
    EXPECT_EQ(fs().Lookup(self_, dir, "missing").status(), Status::kNotFound);
    EXPECT_EQ(kernel_->thread_syscall_count(self_) - c0, 3u) << "Lookup, directory " << dir;
  }
}

TEST_F(FsTest, WriteAtGrowsTheFileInOneRoundTrip) {
  // get_len, then the resize and the write as one batch.
  ObjectId tmp = world_->tmp_dir();
  Result<ObjectId> f = fs().Create(self_, tmp, "grow", Label());
  ASSERT_TRUE(f.ok());
  const char data[] = "appended";
  uint64_t e0 = kernel_->thread_entry_count(self_);
  ASSERT_EQ(fs().WriteAt(self_, tmp, f.value(), data, 0, sizeof(data)), Status::kOk);
  EXPECT_EQ(kernel_->thread_entry_count(self_) - e0, 2u);
  char back[sizeof(data)] = {};
  Result<uint64_t> n = fs().ReadAt(self_, tmp, f.value(), back, 0, sizeof(back));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), sizeof(data));
  EXPECT_STREQ(back, data);
}

TEST_F(FsTest, StuckBusyWordIsIgnored) {
  ObjectId tmp = world_->tmp_dir();
  Result<ObjectId> f = fs().Create(self_, tmp, "there", Label());
  ASSERT_TRUE(f.ok());
  SetBusyWord(kernel_.get(), self_, tmp);
  ExpectBusyWordIgnored(kernel_.get(), self_, tmp, f.value());
}

TEST(FsRecoveryTest, StuckBusyWordIsIgnoredAfterRecovery) {
  DiskGeometry g;
  g.capacity_bytes = 64 << 20;
  g.zero_latency = true;
  g.store_data = true;
  DiskModel disk(g);
  SingleLevelStore store(&disk);
  ASSERT_EQ(store.Format(), Status::kOk);
  Kernel kernel;
  kernel.AttachPersistTarget(&store);
  std::unique_ptr<UnixWorld> world = UnixWorld::Boot(&kernel);
  ASSERT_NE(world, nullptr);
  ObjectId init = world->init_thread();
  CurrentThread bind(init);
  ObjectId tmp = world->tmp_dir();
  Result<ObjectId> f = world->fs().Create(init, tmp, "there", Label());
  ASSERT_TRUE(f.ok());
  SetBusyWord(&kernel, init, tmp);
  ASSERT_EQ(kernel.sys_sync(init), Status::kOk);

  // The checkpoint holds busy = 1; a fresh kernel booted from it must still
  // serve the directory.
  SingleLevelStore store2(&disk);
  Kernel k2;
  ASSERT_EQ(store2.Recover(&k2), Status::kOk);
  ExpectBusyWordIgnored(&k2, init, tmp, f.value());
}

TEST_F(FsTest, ReaderNeverSeesARenameHalfDone) {
  // Rename-over-existing binds the new name and frees the old one in one
  // batch, so a lock-free listing never shows "a" and "b" bound to the same
  // object. Only the writer takes the directory mutex.
  Result<ObjectId> dir = fs().MakeDir(self_, world_->tmp_dir(), "ren", Label(), 4 << 20);
  ASSERT_TRUE(dir.ok());
  ObjectId reader = kernel_->BootstrapThread(Label(), Label(Level::k2), "reader");
  std::atomic<bool> done{false};
  std::atomic<int> listings{0};
  std::atomic<int> failures{0};
  std::atomic<int> torn{0};
  std::thread rd([&] {
    CurrentThread bind(reader);
    FileSystem rfs(kernel_.get());
    while (!done.load()) {
      Result<std::vector<std::pair<std::string, ObjectId>>> list =
          rfs.ReadDir(reader, dir.value());
      if (!list.ok()) {
        ++failures;
        continue;
      }
      ObjectId a = kInvalidObject;
      ObjectId b = kInvalidObject;
      for (const auto& [name, id] : list.value()) {
        if (name == "a") {
          a = id;
        } else if (name == "b") {
          b = id;
        }
      }
      if (a != kInvalidObject && a == b) {
        ++torn;
      }
      ++listings;
    }
  });
  int writer_failures = 0;
  for (int i = 0; i < 1000 && writer_failures == 0; ++i) {
    writer_failures += !fs().Create(self_, dir.value(), "a", Label(), 4096).ok();
    writer_failures += fs().Rename(self_, dir.value(), "a", "b") != Status::kOk;
  }
  done = true;
  rd.join();
  EXPECT_EQ(writer_failures, 0);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(torn.load(), 0) << "of " << listings.load() << " listings";
  EXPECT_GT(listings.load(), 0);
}

}  // namespace
}  // namespace histar
