// File-descriptor semantics (paper §5.3): descriptors are segments mapped by
// every process that holds them open — seek position and open state are
// *shared*, and a descriptor dies only after every holder closes it.
#include <gtest/gtest.h>

#include "src/unixlib/unix.h"

namespace histar {
namespace {

class FdTest : public ::testing::Test {
 protected:
  void SetUp() override {
    kernel_ = std::make_unique<Kernel>();
    world_ = UnixWorld::Boot(kernel_.get());
    ASSERT_NE(world_, nullptr);
    CurrentThread::Set(world_->init_thread());
    ctx_ = &world_->init_context();
  }
  void TearDown() override { CurrentThread::Set(kInvalidObject); }

  ObjectId init() const { return world_->init_thread(); }

  // A file with known contents in /tmp.
  std::pair<ObjectId, ObjectId> MakeFile(const std::string& name, const std::string& content) {
    ObjectId dir = world_->tmp_dir();
    Result<ObjectId> f = world_->fs().Create(init(), dir, name, Label());
    EXPECT_TRUE(f.ok());
    EXPECT_EQ(world_->fs().WriteAt(init(), dir, f.value(), content.data(), 0, content.size()),
              Status::kOk);
    return {dir, f.value()};
  }

  std::unique_ptr<Kernel> kernel_;
  std::unique_ptr<UnixWorld> world_;
  ProcessContext* ctx_ = nullptr;
};

TEST_F(FdTest, SequentialReadsAdvanceTheSharedOffset) {
  auto [dir, file] = MakeFile("seq", "abcdefghij");
  FdTable fds(kernel_.get(), ctx_->ids, Label());
  Result<int> fd = fds.OpenFile(init(), dir, file, 0);
  ASSERT_TRUE(fd.ok());
  char buf[4] = {};
  ASSERT_EQ(fds.Read(init(), fd.value(), buf, 3).value(), 3u);
  EXPECT_EQ(std::string(buf, 3), "abc");
  ASSERT_EQ(fds.Read(init(), fd.value(), buf, 3).value(), 3u);
  EXPECT_EQ(std::string(buf, 3), "def");
  ASSERT_EQ(fds.Seek(init(), fd.value(), 9).value(), 9u);
  ASSERT_EQ(fds.Read(init(), fd.value(), buf, 3).value(), 1u);  // short read at EOF
  EXPECT_EQ(buf[0], 'j');
}

TEST_F(FdTest, AdoptedDescriptorSharesSeekPosition) {
  // The §5.3 point: the fd *segment* is the state; two tables mapping the
  // same segment see one seek pointer (as parent and child do after fork).
  auto [dir, file] = MakeFile("shared", "0123456789");
  FdTable parent(kernel_.get(), ctx_->ids, Label());
  Result<int> pfd = parent.OpenFile(init(), dir, file, 0);
  ASSERT_TRUE(pfd.ok());

  FdTable child(kernel_.get(), ctx_->ids, Label());
  Result<int> cfd = child.Adopt(init(), parent.Entry(pfd.value()).value());
  ASSERT_TRUE(cfd.ok());

  char buf[4] = {};
  ASSERT_EQ(parent.Read(init(), pfd.value(), buf, 4).value(), 4u);
  EXPECT_EQ(std::string(buf, 4), "0123");
  // The child continues where the parent left off.
  ASSERT_EQ(child.Read(init(), cfd.value(), buf, 4).value(), 4u);
  EXPECT_EQ(std::string(buf, 4), "4567");
  // And vice versa.
  ASSERT_EQ(parent.Read(init(), pfd.value(), buf, 2).value(), 2u);
  EXPECT_EQ(std::string(buf, 2), "89");
}

TEST_F(FdTest, PipeEofRequiresEveryWriterClosed) {
  FdTable fds(kernel_.get(), ctx_->ids, Label());
  Result<std::pair<int, int>> p = fds.CreatePipe(init());
  ASSERT_TRUE(p.ok());

  // A second holder of the write end in its *own* process container (a
  // forked child): the fd segment gets hard-linked there, so each close
  // drops one link and the descriptor outlives the first.
  CreateSpec cspec;
  cspec.container = kernel_->root_container();
  cspec.descrip = "child-proc";
  cspec.quota = 1 << 20;
  Result<ObjectId> child_ct = kernel_->sys_container_create(init(), cspec, 0);
  ASSERT_TRUE(child_ct.ok());
  ProcessIds child_ids = ctx_->ids;
  child_ids.proc_ct = child_ct.value();
  FdTable other(kernel_.get(), child_ids, Label());
  Result<int> wfd2 = other.Adopt(init(), fds.Entry(p.value().second).value());
  ASSERT_TRUE(wfd2.ok());

  ASSERT_TRUE(fds.Write(init(), p.value().second, "x", 1).ok());
  char buf[4];
  ASSERT_EQ(fds.Read(init(), p.value().first, buf, 4).value(), 1u);

  // One writer closes: no EOF yet (the other could still write).
  ASSERT_EQ(fds.Close(init(), p.value().second), Status::kOk);
  Result<uint64_t> pending = fds.ReadTimeout(init(), p.value().first, buf, 4, 150);
  EXPECT_EQ(pending.status(), Status::kAgain);

  // Last writer closes: EOF.
  ASSERT_EQ(other.Close(init(), wfd2.value()), Status::kOk);
  Result<uint64_t> eof = fds.Read(init(), p.value().first, buf, 4);
  ASSERT_TRUE(eof.ok());
  EXPECT_EQ(eof.value(), 0u);
}

TEST_F(FdTest, WriteToClosedReaderFails) {
  FdTable fds(kernel_.get(), ctx_->ids, Label());
  Result<std::pair<int, int>> p = fds.CreatePipe(init());
  ASSERT_TRUE(p.ok());
  ASSERT_EQ(fds.Close(init(), p.value().first), Status::kOk);
  Result<uint64_t> w = fds.Write(init(), p.value().second, "x", 1);
  EXPECT_EQ(w.status(), Status::kNoPerm);  // EPIPE
}

TEST_F(FdTest, PipeWrapsAroundItsRing) {
  // Cross the 4 kB ring boundary several times with odd-sized chunks to
  // exercise the two-part bulk copy.
  FdTable fds(kernel_.get(), ctx_->ids, Label());
  Result<std::pair<int, int>> p = fds.CreatePipe(init());
  ASSERT_TRUE(p.ok());
  std::string pattern;
  for (int i = 0; i < 997; ++i) {
    pattern.push_back(static_cast<char>('a' + i % 26));
  }
  std::string all_read;
  for (int round = 0; round < 13; ++round) {
    ASSERT_EQ(fds.Write(init(), p.value().second, pattern.data(), pattern.size()).value(),
              pattern.size());
    char buf[1024];
    uint64_t got = 0;
    while (got < pattern.size()) {
      Result<uint64_t> n = fds.Read(init(), p.value().first, buf, sizeof(buf));
      ASSERT_TRUE(n.ok());
      all_read.append(buf, n.value());
      got += n.value();
    }
  }
  // Every round must read back exactly the pattern.
  for (int round = 0; round < 13; ++round) {
    EXPECT_EQ(all_read.substr(static_cast<size_t>(round) * pattern.size(), pattern.size()),
              pattern)
        << "corruption in round " << round;
  }
}

TEST_F(FdTest, ReadTimeoutHonorsItsBudget) {
  FdTable fds(kernel_.get(), ctx_->ids, Label());
  Result<std::pair<int, int>> p = fds.CreatePipe(init());
  ASSERT_TRUE(p.ok());
  char buf[4];
  auto t0 = std::chrono::steady_clock::now();
  Result<uint64_t> r = fds.ReadTimeout(init(), p.value().first, buf, 4, 120);
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
  EXPECT_EQ(r.status(), Status::kAgain);
  EXPECT_GE(elapsed, 100);
  EXPECT_LT(elapsed, 2000);
}

TEST_F(FdTest, DescriptorCountTracksOpenAndClose) {
  FdTable fds(kernel_.get(), ctx_->ids, Label());
  EXPECT_EQ(fds.count(), 0);
  auto [dir, file] = MakeFile("cnt", "z");
  Result<int> a = fds.OpenFile(init(), dir, file, 0);
  Result<std::pair<int, int>> p = fds.CreatePipe(init());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(fds.count(), 3);
  EXPECT_EQ(fds.Close(init(), a.value()), Status::kOk);
  EXPECT_EQ(fds.count(), 2);
  // fd numbers are reused lowest-first, like Unix.
  Result<int> b = fds.OpenFile(init(), dir, file, 0);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b.value(), a.value());
}

}  // namespace
}  // namespace histar
