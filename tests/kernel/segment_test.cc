// Segment syscalls and the two fundamental access rules (paper §2.2, §3).
#include <gtest/gtest.h>

#include "tests/kernel/kernel_test_util.h"

namespace histar {
namespace {

class SegmentTest : public KernelTest {};

TEST_F(SegmentTest, CreateReadWrite) {
  ObjectId seg = MakeSegment(Label(), 100);
  const char msg[] = "hello histar";
  ASSERT_EQ(kernel_->sys_segment_write(init_, RootEntry(seg), msg, 0, sizeof(msg)),
            Status::kOk);
  char buf[sizeof(msg)] = {};
  ASSERT_EQ(kernel_->sys_segment_read(init_, RootEntry(seg), buf, 0, sizeof(msg)), Status::kOk);
  EXPECT_STREQ(buf, msg);
}

TEST_F(SegmentTest, ReadUpBlocked) {
  // Object {c3, 1} unreadable by thread {1}: "no read up".
  Result<CategoryId> c = kernel_->sys_cat_create(init_);
  ASSERT_TRUE(c.ok());
  Label tainted(Level::k1, {{c.value(), Level::k3}});
  ObjectId seg = MakeSegment(tainted, 10);
  // Drop ownership so init is a bystander: spawn an unprivileged thread.
  ObjectId other = MakeThread(Label(), Label(Level::k2));
  char buf[4];
  EXPECT_EQ(kernel_->sys_segment_read(other, RootEntry(seg), buf, 0, 4),
            Status::kLabelCheckFailed);
  // The owner can read it.
  EXPECT_EQ(kernel_->sys_segment_read(init_, RootEntry(seg), buf, 0, 4), Status::kOk);
}

TEST_F(SegmentTest, WriteDownBlocked) {
  // Object {c0, 1} unwritable by non-owner: "no write down".
  Result<CategoryId> c = kernel_->sys_cat_create(init_);
  ASSERT_TRUE(c.ok());
  Label integrity(Level::k1, {{c.value(), Level::k0}});
  ObjectId seg = MakeSegment(integrity, 10);
  ObjectId other = MakeThread(Label(), Label(Level::k2));
  char b = 'x';
  EXPECT_EQ(kernel_->sys_segment_write(other, RootEntry(seg), &b, 0, 1),
            Status::kLabelCheckFailed);
  // Non-owner can still *read* it (write-protect restricts only writes).
  char buf;
  EXPECT_EQ(kernel_->sys_segment_read(other, RootEntry(seg), &buf, 0, 1), Status::kOk);
  // The owner can write.
  EXPECT_EQ(kernel_->sys_segment_write(init_, RootEntry(seg), &b, 0, 1), Status::kOk);
}

TEST_F(SegmentTest, TaintedThreadCannotWriteUntaintedSegment) {
  ObjectId seg = MakeSegment(Label(), 10);
  Result<CategoryId> c = kernel_->sys_cat_create(init_);
  ASSERT_TRUE(c.ok());
  // Spawn a thread tainted c3 (init owns c, so the spawn rule permits it).
  Label tainted(Level::k1, {{c.value(), Level::k3}});
  Label clearance(Level::k2, {{c.value(), Level::k3}});
  ObjectId worker = MakeThread(tainted, clearance);
  char b = 'x';
  EXPECT_EQ(kernel_->sys_segment_write(worker, RootEntry(seg), &b, 0, 1),
            Status::kLabelCheckFailed);
  // But it can read untainted data (1 ⊑ tainted^J).
  char buf;
  EXPECT_EQ(kernel_->sys_segment_read(worker, RootEntry(seg), &buf, 0, 1), Status::kOk);
}

TEST_F(SegmentTest, CasSwapsOnlyOnMatchAndReturnsTheObservedWord) {
  ObjectId seg = MakeSegment(Label(), 24);
  ContainerEntry ce = RootEntry(seg);
  Result<uint64_t> seen = kernel_->sys_segment_cas(init_, ce, 8, 0, 7);
  ASSERT_TRUE(seen.ok());
  EXPECT_EQ(seen.value(), 0u);  // matched: 0 → 7
  seen = kernel_->sys_segment_cas(init_, ce, 8, 0, 9);
  ASSERT_TRUE(seen.ok());
  EXPECT_EQ(seen.value(), 7u);  // no match: the word stays 7
  uint64_t word = 0;
  ASSERT_EQ(kernel_->sys_segment_read(init_, ce, &word, 8, 8), Status::kOk);
  EXPECT_EQ(word, 7u);
  // Aligned words inside the segment only.
  EXPECT_EQ(kernel_->sys_segment_cas(init_, ce, 4, 0, 1).status(), Status::kInvalidArg);
  EXPECT_EQ(kernel_->sys_segment_cas(init_, ce, 24, 0, 1).status(), Status::kRange);
}

TEST_F(SegmentTest, CasNeedsBothTheReadAndTheWriteCheck) {
  Result<CategoryId> c = kernel_->sys_cat_create(init_);
  ASSERT_TRUE(c.ok());
  ObjectId other = MakeThread(Label(), Label(Level::k2));
  // Readable but not writable by `other` ({c0, 1}): even a CAS that would
  // not swap is refused, and the word is unchanged.
  ObjectId protected_seg = MakeSegment(Label(Level::k1, {{c.value(), Level::k0}}), 8);
  EXPECT_EQ(kernel_->sys_segment_cas(other, RootEntry(protected_seg), 0, 5, 6).status(),
            Status::kLabelCheckFailed);
  EXPECT_EQ(kernel_->sys_segment_cas(other, RootEntry(protected_seg), 0, 0, 6).status(),
            Status::kLabelCheckFailed);
  uint64_t word = 1;
  ASSERT_EQ(kernel_->sys_segment_read(other, RootEntry(protected_seg), &word, 0, 8),
            Status::kOk);
  EXPECT_EQ(word, 0u);
  // Unreadable by `other` ({c3, 1}): a failed swap would reveal the word.
  ObjectId secret = MakeSegment(Label(Level::k1, {{c.value(), Level::k3}}), 8);
  EXPECT_EQ(kernel_->sys_segment_cas(other, RootEntry(secret), 0, 5, 6).status(),
            Status::kLabelCheckFailed);
  // The owner passes both checks.
  EXPECT_TRUE(kernel_->sys_segment_cas(init_, RootEntry(secret), 0, 0, 6).ok());
}

TEST_F(SegmentTest, ResizeRespectsQuota) {
  CreateSpec spec;
  spec.container = kernel_->root_container();
  spec.quota = kObjectOverheadBytes + 100;
  spec.descrip = "tight";
  Result<ObjectId> seg = kernel_->sys_segment_create(init_, spec, 50);
  ASSERT_TRUE(seg.ok());
  ContainerEntry ce = RootEntry(seg.value());
  EXPECT_EQ(kernel_->sys_segment_resize(init_, ce, 100), Status::kOk);
  EXPECT_EQ(kernel_->sys_segment_resize(init_, ce, 101), Status::kQuotaExceeded);
  Result<uint64_t> len = kernel_->sys_segment_get_len(init_, ce);
  ASSERT_TRUE(len.ok());
  EXPECT_EQ(len.value(), 100u);
}

TEST_F(SegmentTest, OutOfRangeAccess) {
  ObjectId seg = MakeSegment(Label(), 16);
  char buf[32];
  EXPECT_EQ(kernel_->sys_segment_read(init_, RootEntry(seg), buf, 10, 10), Status::kRange);
  EXPECT_EQ(kernel_->sys_segment_write(init_, RootEntry(seg), buf, 16, 1), Status::kRange);
}

TEST_F(SegmentTest, ImmutableFlagIsIrrevocable) {
  ObjectId seg = MakeSegment(Label(), 8);
  ASSERT_EQ(kernel_->sys_obj_set_immutable(init_, RootEntry(seg)), Status::kOk);
  char b = 'x';
  EXPECT_EQ(kernel_->sys_segment_write(init_, RootEntry(seg), &b, 0, 1), Status::kImmutable);
  EXPECT_EQ(kernel_->sys_segment_resize(init_, RootEntry(seg), 16), Status::kImmutable);
  // Reading still works.
  char buf;
  EXPECT_EQ(kernel_->sys_segment_read(init_, RootEntry(seg), &buf, 0, 1), Status::kOk);
}

TEST_F(SegmentTest, CopyWithNewLabelRequiresTaintPropagation) {
  // A tainted thread may copy a segment it can read, but only to a label at
  // least as tainted as itself — the copy cannot launder taint.
  Result<CategoryId> c = kernel_->sys_cat_create(init_);
  ASSERT_TRUE(c.ok());
  Label tainted(Level::k1, {{c.value(), Level::k3}});
  ObjectId src = MakeSegment(tainted, 32);

  Label worker_label(Level::k1, {{c.value(), Level::k3}});
  Label worker_clear(Level::k2, {{c.value(), Level::k3}});
  ObjectId worker = MakeThread(worker_label, worker_clear);
  // Worker needs a container it can write: one tainted c3.
  ObjectId dir = MakeContainer(tainted);

  CreateSpec spec;
  spec.container = dir;
  spec.label = Label();  // try to launder: copy to untainted label
  spec.quota = 4 * kPageSize;
  spec.descrip = "laundered";
  Result<ObjectId> bad = kernel_->sys_segment_copy(worker, spec, RootEntry(src));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status(), Status::kLabelCheckFailed);

  spec.label = tainted;  // properly tainted copy succeeds
  Result<ObjectId> good = kernel_->sys_segment_copy(worker, spec, RootEntry(src));
  EXPECT_TRUE(good.ok()) << StatusName(good.status());
}

TEST_F(SegmentTest, MetadataRoundTrip) {
  ObjectId seg = MakeSegment(Label(), 8);
  uint8_t md[16] = {1, 2, 3, 4};
  ASSERT_EQ(kernel_->sys_obj_set_metadata(init_, RootEntry(seg), md, sizeof(md)), Status::kOk);
  Result<std::vector<uint8_t>> got = kernel_->sys_obj_get_metadata(init_, RootEntry(seg));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value()[0], 1);
  EXPECT_EQ(got.value()[3], 4);
  EXPECT_EQ(got.value().size(), kMetadataLen);
}

TEST_F(SegmentTest, DescripReadableWithEntry) {
  ObjectId seg = MakeSegment(Label(), 8);
  Result<std::string> d = kernel_->sys_obj_get_descrip(init_, RootEntry(seg));
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value(), "test-seg");
}

TEST_F(SegmentTest, ZeroLengthAccessAtEndOfSegmentSucceeds) {
  // Pin the len == 0 edge (ISSUE 4 satellite): a zero-byte read/write at
  // any offset up to and INCLUDING the segment length is a valid no-op —
  // RangeOk(size, 0, size) holds — and must succeed even with a null
  // buffer (the POSIX read(fd, buf, 0) shape unixlib callers hit). One
  // byte past the end stays a range error, len == 0 or not.
  ObjectId seg = MakeSegment(Label(), 16);
  char probe = 0;
  EXPECT_EQ(kernel_->sys_segment_read(init_, RootEntry(seg), &probe, 16, 0), Status::kOk);
  EXPECT_EQ(kernel_->sys_segment_write(init_, RootEntry(seg), &probe, 16, 0), Status::kOk);
  EXPECT_EQ(kernel_->sys_segment_read(init_, RootEntry(seg), nullptr, 0, 0), Status::kOk);
  EXPECT_EQ(kernel_->sys_segment_write(init_, RootEntry(seg), nullptr, 8, 0), Status::kOk);
  EXPECT_EQ(kernel_->sys_segment_read(init_, RootEntry(seg), &probe, 17, 0), Status::kRange);
  EXPECT_EQ(kernel_->sys_segment_write(init_, RootEntry(seg), &probe, 17, 0), Status::kRange);
}

TEST_F(SegmentTest, ZeroLengthAccessOnEmptySegmentSucceeds) {
  // The empty-segment corner: bytes().data() is null, off == size == 0.
  ObjectId seg = MakeSegment(Label(), 0);
  EXPECT_EQ(kernel_->sys_segment_read(init_, RootEntry(seg), nullptr, 0, 0), Status::kOk);
  EXPECT_EQ(kernel_->sys_segment_write(init_, RootEntry(seg), nullptr, 0, 0), Status::kOk);
  char probe = 0;
  EXPECT_EQ(kernel_->sys_segment_read(init_, RootEntry(seg), &probe, 0, 1), Status::kRange);
  EXPECT_EQ(kernel_->sys_segment_read(init_, RootEntry(seg), &probe, 1, 0), Status::kRange);
}

TEST_F(SegmentTest, ZeroLengthLocalSegmentAccessAtPageEnd) {
  // Same edge for the thread-local segment syscalls.
  EXPECT_EQ(kernel_->sys_self_local_read(init_, nullptr, kPageSize, 0), Status::kOk);
  EXPECT_EQ(kernel_->sys_self_local_write(init_, nullptr, kPageSize, 0), Status::kOk);
  char probe = 0;
  EXPECT_EQ(kernel_->sys_self_local_read(init_, &probe, kPageSize + 1, 0), Status::kRange);
}

TEST_F(SegmentTest, LabelReadableEvenWhenContentsAreNot) {
  // §3.2: threads can examine labels of objects more tainted than themselves
  // to learn how to taint themselves for reading.
  Result<CategoryId> c = kernel_->sys_cat_create(init_);
  ASSERT_TRUE(c.ok());
  Label tainted(Level::k1, {{c.value(), Level::k3}});
  ObjectId seg = MakeSegment(tainted, 8);
  ObjectId other = MakeThread(Label(), Label(Level::k2));
  Result<Label> l = kernel_->sys_obj_get_label(other, RootEntry(seg));
  ASSERT_TRUE(l.ok()) << StatusName(l.status());
  EXPECT_EQ(l.value(), tainted);
  char buf;
  EXPECT_EQ(kernel_->sys_segment_read(other, RootEntry(seg), &buf, 0, 1),
            Status::kLabelCheckFailed);
}

}  // namespace
}  // namespace histar
