// Tests for the flight recorder (src/core/trace.h): histogram bucket
// boundaries (pinned — dashboards depend on them), ring wrap, slot reuse
// after thread exit, staged syscall groups, and the crash-dump format.
//
// These tests exercise the recorder directly; the kernel-integrated path
// (label stamping + the sys_trace_read flow check) lives in
// tests/kernel/trace_flow_test.cc.
#include "src/core/trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <thread>
#include <vector>

#include "src/core/epoch.h"

namespace histar {
namespace trace {
namespace {

// Events this test recorded (vs other tests in this binary sharing the
// process-wide recorder) are tagged with a distinctive operand.
std::vector<SlotEvent> MineInSlot(uint64_t marker, size_t slot) {
  std::vector<SlotEvent> all;
  Snapshot(&all);
  std::vector<SlotEvent> mine;
  for (const SlotEvent& se : all) {
    if (se.slot == slot && se.event.c == marker) {
      mine.push_back(se);
    }
  }
  return mine;
}

TEST(HistBucket, BoundariesArePinned) {
  // Bucket 0 holds [0,2); bucket b holds [2^b, 2^(b+1)); the last bucket
  // saturates.
  EXPECT_EQ(HistBucket(0), 0u);
  EXPECT_EQ(HistBucket(1), 0u);
  EXPECT_EQ(HistBucket(2), 1u);
  EXPECT_EQ(HistBucket(3), 1u);
  EXPECT_EQ(HistBucket(4), 2u);
  EXPECT_EQ(HistBucket(7), 2u);
  EXPECT_EQ(HistBucket(8), 3u);
  EXPECT_EQ(HistBucket(1000), 9u);    // ~1 µs
  EXPECT_EQ(HistBucket(1u << 20), 20u);  // ~1 ms
  EXPECT_EQ(HistBucket((1ull << 30) - 1), 29u);
  EXPECT_EQ(HistBucket(1ull << 30), 30u);
  // Saturation: everything >= 2^(kHistBuckets-1) lands in the last bucket.
  EXPECT_EQ(HistBucket(1ull << 31), kHistBuckets - 1);
  EXPECT_EQ(HistBucket(~0ull), kHistBuckets - 1);
  static_assert(HistBucket(1) == 0, "constexpr-evaluable");
  static_assert(HistBucket(1024) == 10, "exact power of two");
}

TEST(Recorder, RingWrapKeepsTheMostRecentEvents) {
  const uint64_t marker = 0x77AB10u;
  const size_t slot = Recorder::CurrentSlot();
  const size_t total = kRingEvents + kRingEvents / 2;
  for (size_t i = 0; i < total; ++i) {
    RecordEvent(EventKind::kEpochAdvance, /*a=*/i, /*b=*/0, /*c=*/marker);
  }
  std::vector<SlotEvent> mine = MineInSlot(marker, slot);
  // At most one ring's worth survives, and it is the most recent window:
  // the oldest half was overwritten.
  ASSERT_LE(mine.size(), kRingEvents);
  ASSERT_GE(mine.size(), kRingEvents / 2);
  EXPECT_EQ(mine.back().event.a, total - 1);
  // Oldest-first within the slot, seq and operand advancing in lockstep.
  for (size_t i = 1; i < mine.size(); ++i) {
    EXPECT_EQ(mine[i].seq, mine[i - 1].seq + 1);
    EXPECT_EQ(mine[i].event.a, mine[i - 1].event.a + 1);
  }
}

TEST(Recorder, SlotIsReusedAfterThreadExit) {
  const uint64_t marker = 0x5107u;
  size_t slot_a = 0, slot_b = 0;
  uint64_t seq_a = 0, seq_b = 0;

  auto run = [&](uint64_t tag, size_t* slot_out, uint64_t* seq_out) {
    std::thread([&, tag] {
      *slot_out = Recorder::CurrentSlot();
      RecordEvent(EventKind::kFault, /*a=*/tag, /*b=*/0, /*c=*/marker);
      std::vector<SlotEvent> mine = MineInSlot(marker, *slot_out);
      ASSERT_FALSE(mine.empty());
      *seq_out = mine.back().seq;
    }).join();
  };

  run(1, &slot_a, &seq_a);
  run(2, &slot_b, &seq_b);

  // Epoch slot ids are lowest-free-first: with no other live threads the
  // second thread reuses the first one's slot, and the slot's ring (and its
  // monotone seq) survives the reuse.
  EXPECT_EQ(slot_a, slot_b);
  EXPECT_GT(seq_b, seq_a);
  std::vector<SlotEvent> mine = MineInSlot(marker, slot_a);
  ASSERT_GE(mine.size(), 2u);
  EXPECT_EQ(mine[mine.size() - 2].event.a, 1u);
  EXPECT_EQ(mine.back().event.a, 2u);
}

TEST(Recorder, CloseSyscallGroupWritesAmortizedDurations) {
  // Use a syscall-kind row no real syscall occupies (the last one) so the
  // histogram delta below is exactly this test's.
  const uint16_t kind = kMaxSyscallHist - 1;
  const size_t slot = Recorder::CurrentSlot();

  uint64_t before[kHistBuckets] = {};
  SumSyscallHist(kind, before);

  const uint64_t t0 = 1000;
  const uint64_t t1 = t0 + 3 * 4096;  // 4096 ns per event, bucket 12
  ResetTaint();
  ASSERT_EQ(StagedSyscalls(), 0u);
  StageSyscall(kind, /*status=*/0);
  StageSyscall(kind, /*status=*/0);
  StageSyscall(kind, /*status=*/0);
  EXPECT_EQ(StagedSyscalls(), 3u);
  CloseSyscallGroup(/*self=*/42, t0, t1);
  EXPECT_EQ(StagedSyscalls(), 0u);

  uint64_t after[kHistBuckets] = {};
  SumSyscallHist(kind, after);
  EXPECT_EQ(after[HistBucket(4096)] - before[HistBucket(4096)], 3u);

  std::vector<SlotEvent> all;
  Snapshot(&all);
  size_t written = 0;
  for (const SlotEvent& se : all) {
    if (se.slot == slot && se.event.kind == static_cast<uint8_t>(EventKind::kSyscall) &&
        se.event.aux == kind && se.event.ts_ns == t0) {
      EXPECT_EQ(se.event.dur_ns, 4096u);
      EXPECT_EQ(se.event.b, 42u);
      ++written;
    }
  }
  EXPECT_EQ(written, 3u);
}

TEST(Recorder, CloseIsExactUnderUnboundedInterleavedEvents) {
  // A dispatch group can record arbitrarily many non-syscall events
  // (epoch retires/advances, fault events recorded inside ExecLocked)
  // between its staged syscall events. They go straight to the ring; the
  // staged events must still all land, each with the group's share, and
  // the histograms must count every one.
  const uint16_t kind = kMaxSyscallHist - 3;
  const size_t slot = Recorder::CurrentSlot();
  uint64_t before[kHistBuckets] = {};
  SumSyscallHist(kind, before);

  const uint64_t t0 = 50000;
  const uint64_t t1 = t0 + 2 * 1024;  // 1024 ns per syscall event
  ResetTaint();
  StageSyscall(kind, /*status=*/0);
  for (uint64_t i = 0; i < 40; ++i) {
    RecordEvent(EventKind::kEpochRetire, /*a=*/i, /*b=*/0, /*c=*/0, 0, 0, 0, t0);
  }
  StageSyscall(kind, /*status=*/0);
  CloseSyscallGroup(/*self=*/1, t0, t1);

  uint64_t after[kHistBuckets] = {};
  SumSyscallHist(kind, after);
  EXPECT_EQ(after[HistBucket(1024)] - before[HistBucket(1024)], 2u);

  std::vector<SlotEvent> all;
  Snapshot(&all);
  std::vector<uint64_t> retire_seqs;
  std::vector<uint64_t> syscall_seqs;
  for (const SlotEvent& se : all) {
    if (se.slot != slot || se.event.ts_ns != t0) {
      continue;
    }
    if (se.event.kind == static_cast<uint8_t>(EventKind::kEpochRetire)) {
      retire_seqs.push_back(se.seq);
    } else if (se.event.kind == static_cast<uint8_t>(EventKind::kSyscall) &&
               se.event.aux == kind) {
      EXPECT_EQ(se.event.dur_ns, 1024u);
      syscall_seqs.push_back(se.seq);
    }
  }
  ASSERT_EQ(retire_seqs.size(), 40u);
  ASSERT_EQ(syscall_seqs.size(), 2u);
  // The group's syscall events land when it closes, after everything it
  // recorded directly.
  EXPECT_GT(syscall_seqs.front(), retire_seqs.back());
}

TEST(Recorder, SnapshotDropsTheEventTheWriterMayBeOverwriting) {
  // The writer stores a lapping event's words BEFORE publishing the new
  // head, so once head == seq + kRingEvents the slot holding `seq` is
  // already suspect — a torn copy there could pair one event's payload
  // with another's labels. The re-check must therefore drop at >=, not >:
  // after exactly kRingEvents records the oldest event is withheld even
  // though no overwrite happened, trading one event of history for the
  // never-torn guarantee.
  const uint64_t marker = 0x0FF8E7u;
  const size_t slot = Recorder::CurrentSlot();
  for (uint64_t i = 0; i < kRingEvents; ++i) {
    RecordEvent(EventKind::kEpochAdvance, /*a=*/i, /*b=*/0, /*c=*/marker);
  }
  std::vector<SlotEvent> mine = MineInSlot(marker, slot);
  ASSERT_EQ(mine.size(), kRingEvents - 1);
  EXPECT_EQ(mine.front().event.a, 1u);  // the boundary event was dropped
  EXPECT_EQ(mine.back().event.a, kRingEvents - 1);
}

TEST(Recorder, EventsCarryTheLabelGeneration) {
  const uint32_t prev = LabelGeneration();
  SetLabelGeneration(48879);  // 0xBEEF
  const uint64_t marker = 0x6E6123u;
  const size_t slot = Recorder::CurrentSlot();
  RecordEvent(EventKind::kFault, /*a=*/1, /*b=*/2, /*c=*/marker);
  SetLabelGeneration(prev);

  std::vector<SlotEvent> mine = MineInSlot(marker, slot);
  ASSERT_FALSE(mine.empty());
  EXPECT_EQ(mine.back().event.gen, 48879u);

  // The crash dump carries it too (tracefmt and post-mortem tooling need
  // it to pair label ids with the registry that minted them).
  std::ostringstream os;
  DumpJson(os);
  EXPECT_NE(os.str().find("\"gen\":48879"), std::string::npos);
}

TEST(Recorder, StoreHistogramAndEventAgree) {
  uint64_t before[kHistBuckets] = {};
  SumStoreHist(StoreOp::kSyncPages, before);
  RecordStoreOp(StoreOp::kSyncPages, /*status=*/0, /*dur_ns=*/600, /*bytes=*/8192,
                /*write_ops=*/2);
  uint64_t after[kHistBuckets] = {};
  SumStoreHist(StoreOp::kSyncPages, after);
  EXPECT_EQ(after[HistBucket(600)] - before[HistBucket(600)], 1u);

  std::vector<SlotEvent> all;
  Snapshot(&all);
  bool found = false;
  for (const SlotEvent& se : all) {
    const Event& e = se.event;
    if (e.kind == static_cast<uint8_t>(EventKind::kStoreCommit) && e.a == 8192 &&
        e.b == 2 && e.aux == static_cast<uint16_t>(StoreOp::kSyncPages)) {
      EXPECT_EQ(e.dur_ns, 600u);
      EXPECT_EQ(e.c, 0u);  // reserved
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Dump, JsonLinesCarrySchemaAndEvents) {
  RecordEvent(EventKind::kEpochAdvance, 3, 9, 0);
  std::ostringstream os;
  DumpJson(os, /*last_n_per_slot=*/8);
  const std::string s = os.str();
  EXPECT_NE(s.find("\"schema\":\"histar-trace-dump-v1\""), std::string::npos);
  EXPECT_NE(s.find("\"kind\":\"epoch_advance\""), std::string::npos);
  // One JSON object per line: every line starts with '{'.
  std::istringstream in(s);
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    ++lines;
  }
  EXPECT_GE(lines, 2u);  // header + at least our event
}

// Runs last among the recorder tests: it floods the slot space and ends
// with a Reset() to clear the sticky per-ring flags it provokes.
TEST(Recorder, AliasedRingsAreWithheldFromSnapshots) {
  // Drive concurrently-live threads past kTraceSlots so masked slot ids
  // collide and rings acquire a second writer with a different unmasked
  // id. Such rings must be withheld from snapshots (sticky multi_writer
  // flag): interleaved writers could publish an event pairing one
  // request's payload with another's labels, and the read-side flow check
  // would then vouch for the wrong labels.
  const uint64_t marker = 0xA11A5u;
  const size_t kThreads = kTraceSlots + 8;
  std::atomic<size_t> recorded{0};
  std::atomic<bool> release{false};
  std::vector<size_t> full_ids(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      full_ids[t] = EpochDomain::ThreadSlot();
      RecordEvent(EventKind::kFault, /*a=*/t, /*b=*/0, /*c=*/marker);
      recorded.fetch_add(1, std::memory_order_release);
      // Stay registered until every thread has recorded, so all unmasked
      // slot ids are live simultaneously (ids are freed on thread exit).
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    });
  }
  while (recorded.load(std::memory_order_acquire) < kThreads) {
    std::this_thread::yield();
  }
  release.store(true, std::memory_order_release);
  for (auto& th : threads) {
    th.join();
  }

  std::vector<SlotEvent> all;
  Snapshot(&all);
  // Slot ids are dense and all threads were live at once, so some got
  // unmasked ids >= kTraceSlots — their masked rings belong to other
  // writers and must deliver nothing at all.
  size_t aliased_threads = 0;
  for (size_t t = 0; t < kThreads; ++t) {
    if (full_ids[t] < kTraceSlots) {
      continue;
    }
    ++aliased_threads;
    const uint32_t ring = static_cast<uint32_t>(full_ids[t] & (kTraceSlots - 1));
    for (const SlotEvent& se : all) {
      EXPECT_NE(se.slot, ring) << "aliased ring delivered events";
    }
  }
  EXPECT_GE(aliased_threads, kThreads - kTraceSlots);
  // Withholding is per-ring, not global: unaliased rings still deliver.
  size_t delivered = 0;
  for (const SlotEvent& se : all) {
    if (se.event.c == marker) {
      ++delivered;
    }
  }
  EXPECT_GT(delivered, 0u);
  // Clear the sticky flags for anything that runs after in this binary.
  Reset();
}

TEST(Names, EventKindAndStoreOpTablesAreTotal) {
  for (size_t k = 0; k < kNumEventKinds; ++k) {
    EXPECT_STRNE(EventKindName(static_cast<uint8_t>(k)), "unknown");
  }
  EXPECT_STREQ(EventKindName(200), "unknown");
  for (size_t op = 0; op < kNumStoreOps; ++op) {
    EXPECT_STRNE(StoreOpName(static_cast<uint8_t>(op)), "unknown");
  }
  EXPECT_STREQ(StoreOpName(9), "unknown");
}

}  // namespace
}  // namespace trace
}  // namespace histar
