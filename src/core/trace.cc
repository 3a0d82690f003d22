#include "src/core/trace.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>

#include "src/core/sync.h"

namespace histar {
namespace trace {
namespace {

// Word 4/5 packing helpers (layout documented in trace.h).
inline uint64_t PackW4(uint32_t dur_ns, uint32_t tlabel) {
  return (static_cast<uint64_t>(dur_ns) << 32) | tlabel;
}
inline uint64_t PackW5(uint32_t olabel, uint16_t aux, int8_t code, uint8_t kind) {
  return (static_cast<uint64_t>(olabel) << 32) |
         (static_cast<uint64_t>(aux) << 16) |
         (static_cast<uint64_t>(static_cast<uint8_t>(code)) << 8) | kind;
}

inline uint32_t SaturateDur(uint64_t ns) {
  return ns > 0xffffffffull ? 0xffffffffu : static_cast<uint32_t>(ns);
}

inline void UnpackEvent(const uint64_t w[kEventWords], Event* e) {
  e->ts_ns = w[0];
  e->a = w[1];
  e->b = w[2];
  e->c = w[3];
  e->dur_ns = static_cast<uint32_t>(w[4] >> 32);
  e->tlabel = static_cast<uint32_t>(w[4]);
  e->olabel = static_cast<uint32_t>(w[5] >> 32);
  e->aux = static_cast<uint16_t>(w[5] >> 16);
  e->code = static_cast<int8_t>(static_cast<uint8_t>(w[5] >> 8));
  e->kind = static_cast<uint8_t>(w[5]);
  e->gen = static_cast<uint32_t>(w[6]);
}

// The label generation stamped into every recorded event (trace.h): the
// attached kernel's LabelRegistry instance id. Read-mostly — one relaxed
// load per Append, written only at kernel construction.
std::atomic<uint32_t> g_label_gen{0};

// Fatal-dump path: seeded from HISTAR_TRACE_DUMP once, then overridable.
Mutex g_dump_mu;
std::string* g_dump_path = nullptr;  // guarded by g_dump_mu; leaked

std::string FatalDumpPath() {
  MutexLock lk(&g_dump_mu);
  if (g_dump_path == nullptr) {
    const char* env = std::getenv("HISTAR_TRACE_DUMP");
    g_dump_path = new std::string(env != nullptr ? env : "");
  }
  return *g_dump_path;
}

}  // namespace

const char* EventKindName(uint8_t kind) {
  switch (static_cast<EventKind>(kind)) {
    case EventKind::kNone:
      return "none";
    case EventKind::kSyscall:
      return "syscall";
    case EventKind::kTableLock:
      return "table_lock";
    case EventKind::kRetired3:
      return "retired";
    case EventKind::kEpochAdvance:
      return "epoch_advance";
    case EventKind::kEpochRetire:
      return "epoch_retire";
    case EventKind::kStoreCommit:
      return "store_commit";
    case EventKind::kFault:
      return "fault";
    case EventKind::kFatal:
      return "fatal";
  }
  return "unknown";
}

const char* StoreOpName(uint8_t op) {
  switch (static_cast<StoreOp>(op)) {
    case StoreOp::kCheckpoint:
      return "checkpoint";
    case StoreOp::kSyncOne:
      return "sync_one";
    case StoreOp::kSyncPages:
      return "sync_pages";
    case StoreOp::kRestore:
      return "restore";
  }
  return "unknown";
}

// One thread slot's recorder storage: the event ring plus its histograms.
// Single writer (the slot's current thread — slot ids are reused only
// after the owning thread exits), any number of racing readers. Above
// kTraceSlots concurrently-live threads the masked slot ids alias and
// writers would share a ring; interleaved Append word stores could then
// publish an event pairing one request's payload with another's labels,
// which the read-side flow check must never be allowed to pass. The ring
// therefore tracks its claiming writer: a store by a DIFFERENT unmasked
// ThreadSlot id sets `multi_writer`, and Snapshot withholds the whole
// ring (sticky until Reset) — degraded observability, never mixed labels.
struct SlotRing {
  std::atomic<uint64_t> head{0};  // events ever recorded in this slot
  // 1 + the unmasked EpochDomain::ThreadSlot() of the writer that claimed
  // this ring (0 = unclaimed). Unmasked ids are dense and lowest-free-
  // first, so a mismatch can only happen once concurrently-live threads
  // exceed kTraceSlots — exactly the aliasing regime.
  std::atomic<uint32_t> owner{0};
  std::atomic<uint32_t> multi_writer{0};  // sticky; cleared only by Reset
  std::atomic<uint64_t> words[kRingEvents * kEventWords];
  std::atomic<uint64_t> sys_hist[kMaxSyscallHist][kHistBuckets];
  std::atomic<uint64_t> store_hist[kNumStoreOps][kHistBuckets];
};

Recorder& Recorder::Global() {
  // Leaked: events are recorded from teardown paths (static destructors of
  // test worlds, crash handlers) that may outlive any non-leaked object.
  static Recorder* g = new Recorder();
  return *g;
}

SlotRing& Recorder::ForCurrentThread() {
  size_t full = EpochDomain::ThreadSlot();
  size_t i = full & (kTraceSlots - 1);
  SlotRing* r = rings_[i].load(std::memory_order_acquire);
  if (r == nullptr) {
    // First event from this slot: allocate and publish. The CAS loser
    // frees its copy; value-initialized atomics mean the ring is zeroed.
    SlotRing* fresh = new SlotRing();
    if (rings_[i].compare_exchange_strong(r, fresh, std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
      r = fresh;
    } else {
      delete fresh;
    }
  }
  // Aliasing watch (trace.h SlotRing): the ring remembers the unmasked
  // slot id that claimed it. A write under a different unmasked id means
  // masked ids are colliding (> kTraceSlots concurrently-live threads);
  // flag the ring so readers withhold it — interleaved writers could
  // otherwise publish an event mixing one request's payload with
  // another's labels. The seq_cst fence orders the flag store ahead of
  // this writer's event-word stores, so any reader that can observe the
  // foreign words also observes the flag.
  uint32_t me = static_cast<uint32_t>(full) + 1;
  uint32_t cur = r->owner.load(std::memory_order_relaxed);
  if (cur != me) {
    if (cur != 0 ||
        !r->owner.compare_exchange_strong(cur, me, std::memory_order_relaxed)) {
      if (cur != me) {
        r->multi_writer.store(1, std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_seq_cst);
      }
    }
  }
  return *r;
}

#if HISTAR_TRACE

namespace {

// Appends one packed event to the caller's slot ring. Single writer per
// slot: only the slot's registered thread stores here, so relaxed stores
// are race-free against each other; racing readers are handled by the
// head release/acquire protocol plus Snapshot's overwrite re-check.
inline void Append(SlotRing& ring, uint64_t ts_ns, uint64_t a, uint64_t b,
                   uint64_t c, uint64_t w4, uint64_t w5) {
  uint64_t seq = ring.head.load(std::memory_order_relaxed);
  std::atomic<uint64_t>* w = &ring.words[(seq & (kRingEvents - 1)) * kEventWords];
  w[0].store(ts_ns, std::memory_order_relaxed);
  w[1].store(a, std::memory_order_relaxed);
  w[2].store(b, std::memory_order_relaxed);
  w[3].store(c, std::memory_order_relaxed);
  w[4].store(w4, std::memory_order_relaxed);
  w[5].store(w5, std::memory_order_relaxed);
  w[6].store(g_label_gen.load(std::memory_order_relaxed),
             std::memory_order_relaxed);
  ring.head.store(seq + 1, std::memory_order_release);
}

}  // namespace

void CloseSyscallGroup(uint64_t self, uint64_t t0_ns, uint64_t t1_ns) {
  ThreadTrace& l = Local();
  if (l.staged == 0) {
    return;
  }
  SlotRing& ring = Recorder::Global().ForCurrentThread();
  uint32_t dur = SaturateDur((t1_ns >= t0_ns ? t1_ns - t0_ns : 0) / l.staged);
  size_t bucket = HistBucket(dur);
  for (size_t i = 0; i < l.staged; ++i) {
    const StagedSyscall& e = l.stage[i];
    Append(ring, t0_ns, e.taint.oid, self, 0, PackW4(dur, e.taint.tlabel),
           PackW5(e.taint.olabel, e.kind, e.code, static_cast<uint8_t>(EventKind::kSyscall)));
    size_t row = e.kind < kMaxSyscallHist ? e.kind : kMaxSyscallHist - 1;
    std::atomic<uint64_t>& cell = ring.sys_hist[row][bucket];
    cell.store(cell.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }
  l.staged = 0;
}

void RecordEvent(EventKind kind, uint64_t a, uint64_t b, uint64_t c, int8_t code,
                 uint16_t aux, uint32_t dur_ns, uint64_t ts_ns) {
  SlotRing& ring = Recorder::Global().ForCurrentThread();
  const Taint& t = Scratch();
  if (ts_ns == 0) {
    ts_ns = NowNs();
  }
  Append(ring, ts_ns, a, b, c, PackW4(dur_ns, t.tlabel),
         PackW5(t.olabel, aux, code, static_cast<uint8_t>(kind)));
}

void RecordStoreOp(StoreOp op, int8_t status_code, uint64_t dur_ns, uint64_t bytes,
                   uint64_t write_ops) {
  SlotRing& ring = Recorder::Global().ForCurrentThread();
  const Taint& t = Scratch();
  uint32_t dur = SaturateDur(dur_ns);
  Append(ring, NowNs(), bytes, write_ops, 0, PackW4(dur, t.tlabel),
         PackW5(t.olabel, static_cast<uint16_t>(op), status_code,
                static_cast<uint8_t>(EventKind::kStoreCommit)));
  std::atomic<uint64_t>& cell =
      ring.store_hist[static_cast<size_t>(op) & (kNumStoreOps - 1)]
                     [HistBucket(dur_ns)];
  cell.store(cell.load(std::memory_order_relaxed) + 1,
             std::memory_order_relaxed);
}

void RecordFatal(int8_t status_code, uint64_t detail) {
  RecordEvent(EventKind::kFatal, detail, 0, 0, status_code);
  std::string path = FatalDumpPath();
  if (!path.empty()) {
    DumpToFile(path);
  }
}

#endif  // HISTAR_TRACE

size_t Snapshot(std::vector<SlotEvent>* out, size_t max_per_slot) {
  Recorder& rec = Recorder::Global();
  size_t added = 0;
  if (max_per_slot > kRingEvents) {
    max_per_slot = kRingEvents;
  }
  for (size_t slot = 0; slot < kTraceSlots; ++slot) {
    SlotRing* ring = rec.Slot(slot);
    if (ring == nullptr) {
      continue;
    }
    // Aliased rings (two live writers, trace.h SlotRing) are withheld
    // entirely: their events may pair one writer's payload with the
    // other's labels, which no downstream flow check could catch.
    if (ring->multi_writer.load(std::memory_order_acquire) != 0) {
      continue;
    }
    const size_t ring_start = out->size();
    uint64_t head = ring->head.load(std::memory_order_acquire);
    uint64_t avail = head < kRingEvents ? head : kRingEvents;
    uint64_t take = avail < max_per_slot ? avail : max_per_slot;
    uint64_t first = head - take;
    for (uint64_t seq = first; seq < head; ++seq) {
      uint64_t w[kEventWords];
      std::atomic<uint64_t>* src =
          &ring->words[(seq & (kRingEvents - 1)) * kEventWords];
      for (size_t i = 0; i < kEventWords; ++i) {
        w[i] = src[i].load(std::memory_order_relaxed);
      }
      // Overwrite re-check. The fence keeps the relaxed word loads above
      // from being reordered past the head reload below. The writer
      // stores the lapping event's words BEFORE publishing its head, so
      // the words of `seq` are already suspect once head reaches
      // seq + kRingEvents — hence >=, not >: at == the writer may be
      // mid-store into this very slot, and a torn copy could pair a
      // secret event's payload with a newer public event's labels.
      std::atomic_thread_fence(std::memory_order_acquire);
      uint64_t head2 = ring->head.load(std::memory_order_acquire);
      if (head2 >= seq + kRingEvents) {
        continue;
      }
      SlotEvent se;
      UnpackEvent(w, &se.event);
      se.slot = static_cast<uint32_t>(slot);
      se.seq = seq;
      out->push_back(se);
      ++added;
    }
    // A second writer may have claimed this ring mid-copy; its interleaved
    // stores are not defended by the single-writer lap check above, so
    // discard whatever was collected. Pairs with the seq_cst fence in
    // ForCurrentThread: a reader that saw foreign words also sees the flag.
    std::atomic_thread_fence(std::memory_order_acquire);
    if (ring->multi_writer.load(std::memory_order_acquire) != 0) {
      added -= out->size() - ring_start;
      out->resize(ring_start);
    }
  }
  return added;
}

void SumSyscallHist(uint16_t syscall_kind, uint64_t* out) {
  Recorder& rec = Recorder::Global();
  size_t row = syscall_kind < kMaxSyscallHist ? syscall_kind : kMaxSyscallHist - 1;
  for (size_t b = 0; b < kHistBuckets; ++b) {
    out[b] = 0;
  }
  for (size_t slot = 0; slot < kTraceSlots; ++slot) {
    SlotRing* ring = rec.Slot(slot);
    if (ring == nullptr) {
      continue;
    }
    for (size_t b = 0; b < kHistBuckets; ++b) {
      out[b] += ring->sys_hist[row][b].load(std::memory_order_relaxed);
    }
  }
}

void SumStoreHist(StoreOp op, uint64_t* out) {
  Recorder& rec = Recorder::Global();
  size_t row = static_cast<size_t>(op) & (kNumStoreOps - 1);
  for (size_t b = 0; b < kHistBuckets; ++b) {
    out[b] = 0;
  }
  for (size_t slot = 0; slot < kTraceSlots; ++slot) {
    SlotRing* ring = rec.Slot(slot);
    if (ring == nullptr) {
      continue;
    }
    for (size_t b = 0; b < kHistBuckets; ++b) {
      out[b] += ring->store_hist[row][b].load(std::memory_order_relaxed);
    }
  }
}

void DumpJson(std::ostream& os, size_t last_n_per_slot) {
  std::vector<SlotEvent> events;
  Snapshot(&events, last_n_per_slot);
  size_t slots = 0;
  {
    Recorder& rec = Recorder::Global();
    for (size_t i = 0; i < kTraceSlots; ++i) {
      if (rec.Slot(i) != nullptr) {
        ++slots;
      }
    }
  }
  os << "{\"schema\":\"histar-trace-dump-v1\",\"slots\":" << slots
     << ",\"events\":" << events.size() << "}\n";
  char buf[512];
  for (const SlotEvent& se : events) {
    const Event& e = se.event;
    std::snprintf(
        buf, sizeof(buf),
        "{\"slot\":%u,\"seq\":%llu,\"ts_ns\":%llu,\"kind\":\"%s\","
        "\"a\":%llu,\"b\":%llu,\"c\":%llu,\"dur_ns\":%u,"
        "\"tlabel\":%u,\"olabel\":%u,\"gen\":%u,\"code\":%d,\"aux\":%u}",
        se.slot, static_cast<unsigned long long>(se.seq),
        static_cast<unsigned long long>(e.ts_ns), EventKindName(e.kind),
        static_cast<unsigned long long>(e.a),
        static_cast<unsigned long long>(e.b),
        static_cast<unsigned long long>(e.c), e.dur_ns, e.tlabel, e.olabel,
        e.gen, static_cast<int>(e.code), static_cast<unsigned>(e.aux));
    os << buf << "\n";
  }
}

bool DumpToFile(const std::string& path, size_t last_n_per_slot) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) {
    return false;
  }
  DumpJson(f, last_n_per_slot);
  return static_cast<bool>(f);
}

void Reset() {
  Recorder& rec = Recorder::Global();
  for (size_t slot = 0; slot < kTraceSlots; ++slot) {
    SlotRing* ring = rec.Slot(slot);
    if (ring == nullptr) {
      continue;
    }
    // head = 0 makes every old event unreachable to Snapshot; the words
    // themselves are overwritten lazily by the next writer. The owner
    // claim and aliasing flag restart with the ring's next writer.
    ring->head.store(0, std::memory_order_release);
    ring->owner.store(0, std::memory_order_relaxed);
    ring->multi_writer.store(0, std::memory_order_relaxed);
    for (size_t r = 0; r < kMaxSyscallHist; ++r) {
      for (size_t b = 0; b < kHistBuckets; ++b) {
        ring->sys_hist[r][b].store(0, std::memory_order_relaxed);
      }
    }
    for (size_t r = 0; r < kNumStoreOps; ++r) {
      for (size_t b = 0; b < kHistBuckets; ++b) {
        ring->store_hist[r][b].store(0, std::memory_order_relaxed);
      }
    }
  }
}

void SetLabelGeneration(uint32_t gen) {
  g_label_gen.store(gen, std::memory_order_relaxed);
}

uint32_t LabelGeneration() {
  return g_label_gen.load(std::memory_order_relaxed);
}

void SetFatalDumpPath(const std::string& path) {
  MutexLock lk(&g_dump_mu);
  if (g_dump_path == nullptr) {
    g_dump_path = new std::string(path);
  } else {
    *g_dump_path = path;
  }
}

}  // namespace trace
}  // namespace histar
