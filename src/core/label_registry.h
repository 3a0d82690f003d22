// Interned immutable labels behind every kernel IFC check (paper §4).
//
// HiStar's key label optimization is that object labels are immutable after
// creation, so the kernel can cache the result of every ⊑ comparison between
// label pairs. The registry takes that one step further than a comparison
// cache: every distinct label is interned exactly once and named by a small
// dense LabelId handle; the canonical Label, its precomputed ToHi (⋆ → J)
// and ToStar (J → ⋆) variants all live in the registry, so hot-path checks
// never allocate a shifted label — they look up the id of the shifted form.
//
// Concurrency (PR 6: lock-free readers): the hot read paths — id → entry
// lookup and the Leq/Join memo — take no lock at all.
//   * Entry storage is append-only chunked arrays: chunks are published
//     with release stores and never moved or freed, so EntryOf is a pair
//     of acquire loads. The per-shard entry count is release-published
//     after the entry's fields are filled, ordering them for readers.
//   * The memo tables are open-addressing arrays of {atomic key, atomic
//     value} slots, probed with acquire loads. Memo writers (misses)
//     serialize on a per-shard mutex, insert with a val-then-key release
//     pair, and on growth publish a rehashed table and retire the old
//     array through the EpochDomain — which is why memo readers run
//     inside an EpochGuard (Leq/Join take one internally).
//   * Only the intern hash map (label → id, dedup on Intern) keeps its
//     shared_mutex; interning is the cold path.
//
// Ids and persistence: ids are assigned in intern order within a boot. The
// single-level store persists the registry as a label table (one record per
// id) in every checkpoint; recovery rebuilds the registry by re-interning
// the table in ascending-id order, which reproduces the per-shard slot
// sequence and therefore — with an unchanged shard count — the exact same
// ids. Blobs on disk reference labels by id, so RestoreObject resolves
// every reference through the old-id → new-id remap computed during that
// rebuild (kernel_persist.cc); identical ids make the remap the identity,
// but nothing relies on it. Snapshot()/EnumerateSince() expose the
// append-only intern log so checkpoints can write only the label-table
// delta since the last committed checkpoint.
#ifndef SRC_CORE_LABEL_REGISTRY_H_
#define SRC_CORE_LABEL_REGISTRY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/core/label.h"
#include "src/core/sync.h"
#include "src/core/thread_annotations.h"

namespace histar {

// Handle to an interned label. 0 is never handed out; it marks "no label".
using LabelId = uint32_t;
inline constexpr LabelId kInvalidLabelId = 0;

class LabelRegistry {
 public:
  // Shard counts must be powers of two; ids embed the shard index in their
  // low bits. 16 shards keeps per-shard contention negligible at the thread
  // counts the simulator runs while costing ~nothing at one thread.
  static constexpr size_t kDefaultShardCount = 16;
  static constexpr size_t kMaxShardCount = 64;

  explicit LabelRegistry(size_t shard_count = kDefaultShardCount);
  ~LabelRegistry();
  LabelRegistry(const LabelRegistry&) = delete;
  LabelRegistry& operator=(const LabelRegistry&) = delete;

  // Interns `l`, returning its stable id. Structurally equal labels always
  // yield the same id — that identity is what makes pair-memoization sound.
  LabelId Intern(const Label& l);

  // Canonical label for an interned id. Lock-free; the reference stays
  // valid for the registry's lifetime (entries are never removed or moved).
  const Label& Get(LabelId id) const;

  // Precomputed shifted variants. GetHi/GetStar return the label; HiOf and
  // StarOf return the (lazily interned) id of the shifted form, so a check
  // like L_O ⊑ L_T^J is Leq(o, HiOf(t)) — no allocation, fully memoized.
  const Label& GetHi(LabelId id) const;
  const Label& GetStar(LabelId id) const;
  LabelId HiOf(LabelId id);
  LabelId StarOf(LabelId id);

  // Memoized id1 ⊑ id2. A memo hit is entirely lock-free (one epoch-
  // guarded probe of the shard's memo table); only a miss takes the
  // shard's writer mutex to record the result. Falls back to a direct
  // comparison when disabled (the ablation bench toggles this).
  bool Leq(LabelId id1, LabelId id2);

  // True iff `id` falls inside the range of ids this instance has issued
  // so far — a bounds check, NOT provenance: ids are dense per instance,
  // so an id minted by a DIFFERENT registry usually collides numerically
  // with a live one and passes. Get/Leq on an unknown id abort (they can
  // only mean memory corruption on a kernel path); consumers that may
  // legitimately hold foreign ids — the flight recorder survives kernel
  // teardown, so sys_trace_read can encounter events stamped under a
  // previous registry — gate on Known first and treat unknown as "does
  // not flow", and additionally compare the event's recorded generation
  // against instance_id() to reject the colliding common case. Lock-free.
  bool Known(LabelId id) const;

  // Process-unique, never-zero id of this registry instance, assigned at
  // construction. Stamped into every flight-recorder event as the label
  // generation (trace::SetLabelGeneration) so readers can tell this
  // instance's ids from a numerically-equal id of a prior instance.
  uint32_t instance_id() const { return instance_id_; }

  // Non-interning comparisons for validating caller-supplied labels at the
  // syscall boundary. These create no registry entry and no memo slot, so a
  // failed syscall allocates nothing — otherwise rejected labels would be a
  // quota-free unbounded-memory channel (callers intern only after every
  // check passes). Not memoized: by definition one side has no identity yet.
  bool LeqWith(LabelId a, const Label& b) const { return Get(a).Leq(b); }
  bool LeqOf(const Label& a, LabelId b) const { return a.Leq(Get(b)); }
  static bool LeqDirect(const Label& a, const Label& b) { return a.Leq(b); }

  // Memoized ⊔; the result is itself interned. Gate invocation computes
  // (L_T^J ⊔ L_G^J)^⋆ per crossing, which this turns into two id lookups
  // after the first. Hits are lock-free like Leq's.
  LabelId Join(LabelId id1, LabelId id2);

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  void ResetStats();

  // ---- lock accounting (tests / bench only) --------------------------------
  //
  // Mirrors ObjectTable's instrument: when enabled, every mutex
  // acquisition on a reader-reachable registry path (intern probe/insert,
  // memo-miss insert) bumps the counter. The satellite acceptance test
  // pins warm Leq at zero.
  void set_lock_accounting(bool on) const {
    lock_accounting_.store(on, std::memory_order_relaxed);
  }
  uint64_t lock_acquisitions() const {
    return lock_acquisitions_.load(std::memory_order_relaxed);
  }

  // Number of distinct labels interned so far.
  size_t size() const;
  size_t shard_count() const { return shard_count_; }

  // A cut of the append-only intern log: per-shard entry counts. Entries are
  // never removed, so "everything interned since mark M" is exactly the
  // per-shard slots ≥ M — what checkpoints use to write label-table deltas.
  using SnapshotMark = std::vector<uint32_t>;
  SnapshotMark Snapshot() const;

  // Invokes fn(id, label) for every entry whose shard slot is ≥ the mark
  // (an empty mark enumerates everything). Shards are visited in index
  // order and slots in intern order, so within a shard ids come out
  // ascending. Lock-free over the published chunks: entries interned
  // after the internal count snapshot are not visited.
  void EnumerateSince(const SnapshotMark& mark,
                      const std::function<void(LabelId, const Label&)>& fn) const;

  // Merges `other` into `mark` (per-shard max) — how the kernel advances
  // its persisted-label mark only after a checkpoint commits.
  static void AdvanceMark(SnapshotMark* mark, const SnapshotMark& other);

 private:
  struct Entry {
    Label label;
    Label hi;    // label.ToHi(), precomputed at intern time
    Label star;  // label.ToStar(), precomputed at intern time
    mutable std::atomic<LabelId> hi_id{kInvalidLabelId};    // lazily interned
    mutable std::atomic<LabelId> star_id{kInvalidLabelId};  // lazily interned

    // Default-constructed inside a chunk; the interning writer fills the
    // labels before release-publishing the shard count.
    Entry() = default;
  };

  // Append-only chunked entry storage whose size follows its contents:
  // chunk k holds 8 << k entries, so a shard holding n labels owns under
  // 2n + 8 entry slots behind a directory of kMaxChunks pointers. Chunks
  // are allocated on demand, published with a release store, and never
  // freed or moved while the registry lives — EntryOf needs no lock and no
  // epoch guard.
  static constexpr size_t kFirstChunkBits = 3;           // chunk 0: 8 entries
  static constexpr size_t kMaxEntries = size_t{1} << 20;  // per shard
  static constexpr size_t kMaxChunks = 18;
  static_assert((((size_t{1} << kMaxChunks) - 1) << kFirstChunkBits) >= kMaxEntries,
                "the chunk directory must reach kMaxEntries");
  struct SlotPos {
    size_t chunk;
    size_t index;  // within the chunk
  };
  // Chunk k starts at slot 8 * (2^k - 1): slot + 8 lies in [8 << k, 16 << k).
  static SlotPos PosOf(size_t slot) {
    uint64_t v = uint64_t{slot} + (uint64_t{1} << kFirstChunkBits);
    size_t top = 63 - static_cast<size_t>(__builtin_clzll(v));
    return SlotPos{top - kFirstChunkBits, static_cast<size_t>(v - (uint64_t{1} << top))};
  }
  static size_t ChunkCapacity(size_t chunk) { return size_t{1} << (chunk + kFirstChunkBits); }

  struct InternShard {
    mutable SharedMutex mu;  // guards `ids` and interning writers
    std::unordered_map<Label, LabelId, LabelHash> ids GUARDED_BY(mu);
    std::array<std::atomic<Entry*>, kMaxChunks> chunks{};
    std::atomic<uint32_t> count{0};  // published entries; release on grow

    ~InternShard() {
      for (auto& c : chunks) {
        delete[] c.load(std::memory_order_relaxed);
      }
    }
  };

  // Open-addressing memo table probed lock-free. Empty slots have key 0
  // (PairKey never produces 0 for valid ids); writers store val before
  // key (release) so a reader that observes the key observes the value.
  struct MemoSlot {
    std::atomic<uint64_t> key{0};
    std::atomic<uint64_t> val{0};
  };
  struct MemoTable {
    explicit MemoTable(size_t cap) : capacity(cap), slots(new MemoSlot[cap]) {}
    const size_t capacity;  // power of two
    std::unique_ptr<MemoSlot[]> slots;
  };
  // Memo tables start small and double at load ½ (MemoInsertLocked).
  static constexpr size_t kMemoInitCapacity = 16;

  struct ResultShard {
    Mutex mu;  // memo writers only; readers never touch it
    std::atomic<MemoTable*> leq{nullptr};
    std::atomic<MemoTable*> join{nullptr};
    size_t leq_used GUARDED_BY(mu) = 0;  // writer bookkeeping
    size_t join_used GUARDED_BY(mu) = 0;

    ~ResultShard() {
      delete leq.load(std::memory_order_relaxed);
      delete join.load(std::memory_order_relaxed);
    }
  };

  // id = ((slot + 1) << shard_bits) | shard, so id 0 is never produced.
  LabelId MakeId(size_t shard, size_t slot) const {
    return static_cast<LabelId>(((slot + 1) << shard_bits_) | shard);
  }
  size_t ShardOf(LabelId id) const { return id & (shard_count_ - 1); }
  size_t SlotOf(LabelId id) const { return (id >> shard_bits_) - 1; }

  const Entry& EntryOf(LabelId id) const;

  static uint64_t PairKey(LabelId a, LabelId b) {
    return (static_cast<uint64_t>(a) << 32) | b;
  }
  ResultShard& ResultShardFor(uint64_t key) {
    // Splittable 64-bit mix so adjacent id pairs spread across shards.
    uint64_t h = key * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 32;
    return *result_shards_[h & (shard_count_ - 1)];
  }

  // Distinct mix from ResultShardFor (whose low bits pick the shard, so
  // keys within one shard would stride-cluster the probes).
  static size_t MemoHash(uint64_t key) {
    uint64_t h = key * 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return static_cast<size_t>(h);
  }

  // Lock-free probe; returns false on absent key.
  static bool MemoLookup(const MemoTable* t, uint64_t key, uint64_t* val);

  // Inserts (or confirms) key → val into the shard's leq (join=false) or
  // join (join=true) memo, growing the table at load ½ and retiring the
  // outgrown array through the epoch layer. Takes the whole shard (rather
  // than raw table/counter pointers) so the writer-mutex requirement is
  // statically checkable.
  static void MemoInsertLocked(ResultShard& shard, bool join, uint64_t key,
                               uint64_t val) REQUIRES(shard.mu);

  void CountLock() const {
    if (lock_accounting_.load(std::memory_order_relaxed)) {
      lock_acquisitions_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  const size_t shard_count_;
  const size_t shard_bits_;
  const uint32_t instance_id_;

  std::atomic<bool> enabled_{true};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  mutable std::atomic<bool> lock_accounting_{false};
  mutable std::atomic<uint64_t> lock_acquisitions_{0};

  std::vector<std::unique_ptr<InternShard>> intern_shards_;
  std::vector<std::unique_ptr<ResultShard>> result_shards_;
};

}  // namespace histar

#endif  // SRC_CORE_LABEL_REGISTRY_H_
