#include "src/core/label_registry.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "src/core/epoch.h"

namespace histar {

namespace {

size_t FloorLog2(size_t v) {
  size_t bits = 0;
  while ((size_t{1} << (bits + 1)) <= v) {
    ++bits;
  }
  return bits;
}

size_t ClampShardCount(size_t requested) {
  if (requested < 1) {
    return 1;
  }
  if (requested > LabelRegistry::kMaxShardCount) {
    requested = LabelRegistry::kMaxShardCount;
  }
  // Round down to a power of two so shard selection is a mask.
  return size_t{1} << FloorLog2(requested);
}

// Registry instances get a process-unique generation id (never 0 — 0 is
// the "no generation recorded" sentinel in the flight recorder). Wrap at
// 2^32 is theoretical: it would take four billion kernel constructions in
// one process.
std::atomic<uint32_t> g_next_instance_id{1};

}  // namespace

LabelRegistry::LabelRegistry(size_t shard_count)
    : shard_count_(ClampShardCount(shard_count)),
      shard_bits_(FloorLog2(shard_count_)),
      instance_id_(g_next_instance_id.fetch_add(1, std::memory_order_relaxed)) {
  intern_shards_.reserve(shard_count_);
  result_shards_.reserve(shard_count_);
  for (size_t i = 0; i < shard_count_; ++i) {
    intern_shards_.push_back(std::make_unique<InternShard>());
    auto rs = std::make_unique<ResultShard>();
    // Eager initial tables: readers never need a null check.
    rs->leq.store(new MemoTable(kMemoInitCapacity), std::memory_order_relaxed);
    rs->join.store(new MemoTable(kMemoInitCapacity), std::memory_order_relaxed);
    result_shards_.push_back(std::move(rs));
  }
}

LabelRegistry::~LabelRegistry() = default;

LabelId LabelRegistry::Intern(const Label& l) {
  size_t shard_index = l.Hash() & (shard_count_ - 1);
  InternShard& shard = *intern_shards_[shard_index];
  {
    CountLock();
    ReaderMutexLock lock(&shard.mu);
    auto it = shard.ids.find(l);
    if (it != shard.ids.end()) {
      return it->second;
    }
  }
  // Precompute the shifted variants before taking the writer lock: the two
  // O(entries) walks would otherwise stall every intern hashing to this
  // shard. A losing race just discards the work below.
  Label hi = l.ToHi();
  Label star = l.ToStar();
  CountLock();
  WriterMutexLock lock(&shard.mu);
  auto it = shard.ids.find(l);
  if (it != shard.ids.end()) {
    return it->second;
  }
  size_t slot = shard.count.load(std::memory_order_relaxed);
  if (slot >= kMaxEntries) {
    fprintf(stderr, "LabelRegistry: shard %zu exceeded %zu entries\n", shard_index,
            kMaxEntries);
    abort();
  }
  SlotPos pos = PosOf(slot);
  Entry* chunk = shard.chunks[pos.chunk].load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    chunk = new Entry[ChunkCapacity(pos.chunk)];
    shard.chunks[pos.chunk].store(chunk, std::memory_order_release);
  }
  Entry& e = chunk[pos.index];
  e.label = l;
  e.hi = std::move(hi);
  e.star = std::move(star);
  LabelId id = MakeId(shard_index, slot);
  shard.ids.emplace(l, id);
  // Publish AFTER the fields are filled: a lock-free reader that acquires
  // a count ≥ slot+1 (or reaches the entry through any release/acquire
  // chain rooted in this id, e.g. an object's atomic label_id_) sees a
  // fully constructed entry.
  shard.count.store(static_cast<uint32_t>(slot + 1), std::memory_order_release);
  return id;
}

const LabelRegistry::Entry& LabelRegistry::EntryOf(LabelId id) const {
  const InternShard& shard = *intern_shards_[ShardOf(id)];
  size_t slot = SlotOf(id);
  // The acquire on count pairs with Intern's release publish; chunks are
  // never freed or moved, so the reference is stable without a lock.
  uint32_t n = shard.count.load(std::memory_order_acquire);
  if (slot >= n) {
    fprintf(stderr, "LabelRegistry: lookup of unpublished id %u\n", id);
    abort();
  }
  SlotPos pos = PosOf(slot);
  return shard.chunks[pos.chunk].load(std::memory_order_acquire)[pos.index];
}

bool LabelRegistry::Known(LabelId id) const {
  if (id == kInvalidLabelId) {
    return false;
  }
  const InternShard& shard = *intern_shards_[ShardOf(id)];
  // SlotOf underflows to a huge value when the id's slot bits are zero
  // (never handed out), so the single bound check covers malformed ids too.
  return SlotOf(id) < shard.count.load(std::memory_order_acquire);
}

const Label& LabelRegistry::Get(LabelId id) const { return EntryOf(id).label; }

const Label& LabelRegistry::GetHi(LabelId id) const { return EntryOf(id).hi; }

const Label& LabelRegistry::GetStar(LabelId id) const { return EntryOf(id).star; }

LabelId LabelRegistry::HiOf(LabelId id) {
  const Entry& e = EntryOf(id);
  LabelId hi = e.hi_id.load(std::memory_order_acquire);
  if (hi != kInvalidLabelId) {
    return hi;
  }
  // Intern is idempotent, so a race here converges on the same id.
  hi = Intern(e.hi);
  e.hi_id.store(hi, std::memory_order_release);
  return hi;
}

LabelId LabelRegistry::StarOf(LabelId id) {
  const Entry& e = EntryOf(id);
  LabelId star = e.star_id.load(std::memory_order_acquire);
  if (star != kInvalidLabelId) {
    return star;
  }
  star = Intern(e.star);
  e.star_id.store(star, std::memory_order_release);
  return star;
}

bool LabelRegistry::MemoLookup(const MemoTable* t, uint64_t key, uint64_t* val) {
  const size_t mask = t->capacity - 1;
  for (size_t i = MemoHash(key) & mask;; i = (i + 1) & mask) {
    uint64_t k = t->slots[i].key.load(std::memory_order_acquire);
    if (k == key) {
      *val = t->slots[i].val.load(std::memory_order_relaxed);
      return true;
    }
    if (k == 0) {
      return false;
    }
  }
}

void LabelRegistry::MemoInsertLocked(ResultShard& shard, bool join, uint64_t key,
                                     uint64_t val) {
  std::atomic<MemoTable*>& tbl = join ? shard.join : shard.leq;
  size_t& used = join ? shard.join_used : shard.leq_used;
  MemoTable* t = tbl.load(std::memory_order_relaxed);
  if ((used + 1) * 2 > t->capacity) {
    // Rehash into a double-size table, publish it, retire the old array —
    // a lock-free reader may still be probing it. All entries are live
    // (no tombstones), so `used` carries over.
    MemoTable* fresh = new MemoTable(t->capacity * 2);
    const size_t mask = fresh->capacity - 1;
    for (size_t i = 0; i < t->capacity; ++i) {
      uint64_t k = t->slots[i].key.load(std::memory_order_relaxed);
      if (k == 0) {
        continue;
      }
      uint64_t v = t->slots[i].val.load(std::memory_order_relaxed);
      for (size_t j = MemoHash(k) & mask;; j = (j + 1) & mask) {
        if (fresh->slots[j].key.load(std::memory_order_relaxed) == 0) {
          fresh->slots[j].val.store(v, std::memory_order_relaxed);
          fresh->slots[j].key.store(k, std::memory_order_relaxed);
          break;
        }
      }
    }
    tbl.store(fresh, std::memory_order_release);
    EpochDomain::Global().Retire(t);
    t = fresh;
  }
  const size_t mask = t->capacity - 1;
  for (size_t i = MemoHash(key) & mask;; i = (i + 1) & mask) {
    MemoSlot& s = t->slots[i];
    uint64_t k = s.key.load(std::memory_order_relaxed);
    if (k == key) {
      return;  // a racing miss inserted it first; results are deterministic
    }
    if (k == 0) {
      s.val.store(val, std::memory_order_relaxed);
      s.key.store(key, std::memory_order_release);
      ++used;
      return;
    }
  }
}

bool LabelRegistry::Leq(LabelId id1, LabelId id2) {
  if (id1 == id2) {
    return true;  // reflexivity: free, no memo traffic
  }
  if (!enabled()) {
    return Get(id1).Leq(Get(id2));
  }
  uint64_t key = PairKey(id1, id2);
  ResultShard& shard = ResultShardFor(key);
  {
    // The guard pins the memo array against a concurrent growth-retire.
    EpochGuard guard;
    uint64_t v;
    if (MemoLookup(shard.leq.load(std::memory_order_acquire), key, &v)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return v != 0;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  bool r = Get(id1).Leq(Get(id2));
  {
    CountLock();
    MutexLock lock(&shard.mu);
    MemoInsertLocked(shard, /*join=*/false, key, r ? 1 : 0);
  }
  return r;
}

LabelId LabelRegistry::Join(LabelId id1, LabelId id2) {
  if (id1 == id2) {
    return id1;  // idempotence
  }
  // ⊔ is commutative; canonicalize the key so both orders share one memo slot.
  LabelId a = id1 < id2 ? id1 : id2;
  LabelId b = id1 < id2 ? id2 : id1;
  uint64_t key = PairKey(a, b);
  if (enabled()) {
    ResultShard& shard = ResultShardFor(key);
    {
      EpochGuard guard;
      uint64_t v;
      if (MemoLookup(shard.join.load(std::memory_order_acquire), key, &v)) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return static_cast<LabelId>(v);
      }
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    LabelId joined = Intern(Get(a).Join(Get(b)));
    {
      CountLock();
      MutexLock lock(&shard.mu);
      MemoInsertLocked(shard, /*join=*/true, key, joined);
    }
    return joined;
  }
  return Intern(Get(a).Join(Get(b)));
}

void LabelRegistry::ResetStats() {
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
}

size_t LabelRegistry::size() const {
  size_t n = 0;
  for (const auto& shard : intern_shards_) {
    n += shard->count.load(std::memory_order_acquire);
  }
  return n;
}

LabelRegistry::SnapshotMark LabelRegistry::Snapshot() const {
  SnapshotMark mark(shard_count_, 0);
  for (size_t i = 0; i < shard_count_; ++i) {
    mark[i] = intern_shards_[i]->count.load(std::memory_order_acquire);
  }
  return mark;
}

void LabelRegistry::EnumerateSince(
    const SnapshotMark& mark, const std::function<void(LabelId, const Label&)>& fn) const {
  for (size_t i = 0; i < shard_count_; ++i) {
    const InternShard& shard = *intern_shards_[i];
    size_t from = i < mark.size() ? mark[i] : 0;
    size_t upto = shard.count.load(std::memory_order_acquire);
    for (size_t slot = from; slot < upto; ++slot) {
      SlotPos pos = PosOf(slot);
      fn(MakeId(i, slot),
         shard.chunks[pos.chunk].load(std::memory_order_acquire)[pos.index].label);
    }
  }
}

void LabelRegistry::AdvanceMark(SnapshotMark* mark, const SnapshotMark& other) {
  if (mark->size() < other.size()) {
    mark->resize(other.size(), 0);
  }
  for (size_t i = 0; i < other.size(); ++i) {
    (*mark)[i] = std::max((*mark)[i], other[i]);
  }
}

}  // namespace histar
