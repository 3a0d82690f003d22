// Object serialization and the single-level-store interface (paper §3, §4).
//
// Every kernel object can be flattened into a byte vector and restored; the
// store (src/store) persists these blobs. Gate entry functions are not
// serialized — the entry *name* is, standing in for the on-disk code segment
// that the real system would map; names must be re-registered at boot.
//
// Blob formats (first byte, see kernel.h): checkpoint blobs are
// kBlobFormatLabelRef — labels appear as 32-bit interned ids, and the label
// bytes live exactly once in the checkpoint's label-table section — while
// WAL blobs (sys_sync_object) are kBlobFormatInline and self-contained.
// Restore loads the label table first (RestoreLabelTable re-interns every
// record once and installs an old-id → new-id remap), then RestoreObject
// resolves references through the remap; inline blobs re-intern as before.
//
// Snapshot locking: sys_sync builds its batch (live set + serialized dirty
// objects) under ONE all-shards shared lock — the TableLock acquires the
// shards in ascending index order — so the checkpoint image is a consistent
// cut of the object graph even while reader syscalls proceed on other
// threads. The registry cut for the label-table delta is taken after the
// blobs are serialized, so every id a blob references is covered. The store
// commit itself runs with no kernel lock held, exactly like the old
// single-mutex code.
#include <algorithm>
#include <cstring>

#include "src/core/trace.h"
#include "src/core/wire.h"
#include "src/kernel/kernel.h"

namespace histar {

namespace {

using wire::PutU32;
using wire::PutU64;
using wire::PutU8;

void PutBytes(std::vector<uint8_t>* out, const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  out->insert(out->end(), p, p + len);
}

void PutString(std::vector<uint8_t>* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  PutBytes(out, s.data(), s.size());
}

// The blob cursor: the shared little-endian reader plus the blob format's
// raw-byte, string and label fields.
struct BlobReader : wire::Reader {
  bool Bytes(void* out, size_t n) {
    if (pos + n > len) {
      fail = true;
      return false;
    }
    if (n != 0) {  // n == 0 legitimately pairs with a null out (empty segment)
      memcpy(out, data + pos, n);
    }
    pos += n;
    return true;
  }
  std::string String() {
    uint32_t n = U32();
    if (fail || pos + n > len) {
      fail = true;
      return "";
    }
    std::string s(reinterpret_cast<const char*>(data + pos), n);
    pos += n;
    return s;
  }
  bool ReadLabel(histar::Label* out) {
    size_t consumed = 0;
    if (fail || !histar::Label::Deserialize(data + pos, len - pos, &consumed, out)) {
      fail = true;
      return false;
    }
    pos += consumed;
    return true;
  }
};

void PutLabel(std::vector<uint8_t>* out, const Label& l) { l.Serialize(out); }

}  // namespace

bool Kernel::SerializeObjectLocked(const Object& o, std::vector<uint8_t>* out,
                                   bool label_refs, uint64_t* meta_len) const {
  // One writer for both label encodings so the two formats cannot drift:
  // label-ref blobs carry the 4-byte interned id (the checkpoint's label
  // table maps it back to bytes), inline blobs carry the canonical bytes.
  auto put_label = [&](LabelId id) {
    if (label_refs) {
      PutU32(out, id);
    } else {
      PutLabel(out, registry_.Get(id));
    }
  };
  out->clear();
  PutU8(out, label_refs ? kBlobFormatLabelRef : kBlobFormatInline);
  PutU8(out, static_cast<uint8_t>(o.type()));
  PutU64(out, o.id());
  PutU64(out, o.creation_seq());
  put_label(o.label_id());
  PutU64(out, o.quota());
  PutU8(out, o.fixed_quota() ? 1 : 0);
  PutU8(out, o.immutable() ? 1 : 0);
  PutString(out, o.descrip());
  PutBytes(out, o.metadata().data(), kMetadataLen);
  // Everything up to (and including) a segment's length word is metadata
  // the store checksums; segment payload bytes after it are excluded so
  // sys_sync_pages can rewrite them in place (see ObjectImage in kernel.h).
  uint64_t meta = 0;

  switch (o.type()) {
    case ObjectType::kSegment: {
      const Segment& s = static_cast<const Segment&>(o);
      PutU64(out, s.bytes().size());
      meta = out->size();
      PutBytes(out, s.bytes().data(), s.bytes().size());
      break;
    }
    case ObjectType::kContainer: {
      const Container& c = static_cast<const Container&>(o);
      PutU32(out, c.avoid_types());
      PutU64(out, c.parent());
      PutU32(out, static_cast<uint32_t>(c.links().size()));
      for (ObjectId l : c.links()) {
        PutU64(out, l);
      }
      break;
    }
    case ObjectType::kThread: {
      const Thread& t = static_cast<const Thread&>(o);
      put_label(t.clearance_id());
      PutU8(out, t.halted() ? 1 : 0);
      PutU64(out, t.address_space().container);
      PutU64(out, t.address_space().object);
      PutBytes(out, const_cast<Thread&>(t).local_segment().data(), kPageSize);
      break;
    }
    case ObjectType::kAddressSpace: {
      const AddressSpace& as = static_cast<const AddressSpace&>(o);
      PutU32(out, static_cast<uint32_t>(as.mappings().size()));
      for (const Mapping& m : as.mappings()) {
        PutU64(out, m.va);
        PutU64(out, m.segment.container);
        PutU64(out, m.segment.object);
        PutU64(out, m.start_page);
        PutU64(out, m.npages);
        PutU32(out, m.flags);
      }
      break;
    }
    case ObjectType::kGate: {
      const Gate& g = static_cast<const Gate&>(o);
      put_label(g.clearance_id());
      PutString(out, g.entry_name());
      PutU32(out, static_cast<uint32_t>(g.closure().size()));
      for (uint64_t w : g.closure()) {
        PutU64(out, w);
      }
      break;
    }
    case ObjectType::kDevice: {
      const Device& d = static_cast<const Device&>(o);
      PutU8(out, static_cast<uint8_t>(d.kind()));
      break;
    }
  }
  if (meta_len != nullptr) {
    *meta_len = meta != 0 ? meta : out->size();
  }
  return true;
}

bool Kernel::SerializeObject(ObjectId id, std::vector<uint8_t>* out, bool label_refs,
                             uint64_t* meta_len) const {
  TableLock lk(table_, TableLock::Mode::kShared, {id});
  const Object* o = Get(id);
  if (o == nullptr) {
    return false;
  }
  return SerializeObjectLocked(*o, out, label_refs, meta_len);
}

Status Kernel::RestoreLabelTable(const std::vector<LabelTableRecord>& records,
                                 bool* ids_stable) {
  // Boot-time only, before any RestoreObject call. Re-interning in the
  // table's ascending-id order replays the writing boot's per-shard slot
  // sequence, so with an unchanged shard configuration every id comes back
  // identical and the remap is the identity. Either way the remap is what
  // label-ref blobs resolve through, so restore is correct even when ids
  // move — it just costs the next sync a full rewrite (see kernel.h).
  restore_label_remap_.clear();
  restore_ids_stable_ = true;
  for (const LabelTableRecord& rec : records) {
    Label l;
    size_t consumed = 0;
    if (rec.id == kInvalidLabelId ||
        !Label::Deserialize(rec.bytes.data(), rec.bytes.size(), &consumed, &l) ||
        consumed != rec.bytes.size()) {
      return Status::kCorrupt;
    }
    LabelId fresh = registry_.Intern(l);
    // Two table records must never claim the same old id with different
    // labels (Intern is idempotent, so duplicates of the same label are
    // harmless and map to the same fresh id).
    auto [it, inserted] = restore_label_remap_.emplace(rec.id, fresh);
    if (!inserted && it->second != fresh) {
      return Status::kCorrupt;
    }
    restore_ids_stable_ = restore_ids_stable_ && fresh == rec.id;
  }
  {
    MutexLock dl(&dirty_mu_);
    // Labels already in the on-disk table need not be re-sent as deltas —
    // unless ids moved, in which case the next checkpoint must re-emit the
    // whole table in the new id space (mark stays at zero → full delta).
    persisted_label_mark_ =
        restore_ids_stable_ ? registry_.Snapshot() : LabelRegistry::SnapshotMark{};
  }
  if (ids_stable != nullptr) {
    *ids_stable = restore_ids_stable_;
  }
  return Status::kOk;
}

Status Kernel::RestoreObject(const std::vector<uint8_t>& bytes) {
  BlobReader r{{bytes.data(), bytes.size()}};
  uint8_t format = r.U8();
  if (r.fail || (format != kBlobFormatInline && format != kBlobFormatLabelRef)) {
    return Status::kCorrupt;
  }
  const bool label_refs = format == kBlobFormatLabelRef;
  // One reader for both label encodings, mirroring put_label on the write
  // side. Inline labels re-intern here (the WAL/rebuild-on-recover path);
  // references resolve through the remap RestoreLabelTable installed.
  auto read_label = [&](LabelId* out) {
    if (label_refs) {
      LabelId old_id = r.U32();
      auto it = restore_label_remap_.find(old_id);
      if (r.fail || it == restore_label_remap_.end()) {
        r.fail = true;
        return false;
      }
      *out = it->second;
      return true;
    }
    Label l;
    if (!r.ReadLabel(&l)) {
      return false;
    }
    *out = registry_.Intern(l);
    return true;
  };
  uint8_t type_raw = r.U8();
  // Out-of-range types include the retired value 6 (types.h).
  if (r.fail || type_raw >= kNumObjectTypes) {
    return Status::kCorrupt;
  }
  ObjectType type = static_cast<ObjectType>(type_raw);
  ObjectId id = r.U64();
  uint64_t creation_seq = r.U64();
  LabelId label_id = kInvalidLabelId;
  if (!read_label(&label_id)) {
    return Status::kCorrupt;
  }
  uint64_t quota = r.U64();
  bool fixed = r.U8() != 0;
  bool immutable = r.U8() != 0;
  std::string descrip = r.String();
  std::array<uint8_t, kMetadataLen> metadata;
  r.Bytes(metadata.data(), kMetadataLen);
  if (r.fail) {
    return Status::kCorrupt;
  }

  std::unique_ptr<Object> obj;
  switch (type) {
    case ObjectType::kSegment: {
      uint64_t len = r.U64();
      if (r.fail || r.pos + len > r.len) {
        return Status::kCorrupt;
      }
      auto s = std::make_unique<Segment>(id, label_id);
      s->bytes().resize(len);
      r.Bytes(s->bytes().data(), len);
      obj = std::move(s);
      break;
    }
    case ObjectType::kContainer: {
      uint32_t avoid = r.U32();
      ObjectId parent = r.U64();
      uint32_t n = r.U32();
      if (r.fail) {
        return Status::kCorrupt;
      }
      auto c = std::make_unique<Container>(id, label_id, avoid, parent);
      for (uint32_t i = 0; i < n && !r.fail; ++i) {
        c->links_mutable().push_back(r.U64());
      }
      obj = std::move(c);
      break;
    }
    case ObjectType::kThread: {
      LabelId clearance_id = kInvalidLabelId;
      if (!read_label(&clearance_id)) {
        return Status::kCorrupt;
      }
      bool halted = r.U8() != 0;
      ContainerEntry as{r.U64(), r.U64()};
      auto t = std::make_unique<Thread>(id, label_id, clearance_id);
      r.Bytes(t->local_segment().data(), kPageSize);
      t->set_address_space_internal(as);
      if (halted) {
        t->set_halted_internal();
      }
      obj = std::move(t);
      break;
    }
    case ObjectType::kAddressSpace: {
      uint32_t n = r.U32();
      auto as = std::make_unique<AddressSpace>(id, label_id);
      for (uint32_t i = 0; i < n && !r.fail; ++i) {
        Mapping m;
        m.va = r.U64();
        m.segment.container = r.U64();
        m.segment.object = r.U64();
        m.start_page = r.U64();
        m.npages = r.U64();
        m.flags = r.U32();
        as->mappings_mutable().push_back(m);
      }
      obj = std::move(as);
      break;
    }
    case ObjectType::kGate: {
      LabelId clearance_id = kInvalidLabelId;
      if (!read_label(&clearance_id)) {
        return Status::kCorrupt;
      }
      std::string entry = r.String();
      uint32_t n = r.U32();
      std::vector<uint64_t> closure;
      for (uint32_t i = 0; i < n && !r.fail; ++i) {
        closure.push_back(r.U64());
      }
      obj = std::make_unique<Gate>(id, label_id, clearance_id, entry, closure);
      break;
    }
    case ObjectType::kDevice: {
      uint8_t kind = r.U8();
      obj = std::make_unique<Device>(id, label_id, static_cast<DeviceKind>(kind));
      break;
    }
  }
  if (r.fail || obj == nullptr) {
    return Status::kCorrupt;
  }
  obj->set_quota_internal(quota);
  if (fixed) {
    obj->set_fixed_quota_internal();
  }
  if (immutable) {
    obj->set_immutable_internal();
  }
  obj->set_descrip_internal(descrip);
  obj->metadata_mutable() = metadata;

  obj->set_creation_seq(creation_seq);
  // Monotonic max: restore runs object-by-object, and fresh allocations must
  // sequence after everything already on disk.
  uint64_t prev = creation_counter_.load(std::memory_order_relaxed);
  while (prev < creation_seq &&
         !creation_counter_.compare_exchange_weak(prev, creation_seq,
                                                  std::memory_order_relaxed)) {
  }
  TableLock lk(table_, TableLock::Mode::kExclusive, {id});
  table_.InsertLocked(std::move(obj));
  return Status::kOk;
}

void Kernel::FinishRestore(ObjectId root) {
  TableLock lk(table_, TableLock::Mode::kExclusive, TableLock::AllShards{});
  root_ = root;
  // Rebuild link counts and container usages from the link graph. Labels
  // were re-interned once from the checkpoint's label table
  // (RestoreLabelTable) plus per-object for self-contained WAL blobs, so
  // the registry is fully populated by the time restore finishes.
  table_.ForEachLocked([](ObjectId, Object* obj) {
    while (obj->link_count() > 0) {
      obj->drop_link_internal();
    }
  });
  table_.ForEachLocked([this](ObjectId, Object* obj) {
    table_.cap().AssertHeld();  // closures don't inherit the caller's lock set
    if (obj->type() != ObjectType::kContainer) {
      return;
    }
    Container* c = static_cast<Container*>(obj);
    uint64_t usage = 0;
    for (ObjectId child : c->links()) {
      Object* co = Get(child);
      if (co != nullptr) {
        co->add_link_internal();
        if (co->quota() != kQuotaInfinite) {
          usage += co->quota();
        }
      }
    }
    c->set_usage_internal(usage);
  });
  Object* root_obj = Get(root_);
  if (root_obj != nullptr) {
    root_obj->add_link_internal();  // permanent anchor
  }
  MutexLock dl(&dirty_mu_);
  dirty_.clear();
  if (!restore_ids_stable_) {
    // The persisted blobs reference label ids this boot could not
    // reproduce; every object must be rewritten in the new id space before
    // any future increment can reference it. Marking the world dirty makes
    // the next sys_sync that rewrite (the store independently refuses to
    // extend the old chain — it writes a full base).
    table_.ForEachLocked([this](ObjectId id, Object*) {
      dirty_mu_.AssertHeld();  // dl is held; closures don't inherit lock sets
      dirty_[id] = ++dirty_seq_;
    });
  }
}

std::vector<ObjectId> Kernel::LiveLocked() const {
  // Creation order, so checkpoints lay out consecutively created objects
  // contiguously (delayed allocation keeps related data together on disk).
  std::vector<std::pair<uint64_t, ObjectId>> seq;
  seq.reserve(table_.SizeLocked());
  table_.ForEachLocked([&seq](ObjectId id, const Object* obj) {
    seq.emplace_back(obj->creation_seq(), id);
  });
  std::sort(seq.begin(), seq.end());
  std::vector<ObjectId> out;
  out.reserve(seq.size());
  for (const auto& [s, id] : seq) {
    out.push_back(id);
  }
  return out;
}

std::vector<ObjectId> Kernel::LiveObjects() const {
  TableLock lk(table_, TableLock::Mode::kShared, TableLock::AllShards{});
  return LiveLocked();
}

std::vector<std::pair<ObjectId, uint64_t>> Kernel::DirtySnapshotLocked() const {
  // Shard locks before dirty_mu_ (lock hierarchy): the caller holds the
  // table, so the creation_seq reads below are stable.
  std::vector<std::pair<ObjectId, uint64_t>> marks;
  {
    MutexLock dl(&dirty_mu_);
    marks.assign(dirty_.begin(), dirty_.end());
  }
  // Creation order, like LiveObjects: the checkpoint writes the batch to
  // contiguous extents in this order, so consecutively created files end up
  // physically adjacent (what makes uncached directory-order reads mostly
  // sequential).
  std::vector<std::pair<uint64_t, std::pair<ObjectId, uint64_t>>> seq;
  seq.reserve(marks.size());
  for (const auto& [id, gen] : marks) {
    const Object* obj = Get(id);
    if (obj != nullptr) {
      seq.emplace_back(obj->creation_seq(), std::make_pair(id, gen));
    }
  }
  std::sort(seq.begin(), seq.end());
  std::vector<std::pair<ObjectId, uint64_t>> out;
  out.reserve(seq.size());
  for (const auto& [s, mark] : seq) {
    out.push_back(mark);
  }
  return out;
}

std::vector<ObjectId> Kernel::DirtyObjects() const {
  TableLock lk(table_, TableLock::Mode::kShared, TableLock::AllShards{});
  std::vector<ObjectId> out;
  for (const auto& [id, gen] : DirtySnapshotLocked()) {
    out.push_back(id);
  }
  return out;
}

void Kernel::ClearDirty() {
  MutexLock lock(&dirty_mu_);
  dirty_.clear();
}

Status Kernel::DoSync(ObjectId self) {
  {
    TableLock lk(table_, TableLock::Mode::kShared, {self});
    Thread* t = GetThread(self);
    if (t == nullptr || t->halted()) {
      return Status::kHalted;
    }
  }
  if (persist_ == nullptr) {
    return Status::kOk;  // volatile configuration: sync is a no-op
  }
  // Group sync (§7.1): checkpoint the system state. Only objects mutated
  // since the last sync are re-serialized — in label-ref format, so shared
  // label bytes are never duplicated across blobs — and the live-id set
  // lets the store drop deleted objects. The whole batch is built under one
  // all-shards shared lock (a consistent cut); the store then commits
  // atomically (superblock flip) with no kernel lock held.
  std::vector<std::pair<ObjectId, uint64_t>> snapshot;
  CheckpointBatch batch;
  {
    TableLock lk(table_, TableLock::Mode::kShared, TableLock::AllShards{});
    batch.live = LiveLocked();
    batch.root = root_;
    snapshot = DirtySnapshotLocked();
    batch.dirty.reserve(snapshot.size());
    for (const auto& [id, gen] : snapshot) {
      ObjectImage img;
      img.id = id;
      if (SerializeObjectLocked(*Get(id), &img.bytes, /*label_refs=*/true, &img.meta_len)) {
        batch.dirty.push_back(std::move(img));
      }
    }
  }
  // Label-table delta: everything interned past the last committed
  // checkpoint's mark. The registry cut is taken AFTER the blobs above were
  // serialized, so every id they reference is covered; entries interned
  // while we enumerate may ride along as extras, but the mark only advances
  // to the cut, so they are resent (the store's table merge is idempotent).
  LabelRegistry::SnapshotMark mark_before;
  {
    MutexLock dl(&dirty_mu_);
    mark_before = persisted_label_mark_;
  }
  LabelRegistry::SnapshotMark cut = registry_.Snapshot();
  registry_.EnumerateSince(mark_before, [&batch](LabelId id, const Label& l) {
    LabelTableRecord rec;
    rec.id = id;
    l.Serialize(&rec.bytes);
    batch.label_delta.push_back(std::move(rec));
  });
  Status st = persist_->Checkpoint(batch);
  if (st == Status::kCrashed) {
    // The backing device died under a checkpoint — the fatal path the
    // flight recorder exists for. Dumps the last-N window when a dump
    // path is configured (HISTAR_TRACE_DUMP / SetFatalDumpPath).
    trace::RecordFatal(static_cast<int8_t>(st), self);
  }
  if (st == Status::kOk) {
    // Retire only marks whose generation still matches what was serialized:
    // an object re-dirtied while the store was committing (no shard lock
    // held) carries a newer generation and stays dirty for the next sync —
    // which, now that checkpoints are incremental, is what guarantees the
    // next increment re-serializes it. The label mark advances the same
    // conditional way: only to the cut this commit actually persisted.
    MutexLock dl(&dirty_mu_);
    for (const auto& [id, gen] : snapshot) {
      auto it = dirty_.find(id);
      if (it != dirty_.end() && it->second == gen) {
        dirty_.erase(it);
      }
    }
    LabelRegistry::AdvanceMark(&persisted_label_mark_, cut);
  }
  return st;
}

Status Kernel::DoSyncPages(ObjectId self, ContainerEntry ce, uint64_t offset, uint64_t len) {
  ObjectId target;
  std::vector<uint8_t> pages;
  {
    TableLock lk(table_, TableLock::Mode::kShared, {self, ce.container, ce.object});
    Thread* t = GetThread(self);
    if (t == nullptr || t->halted()) {
      return Status::kHalted;
    }
    Result<Object*> o = ResolveEntry(*t, ce);
    if (!o.ok()) {
      return o.status();
    }
    if (!CanObserve(*t, *o.value())) {
      return Status::kLabelCheckFailed;
    }
    target = o.value()->id();
    // Copy the real payload range out under the lock: the store writes
    // these bytes (not a latency-only placeholder) into the object's home
    // extent, past the checksummed metadata prefix, so a crash before the
    // next checkpoint recovers valid data instead of a blob that fails its
    // checksum (the old stale-checksum window). Ranges beyond the current
    // length — including len == 0 and offset == size — clamp to empty.
    if (o.value()->type() == ObjectType::kSegment) {
      const std::vector<uint8_t>& bytes = static_cast<Segment*>(o.value())->bytes();
      if (offset < bytes.size()) {
        uint64_t n = std::min<uint64_t>(len, bytes.size() - offset);
        pages.assign(bytes.begin() + static_cast<ptrdiff_t>(offset),
                     bytes.begin() + static_cast<ptrdiff_t>(offset + n));
      }
    }
  }
  if (persist_ == nullptr || pages.empty()) {
    return Status::kOk;  // non-segment or empty range: nothing to flush in place
  }
  return persist_->SyncPages(target, offset, pages);
}

Status Kernel::DoSyncObject(ObjectId self, ContainerEntry ce) {
  ObjectId target;
  {
    TableLock lk(table_, TableLock::Mode::kShared, {self, ce.container, ce.object});
    Thread* t = GetThread(self);
    if (t == nullptr || t->halted()) {
      return Status::kHalted;
    }
    Result<Object*> o = ResolveEntry(*t, ce);
    if (!o.ok()) {
      return o.status();
    }
    if (!CanObserve(*t, *o.value())) {
      return Status::kLabelCheckFailed;
    }
    target = o.value()->id();
  }
  if (persist_ == nullptr) {
    return Status::kOk;
  }
  // WAL blobs stay self-contained (inline labels): a log record must be
  // replayable on a disk whose label-table delta never made it out.
  std::vector<uint8_t> bytes;
  uint64_t meta_len = 0;
  if (!SerializeObject(target, &bytes, /*label_refs=*/false, &meta_len)) {
    return Status::kNotFound;
  }
  return persist_->SyncOne(target, bytes, meta_len);
}

}  // namespace histar
