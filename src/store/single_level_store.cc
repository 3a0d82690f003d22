#include "src/store/single_level_store.h"

#include <algorithm>
#include <cstring>
#include <new>

#include "src/core/trace.h"
#include "src/store/store_alloc.h"
#include "src/store/wire_format.h"

namespace histar {

using wire::PutU32;
using wire::PutU64;
using wire::PutU8;

namespace {

// Flight-recorder scope for the public commit/restore entry points: one
// kStoreCommit event carrying the op's duration and the disk-counter
// deltas (bytes written, device write ops) it caused, plus the per-op
// latency histogram (src/core/trace.h). Constructed after mu_ is taken so
// the deltas are exact; the disk's own counters lock its leaf mutex.
class StoreOpTrace {
 public:
  StoreOpTrace(trace::StoreOp op, DiskModel* disk)
#if HISTAR_TRACE
      : op_(op),
        disk_(disk),
        t0_(trace::NowNs()),
        w0_(disk->write_ops()),
        b0_(disk->bytes_written())
#endif
  {
#if !HISTAR_TRACE
    (void)op;
    (void)disk;
#endif
  }

  void Finish(Status st) {
#if HISTAR_TRACE
    trace::RecordStoreOp(op_, static_cast<int8_t>(st), trace::NowNs() - t0_,
                         disk_->bytes_written() - b0_,
                         disk_->write_ops() - w0_);
#else
    (void)st;
#endif
  }

 private:
#if HISTAR_TRACE
  trace::StoreOp op_;
  DiskModel* disk_;
  uint64_t t0_;
  uint64_t w0_;
  uint64_t b0_;
#endif
};

}  // namespace

SingleLevelStore::SingleLevelStore(DiskModel* disk, const StoreTuning& tuning)
    : disk_(disk),
      tuning_(tuning),
      alloc_(2 * 4096 + tuning.log_region_bytes,
             disk->geometry().capacity_bytes - (2 * 4096 + tuning.log_region_bytes)),
      engine_(disk, &alloc_, &pending_frees_, tuning.betree) {
  // max_increments is NOT clamped to the superblock's chain capacity: when
  // the chain fills before an increment budget this large is spent, the
  // oldest increments fold into one (FoldChain) instead of forcing a base.
}

uint64_t SingleLevelStore::Checksum(const void* data, size_t len) {
  return StoreChecksum(data, len);
}

Status SingleLevelStore::Format() {
  MutexLock lock(&mu_);
  try {
    return FormatLocked();
  } catch (const std::bad_alloc&) {
    return Status::kNoMem;
  }
}

Status SingleLevelStore::FormatLocked() {
  engine_.Reset();
  alloc_.Reset();
  root_ = kInvalidObject;
  generation_ = 0;
  which_sb_ = false;
  label_table_.clear();
  chain_.clear();
  epoch_ = 0;
  need_base_ = true;
  pending_frees_.clear();
  log_head_ = 0;
  log_seq_ = 0;
  log_applied_seq_ = 0;
  log_pending_ = 0;
  log_tail_.clear();
  return WriteSuperblock(/*blank_slot_b=*/true);
}

Status SingleLevelStore::WriteSuperblock(bool blank_slot_b) {
  Superblock sb;
  sb.magic = kMagic;
  sb.generation = ++generation_;
  sb.root = root_;
  sb.log_applied_seq = log_applied_seq_;
  sb.epoch = epoch_;
  sb.chain_len = chain_.size();
  for (size_t i = 0; i < chain_.size() && i < kMaxChain; ++i) {
    sb.chain[2 * i] = chain_[i].offset;
    sb.chain[2 * i + 1] = chain_[i].length;
  }
  sb.checksum = 0;
  sb.checksum = Checksum(&sb, sizeof(sb));
  // Alternate slots only across SUCCESSFUL flips. A failed flip must retry
  // the same slot: advancing on failure would aim the next attempt at the
  // other slot — the one holding the newest durable superblock — and a
  // second fault (e.g. a torn write) could then destroy it, time-traveling
  // recovery past every commit to whatever the stale slot still holds.
  uint64_t slot = which_sb_ ? 4096 : 0;
  Status st;
  if (blank_slot_b) {
    // Format: slot A and a zeroed slot-B header in ONE contiguous write, so
    // the old store's superblock in B (a higher generation) cannot outrank
    // the fresh one and bring the old store back on Recover.
    std::vector<uint8_t> image(4096 + sizeof(sb), 0);
    memcpy(image.data(), &sb, sizeof(sb));
    st = disk_->Write(0, image.data(), image.size());
  } else {
    st = disk_->Write(slot, &sb, sizeof(sb));
  }
  if (st == Status::kOk) {
    st = disk_->Flush();
  }
  if (st != Status::kOk) {
    return st;
  }
  which_sb_ = !which_sb_;
  return Status::kOk;
}

Status SingleLevelStore::ReadSuperblocks(std::vector<SlotCopy>* out) {
  out->clear();
  for (uint64_t slot : {uint64_t{0}, uint64_t{4096}}) {
    // A slot that fails to read or to validate is read once more, to rule
    // out a transient read fault: skipping it would boot the other slot and
    // lose the newer commit on an intact disk. A blank slot (Format zeroes
    // slot B) is not: every boot before the second commit would pay for it.
    SlotCopy c;
    c.slot = slot;
    bool valid = false;
    for (int attempt = 0; attempt < 2 && !valid; ++attempt) {
      if (disk_->Read(slot, &c.sb, sizeof(c.sb)) != Status::kOk) {
        continue;
      }
      uint64_t want = c.sb.checksum;
      c.sb.checksum = 0;
      valid = c.sb.magic == kMagic && Checksum(&c.sb, sizeof(c.sb)) == want;
      c.sb.checksum = want;
      if (!valid && std::all_of(reinterpret_cast<const uint8_t*>(&c.sb),
                                reinterpret_cast<const uint8_t*>(&c.sb + 1),
                                [](uint8_t b) { return b == 0; })) {
        break;
      }
    }
    if (valid) {
      out->push_back(c);
    }
  }
  if (out->empty()) {
    return Status::kNotFound;
  }
  if (out->size() == 2 && (*out)[1].sb.generation > (*out)[0].sb.generation) {
    std::swap((*out)[0], (*out)[1]);
  }
  return Status::kOk;
}

Status SingleLevelStore::FoldChain() {
  // The superblock can name kMaxChain sections and the chain is full, but
  // nothing demands a base: merge the oldest half of the increments into ONE
  // increment whose replay is equivalent to replaying them in order. The
  // engine merges the bodies; increments carry no store-level label records
  // (their label deltas ride inside the body as messages).
  size_t fold = (chain_.size() - 1) / 2;
  if (fold < 2) {
    return Status::kOk;  // nothing to gain
  }
  std::vector<std::vector<uint8_t>> bodies;
  bodies.reserve(fold);
  uint64_t merged_epoch = 0;
  for (size_t i = 1; i <= fold; ++i) {
    const Extent& ext = chain_[i];
    if (ext.length < 8) {
      return Status::kCorrupt;
    }
    std::vector<uint8_t> image(ext.length);
    Status st = disk_->Read(ext.offset, image.data(), image.size());
    if (st != Status::kOk) {
      return st;
    }
    uint64_t want;
    memcpy(&want, image.data() + image.size() - 8, 8);
    if (Checksum(image.data(), image.size() - 8) != want) {
      return Status::kCorrupt;
    }
    wire::Reader r{image.data(), image.size() - 8};
    uint64_t magic = r.U64();
    uint64_t epoch = r.U64();
    uint8_t kind = r.U8();
    uint8_t eng = r.U8();
    uint32_t n_labels = r.U32();
    if (r.fail || magic != kSectionMagic || kind != 1 || eng != kSectionEngine ||
        n_labels != 0) {
      return Status::kCorrupt;
    }
    bodies.emplace_back(image.begin() + static_cast<ptrdiff_t>(r.pos),
                        image.end() - 8);
    merged_epoch = epoch;
  }

  std::vector<uint8_t> image;
  PutU64(&image, kSectionMagic);
  PutU64(&image, merged_epoch);  // replays in the folded range's place
  PutU8(&image, 1);
  PutU8(&image, kSectionEngine);
  PutU32(&image, 0);  // no store-level label records in an increment
  Status st = engine_.MergeSectionBodies(bodies, &image);
  if (st != Status::kOk) {
    return st;
  }
  PutU64(&image, Checksum(image.data(), image.size()));
  Result<uint64_t> off = alloc_.Allocate(image.size());
  if (!off.ok()) {
    return off.status();
  }
  st = disk_->Write(off.value(), image.data(), image.size());
  if (st != Status::kOk) {
    StoreAllocNoFail cleanup;
    alloc_.Free(off.value(), image.size());
    return st;
  }
  // No Flush here: the merged section only becomes reachable via the
  // superblock the CALLING commit flips, and that commit's one barrier
  // covers it. The folded sections stay on disk untouched — the
  // current superblock still names them — so their extents are reusable
  // only after the flip (ordinary shadow-paging discipline).
  StoreAllocNoFail bookkeeping;
  std::vector<Extent> next;
  next.reserve(chain_.size() - fold + 1);
  next.push_back(chain_[0]);
  next.push_back(Extent{off.value(), image.size()});
  for (size_t i = 1; i <= fold; ++i) {
    pending_frees_.push_back(chain_[i]);
  }
  for (size_t i = fold + 1; i < chain_.size(); ++i) {
    next.push_back(chain_[i]);
  }
  chain_ = std::move(next);
  ++chain_folds_;
  return Status::kOk;
}

Status SingleLevelStore::CommitSection(const std::vector<LabelTableRecord>* label_delta) {
  // The single commit point for every durable state advance. A base section
  // re-emits the complete label table and the engine's full-state body; an
  // increment carries only this epoch's label delta and the engine's delta
  // body. Recovery replays the chain in order, so the chain length bounds
  // replay work — hence the forced base every max_increments epochs and the
  // fold when the superblock's chain slots run out first.
  StoreAlloc::Check();
  bool base = need_base_ || chain_.empty() ||
              chain_.size() - 1 >= tuning_.max_increments || engine_.WantsBase();
  if (!base && chain_.size() >= kMaxChain) {
    Status st = FoldChain();
    if (st != Status::kOk) {
      return st;
    }
    // Folding can fail to shrink only on a pathologically short chain; a
    // base then keeps the superblock bounded, as before this PR.
    base = chain_.size() >= kMaxChain;
  }
  std::vector<uint8_t> image;
  PutU64(&image, kSectionMagic);
  PutU64(&image, epoch_ + 1);
  PutU8(&image, base ? 0 : 1);
  PutU8(&image, kSectionEngine);
  if (base) {
    PutU32(&image, static_cast<uint32_t>(label_table_.size()));
    for (const auto& [id, bytes] : label_table_) {  // ascending id: re-intern order
      PutU32(&image, id);
      PutU32(&image, static_cast<uint32_t>(bytes.size()));
      image.insert(image.end(), bytes.begin(), bytes.end());
    }
  } else {
    // An increment's label delta rides inside the engine's body as messages.
    PutU32(&image, 0);
  }
  Status st = engine_.EmitSectionBody(base, label_delta, &image);
  if (st != Status::kOk) {
    return st;
  }

  // One write for the section and its checksum, then the superblock, then
  // one barrier for both and the engine's node writes. The flip may land
  // without them on a device that reorders; recovery then boots the
  // previous commit (RecoverLocked).
  PutU64(&image, Checksum(image.data(), image.size()));
  Result<uint64_t> off = alloc_.Allocate(image.size());
  if (!off.ok()) {
    return off.status();
  }
  st = disk_->Write(off.value(), image.data(), image.size());
  if (st != Status::kOk) {
    StoreAllocNoFail cleanup;
    alloc_.Free(off.value(), image.size());
    return st;
  }
  ++epoch_;
  if (base) {
    // The new base subsumes the whole old chain; its sections become
    // reusable once the flip commits.
    for (const Extent& old : chain_) {
      pending_frees_.push_back(old);
    }
    chain_.clear();
  }
  chain_.push_back(Extent{off.value(), image.size()});
  need_base_ = false;
  engine_.OnSectionWritten(base);
  last_commit_base_ = base;
  last_section_bytes_ = image.size();
  st = WriteSuperblock();
  if (st != Status::kOk) {
    return st;
  }
  // Only after the flip's barrier is it safe to reuse superseded extents.
  // The commit is durable at this point: releasing the superseded extents
  // must not fault halfway (a partial release with pending_frees_ cleared
  // would leak; a partial release with it kept would double-free later).
  StoreAllocNoFail cleanup;
  for (const Extent& e : pending_frees_) {
    alloc_.Free(e.offset, e.length);
  }
  pending_frees_.clear();
  return Status::kOk;
}

Status SingleLevelStore::Checkpoint(const CheckpointBatch& batch) {
  MutexLock lock(&mu_);
  StoreOpTrace t(trace::StoreOp::kCheckpoint, disk_);
  Status st;
  try {
    st = CheckpointLocked(batch);
  } catch (const std::bad_alloc&) {
    st = Status::kNoMem;
  }
  t.Finish(st);
  return st;
}

Status SingleLevelStore::CheckpointLocked(const CheckpointBatch& batch) {
  StoreAlloc::Check();
  // Extend the store's label table with this sync's delta. The merge is
  // idempotent: a delta resent after a failed commit just overwrites equal
  // records.
  for (const LabelTableRecord& rec : batch.label_delta) {
    label_table_[rec.id] = rec.bytes;
  }
  // Drop objects that no longer exist.
  std::unordered_map<uint64_t, bool> live_set;
  live_set.reserve(batch.live.size());
  for (ObjectId id : batch.live) {
    live_set[id] = true;
  }
  std::vector<ObjectId> held;
  engine_.AppendLiveIds(&held);
  for (ObjectId id : held) {
    if (live_set.find(id) == live_set.end()) {
      engine_.DeleteObject(id);
    }
  }
  // Stage every dirty object image (the engine writes nothing yet: the
  // batch reaches disk inside this commit's section).
  std::unordered_map<uint64_t, bool> dirty_ids;
  dirty_ids.reserve(batch.dirty.size());
  for (const ObjectImage& img : batch.dirty) {
    Status st = engine_.WriteObject(img.id, img.bytes, img.meta_len);
    if (st != Status::kOk) {
      return st;
    }
    dirty_ids[img.id] = true;
  }
  // Fold unapplied WAL images into the heap before declaring the log
  // subsumed. After a recovery, an object can exist ONLY as a WAL record
  // (fsynced, never checkpointed, restored with a clean dirty mark):
  // without this fold, advancing log_applied_seq_ would orphan it — in
  // neither the tree nor the replayable log. Ids this batch rewrote are
  // skipped (their dirty image is newer), as are ids that just died.
  for (const auto& [id, img] : log_tail_) {
    if (dirty_ids.count(id) != 0 || live_set.find(id) == live_set.end()) {
      continue;
    }
    Status st = engine_.WriteObject(id, img.bytes, img.meta_len);
    if (st != Status::kOk) {
      return st;
    }
  }
  root_ = batch.root;
  last_commit_objects_ = batch.dirty.size();
  // The checkpoint subsumes everything in the log: the committed
  // superblock records the current sequence, but the log region itself is
  // only reusable once the commit succeeds — a failed commit must leave
  // acknowledged records in place for replay (and for the next attempt's
  // fold), so the head/tail reset waits for CommitSection.
  log_applied_seq_ = log_seq_;
  Status st = CommitSection(&batch.label_delta);
  if (st == Status::kOk) {
    log_head_ = 0;
    log_pending_ = 0;
    log_tail_.clear();
  }
  return st;
}

Status SingleLevelStore::SyncOne(ObjectId id, const std::vector<uint8_t>& bytes,
                                 uint64_t meta_len) {
  MutexLock lock(&mu_);
  StoreOpTrace t(trace::StoreOp::kSyncOne, disk_);
  Status st;
  try {
    st = SyncOneLocked(id, bytes, meta_len);
  } catch (const std::bad_alloc&) {
    st = Status::kNoMem;
  }
  t.Finish(st);
  return st;
}

Status SingleLevelStore::SyncOneLocked(ObjectId id, const std::vector<uint8_t>& bytes,
                                       uint64_t meta_len) {
  StoreAlloc::Check();
  if (bytes.size() > tuning_.log_region_bytes / 4) {
    // Too big for the log: hand it to the engine and commit the new state
    // as an increment (or a base if one is due).
    Status st = engine_.WriteObject(id, bytes, meta_len);
    if (st != Status::kOk) {
      return st;
    }
    last_commit_objects_ = 1;
    return CommitSection(nullptr);
  }
  // Record: [magic][seq][id][len][meta_len][bytes][checksum-of-all-prior].
  uint64_t header[kLogHeaderWords] = {kLogMagic, ++log_seq_, id, bytes.size(), meta_len};
  uint64_t record_len = sizeof(header) + bytes.size() + 8;
  if (log_head_ + record_len > tuning_.log_region_bytes) {
    // Log full: fold it into the heap and commit.
    Status st = ApplyLog();
    if (st != Status::kOk) {
      return st;
    }
  }
  // One device write per record, then its barrier.
  std::vector<uint8_t> record;
  record.reserve(record_len);
  for (uint64_t word : header) {
    PutU64(&record, word);
  }
  record.insert(record.end(), bytes.begin(), bytes.end());
  PutU64(&record, Checksum(header, sizeof(header)) ^ Checksum(bytes.data(), bytes.size()));
  Status st = disk_->Write(log_start() + log_head_, record.data(), record.size());
  if (st == Status::kOk) {
    st = disk_->Flush();
  }
  if (st != Status::kOk) {
    return st;
  }
  log_head_ += record_len;
  ++log_pending_;
  ++log_records_total_;
  log_tail_[id] = LogImage{bytes, meta_len};
  if (log_pending_ >= tuning_.log_apply_threshold) {
    return ApplyLog();
  }
  return Status::kOk;
}

Status SingleLevelStore::ApplyLog() {
  StoreAlloc::Check();
  ++log_applies_;
  for (const auto& [id, img] : log_tail_) {
    Status st = engine_.WriteObject(id, img.bytes, img.meta_len);
    if (st != Status::kOk) {
      return st;
    }
  }
  last_commit_objects_ = log_tail_.size();
  log_applied_seq_ = log_seq_;
  // Folded WAL images are self-contained; they commit as an increment with
  // no label records. As in Checkpoint, the log region is only recycled
  // once the commit is durable: a failed commit keeps the records (and the
  // tail, for the retry's re-fold) intact for replay.
  Status st = CommitSection(nullptr);
  if (st == Status::kOk) {
    log_head_ = 0;
    log_pending_ = 0;
    log_tail_.clear();
  }
  return st;
}

Status SingleLevelStore::SyncPages(ObjectId id, uint64_t offset,
                                   const std::vector<uint8_t>& pages) {
  MutexLock lock(&mu_);
  StoreOpTrace t(trace::StoreOp::kSyncPages, disk_);
  Status st;
  try {
    st = SyncPagesLocked(id, offset, pages);
  } catch (const std::bad_alloc&) {
    st = Status::kNoMem;
  }
  t.Finish(st);
  return st;
}

Status SingleLevelStore::SyncPagesLocked(ObjectId id, uint64_t offset,
                                         const std::vector<uint8_t>& pages) {
  // The engine either writes the pages in place past the checksummed
  // metadata prefix and barriers (the object is leaf-resident) or stages a
  // patched image and asks for a commit (the pages then become durable with
  // the section write + superblock flip — same sync contract, different
  // mechanism).
  bool needs_commit = false;
  Status st = engine_.FlushPages(id, offset, pages, &needs_commit);
  if (st != Status::kOk) {
    return st;
  }
  if (needs_commit) {
    last_commit_objects_ = 1;
    return CommitSection(nullptr);
  }
  return Status::kOk;
}

Result<uint64_t> SingleLevelStore::TouchObject(ObjectId id) {
  MutexLock lock(&mu_);
  try {
    return TouchObjectLocked(id);
  } catch (const std::bad_alloc&) {
    return Status::kNoMem;
  }
}

Result<uint64_t> SingleLevelStore::TouchObjectLocked(ObjectId id) {
  return engine_.TouchObject(id);
}

Status SingleLevelStore::Recover(Kernel* kernel) {
  MutexLock lock(&mu_);
  StoreOpTrace t(trace::StoreOp::kRestore, disk_);
  Status st;
  try {
    st = RecoverLocked(kernel);
  } catch (const std::bad_alloc&) {
    st = Status::kNoMem;
  }
  t.Finish(st);
  return st;
}

Status SingleLevelStore::ReplayChain(const Superblock& sb, bool* mismatch) {
  // Replay the checkpoint chain in order: the base re-creates the label
  // table and the engine's full state, each increment folds its delta on
  // top. Every section must carry the Bε-tree engine byte: a section
  // written by the removed blob engine (byte 0) has a body this engine
  // cannot parse.
  *mismatch = false;
  label_table_.clear();
  engine_.Reset();
  chain_.clear();
  pending_frees_.clear();
  if (sb.chain_len > kMaxChain) {
    return Status::kCorrupt;
  }
  uint64_t prev_epoch = 0;
  for (size_t i = 0; i < sb.chain_len; ++i) {
    Extent ext{sb.chain[2 * i], sb.chain[2 * i + 1]};
    if (ext.length < 8) {
      return Status::kCorrupt;
    }
    std::vector<uint8_t> image(ext.length);
    Status st = disk_->Read(ext.offset, image.data(), image.size());
    if (st != Status::kOk) {
      return st;
    }
    uint64_t want;
    memcpy(&want, image.data() + image.size() - 8, 8);
    wire::Reader r{image.data(), image.size() - 8};
    uint64_t magic = r.U64();
    uint64_t epoch = r.U64();
    uint8_t kind = r.U8();
    uint8_t eng = r.U8();
    bool sealed = Checksum(image.data(), image.size() - 8) == want;
    if (sealed && (r.fail || magic != kSectionMagic)) {
      return Status::kCorrupt;
    }
    // A torn or missing section, or a stale one whose epoch is out of
    // place, is a write of this superblock's commit that never landed.
    if (!sealed || epoch <= prev_epoch || (i + 1 == sb.chain_len && epoch != sb.epoch)) {
      *mismatch = true;
      return Status::kCorrupt;
    }
    if (kind != (i == 0 ? 0 : 1) || eng != kSectionEngine) {
      return Status::kCorrupt;
    }
    uint32_t n_labels = r.U32();
    for (uint32_t j = 0; j < n_labels && !r.fail; ++j) {
      uint32_t id = r.U32();
      uint32_t len = r.U32();
      std::vector<uint8_t> bytes;
      if (!r.Bytes(&bytes, len)) {
        break;
      }
      label_table_[id] = std::move(bytes);
    }
    if (r.fail) {
      return Status::kCorrupt;
    }
    st = engine_.LoadSectionBody(
        i == 0, &r,
        [this](uint32_t id, std::vector<uint8_t> bytes) { label_table_[id] = std::move(bytes); },
        mismatch);
    if (st != Status::kOk) {
      return st;
    }
    prev_epoch = epoch;
    chain_.push_back(ext);
  }
  return Status::kOk;
}

Status SingleLevelStore::RecoverLocked(Kernel* kernel) {
  StoreAlloc::Check();
  std::vector<SlotCopy> copies;
  Status st = ReadSuperblocks(&copies);
  if (st != Status::kOk) {
    return st;
  }
  // The newest superblock's chain is validated whole before anything
  // reaches the kernel. A mismatch is read once more, to rule out a
  // transient read fault; if it persists, the flip landed without a write
  // it shared a barrier with, and the other slot holds the previous
  // commit, whose extents no commit reuses until this one's barrier.
  const SlotCopy* boot = nullptr;
  for (const SlotCopy& c : copies) {
    bool mismatch = false;
    st = ReplayChain(c.sb, &mismatch);
    if (st != Status::kOk && mismatch) {
      st = ReplayChain(c.sb, &mismatch);
    }
    if (st == Status::kOk) {
      boot = &c;
      break;
    }
    if (!mismatch) {
      return st;
    }
  }
  if (boot == nullptr) {
    return st;
  }
  generation_ = boot->sb.generation;
  root_ = boot->sb.root;
  log_applied_seq_ = boot->sb.log_applied_seq;
  epoch_ = boot->sb.epoch;
  // The next flip must target the slot NOT holding the superblock this boot
  // trusts, so a faulted first commit can never destroy it.
  which_sb_ = boot->slot == 0;

  // Rebuild the allocator: carve out the tree's node extents and the
  // chain's section extents from a freshly reset free pool.
  alloc_.Reset();
  std::vector<Extent> used;
  engine_.CollectExtents(&used);
  for (const Extent& e : chain_) {
    used.push_back(e);
  }
  if (!alloc_.ReserveExtents(used)) {
    return Status::kCorrupt;
  }

  // Hand the label table to the kernel FIRST: one re-intern pass builds the
  // old-id → new-id remap that every label-ref blob below resolves through.
  // If the kernel could not reproduce the ids (changed shard config), the
  // on-disk id space must not be extended: force a full base — and the
  // kernel re-dirties the world so that base rewrites every blob.
  std::vector<LabelTableRecord> records;
  records.reserve(label_table_.size());
  for (const auto& [id, bytes] : label_table_) {  // std::map: ascending ids
    LabelTableRecord rec;
    rec.id = id;
    rec.bytes = bytes;
    records.push_back(std::move(rec));
  }
  bool ids_stable = true;
  st = kernel->RestoreLabelTable(records, &ids_stable);
  if (st != Status::kOk) {
    return st;
  }
  need_base_ = chain_.empty() || !ids_stable;

  // Load every object into the kernel (the engine verifies each image's
  // metadata-prefix checksum and strips it).
  st = engine_.LoadAllObjects(
      [kernel](const std::vector<uint8_t>& blob) { return kernel->RestoreObject(blob); });
  if (st != Status::kOk) {
    return st;
  }

  // Replay the log tail: records with seq > applied and a valid checksum.
  uint64_t pos = 0;
  log_head_ = 0;
  log_seq_ = log_applied_seq_;
  log_pending_ = 0;
  log_tail_.clear();
  for (;;) {
    uint64_t header[kLogHeaderWords];
    if (pos + sizeof(header) + 8 > tuning_.log_region_bytes) {
      break;
    }
    if (disk_->Read(log_start() + pos, header, sizeof(header)) != Status::kOk) {
      break;
    }
    if (header[0] != kLogMagic || header[1] <= log_applied_seq_) {
      break;
    }
    uint64_t len = header[3];
    if (pos + sizeof(header) + len + 8 > tuning_.log_region_bytes) {
      break;
    }
    std::vector<uint8_t> bytes(len);
    if (disk_->Read(log_start() + pos + sizeof(header), bytes.data(), len) != Status::kOk) {
      break;
    }
    uint64_t want;
    if (disk_->Read(log_start() + pos + sizeof(header) + len, &want, 8) != Status::kOk) {
      break;
    }
    if ((Checksum(header, sizeof(header)) ^ Checksum(bytes.data(), bytes.size())) != want) {
      break;  // torn record: end of valid log
    }
    st = kernel->RestoreObject(bytes);
    if (st != Status::kOk) {
      return st;
    }
    log_seq_ = header[1];
    log_tail_[header[2]] = LogImage{bytes, header[4]};
    pos += sizeof(header) + len + 8;
    log_head_ = pos;
    ++log_pending_;
  }

  kernel->FinishRestore(root_);
  kernel->AttachPersistTarget(this);
  return Status::kOk;
}

}  // namespace histar
