#include "src/unixlib/fs.h"

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "src/unixlib/mutex.h"

namespace histar {

void MountTable::Mount(ObjectId dir, const std::string& name, ObjectId target) {
  Unmount(dir, name);
  entries_.push_back(MountEntry{dir, name, target});
}

void MountTable::Unmount(ObjectId dir, const std::string& name) {
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].dir == dir && entries_[i].name == name) {
      entries_.erase(entries_.begin() + static_cast<ptrdiff_t>(i));
      return;
    }
  }
}

ObjectId MountTable::Resolve(ObjectId dir, const std::string& name) const {
  for (const MountEntry& e : entries_) {
    if (e.dir == dir && e.name == name) {
      return e.target;
    }
  }
  return kInvalidObject;
}

Result<ObjectId> FileSystem::MakeRoot(ObjectId self, ObjectId parent_container,
                                      const Label& label, uint64_t quota) {
  CreateSpec cspec;
  cspec.container = parent_container;
  cspec.label = label;
  cspec.descrip = "dir";
  cspec.quota = quota;
  Result<ObjectId> dir = kernel_->sys_container_create(self, cspec, 0);
  if (!dir.ok()) {
    return dir.status();
  }
  CreateSpec sspec;
  sspec.container = dir.value();
  sspec.label = label;
  sspec.descrip = "dirseg";
  // The name table gets a quarter of the directory's budget, capped: a
  // 16 MB default directory can hold ~4k names.
  sspec.quota = std::min<uint64_t>(quota / 4, 256 * 1024);
  Result<ObjectId> seg = kernel_->sys_segment_create(self, sspec, sizeof(DirHeader));
  if (!seg.ok()) {
    return seg.status();
  }
  // Stash the directory segment's id in the container metadata.
  uint64_t md[1] = {seg.value()};
  Status st = kernel_->sys_obj_set_metadata(self, SelfEntry(dir.value()), md, sizeof(md));
  if (st != Status::kOk) {
    return st;
  }
  return dir.value();
}

Result<ObjectId> FileSystem::MakeDir(ObjectId self, ObjectId parent, const std::string& name,
                                     const Label& label, uint64_t quota) {
  if (name.empty() || name.size() > kMaxFileName) {
    return Status::kInvalidArg;
  }
  Result<ObjectId> seg = DirSegment(self, parent);
  if (!seg.ok()) {
    return seg.status();
  }
  Result<ObjectId> dir = MakeRoot(self, parent, label, quota);
  if (!dir.ok()) {
    return dir.status();
  }
  return AddEntry(self, ContainerEntry{parent, seg.value()}, name, dir.value());
}

Result<ObjectId> FileSystem::Create(ObjectId self, ObjectId dir, const std::string& name,
                                    const Label& label, uint64_t quota) {
  if (name.empty() || name.size() > kMaxFileName) {
    return Status::kInvalidArg;
  }
  Result<ObjectId> seg = DirSegment(self, dir);
  if (!seg.ok()) {
    return seg.status();
  }
  CreateSpec fspec;
  fspec.container = dir;
  fspec.label = label;
  fspec.descrip = name.substr(0, kDescripLen);
  fspec.quota = quota;
  Result<ObjectId> file = kernel_->sys_segment_create(self, fspec, 0);
  if (!file.ok()) {
    return file.status();
  }
  return AddEntry(self, ContainerEntry{dir, seg.value()}, name, file.value());
}

Result<ObjectId> FileSystem::AddEntry(ObjectId self, ContainerEntry seg, const std::string& name,
                                      ObjectId obj) {
  Status st = Status::kLabelCheckFailed;
  SegmentMutex mu(kernel_, seg, 0);
  if (mu.Lock(self)) {
    uint64_t slot;
    DirSnapshot snap;
    Result<ObjectId> existing = FindEntry(self, seg, name, &slot, &snap);
    if (existing.ok()) {
      st = Status::kExists;
    } else if (existing.status() != Status::kNotFound) {
      st = existing.status();
    } else {
      st = WriteEntries(self, seg, snap, {{slot, NamedEntry(obj, name)}});
    }
    mu.Unlock(self);
  }
  if (st != Status::kOk) {
    kernel_->sys_container_unref(self, ContainerEntry{seg.container, obj});
    return st;
  }
  return obj;
}

Result<ObjectId> FileSystem::Relabel(ObjectId self, ObjectId dir, const std::string& name,
                                     const Label& new_label) {
  Result<ObjectId> seg = DirSegment(self, dir);
  if (!seg.ok()) {
    return seg.status();
  }
  ContainerEntry seg_ce{dir, seg.value()};
  SegmentMutex mu(kernel_, seg_ce, 0);
  if (!mu.Lock(self)) {
    return Status::kLabelCheckFailed;
  }
  uint64_t slot;
  DirSnapshot snap;
  Result<ObjectId> old = FindEntry(self, seg_ce, name, &slot, &snap);
  if (!old.ok()) {
    mu.Unlock(self);
    return old.status();
  }
  // The copy carries the old quota; the kernel's copy path enforces that the
  // caller can observe the source and create at the new label.
  Result<uint64_t> quota = kernel_->sys_obj_get_quota(self, ContainerEntry{dir, old.value()});
  if (!quota.ok()) {
    mu.Unlock(self);
    return quota.status();
  }
  CreateSpec spec;
  spec.container = dir;
  spec.label = new_label;
  spec.descrip = name.substr(0, kDescripLen);
  spec.quota = quota.value();
  Result<ObjectId> copy = kernel_->sys_segment_copy(self, spec, ContainerEntry{dir, old.value()});
  if (!copy.ok()) {
    mu.Unlock(self);
    return copy.status();
  }
  Status st = WriteEntries(self, seg_ce, snap, {{slot, NamedEntry(copy.value(), name)}});
  mu.Unlock(self);
  if (st != Status::kOk) {
    kernel_->sys_container_unref(self, ContainerEntry{dir, copy.value()});
    return st;
  }
  // Drop the old object: open descriptors referring to it are revoked the
  // HiStar way — the object itself ceases to exist.
  kernel_->sys_container_unref(self, ContainerEntry{dir, old.value()});
  return copy.value();
}

Result<ObjectId> FileSystem::DirSegment(ObjectId self, ObjectId dir) {
  Result<std::vector<uint8_t>> md = kernel_->sys_obj_get_metadata(self, SelfEntry(dir));
  if (!md.ok()) {
    return md.status();
  }
  uint64_t seg;
  memcpy(&seg, md.value().data(), 8);
  if (seg == 0) {
    return Status::kWrongType;  // not a directory
  }
  return seg;
}

FileSystem::DirEntry FileSystem::NamedEntry(ObjectId obj, const std::string& name) {
  DirEntry e{};
  e.objid = obj;
  e.in_use = 1;
  memcpy(e.name, name.data(), std::min(name.size(), sizeof(e.name) - 1));
  return e;
}

bool FileSystem::NameIs(const DirEntry& e, const std::string& name) {
  return e.in_use != 0 && strncmp(e.name, name.c_str(), sizeof(e.name)) == 0;
}

template <typename Fn>
Status FileSystem::ScanDirRecords(ObjectId self, ContainerEntry seg, DirSnapshot* snap, Fn&& fn) {
  Result<uint64_t> len = kernel_->sys_segment_get_len(self, seg);
  if (!len.ok()) {
    return len.status();
  }
  if (len.value() < sizeof(DirHeader)) {
    return Status::kWrongType;  // too short to be a directory segment
  }
  // Directory segments only grow, so the first len bytes are still there.
  std::vector<uint8_t> bytes(len.value());
  Status st = kernel_->sys_segment_read(self, seg, bytes.data(), 0, bytes.size());
  if (st != Status::kOk) {
    return st;
  }
  if (snap != nullptr) {
    DirHeader h;
    memcpy(&h, bytes.data(), sizeof(h));
    *snap = DirSnapshot{bytes.size(), h.generation};
  }
  uint64_t n = (bytes.size() - sizeof(DirHeader)) / sizeof(DirEntry);
  for (uint64_t slot = 0; slot < n; ++slot) {
    DirEntry e;
    memcpy(&e, bytes.data() + RecordOffset(slot), sizeof(e));
    if (!fn(slot, e)) {
      break;
    }
  }
  return Status::kOk;
}

Result<ObjectId> FileSystem::FindEntry(ObjectId self, ContainerEntry seg,
                                       const std::string& name, uint64_t* slot_out,
                                       DirSnapshot* snap) {
  uint64_t free_slot = kNoSlot;
  uint64_t found_slot = kNoSlot;
  uint64_t n = 0;
  ObjectId found = kInvalidObject;
  Status st = ScanDirRecords(self, seg, snap, [&](uint64_t slot, const DirEntry& e) {
    n = slot + 1;
    if (NameIs(e, name)) {
      found_slot = slot;
      found = e.objid;
      return false;  // stop: name matched
    }
    if (e.in_use == 0 && free_slot == kNoSlot) {
      free_slot = slot;
    }
    return true;
  });
  if (st != Status::kOk) {
    return st;
  }
  if (found != kInvalidObject) {
    if (slot_out != nullptr) {
      *slot_out = found_slot;
    }
    return found;
  }
  if (slot_out != nullptr) {
    *slot_out = free_slot != kNoSlot ? free_slot : n;  // else append
  }
  return Status::kNotFound;
}

Status FileSystem::WriteEntries(ObjectId self, ContainerEntry seg, const DirSnapshot& snap,
                                std::initializer_list<SlotWrite> writes) {
  // The generation write touches only its own 8 bytes, never the mutex word
  // at offset 0 that a waiter may be updating concurrently.
  static_assert(offsetof(DirHeader, generation) == 8);
  uint64_t generation = snap.generation + 1;
  uint64_t need = snap.len;
  for (const SlotWrite& w : writes) {
    need = std::max(need, RecordOffset(w.slot + 1));
  }
  std::vector<SyscallReq> reqs;
  if (need > snap.len) {
    reqs.push_back(SegmentResizeReq{seg, need});
  }
  for (const SlotWrite& w : writes) {
    reqs.push_back(SegmentWriteReq{seg, &w.entry, RecordOffset(w.slot), sizeof(DirEntry)});
  }
  reqs.push_back(SegmentWriteReq{seg, &generation, offsetof(DirHeader, generation),
                                 sizeof(generation)});
  std::vector<SyscallRes> res(reqs.size());
  Status st = kernel_->SubmitBatch(self, reqs, res);
  for (size_t i = 0; st == Status::kOk && i < res.size(); ++i) {
    const auto* w = std::get_if<SegmentWriteRes>(&res[i]);
    st = w != nullptr ? w->status : std::get<SegmentResizeRes>(res[i]).status;
  }
  return st;
}

Result<ObjectId> FileSystem::Lookup(ObjectId self, ObjectId dir, const std::string& name) {
  // Mount overlay first, like the real library.
  ObjectId mounted = mounts_.Resolve(dir, name);
  if (mounted != kInvalidObject) {
    return mounted;
  }
  Result<ObjectId> seg = DirSegment(self, dir);
  if (!seg.ok()) {
    return seg.status();
  }
  // No mutex: the scan's one read is a consistent snapshot.
  return FindEntry(self, ContainerEntry{dir, seg.value()}, name, nullptr, nullptr);
}

Status FileSystem::Unlink(ObjectId self, ObjectId dir, const std::string& name) {
  Result<ObjectId> seg = DirSegment(self, dir);
  if (!seg.ok()) {
    return seg.status();
  }
  ContainerEntry seg_ce{dir, seg.value()};
  SegmentMutex mu(kernel_, seg_ce, 0);
  if (!mu.Lock(self)) {
    return Status::kLabelCheckFailed;
  }
  uint64_t slot;
  DirSnapshot snap;
  Result<ObjectId> obj = FindEntry(self, seg_ce, name, &slot, &snap);
  if (!obj.ok()) {
    mu.Unlock(self);
    return obj.status();
  }
  Status st = WriteEntries(self, seg_ce, snap, {{slot, DirEntry{}}});
  mu.Unlock(self);
  if (st != Status::kOk) {
    return st;
  }
  return kernel_->sys_container_unref(self, ContainerEntry{dir, obj.value()});
}

Status FileSystem::Rename(ObjectId self, ObjectId dir, const std::string& from,
                          const std::string& to) {
  if (to.empty() || to.size() > kMaxFileName) {
    return Status::kInvalidArg;
  }
  Result<ObjectId> seg = DirSegment(self, dir);
  if (!seg.ok()) {
    return seg.status();
  }
  ContainerEntry seg_ce{dir, seg.value()};
  SegmentMutex mu(kernel_, seg_ce, 0);
  if (!mu.Lock(self)) {
    return Status::kLabelCheckFailed;
  }
  // One snapshot finds both names. Renaming a name onto itself matches only
  // `from`, so it rewrites the entry in place.
  uint64_t from_slot = kNoSlot;
  uint64_t to_slot = kNoSlot;
  ObjectId obj = kInvalidObject;
  ObjectId displaced = kInvalidObject;
  DirSnapshot snap;
  Status st = ScanDirRecords(self, seg_ce, &snap, [&](uint64_t slot, const DirEntry& e) {
    if (NameIs(e, from)) {
      from_slot = slot;
      obj = e.objid;
    } else if (NameIs(e, to)) {
      to_slot = slot;
      displaced = e.objid;
    }
    return true;
  });
  if (st != Status::kOk || from_slot == kNoSlot) {
    mu.Unlock(self);
    return st != Status::kOk ? st : Status::kNotFound;
  }
  if (to_slot == kNoSlot) {
    st = WriteEntries(self, seg_ce, snap, {{from_slot, NamedEntry(obj, to)}});
  } else {
    // `to` exists and is replaced (Unix semantics). Binding it and freeing
    // `from` is one atomic batch, so no reader sees both names bound to one
    // object; the displaced object is unreferenced after the switch.
    st = WriteEntries(self, seg_ce, snap,
                      {{to_slot, NamedEntry(obj, to)}, {from_slot, DirEntry{}}});
  }
  mu.Unlock(self);
  if (st == Status::kOk && to_slot != kNoSlot && displaced != obj) {
    kernel_->sys_container_unref(self, ContainerEntry{dir, displaced});
  }
  return st;
}

Result<std::vector<std::pair<std::string, ObjectId>>> FileSystem::ReadDir(ObjectId self,
                                                                          ObjectId dir) {
  Result<ObjectId> seg = DirSegment(self, dir);
  if (!seg.ok()) {
    return seg.status();
  }
  std::vector<std::pair<std::string, ObjectId>> out;
  Status st = ScanDirRecords(self, ContainerEntry{dir, seg.value()}, nullptr,
                             [&](uint64_t, const DirEntry& e) {
                               if (e.in_use != 0) {
                                 out.emplace_back(
                                     std::string(e.name, strnlen(e.name, sizeof(e.name))),
                                     e.objid);
                               }
                               return true;
                             });
  if (st != Status::kOk) {
    return st;
  }
  return out;
}

Result<ObjectId> FileSystem::Walk(ObjectId self, ObjectId root, const std::string& path) {
  ObjectId cur = root;
  size_t pos = 0;
  while (pos < path.size()) {
    while (pos < path.size() && path[pos] == '/') {
      ++pos;
    }
    size_t end = path.find('/', pos);
    if (end == std::string::npos) {
      end = path.size();
    }
    if (end == pos) {
      break;
    }
    std::string comp = path.substr(pos, end - pos);
    pos = end;
    if (comp == ".") {
      continue;
    }
    if (comp == "..") {
      Result<ObjectId> parent = kernel_->sys_container_get_parent(self, cur);
      if (!parent.ok()) {
        return parent.status();
      }
      cur = parent.value();
      continue;
    }
    Result<ObjectId> next = Lookup(self, cur, comp);
    if (!next.ok()) {
      return next.status();
    }
    cur = next.value();
  }
  return cur;
}

Result<std::pair<ObjectId, std::string>> FileSystem::WalkParent(ObjectId self, ObjectId root,
                                                                const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string dir_part = slash == std::string::npos ? "" : path.substr(0, slash);
  std::string leaf = slash == std::string::npos ? path : path.substr(slash + 1);
  if (leaf.empty()) {
    return Status::kInvalidArg;
  }
  Result<ObjectId> dir = Walk(self, root, dir_part);
  if (!dir.ok()) {
    return dir.status();
  }
  return std::make_pair(dir.value(), leaf);
}

Result<uint64_t> FileSystem::FileSize(ObjectId self, ObjectId dir, ObjectId file) {
  return kernel_->sys_segment_get_len(self, ContainerEntry{dir, file});
}

Result<uint64_t> FileSystem::ReadAt(ObjectId self, ObjectId dir, ObjectId file, void* buf,
                                    uint64_t off, uint64_t len) {
  ContainerEntry ce{dir, file};
  Result<uint64_t> size = kernel_->sys_segment_get_len(self, ce);
  if (!size.ok()) {
    return size.status();
  }
  if (off >= size.value()) {
    return uint64_t{0};
  }
  uint64_t n = std::min(len, size.value() - off);
  Status st = kernel_->sys_segment_read(self, ce, buf, off, n);
  if (st != Status::kOk) {
    return st;
  }
  return n;
}

Status FileSystem::WriteAt(ObjectId self, ObjectId dir, ObjectId file, const void* buf,
                           uint64_t off, uint64_t len) {
  ContainerEntry ce{dir, file};
  Result<uint64_t> size = kernel_->sys_segment_get_len(self, ce);
  if (!size.ok()) {
    return size.status();
  }
  if (off + len > size.value()) {
    Status st = kernel_->sys_segment_resize(self, ce, off + len);
    if (st == Status::kQuotaExceeded) {
      // Grow the file's quota out of the directory's pool, with headroom so
      // steady appends don't pay a quota_move per write.
      Result<uint64_t> q = kernel_->sys_obj_get_quota(self, ce);
      if (!q.ok()) {
        return q.status();
      }
      uint64_t need = off + len + kObjectOverheadBytes;
      uint64_t grow = std::max<uint64_t>(need - q.value(), need / 2);
      st = kernel_->sys_quota_move(self, dir, file, static_cast<int64_t>(grow));
      if (st != Status::kOk) {
        return st;
      }
      st = kernel_->sys_segment_resize(self, ce, off + len);
    }
    if (st != Status::kOk) {
      return st;
    }
  }
  return kernel_->sys_segment_write(self, ce, buf, off, len);
}

Status FileSystem::Truncate(ObjectId self, ObjectId dir, ObjectId file, uint64_t len) {
  return kernel_->sys_segment_resize(self, ContainerEntry{dir, file}, len);
}

Status FileSystem::SyncFile(ObjectId self, ObjectId dir, ObjectId file) {
  return kernel_->sys_sync_object(self, ContainerEntry{dir, file});
}

Status FileSystem::SyncEverything(ObjectId self) { return kernel_->sys_sync(self); }

Status FileSystem::TouchMtime(ObjectId self, ObjectId dir, ObjectId file, uint64_t mtime) {
  ContainerEntry ce{dir, file};
  Result<std::vector<uint8_t>> md = kernel_->sys_obj_get_metadata(self, ce);
  if (!md.ok()) {
    return md.status();
  }
  std::vector<uint8_t> bytes = md.take();
  memcpy(bytes.data(), &mtime, 8);
  return kernel_->sys_obj_set_metadata(self, ce, bytes.data(), bytes.size());
}

Result<uint64_t> FileSystem::GetMtime(ObjectId self, ObjectId dir, ObjectId file) {
  Result<std::vector<uint8_t>> md = kernel_->sys_obj_get_metadata(self, ContainerEntry{dir, file});
  if (!md.ok()) {
    return md.status();
  }
  uint64_t mtime;
  memcpy(&mtime, md.value().data(), 8);
  return mtime;
}

}  // namespace histar
