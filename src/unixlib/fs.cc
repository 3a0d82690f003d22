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
  Status st = FormatDirectory(self, dir.value(), label, quota);
  if (st != Status::kOk) {
    return st;
  }
  return dir.value();
}

Status FileSystem::FormatDirectory(ObjectId self, ObjectId dir, const Label& label,
                                   uint64_t quota) {
  CreateSpec sspec;
  sspec.container = dir;
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
  return kernel_->sys_obj_set_metadata(self, SelfEntry(dir), md, sizeof(md));
}

Result<ObjectId> FileSystem::MakeDir(ObjectId self, ObjectId parent, const std::string& name,
                                     const Label& label, uint64_t quota) {
  if (name.empty() || name.size() > kMaxFileName) {
    return Status::kInvalidArg;
  }
  CreateSpec cspec;
  cspec.container = parent;
  cspec.label = label;
  cspec.descrip = "dir";
  cspec.quota = quota;
  ObjectId dir = kInvalidObject;
  Result<ObjectId> seg = CreateInDirectory(self, parent, ContainerCreateReq{cspec, 0}, &dir);
  if (!seg.ok()) {
    return seg.status();
  }
  Status st = FormatDirectory(self, dir, label, quota);
  if (st != Status::kOk) {
    kernel_->sys_container_unref(self, ContainerEntry{parent, dir});
    return st;
  }
  return AddEntry(self, ContainerEntry{parent, seg.value()}, name, dir);
}

Result<ObjectId> FileSystem::Create(ObjectId self, ObjectId dir, const std::string& name,
                                    const Label& label, uint64_t quota) {
  if (name.empty() || name.size() > kMaxFileName) {
    return Status::kInvalidArg;
  }
  CreateSpec fspec;
  fspec.container = dir;
  fspec.label = label;
  fspec.descrip = name.substr(0, kDescripLen);
  fspec.quota = quota;
  ObjectId file = kInvalidObject;
  Result<ObjectId> seg = CreateInDirectory(self, dir, SegmentCreateReq{fspec, 0}, &file);
  if (!seg.ok()) {
    return seg.status();
  }
  return AddEntry(self, ContainerEntry{dir, seg.value()}, name, file);
}

Result<ObjectId> FileSystem::CreateInDirectory(ObjectId self, ObjectId dir, SyscallReq create,
                                               ObjectId* obj) {
  SyscallReq reqs[2] = {ObjGetMetadataReq{SelfEntry(dir)}, std::move(create)};
  SyscallRes res[2];
  kernel_->SubmitBatch(self, reqs, res);
  Result<ObjectId> seg = DirSegmentOf(res[0]);
  Status made = ResStatus(res[1]);
  if (made != Status::kOk) {
    return seg.ok() ? made : seg.status();  // not a directory outranks the create's error
  }
  const auto* seg_res = std::get_if<SegmentCreateRes>(&res[1]);
  *obj = seg_res != nullptr ? seg_res->id : std::get<ContainerCreateRes>(res[1]).id;
  if (!seg.ok()) {
    kernel_->sys_container_unref(self, ContainerEntry{dir, *obj});
  }
  return seg;
}

Result<ObjectId> FileSystem::AddEntry(ObjectId self, ContainerEntry seg, const std::string& name,
                                      ObjectId obj) {
  SegmentMutex mu(kernel_, seg, 0);
  DirImage img;
  Status st = LockAndSnapshot(self, mu, seg, &img);
  if (st == Status::kOk) {
    uint64_t slot;
    if (img.Find(name, &slot) != kNoSlot) {
      mu.Unlock(self);
      st = Status::kExists;
    } else {
      st = WriteAndUnlock(self, mu, seg, img, {{slot, NamedEntry(obj, name)}});
    }
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
  DirImage img;
  Status st = LockAndSnapshot(self, mu, seg_ce, &img);
  if (st != Status::kOk) {
    return st;
  }
  uint64_t slot = img.Find(name);
  if (slot == kNoSlot) {
    mu.Unlock(self);
    return Status::kNotFound;
  }
  ObjectId old = img.at(slot).objid;
  // The copy carries the old quota; the kernel's copy path enforces that the
  // caller can observe the source and create at the new label.
  Result<uint64_t> quota = kernel_->sys_obj_get_quota(self, ContainerEntry{dir, old});
  if (!quota.ok()) {
    mu.Unlock(self);
    return quota.status();
  }
  CreateSpec spec;
  spec.container = dir;
  spec.label = new_label;
  spec.descrip = name.substr(0, kDescripLen);
  spec.quota = quota.value();
  Result<ObjectId> copy = kernel_->sys_segment_copy(self, spec, ContainerEntry{dir, old});
  if (!copy.ok()) {
    mu.Unlock(self);
    return copy.status();
  }
  st = WriteAndUnlock(self, mu, seg_ce, img, {{slot, NamedEntry(copy.value(), name)}});
  if (st != Status::kOk) {
    kernel_->sys_container_unref(self, ContainerEntry{dir, copy.value()});
    return st;
  }
  // Drop the old object: open descriptors referring to it are revoked the
  // HiStar way — the object itself ceases to exist.
  kernel_->sys_container_unref(self, ContainerEntry{dir, old});
  return copy.value();
}

Result<ObjectId> FileSystem::DirSegmentOf(const SyscallRes& metadata) {
  const auto* md = std::get_if<ObjGetMetadataRes>(&metadata);
  if (md == nullptr || md->status != Status::kOk) {
    return md != nullptr ? md->status : Status::kInvalidArg;
  }
  uint64_t seg;
  memcpy(&seg, md->metadata.data(), 8);
  if (seg == 0) {
    return Status::kWrongType;  // not a directory
  }
  return seg;
}

Result<ObjectId> FileSystem::DirSegment(ObjectId self, ObjectId dir) {
  SyscallReq req = ObjGetMetadataReq{SelfEntry(dir)};
  SyscallRes res;
  kernel_->SubmitBatch(self, std::span<const SyscallReq>(&req, 1),
                       std::span<SyscallRes>(&res, 1));
  return DirSegmentOf(res);
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

uint64_t FileSystem::DirImage::generation() const {
  DirHeader h;
  memcpy(&h, bytes.data(), sizeof(h));
  return h.generation;
}

FileSystem::DirEntry FileSystem::DirImage::at(uint64_t slot) const {
  DirEntry e;
  memcpy(&e, bytes.data() + RecordOffset(slot), sizeof(e));
  return e;
}

uint64_t FileSystem::DirImage::Find(const std::string& name, uint64_t* free_slot) const {
  uint64_t n = slots();
  uint64_t first_free = n;  // else append
  for (uint64_t slot = 0; slot < n; ++slot) {
    DirEntry e = at(slot);
    if (NameIs(e, name)) {
      return slot;
    }
    if (e.in_use == 0 && first_free == n) {
      first_free = slot;
    }
  }
  if (free_slot != nullptr) {
    *free_slot = first_free;
  }
  return kNoSlot;
}

Status FileSystem::ReadImage(ObjectId self, ContainerEntry seg, uint64_t len, DirImage* img) {
  if (len < sizeof(DirHeader)) {
    return Status::kWrongType;  // too short to be a directory segment
  }
  // Directory segments only grow, so the first len bytes are still there.
  img->bytes.resize(len);
  return kernel_->sys_segment_read(self, seg, img->bytes.data(), 0, len);
}

Status FileSystem::Snapshot(ObjectId self, ContainerEntry seg, DirImage* img) {
  Result<uint64_t> len = kernel_->sys_segment_get_len(self, seg);
  if (!len.ok()) {
    return len.status();
  }
  return ReadImage(self, seg, len.value(), img);
}

Status FileSystem::LockAndSnapshot(ObjectId self, SegmentMutex& mu, ContainerEntry seg,
                                   DirImage* img) {
  SyscallReq reqs[2] = {mu.LockReq(), SegmentGetLenReq{seg}};
  SyscallRes res[2];
  kernel_->SubmitBatch(self, reqs, res);
  if (!mu.FinishLock(self, res[0])) {
    return Status::kLabelCheckFailed;
  }
  Status st;
  if (std::get<SegmentCasRes>(res[0]).observed == 0) {
    // Locked at once, so no update ran between the CAS and the get_len.
    const SegmentGetLenRes& len = std::get<SegmentGetLenRes>(res[1]);
    st = len.status == Status::kOk ? ReadImage(self, seg, len.len, img) : len.status;
  } else {
    st = Snapshot(self, seg, img);  // the length may have grown while we waited
  }
  if (st != Status::kOk) {
    mu.Unlock(self);
  }
  return st;
}

Status FileSystem::WriteAndUnlock(ObjectId self, SegmentMutex& mu, ContainerEntry seg,
                                  const DirImage& img, std::initializer_list<SlotWrite> writes) {
  // The generation write touches only its own 8 bytes, never the mutex word
  // at offset 0 that a waiter may be updating concurrently.
  static_assert(offsetof(DirHeader, generation) == 8);
  uint64_t generation = img.generation() + 1;
  uint64_t need = img.bytes.size();
  for (const SlotWrite& w : writes) {
    need = std::max(need, RecordOffset(w.slot + 1));
  }
  std::vector<SyscallReq> reqs;
  if (need > img.bytes.size()) {
    reqs.push_back(SegmentResizeReq{seg, need});
  }
  for (const SlotWrite& w : writes) {
    reqs.push_back(SegmentWriteReq{seg, &w.entry, RecordOffset(w.slot), sizeof(DirEntry)});
  }
  reqs.push_back(SegmentWriteReq{seg, &generation, offsetof(DirHeader, generation),
                                 sizeof(generation)});
  reqs.push_back(mu.UnlockReq());
  std::vector<SyscallRes> res(reqs.size());
  kernel_->SubmitBatch(self, reqs, res);
  mu.FinishUnlock(self, res.back());
  Status st = Status::kOk;
  for (size_t i = 0; st == Status::kOk && i + 1 < res.size(); ++i) {
    st = ResStatus(res[i]);
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
  DirImage img;
  Status st = Snapshot(self, ContainerEntry{dir, seg.value()}, &img);
  if (st != Status::kOk) {
    return st;
  }
  uint64_t slot = img.Find(name);
  if (slot == kNoSlot) {
    return Status::kNotFound;
  }
  return img.at(slot).objid;
}

Status FileSystem::Unlink(ObjectId self, ObjectId dir, const std::string& name) {
  Result<ObjectId> seg = DirSegment(self, dir);
  if (!seg.ok()) {
    return seg.status();
  }
  ContainerEntry seg_ce{dir, seg.value()};
  SegmentMutex mu(kernel_, seg_ce, 0);
  DirImage img;
  Status st = LockAndSnapshot(self, mu, seg_ce, &img);
  if (st != Status::kOk) {
    return st;
  }
  uint64_t slot = img.Find(name);
  if (slot == kNoSlot) {
    mu.Unlock(self);
    return Status::kNotFound;
  }
  st = WriteAndUnlock(self, mu, seg_ce, img, {{slot, DirEntry{}}});
  if (st != Status::kOk) {
    return st;
  }
  return kernel_->sys_container_unref(self, ContainerEntry{dir, img.at(slot).objid});
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
  DirImage img;
  Status st = LockAndSnapshot(self, mu, seg_ce, &img);
  if (st != Status::kOk) {
    return st;
  }
  // One snapshot finds both names. Renaming a name onto itself matches only
  // `from`, so it rewrites the entry in place.
  uint64_t from_slot = img.Find(from);
  if (from_slot == kNoSlot) {
    mu.Unlock(self);
    return Status::kNotFound;
  }
  ObjectId obj = img.at(from_slot).objid;
  uint64_t to_slot = from == to ? kNoSlot : img.Find(to);
  ObjectId displaced = to_slot == kNoSlot ? kInvalidObject : img.at(to_slot).objid;
  if (to_slot == kNoSlot) {
    st = WriteAndUnlock(self, mu, seg_ce, img, {{from_slot, NamedEntry(obj, to)}});
  } else {
    // `to` exists and is replaced (Unix semantics). Binding it and freeing
    // `from` is one atomic batch, so no reader sees both names bound to one
    // object; the displaced object is unreferenced after the switch.
    st = WriteAndUnlock(self, mu, seg_ce, img,
                        {{to_slot, NamedEntry(obj, to)}, {from_slot, DirEntry{}}});
  }
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
  DirImage img;
  Status st = Snapshot(self, ContainerEntry{dir, seg.value()}, &img);
  if (st != Status::kOk) {
    return st;
  }
  std::vector<std::pair<std::string, ObjectId>> out;
  for (uint64_t slot = 0; slot < img.slots(); ++slot) {
    DirEntry e = img.at(slot);
    if (e.in_use != 0) {
      out.emplace_back(std::string(e.name, strnlen(e.name, sizeof(e.name))), e.objid);
    }
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
  if (off + len <= size.value()) {
    return kernel_->sys_segment_write(self, ce, buf, off, len);
  }
  Status st = GrowAndWrite(self, ce, buf, off, len);
  if (st != Status::kQuotaExceeded) {
    return st;
  }
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
  return GrowAndWrite(self, ce, buf, off, len);
}

Status FileSystem::GrowAndWrite(ObjectId self, ContainerEntry ce, const void* buf, uint64_t off,
                                uint64_t len) {
  SyscallReq reqs[2] = {SegmentResizeReq{ce, off + len}, SegmentWriteReq{ce, buf, off, len}};
  SyscallRes res[2];
  kernel_->SubmitBatch(self, reqs, res);
  Status st = ResStatus(res[0]);
  return st != Status::kOk ? st : ResStatus(res[1]);
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
