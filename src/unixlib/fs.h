// The user-level file system (paper §5.1).
//
// Entirely untrusted library code: files are segments, directories are
// containers holding a special *directory segment* that maps names to object
// IDs. Permissions are labels, enforced by the kernel — this library can be
// buggy or malicious and only its caller suffers.
//
// Directory segment layout (fixed-size records, like the real thing):
//   header: [mutex u64][generation u64][busy u64][count u64]
//   entry:  [objid u64][in_use u64][name char[48]]   (64 bytes each)
//
// Directory updates take the segment mutex and bump the generation; readers
// who cannot write the directory obtain a consistent snapshot by re-reading
// the generation and busy flag around each entry (paper §5.1).
//
// The directory segment's object ID is stored in the first 8 bytes of the
// directory container's metadata. File modification times live in the file
// segment's metadata.
#ifndef SRC_UNIXLIB_FS_H_
#define SRC_UNIXLIB_FS_H_

#include <string>
#include <utility>
#include <vector>

#include "src/kernel/kernel.h"

namespace histar {

inline constexpr size_t kMaxFileName = 47;
inline constexpr uint64_t kDefaultFileQuota = 64 * 1024;
inline constexpr uint64_t kDefaultDirQuota = 16 << 20;

// A mount table: overlays ⟨directory, name⟩ → container, like Plan 9. Each
// process owns a copy (a segment in the real system; a copyable value here,
// faithfully copy-on-fork).
struct MountEntry {
  ObjectId dir = kInvalidObject;
  std::string name;
  ObjectId target = kInvalidObject;
};

class MountTable {
 public:
  void Mount(ObjectId dir, const std::string& name, ObjectId target);
  void Unmount(ObjectId dir, const std::string& name);
  // Returns the mount target covering ⟨dir,name⟩ or kInvalidObject.
  ObjectId Resolve(ObjectId dir, const std::string& name) const;

 private:
  std::vector<MountEntry> entries_;
};

class FileSystem {
 public:
  explicit FileSystem(Kernel* kernel) : kernel_(kernel) {}

  // Creates a directory (container + directory segment) inside `parent` with
  // the given label; returns the new container id.
  Result<ObjectId> MakeDir(ObjectId self, ObjectId parent, const std::string& name,
                           const Label& label, uint64_t quota = kDefaultDirQuota);
  // Creates the filesystem root (a directory not named inside any parent
  // directory segment).
  Result<ObjectId> MakeRoot(ObjectId self, ObjectId parent_container, const Label& label,
                            uint64_t quota = kDefaultDirQuota);

  // Creates an empty file with the given label; the name is declassified to
  // anyone who can read the directory (the §5.8 "file creation" leak, which
  // is why high-secrecy setups route creation through an untainting gate).
  Result<ObjectId> Create(ObjectId self, ObjectId dir, const std::string& name,
                          const Label& label, uint64_t quota = kDefaultFileQuota);

  // Name → object id. Consults the mount table first.
  Result<ObjectId> Lookup(ObjectId self, ObjectId dir, const std::string& name);

  // Removes the name and unreferences the object.
  Status Unlink(ObjectId self, ObjectId dir, const std::string& name);

  // Atomic rename within one directory (mutex-protected, §5.1).
  Status Rename(ObjectId self, ObjectId dir, const std::string& from, const std::string& to);

  // Lock-free consistent directory listing (generation/busy protocol).
  Result<std::vector<std::pair<std::string, ObjectId>>> ReadDir(ObjectId self, ObjectId dir);

  // Slash-separated path resolution from `root`; "." and ".." supported
  // (".." via container_get_parent).
  Result<ObjectId> Walk(ObjectId self, ObjectId root, const std::string& path);
  // As Walk, but resolves to ⟨containing dir, leaf name⟩ for create/unlink.
  Result<std::pair<ObjectId, std::string>> WalkParent(ObjectId self, ObjectId root,
                                                      const std::string& path);

  // ---- file content ops (file = segment) ------------------------------------
  Result<uint64_t> FileSize(ObjectId self, ObjectId dir, ObjectId file);
  Result<uint64_t> ReadAt(ObjectId self, ObjectId dir, ObjectId file, void* buf, uint64_t off,
                          uint64_t len);
  // Writes, growing the file (and, if needed, its quota out of `dir`'s) —
  // the §5.1 "extending a file may require increasing the segment's quota".
  Status WriteAt(ObjectId self, ObjectId dir, ObjectId file, const void* buf, uint64_t off,
                 uint64_t len);
  Status Truncate(ObjectId self, ObjectId dir, ObjectId file, uint64_t len);

  // fsync of one file: write-ahead-log just that object. fsync of a
  // directory (or O_SYNC creation): checkpoint the entire system state —
  // exactly the §7.1 behavior that makes per-file sync expensive.
  Status SyncFile(ObjectId self, ObjectId dir, ObjectId file);
  Status SyncEverything(ObjectId self);

  // chmod/chown/chgrp (paper §9): object labels are immutable, so relabeling
  // is a *copy* — the directory entry swings to a fresh segment carrying
  // `new_label` and the old object is unreferenced, which "revokes all open
  // file descriptors" (any holder of the old id loses it). The caller must
  // be able to read the old file and write the directory. Returns the new
  // object id.
  Result<ObjectId> Relabel(ObjectId self, ObjectId dir, const std::string& name,
                           const Label& new_label);

  MountTable& mounts() { return mounts_; }

  // Updates the mtime stamp in the file's metadata. Public so tests can
  // verify the no-atime design decision (§9: HiStar keeps mtime, not atime).
  Status TouchMtime(ObjectId self, ObjectId dir, ObjectId file, uint64_t mtime);
  Result<uint64_t> GetMtime(ObjectId self, ObjectId dir, ObjectId file);

 private:
  struct DirHeader {
    uint64_t mutex;
    uint64_t generation;
    uint64_t busy;
    uint64_t count;
  };
  struct DirEntry {
    uint64_t objid;
    uint64_t in_use;
    char name[48];
  };
  static_assert(sizeof(DirHeader) == 32);
  static_assert(sizeof(DirEntry) == 64);

  // Finds the directory segment for container `dir` (from its metadata).
  Result<ObjectId> DirSegment(ObjectId self, ObjectId dir);

  // Batched scan over the first `n` directory records of `seg`: reads them
  // in kDirScanBatch-sized SubmitBatch groups (one kernel lock round-trip
  // per group) and invokes fn(slot, entry) on each; fn returns false to
  // stop early. Returns the first read error, else kOk. Shared by FindEntry
  // and ReadDir so the two scans cannot drift. Defined in fs.cc (both users
  // live there).
  template <typename Fn>
  Status ScanDirRecords(ObjectId self, ContainerEntry seg, uint64_t n, Fn&& fn);

  // Entry scan helpers; `slot_out` receives the matching or first-free slot.
  Result<ObjectId> FindEntry(ObjectId self, ContainerEntry seg, const std::string& name,
                             uint64_t* slot_out);

  Status WriteEntry(ObjectId self, ContainerEntry seg, uint64_t slot, const DirEntry& e);
  Status BumpGeneration(ObjectId self, ContainerEntry seg, int64_t busy_delta);

  Kernel* kernel_;
  MountTable mounts_;
};

}  // namespace histar

#endif  // SRC_UNIXLIB_FS_H_
