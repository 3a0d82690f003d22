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
// Create is four kernel round trips, whatever the directory's size:
// [directory metadata, create the file], [CAS the segment mutex, get_len],
// ONE sys_segment_read of the whole segment, and [resize?, entry writes,
// generation bump, CAS unlock]. MakeDir, Unlink, Rename and Relabel have
// the same shape around the mutex. The last group runs atomically against other threads' syscalls and against
// sys_sync, so a reader — including one who cannot write the directory,
// and so cannot take the mutex — gets a consistent snapshot from one read,
// as HiStar's library scans a mapped directory segment (paper §5.1).
// Nothing writes the busy word any more; readers ignore it.
//
// The directory segment's object ID is stored in the first 8 bytes of the
// directory container's metadata. File modification times live in the file
// segment's metadata.
#ifndef SRC_UNIXLIB_FS_H_
#define SRC_UNIXLIB_FS_H_

#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "src/kernel/kernel.h"

namespace histar {

class SegmentMutex;

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

  // Consistent directory listing without the mutex (one snapshot read).
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
    uint64_t busy;  // unused and ignored (an older image may hold a stale 1)
    uint64_t count;
  };
  struct DirEntry {
    uint64_t objid;
    uint64_t in_use;
    char name[48];
  };
  static_assert(sizeof(DirHeader) == 32);
  static_assert(sizeof(DirEntry) == 64);

  // A directory segment as of one read: [DirHeader | records].
  struct DirImage {
    std::vector<uint8_t> bytes;
    uint64_t generation() const;
    uint64_t slots() const { return (bytes.size() - sizeof(DirHeader)) / sizeof(DirEntry); }
    DirEntry at(uint64_t slot) const;
    // Slot named `name` (kNoSlot if none) and the slot a new entry would
    // take: the first free one, else the append slot.
    uint64_t Find(const std::string& name, uint64_t* free_slot = nullptr) const;
  };
  struct SlotWrite {
    uint64_t slot;
    DirEntry entry;
  };

  static constexpr uint64_t kNoSlot = ~uint64_t{0};
  static uint64_t RecordOffset(uint64_t slot) {
    return sizeof(DirHeader) + slot * sizeof(DirEntry);
  }
  static DirEntry NamedEntry(ObjectId obj, const std::string& name);
  static bool NameIs(const DirEntry& e, const std::string& name);  // in use and named `name`
  // The directory segment named by a directory container's metadata.
  static Result<ObjectId> DirSegmentOf(const SyscallRes& metadata);

  // Finds the directory segment for container `dir` (from its metadata).
  Result<ObjectId> DirSegment(ObjectId self, ObjectId dir);

  // Creates `dir`'s directory segment and records it in `dir`'s metadata.
  Status FormatDirectory(ObjectId self, ObjectId dir, const Label& label, uint64_t quota);

  // Reads the first `len` bytes of `seg` in ONE sys_segment_read. The read
  // runs under the segment's shard lock and every update is one atomic
  // batch, so the image is a consistent snapshot with no retry.
  Status ReadImage(ObjectId self, ContainerEntry seg, uint64_t len, DirImage* img);
  // sys_segment_get_len, then ReadImage: the lock-free readers' scan.
  Status Snapshot(ObjectId self, ContainerEntry seg, DirImage* img);

  // Takes `mu` (the mutex word at offset 0 of `seg`) and snapshots `seg`
  // in two kernel round trips: [CAS lock, get_len], then the read. On any
  // failure the mutex is not held on return.
  Status LockAndSnapshot(ObjectId self, SegmentMutex& mu, ContainerEntry seg, DirImage* img);

  // One directory update and the unlock as ONE SubmitBatch group: a resize
  // when a slot lies past the image's end, the entry writes, the generation
  // bump and the CAS that releases `mu` (taken by LockAndSnapshot, which
  // produced `img`). Returns the first failing write's status.
  Status WriteAndUnlock(ObjectId self, SegmentMutex& mu, ContainerEntry seg,
                        const DirImage& img, std::initializer_list<SlotWrite> writes);

  // Create/MakeDir's tail: names `obj` (just created in seg.container) in
  // the directory, deciding under the mutex whether the name is free. On
  // kExists or any other failure `obj` is unreferenced, so nothing is
  // orphaned.
  Result<ObjectId> AddEntry(ObjectId self, ContainerEntry seg, const std::string& name,
                            ObjectId obj);

  // Create/MakeDir's head, ONE round trip: [`dir`'s metadata, `create`].
  // Returns the directory segment and sets *obj to the new object; if
  // `dir` is no directory (or the metadata read fails) the object is
  // unreferenced again.
  Result<ObjectId> CreateInDirectory(ObjectId self, ObjectId dir, SyscallReq create,
                                     ObjectId* obj);

  // Resize to off + len and write, as one batch.
  Status GrowAndWrite(ObjectId self, ContainerEntry ce, const void* buf, uint64_t off,
                      uint64_t len);

  Kernel* kernel_;
  MountTable mounts_;
};

}  // namespace histar

#endif  // SRC_UNIXLIB_FS_H_
