// Typed messages for the Bε-tree engine (betree.{h,cc}).
//
// A message is a deferred mutation of store state: instead of writing an
// object blob to its final location, the engine stages a message in the tree
// root's buffer, and interior nodes push batches of messages toward the
// leaves only when a buffer fills. Three kinds:
//
//   kUpsert      full object image replaces whatever the tree holds
//   kDelete      tombstone — the object is gone (must persist past older
//                upserts buried deeper in the tree)
//   kLabelDelta  label-table record riding an increment section; applied to
//                the store's label table at replay, never stored in the tree
//
// Kind byte 4 named a metadata-only patch that the store never produced; it
// is retired and never reused, so ParseMsg refuses it like any unknown kind
// and recovery of a section holding one fails with kCorrupt.
//
// Wire format (all little-endian, via src/core/wire.h):
//   u8 kind
//   kUpsert:     u64 id, u64 meta_len, u32 len, u8 bytes[len]
//   kDelete:     u64 id
//   kLabelDelta: u32 label_id, u32 len, u8 bytes[len]
//
// MsgBuffer holds one coalesced message per object id (latest wins: a newer
// upsert or tombstone replaces the entry) plus a latest-wins label map.
// Serialization order is labels first then objects, both ascending — replaying
// a serialized buffer message-by-message rebuilds the identical buffer.
#ifndef SRC_STORE_MSG_H_
#define SRC_STORE_MSG_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "src/kernel/types.h"
#include "src/store/wire_format.h"

namespace histar {

enum class MsgKind : uint8_t {
  kUpsert = 1,
  kDelete = 2,
  kLabelDelta = 3,
};

struct Msg {
  MsgKind kind = MsgKind::kUpsert;
  uint64_t id = 0;        // object id; label id for kLabelDelta
  uint64_t meta_len = 0;  // kUpsert
  std::vector<uint8_t> bytes;  // kUpsert image / kLabelDelta label bytes
};

inline size_t MsgWireBytes(const Msg& m) {
  switch (m.kind) {
    case MsgKind::kUpsert:
      return 1 + 8 + 8 + 4 + m.bytes.size();
    case MsgKind::kDelete:
      return 1 + 8;
    case MsgKind::kLabelDelta:
      return 1 + 4 + 4 + m.bytes.size();
  }
  return 0;
}

inline void SerializeMsg(const Msg& m, std::vector<uint8_t>* out) {
  wire::PutU8(out, static_cast<uint8_t>(m.kind));
  switch (m.kind) {
    case MsgKind::kUpsert:
      wire::PutU64(out, m.id);
      wire::PutU64(out, m.meta_len);
      wire::PutU32(out, static_cast<uint32_t>(m.bytes.size()));
      out->insert(out->end(), m.bytes.begin(), m.bytes.end());
      break;
    case MsgKind::kDelete:
      wire::PutU64(out, m.id);
      break;
    case MsgKind::kLabelDelta:
      wire::PutU32(out, static_cast<uint32_t>(m.id));
      wire::PutU32(out, static_cast<uint32_t>(m.bytes.size()));
      out->insert(out->end(), m.bytes.begin(), m.bytes.end());
      break;
  }
}

// Parses one message. Returns false (and sets r->fail where the image is
// short) on a malformed kind or a truncated body.
inline bool ParseMsg(wire::Reader* r, Msg* out) {
  uint8_t k = r->U8();
  if (r->fail) return false;
  switch (static_cast<MsgKind>(k)) {
    case MsgKind::kUpsert: {
      out->kind = MsgKind::kUpsert;
      out->id = r->U64();
      out->meta_len = r->U64();
      uint32_t len = r->U32();
      if (r->fail || !r->Bytes(&out->bytes, len)) return false;
      return true;
    }
    case MsgKind::kDelete:
      out->kind = MsgKind::kDelete;
      out->id = r->U64();
      out->meta_len = 0;
      out->bytes.clear();
      return !r->fail;
    case MsgKind::kLabelDelta: {
      out->kind = MsgKind::kLabelDelta;
      out->id = r->U32();
      out->meta_len = 0;
      uint32_t len = r->U32();
      if (r->fail || !r->Bytes(&out->bytes, len)) return false;
      return true;
    }
  }
  r->fail = true;
  return false;
}

class MsgBuffer {
 public:
  // Folds `m` — NEWER than everything already buffered — into the buffer.
  // Builds the replacement entry fully before committing it, so a bad_alloc
  // mid-apply leaves the buffer unchanged.
  void Apply(Msg m) {
    if (m.kind == MsgKind::kLabelDelta) {
      uint32_t id = static_cast<uint32_t>(m.id);
      auto it = labels_.find(id);
      if (it != labels_.end()) {
        bytes_ -= it->second.size();
        it->second = std::move(m.bytes);
      } else {
        labels_.emplace(id, std::move(m.bytes));
      }
      bytes_ += labels_[id].size();
      return;
    }
    auto it = objects_.find(m.id);
    if (it == objects_.end()) {
      bytes_ += MsgWireBytes(m);
      objects_.emplace(m.id, std::move(m));
      return;
    }
    Msg& e = it->second;
    bytes_ -= MsgWireBytes(e);
    bytes_ += MsgWireBytes(m);
    e = std::move(m);
  }

  // Folds every message of `other` (NEWER than this buffer) in.
  void ApplyAll(MsgBuffer&& other) {
    for (auto& [id, bytes] : other.labels_) {
      Apply(Msg{MsgKind::kLabelDelta, id, 0, std::move(bytes)});
    }
    for (auto& [id, m] : other.objects_) {
      Apply(std::move(m));
    }
    other.Clear();
  }

  const std::map<uint64_t, Msg>& objects() const { return objects_; }
  const std::map<uint32_t, std::vector<uint8_t>>& labels() const {
    return labels_;
  }

  // Removes and returns the object messages with id in [lo, hi) — the unit
  // an interior node flushes to one child. hi == ~0 means "to the end".
  std::map<uint64_t, Msg> ExtractRange(uint64_t lo, uint64_t hi) {
    std::map<uint64_t, Msg> out;
    auto it = objects_.lower_bound(lo);
    while (it != objects_.end() && (hi == ~0ULL || it->first < hi)) {
      bytes_ -= MsgWireBytes(it->second);
      out.emplace(it->first, std::move(it->second));
      it = objects_.erase(it);
    }
    return out;
  }

  uint64_t bytes() const { return bytes_; }
  size_t count() const { return objects_.size() + labels_.size(); }
  bool empty() const { return objects_.empty() && labels_.empty(); }

  void Clear() {
    objects_.clear();
    labels_.clear();
    bytes_ = 0;
  }

  // Labels first, then objects, both ascending (see header comment).
  void Serialize(std::vector<uint8_t>* out) const {
    wire::PutU32(out, static_cast<uint32_t>(count()));
    for (const auto& [id, bytes] : labels_) {
      Msg m;
      m.kind = MsgKind::kLabelDelta;
      m.id = id;
      m.bytes = bytes;
      SerializeMsg(m, out);
    }
    for (const auto& [id, m] : objects_) {
      SerializeMsg(m, out);
    }
  }

 private:
  std::map<uint64_t, Msg> objects_;
  std::map<uint32_t, std::vector<uint8_t>> labels_;
  uint64_t bytes_ = 0;  // wire-size accounting for flush thresholds
};

}  // namespace histar

#endif  // SRC_STORE_MSG_H_
