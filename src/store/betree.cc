#include "src/store/betree.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/store/store_alloc.h"

namespace histar {

namespace {

constexpr uint64_t kNodeMagic = 0x42455053'4e4f4445ULL;  // "BEPSNODE"
// A node image larger than this is rejected at load — far above anything the
// split thresholds produce; bounds a corrupt length field's damage.
constexpr uint64_t kMaxNodeBytes = 64ULL << 20;
constexpr int kMaxTreeDepth = 64;

// Serialized size of a MsgBuffer (count word + every message).
uint64_t BufferWireBytes(const MsgBuffer& b) {
  uint64_t sz = 4;
  for (const auto& [id, bytes] : b.labels()) {
    sz += 1 + 4 + 4 + bytes.size();
  }
  for (const auto& [id, m] : b.objects()) {
    sz += MsgWireBytes(m);
  }
  return sz;
}

}  // namespace

// One tree node, held in memory in full (the in-memory tree is the
// authoritative write-back cache; `extent` is where the identical image
// lives on disk when `dirty` is false).
//
// On-disk images ("BEPSNODE", little-endian):
//   leaf:      u64 magic, u8 level=0, u32 n,
//              n × { u64 id, u64 meta_len, u64 len },
//              u64 csum                  (FNV over everything prior)
//              n × { u8 bytes[len], u64 blob_csum }   (FNV over
//                    bytes[0, min(meta_len, len)) — payload past the
//                    metadata prefix is writeback territory, see
//                    FlushPages)
//   interior:  u64 magic, u8 level≥1, u32 n_children,
//              n × { u64 min_key, u64 child_off, u64 child_len,
//                    u64 child_seal },
//              u32 n_msgs, messages...   (msg.h wire format)
//              u64 csum                  (FNV over everything prior)
//
// A node's seal is what its referrer records beside its extent: an
// interior node's csum; for a leaf, its header csum folded with every
// blob_csum in order (everything but the writeback payload).
struct BetreeEngine::Node {
  int level = 0;  // 0 = leaf
  Extent extent{};
  uint64_t seal = 0;  // of the image at `extent`, valid when !dirty
  bool dirty = true;

  struct Entry {
    uint64_t id = 0;
    uint64_t meta_len = 0;
    std::vector<uint8_t> bytes;
  };
  std::vector<Entry> entries;  // leaf payload, ascending id

  std::vector<uint64_t> keys;  // keys[i] = min id routed to children[i]
  std::vector<std::unique_ptr<Node>> children;
  MsgBuffer buffer;  // interior: messages resting at this level
};

namespace {

using Node = BetreeEngine::Node;

uint64_t NodeWireBytes(const Node& n) {
  if (n.level == 0) {
    uint64_t sz = 8 + 1 + 4 + n.entries.size() * 24 + 8;
    for (const Node::Entry& e : n.entries) {
      sz += e.bytes.size() + 8;
    }
    return sz;
  }
  return 8 + 1 + 4 + n.children.size() * 32 + BufferWireBytes(n.buffer) + 8;
}

uint64_t FoldSeal(uint64_t seal, uint64_t csum) {
  uint64_t pair[2] = {seal, csum};
  return StoreChecksum(pair, sizeof(pair));
}

// Appends the node's image to `out`; returns its seal.
uint64_t SerializeNode(const Node& n, std::vector<uint8_t>* out) {
  using wire::PutU32;
  using wire::PutU64;
  using wire::PutU8;
  PutU64(out, kNodeMagic);
  PutU8(out, static_cast<uint8_t>(n.level));
  if (n.level == 0) {
    PutU32(out, static_cast<uint32_t>(n.entries.size()));
    for (const Node::Entry& e : n.entries) {
      PutU64(out, e.id);
      PutU64(out, e.meta_len);
      PutU64(out, e.bytes.size());
    }
    uint64_t seal = StoreChecksum(out->data(), out->size());
    PutU64(out, seal);
    for (const Node::Entry& e : n.entries) {
      out->insert(out->end(), e.bytes.begin(), e.bytes.end());
      uint64_t meta = std::min<uint64_t>(e.meta_len, e.bytes.size());
      uint64_t blob_csum = StoreChecksum(e.bytes.data(), meta);
      PutU64(out, blob_csum);
      seal = FoldSeal(seal, blob_csum);
    }
    return seal;
  }
  PutU32(out, static_cast<uint32_t>(n.children.size()));
  for (size_t i = 0; i < n.children.size(); ++i) {
    PutU64(out, n.keys[i]);
    PutU64(out, n.children[i]->extent.offset);
    PutU64(out, n.children[i]->extent.length);
    PutU64(out, n.children[i]->seal);
  }
  n.buffer.Serialize(out);
  uint64_t seal = StoreChecksum(out->data(), out->size());
  PutU64(out, seal);
  return seal;
}

// Child index id routes to: the last key ≤ id (ids below keys[0] go left).
size_t RouteChild(const Node* n, uint64_t id) {
  size_t i = static_cast<size_t>(
      std::upper_bound(n->keys.begin(), n->keys.end(), id) - n->keys.begin());
  return i == 0 ? 0 : i - 1;
}

uint64_t MinKey(const Node* n) {
  return n->level == 0 ? (n->entries.empty() ? 0 : n->entries.front().id)
                       : n->keys.front();
}

// Splices `pieces` in place of child `ci`; the first piece keeps the
// child's original lower bound so no id can fall between the old separator
// and the piece's first entry.
void ReplaceChild(Node* n, size_t ci, std::vector<std::unique_ptr<Node>> pieces) {
  uint64_t lo = n->keys[ci];
  n->keys.erase(n->keys.begin() + static_cast<ptrdiff_t>(ci));
  n->children.erase(n->children.begin() + static_cast<ptrdiff_t>(ci));
  for (size_t j = 0; j < pieces.size(); ++j) {
    n->keys.insert(n->keys.begin() + static_cast<ptrdiff_t>(ci + j),
                   j == 0 ? lo : MinKey(pieces[j].get()));
    n->children.insert(n->children.begin() + static_cast<ptrdiff_t>(ci + j),
                       std::move(pieces[j]));
  }
}

// Entry index of `id` in a leaf, or -1.
int FindEntry(const Node* leaf, uint64_t id) {
  auto it = std::lower_bound(
      leaf->entries.begin(), leaf->entries.end(), id,
      [](const Node::Entry& e, uint64_t v) { return e.id < v; });
  if (it == leaf->entries.end() || it->id != id) {
    return -1;
  }
  return static_cast<int>(it - leaf->entries.begin());
}

// Byte offset of entry `i`'s blob within the leaf's on-disk image.
uint64_t LeafBlobOffset(const Node& leaf, int i) {
  uint64_t off = 8 + 1 + 4 + leaf.entries.size() * 24 + 8;
  for (int j = 0; j < i; ++j) {
    off += leaf.entries[static_cast<size_t>(j)].bytes.size() + 8;
  }
  return off;
}

uint64_t CountNodes(const Node* n) {
  if (n == nullptr) {
    return 0;
  }
  uint64_t c = 1;
  for (const auto& ch : n->children) {
    c += CountNodes(ch.get());
  }
  return c;
}

void CollectNodeExtents(const Node* n, std::vector<Extent>* out) {
  if (n == nullptr) {
    return;
  }
  if (n->extent.length != 0) {
    out->push_back(n->extent);
  }
  for (const auto& ch : n->children) {
    CollectNodeExtents(ch.get(), out);
  }
}

// Post-order dirty sweep; propagates dirtiness upward (a rewritten child
// moves, so every ancestor's child table changes too).
bool CollectDirty(Node* n, std::vector<Node*>* out) {
  bool child_dirty = false;
  for (const auto& ch : n->children) {
    child_dirty |= CollectDirty(ch.get(), out);
  }
  if (child_dirty) {
    n->dirty = true;
  }
  if (n->dirty) {
    out->push_back(n);
  }
  return n->dirty;
}

// Effective-state walk: leaves first (oldest), then each level's resting
// messages on top (newer), callers overlay the root buffers last. `fn` is
// called with (id, newest-wins state).
void OverlayBuffer(const MsgBuffer& b,
                   std::map<uint64_t, const std::vector<uint8_t>*>* eff) {
  for (const auto& [id, m] : b.objects()) {
    switch (m.kind) {
      case MsgKind::kUpsert:
        (*eff)[id] = &m.bytes;
        break;
      case MsgKind::kDelete:
        eff->erase(id);
        break;
      case MsgKind::kLabelDelta:
        break;  // never routed into the tree
    }
  }
}

void CollectImages(const Node* n,
                   std::map<uint64_t, const std::vector<uint8_t>*>* eff) {
  if (n == nullptr) {
    return;
  }
  if (n->level == 0) {
    for (const Node::Entry& e : n->entries) {
      (*eff)[e.id] = &e.bytes;
    }
    return;
  }
  for (const auto& ch : n->children) {
    CollectImages(ch.get(), eff);
  }
  OverlayBuffer(n->buffer, eff);
}

void OverlayPresent(const MsgBuffer& b, std::map<uint64_t, bool>* present) {
  for (const auto& [id, m] : b.objects()) {
    if (m.kind == MsgKind::kUpsert) {
      (*present)[id] = true;
    } else if (m.kind == MsgKind::kDelete) {
      (*present)[id] = false;
    }
  }
}

void CollectPresent(const Node* n, std::map<uint64_t, bool>* present) {
  if (n == nullptr) {
    return;
  }
  if (n->level == 0) {
    for (const Node::Entry& e : n->entries) {
      (*present)[e.id] = true;
    }
    return;
  }
  for (const auto& ch : n->children) {
    CollectPresent(ch.get(), present);
  }
  OverlayPresent(n->buffer, present);
}

}  // namespace

BetreeEngine::BetreeEngine(DiskModel* disk, ExtentAllocator* alloc,
                           std::vector<Extent>* pending_frees, const BetreeParams& params)
    : disk_(disk), alloc_(alloc), pending_frees_(pending_frees), params_(params) {}

BetreeEngine::~BetreeEngine() = default;

void BetreeEngine::Reset() {
  root_.reset();
  committed_.Clear();
  pending_.Clear();
  base_pending_ = false;
}

Status BetreeEngine::WriteObject(ObjectId id, const std::vector<uint8_t>& bytes,
                                 uint64_t meta_len) {
  // No device write: the image becomes a staged upsert. It reaches disk as
  // part of this commit's section (increment = the batch itself; base = a
  // tree flush) — never as its own random write.
  StoreAlloc::Check();
  Msg m;
  m.kind = MsgKind::kUpsert;
  m.id = id;
  m.meta_len = std::min<uint64_t>(meta_len, bytes.size());
  m.bytes = bytes;
  pending_.Apply(std::move(m));
  return Status::kOk;
}

void BetreeEngine::DeleteObject(ObjectId id) {
  Msg m;
  m.kind = MsgKind::kDelete;
  m.id = id;
  pending_.Apply(std::move(m));
}

void BetreeEngine::AppendLiveIds(std::vector<ObjectId>* out) const {
  std::map<uint64_t, bool> present;
  CollectPresent(root_.get(), &present);
  OverlayPresent(committed_, &present);
  OverlayPresent(pending_, &present);
  for (const auto& [id, alive] : present) {
    if (alive) {
      out->push_back(id);
    }
  }
}

bool BetreeEngine::WantsBase() const {
  return base_pending_ || staged_bytes() > params_.root_buffer_bytes;
}

void BetreeEngine::ApplyToLeaf(Node* leaf, std::map<uint64_t, Msg>&& msgs) {
  std::vector<Node::Entry> out;
  out.reserve(leaf->entries.size() + msgs.size());
  auto it = leaf->entries.begin();
  for (auto& [id, m] : msgs) {
    while (it != leaf->entries.end() && it->id < id) {
      out.push_back(std::move(*it));
      ++it;
    }
    bool match = it != leaf->entries.end() && it->id == id;
    switch (m.kind) {
      case MsgKind::kUpsert: {
        Node::Entry e;
        e.id = id;
        e.meta_len = std::min<uint64_t>(m.meta_len, m.bytes.size());
        e.bytes = std::move(m.bytes);
        out.push_back(std::move(e));
        if (match) {
          ++it;  // replaced
        }
        break;
      }
      case MsgKind::kDelete:
        if (match) {
          ++it;  // dropped
        }
        break;
      case MsgKind::kLabelDelta:
        break;  // never routed into the tree
    }
  }
  while (it != leaf->entries.end()) {
    out.push_back(std::move(*it));
    ++it;
  }
  leaf->entries = std::move(out);
}

std::vector<std::unique_ptr<Node>> BetreeEngine::SplitLeaf(std::unique_ptr<Node> leaf) {
  std::vector<std::unique_ptr<Node>> out;
  auto piece = std::make_unique<Node>();
  uint64_t sz = 8 + 1 + 4 + 8;
  for (Node::Entry& e : leaf->entries) {
    uint64_t esz = 24 + e.bytes.size() + 8;
    if (!piece->entries.empty() && sz + esz > params_.node_bytes) {
      out.push_back(std::move(piece));
      piece = std::make_unique<Node>();
      sz = 8 + 1 + 4 + 8;
    }
    sz += esz;
    piece->entries.push_back(std::move(e));
  }
  out.push_back(std::move(piece));
  // The split leaf's on-disk image is superseded; the first piece inherits
  // the extent (still dirty) so the ordinary rewrite path retires it.
  out[0]->extent = leaf->extent;
  return out;
}

std::vector<std::unique_ptr<Node>> BetreeEngine::SplitInterior(std::unique_ptr<Node> n) {
  size_t nc = n->children.size();
  size_t pieces = (nc + params_.fanout - 1) / params_.fanout;
  size_t chunk = (nc + pieces - 1) / pieces;
  std::vector<std::unique_ptr<Node>> out;
  for (size_t i = 0; i < nc; i += chunk) {
    size_t end = std::min(i + chunk, nc);
    auto p = std::make_unique<Node>();
    p->level = n->level;
    for (size_t j = i; j < end; ++j) {
      p->keys.push_back(n->keys[j]);
      p->children.push_back(std::move(n->children[j]));
    }
    // Resting messages move with the key range they route to.
    uint64_t lo = i == 0 ? 0 : n->keys[i];
    uint64_t hi = end == nc ? ~0ULL : n->keys[end];
    std::map<uint64_t, Msg> moved = n->buffer.ExtractRange(lo, hi);
    for (auto& [id, m] : moved) {
      p->buffer.Apply(std::move(m));
    }
    out.push_back(std::move(p));
  }
  out[0]->extent = n->extent;  // superseded image, retired on rewrite
  return out;
}

void BetreeEngine::FlushOverflow(Node* n) {
  while (n->buffer.bytes() > params_.buffer_bytes && !n->buffer.objects().empty()) {
    // Push the heaviest child's share down — one batched descent instead of
    // per-message random writes.
    std::vector<uint64_t> weight(n->children.size(), 0);
    for (const auto& [id, m] : n->buffer.objects()) {
      weight[RouteChild(n, id)] += MsgWireBytes(m);
    }
    size_t ci = static_cast<size_t>(
        std::max_element(weight.begin(), weight.end()) - weight.begin());
    uint64_t lo = ci == 0 ? 0 : n->keys[ci];
    uint64_t hi = ci + 1 < n->children.size() ? n->keys[ci + 1] : ~0ULL;
    std::map<uint64_t, Msg> sub = n->buffer.ExtractRange(lo, hi);
    if (sub.empty()) {
      break;  // defensive: weights said otherwise, but never loop forever
    }
    ReplaceChild(n, ci, Inject(std::move(n->children[ci]), std::move(sub)));
  }
}

std::vector<std::unique_ptr<Node>> BetreeEngine::Inject(std::unique_ptr<Node> n,
                                                        std::map<uint64_t, Msg> msgs) {
  std::vector<std::unique_ptr<Node>> out;
  if (msgs.empty()) {
    out.push_back(std::move(n));
    return out;
  }
  if (n->level == 0) {
    ApplyToLeaf(n.get(), std::move(msgs));
    n->dirty = true;
    if (NodeWireBytes(*n) > 2 * params_.node_bytes && n->entries.size() > 1) {
      return SplitLeaf(std::move(n));
    }
    out.push_back(std::move(n));
    return out;
  }
  MsgBuffer add;
  for (auto& [id, m] : msgs) {
    add.Apply(std::move(m));
  }
  n->buffer.ApplyAll(std::move(add));  // injected messages are the newest
  n->dirty = true;
  FlushOverflow(n.get());
  if (n->children.size() > params_.fanout) {
    return SplitInterior(std::move(n));
  }
  out.push_back(std::move(n));
  return out;
}

Status BetreeEngine::WriteDirtyNodes(Node* root) {
  std::vector<Node*> dirty;
  CollectDirty(root, &dirty);
  if (dirty.empty()) {
    return Status::kOk;
  }
  std::vector<uint64_t> sizes;
  sizes.reserve(dirty.size());
  uint64_t total = 0;
  for (Node* n : dirty) {
    sizes.push_back(NodeWireBytes(*n));
    total += sizes.back();
  }
  // One arena allocation when a large-enough free extent exists: the whole
  // flush becomes a single sequential run (children before parents, so a
  // recovery DFS reads it mostly forward).
  bool arena = false;
  uint64_t arena_off = 0;
  if (total <= alloc_->largest_free()) {
    Result<uint64_t> off = alloc_->Allocate(total);
    if (!off.ok()) {
      return off.status();
    }
    arena = true;
    arena_off = off.value();
  }
  uint64_t cursor = arena_off;
  for (size_t i = 0; i < dirty.size(); ++i) {
    Node* n = dirty[i];
    uint64_t slot;
    if (arena) {
      slot = cursor;
    } else {
      Result<uint64_t> off = alloc_->Allocate(sizes[i]);
      if (!off.ok()) {
        return off.status();  // written prefix stays clean; retry rewrites the rest
      }
      slot = off.value();
    }
    std::vector<uint8_t> img;
    img.reserve(sizes[i]);
    uint64_t seal = SerializeNode(*n, &img);  // children already rewritten
    Status st = disk_->Write(slot, img.data(), img.size());
    if (st != Status::kOk) {
      // This node stays dirty and keeps its old extent; nothing durable
      // references the failed slot (or the unwritten arena tail) — free it.
      StoreAllocNoFail cleanup;
      if (arena) {
        alloc_->Free(cursor, arena_off + total - cursor);
      } else {
        alloc_->Free(slot, sizes[i]);
      }
      return st;
    }
    StoreAllocNoFail book;
    if (n->extent.length != 0) {
      pending_frees_->push_back(n->extent);
    }
    n->extent = Extent{slot, img.size()};
    n->seal = seal;
    n->dirty = false;
    if (arena) {
      cursor += img.size();
    }
  }
  return Status::kOk;
}

Status BetreeEngine::EmitSectionBody(bool base,
                                     const std::vector<LabelTableRecord>* label_delta,
                                     std::vector<uint8_t>* image) {
  using wire::PutU64;
  if (!base) {
    // An increment is just the staged batch — label deltas ride as messages
    // (the store writes zero store-level label records for us), object
    // upserts/deletes follow. Nothing is consumed until OnSectionWritten.
    MsgBuffer batch;
    if (label_delta != nullptr) {
      for (const LabelTableRecord& rec : *label_delta) {
        Msg m;
        m.kind = MsgKind::kLabelDelta;
        m.id = rec.id;
        m.bytes = rec.bytes;
        batch.Apply(std::move(m));
      }
    }
    for (const auto& [id, m] : pending_.objects()) {
      batch.Apply(Msg(m));
    }
    batch.Serialize(image);
    return Status::kOk;
  }
  // Base flush: inject every staged message into the tree, rebalance, and
  // rewrite dirty nodes to fresh extents. From here until a base section is
  // durably written, the staged state lives ONLY in the in-memory tree — the
  // sticky flag forces every retry to be a base.
  base_pending_ = true;
  MsgBuffer work = std::move(committed_);
  committed_ = MsgBuffer();
  work.ApplyAll(std::move(pending_));  // pending is newer
  // Label deltas are dropped here: the store-level base section re-emits the
  // complete label table.
  std::map<uint64_t, Msg> msgs = work.ExtractRange(0, ~0ULL);
  if (root_ == nullptr && msgs.empty()) {
    for (int i = 0; i < 4; ++i) {
      PutU64(image, 0);
    }
    return Status::kOk;
  }
  if (root_ == nullptr) {
    root_ = std::make_unique<Node>();
  }
  if (!msgs.empty()) {
    std::vector<std::unique_ptr<Node>> pieces =
        Inject(std::move(root_), std::move(msgs));
    while (pieces.size() > 1) {
      // Widen upward until one root remains (chunks of ≤ fanout).
      std::vector<std::unique_ptr<Node>> parents;
      for (size_t i = 0; i < pieces.size(); i += params_.fanout) {
        size_t end = std::min<size_t>(i + params_.fanout, pieces.size());
        auto p = std::make_unique<Node>();
        p->level = pieces[i]->level + 1;
        for (size_t j = i; j < end; ++j) {
          p->keys.push_back(MinKey(pieces[j].get()));
          p->children.push_back(std::move(pieces[j]));
        }
        parents.push_back(std::move(p));
      }
      pieces = std::move(parents);
    }
    root_ = std::move(pieces[0]);
  }
  Status st = WriteDirtyNodes(root_.get());
  if (st != Status::kOk) {
    return st;
  }
  PutU64(image, root_->extent.offset);
  PutU64(image, root_->extent.length);
  PutU64(image, node_count());
  PutU64(image, root_->seal);
  return Status::kOk;
}

void BetreeEngine::OnSectionWritten(bool base) {
  if (base) {
    committed_.Clear();
    pending_.Clear();
    base_pending_ = false;
    return;
  }
  committed_.ApplyAll(std::move(pending_));
}

BetreeEngine::Lookup BetreeEngine::Find(uint64_t id) {
  Lookup lk;
  // Scan newest → oldest; the first message found is the freshest state.
  for (const MsgBuffer* b : {&pending_, &committed_}) {
    auto it = b->objects().find(id);
    if (lk.msg == nullptr && it != b->objects().end()) {
      lk.msg = &it->second;
    }
  }
  Node* cur = root_.get();
  while (cur != nullptr && cur->level > 0) {
    if (lk.msg == nullptr) {
      auto bit = cur->buffer.objects().find(id);
      if (bit != cur->buffer.objects().end()) {
        lk.msg = &bit->second;
      }
    }
    cur = cur->children[RouteChild(cur, id)].get();
  }
  lk.leaf = cur;
  if (cur != nullptr) {
    lk.entry = FindEntry(cur, id);
  }
  return lk;
}

Status BetreeEngine::FlushPages(ObjectId id, uint64_t offset,
                                const std::vector<uint8_t>& pages, bool* needs_commit) {
  *needs_commit = false;
  Lookup lk = Find(id);
  if (lk.msg != nullptr && lk.msg->kind == MsgKind::kDelete) {
    return Status::kNotFound;
  }
  if (lk.msg != nullptr && lk.msg->kind == MsgKind::kUpsert) {
    // The freshest image is a staged message: patch a copy and restage it —
    // the pages become durable with this commit's section.
    Msg patched(*lk.msg);
    uint64_t meta = std::min<uint64_t>(patched.meta_len, patched.bytes.size());
    patched.meta_len = meta;
    uint64_t capacity = patched.bytes.size() - meta;
    if (offset >= capacity) {
      return Status::kOk;
    }
    uint64_t n = std::min<uint64_t>(pages.size(), capacity - offset);
    if (n == 0) {
      return Status::kOk;
    }
    memcpy(patched.bytes.data() + meta + offset, pages.data(), n);
    pending_.Apply(std::move(patched));
    *needs_commit = true;
    return Status::kOk;
  }
  if (lk.leaf == nullptr || lk.entry < 0) {
    return Status::kNotFound;  // never checkpointed: nothing to flush into
  }
  Node::Entry& e = lk.leaf->entries[static_cast<size_t>(lk.entry)];
  uint64_t meta = std::min<uint64_t>(e.meta_len, e.bytes.size());
  uint64_t capacity = e.bytes.size() - meta;
  if (offset >= capacity) {
    return Status::kOk;
  }
  uint64_t n = std::min<uint64_t>(pages.size(), capacity - offset);
  if (n == 0) {
    return Status::kOk;
  }
  if (lk.leaf->dirty || lk.leaf->extent.length == 0) {
    // No valid on-disk home for these bytes (an unflushed leaf): stage the
    // patched image instead.
    Msg m;
    m.kind = MsgKind::kUpsert;
    m.id = id;
    m.meta_len = meta;
    m.bytes = e.bytes;
    memcpy(m.bytes.data() + meta + offset, pages.data(), n);
    pending_.Apply(std::move(m));
    *needs_commit = true;
    return Status::kOk;
  }
  // Leaf-resident with a clean image: write in place past the blob's
  // checksummed prefix (ext3-writeback semantics for the payload) and keep
  // the cache byte-identical to disk.
  memcpy(e.bytes.data() + meta + offset, pages.data(), n);
  uint64_t disk_off =
      lk.leaf->extent.offset + LeafBlobOffset(*lk.leaf, lk.entry) + meta + offset;
  Status st = disk_->Write(disk_off, pages.data(), n);
  if (st != Status::kOk) {
    return st;
  }
  return disk_->Flush();
}

Result<uint64_t> BetreeEngine::TouchObject(ObjectId id) {
  // Demand-page simulation: charge the node reads along the root→leaf path
  // a cold fault would take. Staged messages are already "in memory" (they
  // arrived with a section image) and charge nothing.
  for (const MsgBuffer* b : {&pending_, &committed_}) {
    auto it = b->objects().find(id);
    if (it != b->objects().end()) {
      if (it->second.kind == MsgKind::kDelete) {
        return Status::kNotFound;
      }
      if (it->second.kind == MsgKind::kUpsert) {
        return it->second.bytes.size() + 8;
      }
      // metadata-only message: keep looking for the image in older layers
    }
  }
  Node* cur = root_.get();
  while (cur != nullptr) {
    if (!cur->dirty && cur->extent.length != 0) {
      const Extent& e = cur->extent;
      std::vector<uint8_t> buf(std::min<uint64_t>(e.length, 64 * 1024));
      uint64_t pos = 0;
      while (pos < e.length) {
        uint64_t n = std::min<uint64_t>(buf.size(), e.length - pos);
        Status st = disk_->Read(e.offset + pos, buf.data(), n);
        if (st != Status::kOk) {
          return st;
        }
        pos += n;
      }
    }
    if (cur->level == 0) {
      int idx = FindEntry(cur, id);
      if (idx < 0) {
        return Status::kNotFound;
      }
      return cur->entries[static_cast<size_t>(idx)].bytes.size() + 8;
    }
    auto bit = cur->buffer.objects().find(id);
    if (bit != cur->buffer.objects().end()) {
      if (bit->second.kind == MsgKind::kDelete) {
        return Status::kNotFound;
      }
      if (bit->second.kind == MsgKind::kUpsert) {
        return bit->second.bytes.size() + 8;
      }
    }
    cur = cur->children[RouteChild(cur, id)].get();
  }
  return Status::kNotFound;
}

Result<std::unique_ptr<Node>> BetreeEngine::ReadNode(const Extent& e, uint64_t seal, int depth,
                                                     bool* mismatch) {
  if (depth > kMaxTreeDepth || e.length < 8 + 1 + 4 + 8 || e.length > kMaxNodeBytes) {
    return Status::kCorrupt;
  }
  std::vector<uint8_t> img(e.length);
  Status st = disk_->Read(e.offset, img.data(), img.size());
  if (st != Status::kOk) {
    return st;
  }
  // Until the image's checksums and its referrer's seal hold, a failure
  // means these are not the bytes the commit wrote (a write that never
  // landed, or a stale node at a recycled extent). Once they hold, a
  // refusal is structural.
  auto unlanded = [mismatch]() -> Result<std::unique_ptr<Node>> {
    *mismatch = true;
    return Status::kCorrupt;
  };
  wire::Reader r{img.data(), img.size()};
  uint64_t magic = r.U64();
  uint8_t level = r.U8();
  if (r.fail || magic != kNodeMagic) {
    return unlanded();
  }
  auto n = std::make_unique<Node>();
  n->level = level;
  n->extent = e;
  n->seal = seal;
  n->dirty = false;
  if (level == 0) {
    // A leaf holds no field recovery refuses: every failure is unlanded.
    uint32_t cnt = r.U32();
    if (r.fail) {
      return unlanded();
    }
    uint64_t header_len = 8 + 1 + 4 + static_cast<uint64_t>(cnt) * 24;
    if (header_len + 8 > img.size()) {
      return unlanded();
    }
    std::vector<std::pair<uint64_t, uint64_t>> meta_lens;  // (meta_len, len)
    n->entries.reserve(cnt);
    uint64_t prev_id = 0;
    for (uint32_t j = 0; j < cnt; ++j) {
      Node::Entry ent;
      ent.id = r.U64();
      ent.meta_len = r.U64();
      uint64_t len = r.U64();
      if (r.fail || (j > 0 && ent.id <= prev_id)) {
        return unlanded();
      }
      prev_id = ent.id;
      meta_lens.emplace_back(ent.meta_len, len);
      n->entries.push_back(std::move(ent));
    }
    uint64_t got = r.U64();
    if (r.fail || StoreChecksum(img.data(), header_len) != got) {
      return unlanded();
    }
    for (uint32_t j = 0; j < cnt; ++j) {
      uint64_t len = meta_lens[j].second;
      if (!r.Bytes(&n->entries[j].bytes, len)) {
        return unlanded();
      }
      uint64_t blob_want = r.U64();
      uint64_t m = std::min(meta_lens[j].first, len);
      if (r.fail || StoreChecksum(n->entries[j].bytes.data(), m) != blob_want) {
        return unlanded();
      }
      got = FoldSeal(got, blob_want);
    }
    if (r.pos != img.size() || got != seal) {
      return unlanded();
    }
    return n;
  }
  // Interior: the trailing checksum covers the whole image (resting
  // messages included) and is the seal — verify before trusting any count.
  uint64_t got;
  memcpy(&got, img.data() + img.size() - 8, 8);
  if (StoreChecksum(img.data(), img.size() - 8) != got || got != seal) {
    return unlanded();
  }
  uint32_t cnt = r.U32();
  if (r.fail || cnt == 0) {
    return Status::kCorrupt;
  }
  std::vector<std::pair<Extent, uint64_t>> child_refs;  // (extent, seal)
  child_refs.reserve(cnt);
  for (uint32_t j = 0; j < cnt; ++j) {
    uint64_t key = r.U64();
    Extent ce;
    ce.offset = r.U64();
    ce.length = r.U64();
    uint64_t child_seal = r.U64();
    if (r.fail || (j > 0 && key <= n->keys.back())) {
      return Status::kCorrupt;
    }
    n->keys.push_back(key);
    child_refs.emplace_back(ce, child_seal);
  }
  uint32_t n_msgs = r.U32();
  for (uint32_t j = 0; j < n_msgs; ++j) {
    Msg m;
    if (!ParseMsg(&r, &m)) {
      return Status::kCorrupt;
    }
    n->buffer.Apply(std::move(m));
  }
  if (r.fail || r.pos != img.size() - 8) {
    return Status::kCorrupt;
  }
  for (const auto& [ce, child_seal] : child_refs) {
    Result<std::unique_ptr<Node>> child = ReadNode(ce, child_seal, depth + 1, mismatch);
    if (!child.ok()) {
      return child.status();
    }
    if (child.value()->level != n->level - 1) {
      return Status::kCorrupt;
    }
    n->children.push_back(child.take());
  }
  return n;
}

Status BetreeEngine::LoadSectionBody(bool base, wire::Reader* r,
                                     const LabelSink& label_sink, bool* mismatch) {
  if (base) {
    uint64_t off = r->U64();
    uint64_t len = r->U64();
    uint64_t n_nodes = r->U64();
    uint64_t seal = r->U64();
    if (r->fail) {
      return Status::kCorrupt;
    }
    root_.reset();
    committed_.Clear();
    pending_.Clear();
    base_pending_ = false;
    if (len == 0) {
      return n_nodes == 0 ? Status::kOk : Status::kCorrupt;
    }
    Result<std::unique_ptr<Node>> n = ReadNode(Extent{off, len}, seal, 0, mismatch);
    if (!n.ok()) {
      return n.status();
    }
    root_ = n.take();
    if (CountNodes(root_.get()) != n_nodes) {
      return Status::kCorrupt;
    }
    return Status::kOk;
  }
  uint32_t n_msgs = r->U32();
  for (uint32_t j = 0; j < n_msgs; ++j) {
    Msg m;
    if (!ParseMsg(r, &m)) {
      return Status::kCorrupt;
    }
    if (m.kind == MsgKind::kLabelDelta) {
      label_sink(static_cast<uint32_t>(m.id), std::move(m.bytes));
    } else {
      committed_.Apply(std::move(m));
    }
  }
  return Status::kOk;
}

void BetreeEngine::CollectExtents(std::vector<Extent>* out) const {
  CollectNodeExtents(root_.get(), out);
}

Status BetreeEngine::LoadAllObjects(const ObjectSink& fn) {
  std::map<uint64_t, const std::vector<uint8_t>*> eff;
  CollectImages(root_.get(), &eff);
  OverlayBuffer(committed_, &eff);
  OverlayBuffer(pending_, &eff);
  for (const auto& [id, bytes] : eff) {
    Status st = fn(*bytes);
    if (st != Status::kOk) {
      return st;
    }
  }
  return Status::kOk;
}

Status BetreeEngine::MergeSectionBodies(const std::vector<std::vector<uint8_t>>& bodies,
                                        std::vector<uint8_t>* out) {
  // Message coalescing IS the fold: replaying the merged batch is equivalent
  // to replaying the originals in order (latest-wins per object and label).
  StoreAlloc::Check();
  MsgBuffer merged;
  for (const std::vector<uint8_t>& body : bodies) {
    wire::Reader r{body.data(), body.size()};
    uint32_t n_msgs = r.U32();
    for (uint32_t j = 0; j < n_msgs; ++j) {
      Msg m;
      if (!ParseMsg(&r, &m)) {
        return Status::kCorrupt;
      }
      merged.Apply(std::move(m));
    }
    if (r.fail) {
      return Status::kCorrupt;
    }
  }
  merged.Serialize(out);
  return Status::kOk;
}

uint64_t BetreeEngine::node_count() const { return CountNodes(root_.get()); }

int BetreeEngine::height() const {
  if (root_ == nullptr) {
    return 0;
  }
  return root_->level + 1;
}

}  // namespace histar
