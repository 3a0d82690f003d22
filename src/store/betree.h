// The write-optimized store engine: a message-batched Bε-tree (PR 8).
//
// Instead of one random blob write per dirty object, updates become typed
// messages (msg.h). Messages stage in the root buffer; an increment section
// is just the staged batch serialized — ONE sequential write per commit,
// regardless of how scattered the dirtied objects are. Only when the staged
// bytes outgrow `root_buffer_bytes` does the engine flush: messages are
// injected into the tree, interior nodes absorb them into their buffers and
// push the heaviest child's share downward when a buffer overflows (messages
// may rest in interior-node buffers on disk — the Bε in the name), leaves
// apply and split, and all dirty nodes are rewritten to freshly allocated
// extents — children before parents, arena-allocated so the whole flush is
// one sequential run. The section body of such a base names only the root
// extent.
//
// The IN-MEMORY tree is authoritative: nodes cache full object bytes
// (write-back). The disk model is read at recovery (LoadSectionBody walks
// the node graph) and for TouchObject's demand-paging charge — never during
// a flush, which is what keeps latency-only benches (store_data=false)
// honest.
//
// Durability/crash discipline (docs/persistence.md "Bε-tree engine"):
//  * Shadow paging end-to-end: a flush writes fresh extents, the old node
//    extents go to pending_frees and are released only after the superblock
//    flip. A torn node write fails the commit before the flip, so a crashed
//    flush always boots from the previous root.
//  * Every node reference carries the child's seal (its checksum): the
//    commit's nodes, section and superblock share one barrier, so a device
//    that reorders writes may leave the flip naming a node that never
//    landed — or a stale node at a recycled extent. Recovery tells that
//    apart from a refusal (LoadSectionBody's *mismatch) and the store boots
//    the previous commit.
//  * A node is marked clean only after its device write returns kOk; a
//    failed base flush leaves consumed messages safe in the in-memory tree
//    and sets a sticky base-pending flag — no increment can commit until a
//    base succeeds (an increment against the stale on-disk root would lose
//    the consumed messages).
//  * Node images checksum their structure; leaf blobs checksum [0, meta_len)
//    each, so FlushPages' in-place payload writes never invalidate a node
//    (an ext3-writeback trade-off for segment payload).
//
// Division of labour with SingleLevelStore, which holds one BetreeEngine:
// the store owns everything the paper's commit protocol owns — superblock
// slots, the WAL, the accumulated label table, the checkpoint section chain,
// commit orchestration (allocate → write → superblock flip → one barrier →
// release superseded extents) and recovery orchestration. The engine owns where
// object images live on the heap and what a checkpoint section's body says
// about them.
//
// Failure discipline matches the store's (docs/persistence.md "Fault
// model"): the caller's entry StoreAlloc::Check() is the only injection
// point; once an engine mutation has started, nested checks are suppressed
// with StoreAllocNoFail. The engine shadow-writes: a failed device write
// frees the fresh extent and leaves prior state intact, and superseded
// extents go to the store's pending-frees list, released only after the
// flip.
#ifndef SRC_STORE_BETREE_H_
#define SRC_STORE_BETREE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/store/bptree.h"
#include "src/store/disk_model.h"
#include "src/store/extent_alloc.h"
#include "src/store/msg.h"
#include "src/store/wire_format.h"

namespace histar {

// Bε-tree shape knobs (StoreTuning::betree).
struct BetreeParams {
  uint64_t node_bytes = 64 << 10;         // leaf split target
  uint64_t buffer_bytes = 64 << 10;       // interior-node buffer cap
  uint64_t root_buffer_bytes = 4 << 20;   // staged bytes before a base flush
  uint32_t fanout = 16;                   // max children per interior node
};

class BetreeEngine {
 public:
  // Receives label records found inside an increment body (kLabelDelta
  // messages); feeds the store's label table.
  using LabelSink = std::function<void(uint32_t, std::vector<uint8_t>)>;
  // Receives one complete object image (checksum stripped) during boot.
  using ObjectSink = std::function<Status(const std::vector<uint8_t>&)>;

  // The store lends the engine its disk, its extent allocator and its list
  // of extents superseded mid-commit (freed after the flip). All three
  // outlive the engine and are only touched under the store's lock.
  BetreeEngine(DiskModel* disk, ExtentAllocator* alloc,
               std::vector<Extent>* pending_frees, const BetreeParams& params);
  ~BetreeEngine();

  // Back to freshly-formatted state (no objects, nothing staged).
  void Reset();

  // ---- Write path -----------------------------------------------------------

  // Stages one object image as an upsert (checksum discipline: FNV over
  // [0, meta_len) only — see docs/persistence.md).
  Status WriteObject(ObjectId id, const std::vector<uint8_t>& bytes, uint64_t meta_len);
  // Stages a tombstone.
  void DeleteObject(ObjectId id);
  // Appends every object id the engine currently holds (the store's dead
  // sweep diffs this against the kernel's live set).
  void AppendLiveIds(std::vector<ObjectId>* out) const;

  // ---- Commit ---------------------------------------------------------------

  // True when the next commit must be a base: the staged messages outgrew
  // the root buffer, or a prior base flush failed midway and must be
  // retried before any increment may commit.
  bool WantsBase() const;
  // Appends the section body to `image` (the store has already written the
  // header and the label records). An increment body is the staged batch,
  // `label_delta` riding as messages; a base body flushes the tree (device
  // writes of its own, shadow-write discipline) and names the root extent.
  Status EmitSectionBody(bool base, const std::vector<LabelTableRecord>* label_delta,
                         std::vector<uint8_t>* image);
  // The section is durably written and joins the in-memory chain (the flip
  // may still fail — state consumed here legitimately rides into the next
  // commit, exactly like the store's pending lists always have).
  void OnSectionWritten(bool base);

  // ---- Read path ------------------------------------------------------------

  // In-place payload flush for sys_sync_pages. Sets *needs_commit when the
  // freshest image is staged (not at a home location), in which case the
  // store runs a commit; otherwise the engine wrote in place and barriered.
  Status FlushPages(ObjectId id, uint64_t offset, const std::vector<uint8_t>& pages,
                    bool* needs_commit);
  // Demand-page simulation: charge the reads that faulting the object in
  // would cost; returns the on-disk image length.
  Result<uint64_t> TouchObject(ObjectId id);

  // ---- Recovery -------------------------------------------------------------

  // Replays one section body (reader positioned past the store-level label
  // records; the section checksum has already been verified). Sets
  // *mismatch when a base's node fails its checksum or its parent's seal:
  // bytes the commit wrote are not on disk. Any other kCorrupt is a refusal
  // of well-formed bytes.
  Status LoadSectionBody(bool base, wire::Reader* r, const LabelSink& label_sink,
                         bool* mismatch);
  // Every heap extent the tree references — reserved in the allocator
  // alongside the section chain.
  void CollectExtents(std::vector<Extent>* out) const;
  // Streams every live object image, ascending id, into `fn`.
  Status LoadAllObjects(const ObjectSink& fn);

  // ---- Chain folding --------------------------------------------------------

  // Merges several increment section bodies (oldest first) into one body
  // whose replay is equivalent to replaying them in order. Used when the
  // superblock chain hits capacity (single_level_store.cc FoldChain).
  Status MergeSectionBodies(const std::vector<std::vector<uint8_t>>& bodies,
                            std::vector<uint8_t>* out);

  // ---- Introspection for tests/benches -------------------------------------

  uint64_t node_count() const;
  int height() const;  // 0 = empty tree, 1 = single leaf, ...
  // Bytes staged in the root buffers (committed + pending batches).
  uint64_t staged_bytes() const { return committed_.bytes() + pending_.bytes(); }
  bool base_pending() const { return base_pending_; }

  // Defined in betree.cc (node layout is an implementation detail); public
  // so the file-local serialization helpers there can name it.
  struct Node;

 private:
  // Apply `msgs` (newer than everything in `n`) to the subtree rooted at
  // `n`, flushing/splitting as needed. Returns the replacement node(s); more
  // than one means the caller must widen (interior split / new root).
  std::vector<std::unique_ptr<Node>> Inject(std::unique_ptr<Node> n,
                                            std::map<uint64_t, Msg> msgs);
  void ApplyToLeaf(Node* leaf, std::map<uint64_t, Msg>&& msgs);
  std::vector<std::unique_ptr<Node>> SplitLeaf(std::unique_ptr<Node> leaf);
  std::vector<std::unique_ptr<Node>> SplitInterior(std::unique_ptr<Node> n);
  void FlushOverflow(Node* n);  // push buffer overflow toward the children

  Status WriteDirtyNodes(Node* root);
  Result<std::unique_ptr<Node>> ReadNode(const Extent& e, uint64_t seal, int depth,
                                         bool* mismatch);

  // Freshest staged message for `id`, if any: pending over committed over
  // the interior buffers along the root→leaf path. Also reports the leaf
  // (and entry index) the id routes to, when the tree has one.
  struct Lookup {
    const Msg* msg = nullptr;  // newest upsert/delete message, if any
    Node* leaf = nullptr;      // routed leaf (nullptr on an empty tree)
    int entry = -1;            // index in leaf->entries, -1 if absent
  };
  Lookup Find(uint64_t id);

  DiskModel* disk_;
  ExtentAllocator* alloc_;
  std::vector<Extent>* pending_frees_;
  BetreeParams params_;
  std::unique_ptr<Node> root_;   // nullptr until the first base flush
  MsgBuffer committed_;          // batches already in committed sections
  MsgBuffer pending_;            // staged since the last committed section
  // A base flush consumed root-buffer messages into the tree but its commit
  // did not complete: every commit must be a base until one succeeds.
  bool base_pending_ = false;
};

}  // namespace histar

#endif  // SRC_STORE_BETREE_H_
