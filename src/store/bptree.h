// B+-tree with fixed-size keys and values (paper §4).
//
// The paper's store keeps three of these: object ID → disk extent, free
// extents indexed by size (for allocation), and free extents indexed by
// location (for coalescing). Here objects live in a Bε-tree (betree.h), so
// only the two free-extent indexes remain (ExtentAllocator). The paper
// notes that fixed-size keys and values "significantly simplified"
// the implementation; we keep that property — Key and Value are PODs with a
// total order on Key.
//
// Leaves are linked for range scans. Nodes are heap-allocated; the free
// lists are rebuilt from the live extents at recovery, so the tree has no
// on-disk image of its own.
#ifndef SRC_STORE_BPTREE_H_
#define SRC_STORE_BPTREE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/store/store_alloc.h"

namespace histar {

// Composite 128-bit key with lexicographic order, used by the free-by-size
// tree ((size, offset) pairs) so equal-sized extents stay distinct.
struct Key128 {
  uint64_t hi = 0;
  uint64_t lo = 0;

  friend bool operator<(const Key128& a, const Key128& b) {
    return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
  }
  friend bool operator==(const Key128& a, const Key128& b) {
    return a.hi == b.hi && a.lo == b.lo;
  }
};

// Disk extent: where an object's serialized image lives.
struct Extent {
  uint64_t offset = 0;
  uint64_t length = 0;

  friend bool operator==(const Extent&, const Extent&) = default;
};

template <typename Key, typename Value, int kFanout = 64>
class BPlusTree {
  static_assert(kFanout >= 4, "fanout too small");

 public:
  BPlusTree() { root_ = NewLeaf(); }

  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Inserts or overwrites. The allocation-failure check sits before the
  // descent so an injected failure never splits a node halfway.
  void Insert(const Key& k, const Value& v) {
    StoreAlloc::Check();
    InsertResult r = InsertRec(root_.get(), k, v);
    if (r.split) {
      auto new_root = std::make_unique<Node>();
      new_root->is_leaf = false;
      new_root->keys.push_back(r.split_key);
      new_root->children.push_back(std::move(root_));
      new_root->children.push_back(std::move(r.right));
      root_ = std::move(new_root);
    }
  }

  // Removes k; returns false if absent. (No rebalancing on delete — nodes
  // may underfill, which is acceptable for the store's workloads and keeps
  // deletion simple.)
  bool Erase(const Key& k) {
    bool erased = EraseRec(root_.get(), k);
    if (erased) {
      --size_;
      CollapseRoot();
    }
    return erased;
  }

  // First entry with key ≥ k (the allocator's best-fit probe).
  std::optional<std::pair<Key, Value>> FirstGeq(const Key& k) const {
    const Node* n = root_.get();
    while (!n->is_leaf) {
      n = n->children[ChildIndex(n, k)].get();
    }
    while (n != nullptr) {
      for (size_t i = 0; i < n->keys.size(); ++i) {
        if (!(n->keys[i] < k)) {
          return std::make_pair(n->keys[i], n->values[i]);
        }
      }
      n = n->next_leaf;
    }
    return std::nullopt;
  }

  // Greatest entry with key < k (the coalescer's left-neighbor probe).
  std::optional<std::pair<Key, Value>> LastLess(const Key& k) const {
    std::optional<std::pair<Key, Value>> best;
    const Node* n = root_.get();
    // Walk down, remembering the rightmost key < k seen on the path; then a
    // linear leaf scan. Simpler: scan leaves from the front — but that is
    // O(n); instead descend toward k and scan the leaf plus its predecessor
    // chain is not linked backwards, so collect from the subtree walk.
    n = root_.get();
    while (!n->is_leaf) {
      n = n->children[ChildIndex(n, k)].get();
    }
    // All keys < k in this leaf are candidates.
    for (size_t i = 0; i < n->keys.size(); ++i) {
      if (n->keys[i] < k) {
        best = std::make_pair(n->keys[i], n->values[i]);
      }
    }
    if (best.has_value()) {
      return best;
    }
    // Fall back: the predecessor lives in an earlier leaf. Rare path; do a
    // bounded re-descent for the maximal key < k.
    return LastLessSlow(k);
  }

  void Clear() {
    root_ = NewLeaf();
    size_ = 0;
  }

 private:
  struct Node {
    bool is_leaf = true;
    std::vector<Key> keys;
    std::vector<Value> values;                    // leaves only
    std::vector<std::unique_ptr<Node>> children;  // interior only
    Node* next_leaf = nullptr;                    // leaf chain
  };

  struct InsertResult {
    bool split = false;
    bool inserted = false;
    Key split_key{};
    std::unique_ptr<Node> right;
  };

  static std::unique_ptr<Node> NewLeaf() { return std::make_unique<Node>(); }

  // Index of the child subtree that may contain k.
  static size_t ChildIndex(const Node* n, const Key& k) {
    size_t i = 0;
    while (i < n->keys.size() && !(k < n->keys[i])) {
      ++i;
    }
    return i;
  }

  InsertResult InsertRec(Node* n, const Key& k, const Value& v) {
    InsertResult result;
    if (n->is_leaf) {
      size_t i = 0;
      while (i < n->keys.size() && n->keys[i] < k) {
        ++i;
      }
      if (i < n->keys.size() && n->keys[i] == k) {
        n->values[i] = v;  // overwrite
        return result;
      }
      n->keys.insert(n->keys.begin() + static_cast<ptrdiff_t>(i), k);
      n->values.insert(n->values.begin() + static_cast<ptrdiff_t>(i), v);
      ++size_;
      result.inserted = true;
      if (n->keys.size() > kFanout) {
        result.split = true;
        result.right = SplitLeaf(n, &result.split_key);
      }
      return result;
    }
    size_t ci = ChildIndex(n, k);
    InsertResult child = InsertRec(n->children[ci].get(), k, v);
    result.inserted = child.inserted;
    if (child.split) {
      n->keys.insert(n->keys.begin() + static_cast<ptrdiff_t>(ci), child.split_key);
      n->children.insert(n->children.begin() + static_cast<ptrdiff_t>(ci) + 1,
                         std::move(child.right));
      if (n->keys.size() > kFanout) {
        result.split = true;
        result.right = SplitInterior(n, &result.split_key);
      }
    }
    return result;
  }

  std::unique_ptr<Node> SplitLeaf(Node* n, Key* up_key) {
    auto right = std::make_unique<Node>();
    size_t mid = n->keys.size() / 2;
    right->keys.assign(n->keys.begin() + static_cast<ptrdiff_t>(mid), n->keys.end());
    right->values.assign(n->values.begin() + static_cast<ptrdiff_t>(mid), n->values.end());
    n->keys.resize(mid);
    n->values.resize(mid);
    right->next_leaf = n->next_leaf;
    n->next_leaf = right.get();
    *up_key = right->keys.front();
    return right;
  }

  std::unique_ptr<Node> SplitInterior(Node* n, Key* up_key) {
    auto right = std::make_unique<Node>();
    right->is_leaf = false;
    size_t mid = n->keys.size() / 2;
    *up_key = n->keys[mid];
    right->keys.assign(n->keys.begin() + static_cast<ptrdiff_t>(mid) + 1, n->keys.end());
    for (size_t i = mid + 1; i < n->children.size(); ++i) {
      right->children.push_back(std::move(n->children[i]));
    }
    n->keys.resize(mid);
    n->children.resize(mid + 1);
    return right;
  }

  bool EraseRec(Node* n, const Key& k) {
    if (n->is_leaf) {
      for (size_t i = 0; i < n->keys.size(); ++i) {
        if (n->keys[i] == k) {
          n->keys.erase(n->keys.begin() + static_cast<ptrdiff_t>(i));
          n->values.erase(n->values.begin() + static_cast<ptrdiff_t>(i));
          return true;
        }
      }
      return false;
    }
    return EraseRec(n->children[ChildIndex(n, k)].get(), k);
  }

  void CollapseRoot() {
    while (!root_->is_leaf && root_->children.size() == 1) {
      root_ = std::move(root_->children[0]);
    }
  }

  std::optional<std::pair<Key, Value>> LastLessSlow(const Key& k) const {
    std::optional<std::pair<Key, Value>> best;
    const Node* n = root_.get();
    while (!n->is_leaf) {
      n = n->children[0].get();
    }
    while (n != nullptr) {
      for (size_t i = 0; i < n->keys.size(); ++i) {
        if (n->keys[i] < k) {
          best = std::make_pair(n->keys[i], n->values[i]);
        } else {
          return best;
        }
      }
      n = n->next_leaf;
    }
    return best;
  }

  std::unique_ptr<Node> root_;
  size_t size_ = 0;
};

}  // namespace histar

#endif  // SRC_STORE_BPTREE_H_
