// B+-tree unit and property tests (paper §4: fixed-size keys and values).
#include "src/store/bptree.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <random>
#include <vector>

namespace histar {
namespace {

// Point lookup through the allocator's own probe: the entry at k, if any.
template <typename Tree>
std::optional<uint64_t> Lookup(const Tree& t, uint64_t k) {
  auto e = t.FirstGeq(k);
  if (!e.has_value() || e->first != k) {
    return std::nullopt;
  }
  return e->second;
}

// Every key in ascending order, walked with FirstGeq.
std::vector<uint64_t> Keys(const BPlusTree<uint64_t, uint64_t, 8>& t) {
  std::vector<uint64_t> keys;
  for (auto e = t.FirstGeq(0); e.has_value(); e = t.FirstGeq(e->first + 1)) {
    keys.push_back(e->first);
  }
  return keys;
}

TEST(BPlusTree, InsertLookupErase) {
  BPlusTree<uint64_t, uint64_t> t;
  EXPECT_TRUE(t.empty());
  t.Insert(5, 50);
  t.Insert(3, 30);
  t.Insert(9, 90);
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(Lookup(t, 5).value(), 50u);
  EXPECT_EQ(Lookup(t, 3).value(), 30u);
  EXPECT_FALSE(Lookup(t, 4).has_value());
  EXPECT_TRUE(t.Erase(3));
  EXPECT_FALSE(t.Erase(3));
  EXPECT_FALSE(Lookup(t, 3).has_value());
  EXPECT_EQ(t.size(), 2u);
}

TEST(BPlusTree, InsertOverwrites) {
  BPlusTree<uint64_t, uint64_t> t;
  t.Insert(1, 10);
  t.Insert(1, 11);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(Lookup(t, 1).value(), 11u);
}

TEST(BPlusTree, FirstGeqFindsCeiling) {
  BPlusTree<uint64_t, uint64_t> t;
  for (uint64_t k : {10, 20, 30, 40}) {
    t.Insert(k, k * 10);
  }
  EXPECT_EQ(t.FirstGeq(15)->first, 20u);
  EXPECT_EQ(t.FirstGeq(20)->first, 20u);
  EXPECT_EQ(t.FirstGeq(41), std::nullopt);
  EXPECT_EQ(t.FirstGeq(0)->first, 10u);
}

TEST(BPlusTree, LastLessFindsFloor) {
  BPlusTree<uint64_t, uint64_t> t;
  for (uint64_t k : {10, 20, 30, 40}) {
    t.Insert(k, k);
  }
  EXPECT_EQ(t.LastLess(15)->first, 10u);
  EXPECT_EQ(t.LastLess(10), std::nullopt);
  EXPECT_EQ(t.LastLess(100)->first, 40u);
}

TEST(BPlusTree, SplitsKeepEveryKey) {
  BPlusTree<uint64_t, uint64_t, 4> t;  // tiny fanout forces deep trees
  for (uint64_t i = 0; i < 1000; ++i) {
    t.Insert(i, i);
  }
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_EQ(Lookup(t, i).value(), i);
    if (i > 0) {
      ASSERT_EQ(t.LastLess(i)->first, i - 1);
    }
  }
}

TEST(BPlusTree, Key128LexicographicOrder) {
  BPlusTree<Key128, uint64_t> t;
  t.Insert(Key128{1, 100}, 1);
  t.Insert(Key128{1, 200}, 2);
  t.Insert(Key128{2, 0}, 3);
  auto r = t.FirstGeq(Key128{1, 150});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->second, 2u);
  auto r2 = t.FirstGeq(Key128{1, 201});
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->second, 3u);
}

// Property sweep: the tree must agree with std::map under random workloads.
class BPlusTreeProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BPlusTreeProperty, MatchesReferenceMap) {
  std::mt19937_64 rng(GetParam());
  BPlusTree<uint64_t, uint64_t, 8> t;
  std::map<uint64_t, uint64_t> ref;
  std::uniform_int_distribution<uint64_t> key_dist(0, 500);
  for (int i = 0; i < 5000; ++i) {
    uint64_t k = key_dist(rng);
    switch (rng() % 3) {
      case 0: {
        uint64_t v = rng();
        t.Insert(k, v);
        ref[k] = v;
        break;
      }
      case 1: {
        EXPECT_EQ(t.Erase(k), ref.erase(k) > 0);
        break;
      }
      default: {
        auto it = ref.find(k);
        auto got = Lookup(t, k);
        if (it == ref.end()) {
          EXPECT_FALSE(got.has_value());
        } else {
          ASSERT_TRUE(got.has_value());
          EXPECT_EQ(*got, it->second);
        }
      }
    }
  }
  EXPECT_EQ(t.size(), ref.size());
  // Ordered iteration agrees.
  std::vector<uint64_t> keys = Keys(t);
  std::vector<uint64_t> ref_keys;
  for (const auto& [k, v] : ref) {
    ref_keys.push_back(k);
  }
  EXPECT_EQ(keys, ref_keys);
  // FirstGeq / LastLess agree at random probes.
  for (int i = 0; i < 200; ++i) {
    uint64_t probe = key_dist(rng);
    auto geq = t.FirstGeq(probe);
    auto it = ref.lower_bound(probe);
    if (it == ref.end()) {
      EXPECT_FALSE(geq.has_value());
    } else {
      ASSERT_TRUE(geq.has_value());
      EXPECT_EQ(geq->first, it->first);
    }
    auto less = t.LastLess(probe);
    auto lit = ref.lower_bound(probe);
    if (lit == ref.begin()) {
      EXPECT_FALSE(less.has_value());
    } else {
      --lit;
      ASSERT_TRUE(less.has_value());
      EXPECT_EQ(less->first, lit->first);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BPlusTreeProperty, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace histar
