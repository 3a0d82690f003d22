// Tests for the sharded label registry (paper §4: interned immutable labels
// and memoized ⊑). Covers the single-threaded contract — intern stability,
// precomputed shifted variants, memoization equivalence — and the properties
// that make the sharding sound under concurrency: interning the same label
// from many threads yields one id, and memoized answers never diverge from
// direct comparisons no matter how races interleave.
#include "src/core/label_registry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <thread>
#include <vector>

#include "src/core/label_memo.h"
#include "src/kernel/kernel.h"

namespace histar {
namespace {

Label RandomLabel(std::mt19937_64* rng, bool allow_star = true) {
  std::uniform_int_distribution<int> def_dist(1, 4);
  std::uniform_int_distribution<int> lvl_dist(allow_star ? 0 : 1, 4);
  std::uniform_int_distribution<int> count_dist(0, 6);
  std::uniform_int_distribution<CategoryId> cat_dist(1, 12);
  Label l(static_cast<Level>(def_dist(*rng)));
  int n = count_dist(*rng);
  for (int i = 0; i < n; ++i) {
    l.set(cat_dist(*rng), static_cast<Level>(lvl_dist(*rng)));
  }
  return l;
}

TEST(LabelRegistry, InternIsStableForEqualLabels) {
  LabelRegistry reg;
  Label a(Level::k1, {{5, Level::k3}});
  Label b(Level::k1, {{5, Level::k3}});
  EXPECT_EQ(reg.Intern(a), reg.Intern(b));
  Label c(Level::k1, {{5, Level::k2}});
  EXPECT_NE(reg.Intern(a), reg.Intern(c));
  EXPECT_EQ(reg.size(), 2u);
}

TEST(LabelRegistry, NeverHandsOutInvalidId) {
  LabelRegistry reg;
  EXPECT_NE(reg.Intern(Label()), kInvalidLabelId);
}

TEST(LabelRegistry, GetReturnsCanonicalLabel) {
  LabelRegistry reg;
  Label a(Level::k2, {{7, Level::kStar}, {9, Level::k3}});
  LabelId id = reg.Intern(a);
  EXPECT_EQ(reg.Get(id), a);
}

TEST(LabelRegistry, HiAndStarArePrecomputedShifts) {
  LabelRegistry reg;
  Label a(Level::k1, {{3, Level::kStar}, {4, Level::k2}});
  LabelId id = reg.Intern(a);
  EXPECT_EQ(reg.GetHi(id), a.ToHi());
  EXPECT_EQ(reg.GetStar(id), a.ToStar());
  // The id-of-shift accessors intern lazily and are stable.
  LabelId hi = reg.HiOf(id);
  EXPECT_EQ(hi, reg.HiOf(id));
  EXPECT_EQ(reg.Get(hi), a.ToHi());
  LabelId star = reg.StarOf(id);
  EXPECT_EQ(reg.Get(star), a.ToStar());
  // Shifting is idempotent through the registry too.
  EXPECT_EQ(reg.HiOf(hi), hi);
}

TEST(LabelRegistry, LeqMatchesDirectComparison) {
  LabelRegistry reg;
  std::mt19937_64 rng(42);
  for (int i = 0; i < 500; ++i) {
    Label a = RandomLabel(&rng);
    Label b = RandomLabel(&rng);
    LabelId ia = reg.Intern(a);
    LabelId ib = reg.Intern(b);
    EXPECT_EQ(reg.Leq(ia, ib), a.Leq(b)) << a.ToString() << " vs " << b.ToString();
    // Second query exercises the memoized path; must agree.
    EXPECT_EQ(reg.Leq(ia, ib), a.Leq(b));
  }
}

TEST(LabelRegistry, JoinMatchesDirectAndIsInterned) {
  LabelRegistry reg;
  std::mt19937_64 rng(7);
  for (int i = 0; i < 300; ++i) {
    Label a = RandomLabel(&rng);
    Label b = RandomLabel(&rng);
    LabelId ia = reg.Intern(a);
    LabelId ib = reg.Intern(b);
    LabelId j1 = reg.Join(ia, ib);
    EXPECT_EQ(reg.Get(j1), a.Join(b));
    // Commutativity at the id level: both orders resolve to the same id.
    EXPECT_EQ(j1, reg.Join(ib, ia));
    // The join result is a first-class interned label.
    EXPECT_EQ(j1, reg.Intern(a.Join(b)));
  }
}

TEST(LabelRegistry, SecondLookupHits) {
  LabelRegistry reg;
  LabelId a = reg.Intern(Label());
  LabelId b = reg.Intern(Label(Level::k2));
  reg.ResetStats();
  reg.Leq(a, b);
  EXPECT_EQ(reg.misses(), 1u);
  EXPECT_EQ(reg.hits(), 0u);
  reg.Leq(a, b);
  EXPECT_EQ(reg.hits(), 1u);
}

TEST(LabelRegistry, IdenticalIdsShortCircuit) {
  LabelRegistry reg;
  LabelId a = reg.Intern(Label(Level::k3));
  reg.ResetStats();
  EXPECT_TRUE(reg.Leq(a, a));
  EXPECT_EQ(reg.hits(), 0u);
  EXPECT_EQ(reg.misses(), 0u);
}

TEST(LabelRegistry, DisabledFallsBackToDirect) {
  LabelRegistry reg;
  reg.set_enabled(false);
  LabelId a = reg.Intern(Label());
  LabelId b = reg.Intern(Label(Level::k2));
  reg.ResetStats();
  EXPECT_TRUE(reg.Leq(a, b));
  EXPECT_FALSE(reg.Leq(b, a));
  EXPECT_EQ(reg.hits(), 0u);
  EXPECT_EQ(reg.misses(), 0u);
}

TEST(LabelRegistry, OrderMattersInKey) {
  LabelRegistry reg;
  LabelId lo = reg.Intern(Label());            // {1}
  LabelId hi = reg.Intern(Label(Level::k2));   // {2}
  EXPECT_TRUE(reg.Leq(lo, hi));
  EXPECT_FALSE(reg.Leq(hi, lo));
}

TEST(LabelRegistry, SingleShardConfigurationBehavesIdentically) {
  LabelRegistry reg(1);
  EXPECT_EQ(reg.shard_count(), 1u);
  std::mt19937_64 rng(3);
  for (int i = 0; i < 200; ++i) {
    Label a = RandomLabel(&rng);
    Label b = RandomLabel(&rng);
    EXPECT_EQ(reg.Leq(reg.Intern(a), reg.Intern(b)), a.Leq(b));
  }
}

TEST(LabelRegistry, ShardCountRoundsToPowerOfTwo) {
  EXPECT_EQ(LabelRegistry(3).shard_count(), 2u);
  EXPECT_EQ(LabelRegistry(16).shard_count(), 16u);
  EXPECT_EQ(LabelRegistry(1000).shard_count(), LabelRegistry::kMaxShardCount);
}

// The n-th distinct label of a family: {1, c_n 2} for category n + 1.
Label NthLabel(int n) {
  return Label(Level::k1, {{static_cast<CategoryId>(n + 1), Level::k2}});
}

TEST(LabelRegistry, IdsResolveAcrossChunkBoundaries) {
  // Chunk k of a shard holds 8 << k entries, so slots 7|8, 23|24, 55|56,
  // ... straddle chunk boundaries. One shard puts every label in it; 1,000
  // labels fill chunks 0–6 and start chunk 7.
  LabelRegistry reg(1);
  constexpr int kLabels = 1000;
  std::vector<LabelId> ids;
  for (int n = 0; n < kLabels; ++n) {
    ids.push_back(reg.Intern(NthLabel(n)));
  }
  EXPECT_EQ(reg.size(), static_cast<size_t>(kLabels));
  for (int n = 0; n < kLabels; ++n) {
    ASSERT_TRUE(reg.Known(ids[n])) << n;
    EXPECT_EQ(reg.Get(ids[n]), NthLabel(n)) << n;
    EXPECT_EQ(reg.GetHi(ids[n]), NthLabel(n).ToHi()) << n;
    EXPECT_EQ(reg.Intern(NthLabel(n)), ids[n]) << n;  // stable, not re-added
    if (n > 0) {
      EXPECT_GT(ids[n], ids[n - 1]) << "one shard hands out ids in intern order";
    }
  }
  EXPECT_EQ(reg.size(), static_cast<size_t>(kLabels));
  EXPECT_FALSE(reg.Known(ids.back() + 1));
}

TEST(LabelRegistry, EnumerateSinceVisitsShardsInOrderAndSlotsInInternOrder) {
  LabelRegistry reg(4);
  std::vector<std::vector<LabelId>> per_shard(4);
  auto intern = [&](int from, int to) {
    for (int n = from; n < to; ++n) {
      LabelId id = reg.Intern(NthLabel(n));
      per_shard[id & 3].push_back(id);
    }
  };
  intern(0, 300);
  LabelRegistry::SnapshotMark mark = reg.Snapshot();
  std::vector<size_t> before(4);
  for (size_t i = 0; i < 4; ++i) {
    before[i] = per_shard[i].size();
    EXPECT_EQ(mark[i], before[i]);
  }
  intern(300, 700);

  for (bool since_mark : {false, true}) {
    std::vector<LabelId> want;
    for (size_t i = 0; i < 4; ++i) {
      want.insert(want.end(), per_shard[i].begin() + (since_mark ? before[i] : 0),
                  per_shard[i].end());
    }
    std::vector<LabelId> got;
    reg.EnumerateSince(since_mark ? mark : LabelRegistry::SnapshotMark{},
                       [&](LabelId id, const Label& l) {
                         EXPECT_EQ(l, reg.Get(id));
                         got.push_back(id);
                       });
    EXPECT_EQ(got, want) << (since_mark ? "since the mark" : "everything");
  }
  EXPECT_EQ(reg.size(), 700u);
}

// ---- concurrency -------------------------------------------------------------

// Many threads intern an overlapping universe of labels. Interning must be
// stable (same label → same id everywhere) and ids must resolve back to the
// label that produced them.
TEST(LabelRegistryStress, ConcurrentInterningIsStable) {
  LabelRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::vector<std::pair<Label, LabelId>>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Same seed on every thread: maximal collision pressure on the
      // intern shards.
      std::mt19937_64 rng(99);
      for (int i = 0; i < kIters; ++i) {
        Label l = RandomLabel(&rng);
        seen[t].emplace_back(l, reg.Intern(l));
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  // Every thread interned the identical sequence; ids must agree pairwise
  // and resolve to the canonical label.
  for (int i = 0; i < kIters; ++i) {
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(seen[t][i].second, seen[0][i].second);
    }
    EXPECT_EQ(reg.Get(seen[0][i].second), seen[0][i].first);
  }
}

// Concurrent memoized checks must never contradict the direct comparison,
// regardless of which thread populates the memo first.
TEST(LabelRegistryStress, ConcurrentMemoizationIsSound) {
  LabelRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 4000;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(1000 + t % 2);  // half the threads share a seed
      for (int i = 0; i < kIters; ++i) {
        Label a = RandomLabel(&rng);
        Label b = RandomLabel(&rng);
        LabelId ia = reg.Intern(a);
        LabelId ib = reg.Intern(b);
        bool memo = reg.Leq(ia, ib);
        if (memo != a.Leq(b)) {
          failures.fetch_add(1);
        }
        LabelId j = reg.Join(ia, ib);
        if (reg.Get(j) != a.Join(b)) {
          failures.fetch_add(1);
        }
        LabelId hi = reg.HiOf(ia);
        if (reg.Get(hi) != a.ToHi()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);
}

// ---- syscall-boundary discipline ---------------------------------------------

// Caller-supplied labels are validated with non-interning comparisons and
// interned only on success: a failed syscall must not grow kernel state, or
// rejected labels become a quota-free unbounded-memory channel.
TEST(KernelRegistryBoundary, RejectedLabelsAreNotInterned) {
  Kernel k;
  ObjectId init = k.BootstrapThread(Label(), Label(Level::k2), "probe");
  size_t before = k.label_registry().size();
  for (int i = 0; i < 16; ++i) {
    // Each iteration uses a fresh label above the thread's clearance, so
    // both the relabel and the creation are rejected.
    Label bad(Level::k1, {{static_cast<CategoryId>(1000 + i), Level::k3}});
    EXPECT_EQ(k.sys_self_set_label(init, bad), Status::kLabelCheckFailed);
    CreateSpec spec;
    spec.container = k.root_container();
    spec.label = bad;
    spec.descrip = "bad";
    EXPECT_FALSE(k.sys_segment_create(init, spec, 16).ok());
  }
  EXPECT_EQ(k.label_registry().size(), before);
}

// ---- the user-level gate-floor memo ------------------------------------------

TEST(GateFloorMemo, MatchesDirectComputationAndInternsOnce) {
  GateFloorMemo memo;
  Label t(Level::k1, {{4, Level::k2}});
  Label g(Level::k1, {{9, Level::kStar}});
  EXPECT_EQ(memo.Floor(t, g), t.ToHi().Join(g.ToHi()).ToStar());
  memo.Floor(t, g);
  EXPECT_EQ(memo.size(), 1u);  // repeat call reused the entry, no rebuild
  memo.Floor(g, t);
  EXPECT_EQ(memo.size(), 2u);
}

TEST(GateFloorMemo, BoundedGrowthFlushesWhenFull) {
  // Long-lived daemons see a fresh caller label per session; the memo must
  // not grow without bound under that churn.
  GateFloorMemo memo;
  Label g(Level::k1, {{2, Level::kStar}});
  for (size_t i = 0; i < GateFloorMemo::kMaxEntries + 10; ++i) {
    Label t(Level::k1, {{100 + i, Level::k2}});
    EXPECT_EQ(memo.Floor(t, g), t.ToHi().Join(g.ToHi()).ToStar());
  }
  EXPECT_LE(memo.size(), GateFloorMemo::kMaxEntries);
}

TEST(GateFloorMemo, ConcurrentFloorsAgree) {
  GateFloorMemo memo;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      std::mt19937_64 rng(5);
      for (int i = 0; i < 1000; ++i) {
        Label a = RandomLabel(&rng);
        Label b = RandomLabel(&rng);
        if (memo.Floor(a, b) != a.ToHi().Join(b.ToHi()).ToStar()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace histar
