// Liveness (ctest label `liveness`, with a hard per-test TIMEOUT in
// CMakeLists.txt): many threads mutating one directory must all finish,
// and no update may be lost.
//
// Every directory update takes the directory segment's mutex, a
// three-state futex mutex on sys_segment_cas. Its predecessor compared and
// stored the word in two separate kernel calls, so two waiters could
// interleave: the word ended at 2 with no holder, and every thread slept
// out its futex timeout and retried forever (the Fig. 13 build hang), or
// two threads held the mutex at once and one entry overwrote another.
// Here 24 threads create 20 files each in one directory; then a spawned
// process lists the directory and the parent waits for it.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/unixlib/unix.h"

namespace histar {
namespace {

constexpr int kThreads = 24;
constexpr int kFilesPerThread = 20;

TEST(LivenessTest, ConcurrentCreatorsInOneDirectoryAllFinish) {
  Kernel kernel;
  std::unique_ptr<UnixWorld> world = UnixWorld::Boot(&kernel);
  ASSERT_NE(world, nullptr);
  ObjectId init = world->init_thread();
  CurrentThread bind(init);
  Result<ObjectId> dir = world->fs().MakeDir(init, world->tmp_dir(), "shared", Label(), 8 << 20);
  ASSERT_TRUE(dir.ok()) << StatusName(dir.status());

  std::vector<ObjectId> creators;
  for (int t = 0; t < kThreads; ++t) {
    creators.push_back(kernel.BootstrapThread(Label(), Label(Level::k2), "creator"));
  }
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      CurrentThread me(creators[t]);
      FileSystem fs(&kernel);
      for (int i = 0; i < kFilesPerThread; ++i) {
        std::string name = "t" + std::to_string(t) + "_" + std::to_string(i);
        failures[t] += !fs.Create(creators[t], dir.value(), name, Label(),
                                  kObjectOverheadBytes + 64)
                            .ok();
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "creator " << t;
  }

  // A process spawned afterwards sees every entry, and the parent's wait
  // returns.
  ProcessManager& procs = world->procs();
  ObjectId shared = dir.value();
  procs.RegisterProgram("lister", [shared](ProcessContext& ctx) -> int64_t {
    Result<std::vector<std::pair<std::string, ObjectId>>> list = ctx.fs.ReadDir(ctx.self, shared);
    return list.ok() ? static_cast<int64_t>(list.value().size()) : -1;
  });
  Result<std::unique_ptr<ProcHandle>> h = procs.Spawn(world->init_context(), "lister", {});
  ASSERT_TRUE(h.ok()) << StatusName(h.status());
  Result<int64_t> listed = h.value()->Wait(init);
  h.value()->Destroy(init);
  ASSERT_TRUE(listed.ok()) << StatusName(listed.status());
  EXPECT_EQ(listed.value(), kThreads * kFilesPerThread);

  // Every name is there, each bound to its own object.
  Result<std::vector<std::pair<std::string, ObjectId>>> list = world->fs().ReadDir(init, shared);
  ASSERT_TRUE(list.ok()) << StatusName(list.status());
  std::set<std::string> names;
  std::set<ObjectId> objects;
  for (const auto& [name, id] : list.value()) {
    names.insert(name);
    objects.insert(id);
  }
  EXPECT_EQ(names.size(), static_cast<size_t>(kThreads * kFilesPerThread));
  EXPECT_EQ(objects.size(), static_cast<size_t>(kThreads * kFilesPerThread));
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kFilesPerThread; ++i) {
      std::string name = "t" + std::to_string(t) + "_" + std::to_string(i);
      EXPECT_TRUE(world->fs().Lookup(init, shared, name).ok()) << name;
    }
  }
}

}  // namespace
}  // namespace histar
