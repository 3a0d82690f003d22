// par_jobs: a make-style load, the only workload with real parallelism.
//
// One driver thread keeps at most nproc-1 jobs in flight, so driver plus
// jobs use at most nproc threads. Each job slot is one user with its own
// categories and a home directory labeled for that user. Each job is a
// spawned process holding its user's categories: it looks up and reads
// public headers from a shared read-only tree, reads its own labeled
// source, burns a fixed amount of CPU, writes one output file in its home
// and exits. The driver waits for the oldest job, checks its output against
// the hash it computed itself, unlinks the output and destroys the job.
//
// No two concurrent jobs write one directory: job i runs in slot
// i % slots, and the in-flight jobs are consecutive, so each slot's home
// has one writer. RATIONALE.md records why (a shared-directory load hangs
// today).
#include <sched.h>

#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/spans.h"
#include "perfbench/workloads.h"
#include "src/unixlib/unix.h"

namespace perfbench {
namespace {

using histar::CurrentThread;
using histar::Label;
using histar::ObjectId;
using histar::Result;
using spans::Span;

// A job is shaped like compiling one translation unit of this repo's src/
// tree (medians measured over it; RATIONALE.md): its .cc file, and the
// project headers it includes transitively, out of all of the tree's.
constexpr int kHeaders = 38;
constexpr int kHeadersPerJob = 14;
constexpr uint64_t kHeaderBytes = 5000;
constexpr uint64_t kSourceBytes = 11000;
// Unverified, chosen for what they exercise (RATIONALE.md).
constexpr int kJobs = 400;  // fixed count per round
constexpr int kBurnPasses = 8;
constexpr uint64_t kOutBytes = 64;
constexpr size_t kMaxSlots = 16;
constexpr uint64_t kHomeQuota = 8 << 20;
constexpr uint64_t kFileQuota = histar::kObjectOverheadBytes + 4 * histar::kPageSize;
constexpr double kJobDeadlineS = 10;
constexpr double kPhaseDeadlineS = 60;

// Everything a job reads; written during setup, read-only afterwards.
struct Plan {
  ObjectId inc_dir = histar::kInvalidObject;
  std::vector<std::string> header_names;
  std::vector<std::vector<uint8_t>> headers;
  struct Slot {
    histar::UnixUser user;
    std::vector<uint8_t> source;
  };
  std::vector<Slot> slots;
  struct Job {
    size_t slot = 0;
    int headers[kHeadersPerJob] = {};
    std::vector<uint8_t> expect;  // the output the driver computed
  };
  std::vector<Job> jobs;
};

// What a job reports back; written by the job's thread, read by the driver
// after Wait has joined that thread.
struct JobOut {
  std::vector<double> read_us;
  double create_us = 0;
  std::string error;
};

std::vector<uint8_t> Output(const Plan& plan, const Plan::Job& job, uint64_t index) {
  uint64_t h = Fnv(reinterpret_cast<const uint8_t*>(&index), sizeof(index));
  for (int i : job.headers) {
    h = Fnv(plan.headers[i].data(), plan.headers[i].size(), h);
  }
  const std::vector<uint8_t>& src = plan.slots[job.slot].source;
  for (int p = 0; p < kBurnPasses; ++p) {
    h = Fnv(src.data(), src.size(), h);
  }
  return Bytes(h, kOutBytes);
}

int64_t JobBody(histar::ProcessContext& c, const Plan& plan, std::vector<JobOut>* outs) {
  uint64_t index = std::stoull(c.args.at(1));
  Span body("job.body", index + 1);
  const Plan::Job& job = plan.jobs[index];
  const Plan::Slot& slot = plan.slots[job.slot];
  JobOut& out = (*outs)[index];
  std::vector<uint8_t> buf(kSourceBytes);
  auto read = [&](ObjectId dir, const std::string& name, uint64_t len,
                  const std::vector<uint8_t>& want) {
    uint64_t t0 = NowNs();
    Result<ObjectId> id = [&] {
      Span s("fs.Lookup");
      return c.fs.Lookup(c.self, dir, name);
    }();
    Result<uint64_t> n = histar::Status::kNotFound;
    if (id.ok()) {
      Span s("fs.ReadAt");
      n = c.fs.ReadAt(c.self, dir, id.value(), buf.data(), 0, len);
    }
    out.read_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    if (!n.ok() || n.value() != len || !std::equal(want.begin(), want.end(), buf.begin())) {
      out.error = "job read " + name + ": " +
                  std::string(histar::StatusName(id.ok() ? n.status() : id.status()));
      return false;
    }
    return true;
  };
  for (int i : job.headers) {
    if (!read(plan.inc_dir, plan.header_names[i], kHeaderBytes, plan.headers[i])) {
      return 1;
    }
  }
  if (!read(slot.user.home, "src.c", kSourceBytes, slot.source)) {
    return 1;
  }
  // The compile: the same hash the driver computed, from the bytes read.
  std::vector<uint8_t> result;
  {
    Span s("job.compile");
    uint64_t h = Fnv(reinterpret_cast<const uint8_t*>(&index), sizeof(index));
    for (int i : job.headers) {
      h = Fnv(plan.headers[i].data(), kHeaderBytes, h);
    }
    for (int p = 0; p < kBurnPasses; ++p) {
      h = Fnv(buf.data(), kSourceBytes, h);
    }
    result = Bytes(h, kOutBytes);
  }
  uint64_t t0 = NowNs();
  Result<ObjectId> f = [&] {
    Span s("fs.Create");
    return c.fs.Create(c.self, slot.user.home, "o" + std::to_string(index),
                       slot.user.FileLabel(), kFileQuota);
  }();
  histar::Status st = f.status();
  if (f.ok()) {
    Span s("fs.WriteAt");
    st = c.fs.WriteAt(c.self, slot.user.home, f.value(), result.data(), 0, result.size());
  }
  out.create_us = static_cast<double>(NowNs() - t0) / 1e3;
  if (st != histar::Status::kOk) {
    out.error = "job create: " + std::string(histar::StatusName(st));
    return 1;
  }
  return 0;
}

// A booted world plus the par_jobs tree and users.
struct JobWorld {
  std::unique_ptr<histar::Kernel> kernel;
  std::unique_ptr<histar::UnixWorld> unix;
  ObjectId init = histar::kInvalidObject;

  ~JobWorld() { CurrentThread::Set(histar::kInvalidObject); }

  bool Boot(bool traced, RoundResult* r) {
    kernel = std::make_unique<histar::Kernel>();
    if (traced) {
      EnableLockAccounting(*kernel);
    }
    unix = histar::UnixWorld::Boot(kernel.get());
    if (!r->Check(unix != nullptr, "UnixWorld::Boot")) {
      return false;
    }
    init = unix->init_thread();
    CurrentThread::Set(init);
    return true;
  }
};

bool SetupPlan(JobWorld& w, uint64_t seed, size_t slots, Plan* plan, RoundResult* r) {
  histar::FileSystem& fs = w.unix->fs();
  Rng rng(seed);
  Result<ObjectId> inc = fs.MakeDir(w.init, w.unix->fs_root(), "inc", Label(), 4 << 20);
  if (!r->Check(inc.status(), "MakeDir inc")) {
    return false;
  }
  plan->inc_dir = inc.value();
  for (int i = 0; i < kHeaders; ++i) {
    plan->header_names.push_back("h" + std::to_string(i) + ".h");
    plan->headers.push_back(Bytes(rng.Next(), kHeaderBytes));
    Result<ObjectId> f = fs.Create(w.init, plan->inc_dir, plan->header_names.back(), Label(),
                                   kFileQuota);
    if (!r->Check(f.status(), "Create header") ||
        !r->Check(fs.WriteAt(w.init, plan->inc_dir, f.value(), plan->headers.back().data(), 0,
                             kHeaderBytes),
                  "WriteAt header")) {
      return false;
    }
  }
  Result<ObjectId> users = fs.MakeDir(w.init, w.unix->fs_root(), "u", Label(),
                                      (slots + 1) * kHomeQuota);
  if (!r->Check(users.status(), "MakeDir u")) {
    return false;
  }
  for (size_t s = 0; s < slots; ++s) {
    Plan::Slot slot;
    Result<histar::CategoryId> ur = w.kernel->sys_cat_create(w.init);
    Result<histar::CategoryId> uw = w.kernel->sys_cat_create(w.init);
    if (!r->Check(ur.status(), "cat_create ur") || !r->Check(uw.status(), "cat_create uw")) {
      return false;
    }
    slot.user.name = "user" + std::to_string(s);
    slot.user.ur = ur.value();
    slot.user.uw = uw.value();
    Result<ObjectId> home =
        fs.MakeDir(w.init, users.value(), slot.user.name, slot.user.FileLabel(), kHomeQuota);
    if (!r->Check(home.status(), "MakeDir home")) {
      return false;
    }
    slot.user.home = home.value();
    slot.source = Bytes(rng.Next(), kSourceBytes);
    Result<ObjectId> src = fs.Create(w.init, slot.user.home, "src.c", slot.user.FileLabel(),
                                     histar::kObjectOverheadBytes + 4 * kSourceBytes);
    if (!r->Check(src.status(), "Create source") ||
        !r->Check(fs.WriteAt(w.init, slot.user.home, src.value(), slot.source.data(), 0,
                             kSourceBytes),
                  "WriteAt source")) {
      return false;
    }
    plan->slots.push_back(std::move(slot));
  }
  plan->jobs.resize(kJobs);
  for (uint64_t j = 0; j < kJobs; ++j) {
    Plan::Job& job = plan->jobs[j];
    job.slot = j % slots;
    // Distinct headers, as a translation unit includes each once.
    int pick[kHeaders];
    for (int i = 0; i < kHeaders; ++i) {
      pick[i] = i;
    }
    for (int i = 0; i < kHeadersPerJob; ++i) {
      std::swap(pick[i], pick[i + rng.Below(kHeaders - i)]);
      job.headers[i] = pick[i];
    }
  }
  return true;
}

struct InFlight {
  uint64_t index;
  uint64_t start_ns;
  std::unique_ptr<histar::ProcHandle> handle;
};

}  // namespace

size_t ParJobSlots() {
  cpu_set_t set;
  CPU_ZERO(&set);
  size_t cpus = sched_getaffinity(0, sizeof(set), &set) == 0
                    ? static_cast<size_t>(CPU_COUNT(&set))
                    : std::thread::hardware_concurrency();
  return std::clamp<size_t>(cpus > 1 ? cpus - 1 : 1, 1, kMaxSlots);
}

RoundResult RunParJobs(const RoundCtx& ctx) {
  RoundResult r;
  Watchdog* wd = ctx.watchdog;
  const size_t slots = ParJobSlots();
  Plan plan;
  std::vector<JobOut> outs(kJobs);

  uint64_t t0 = NowNs();
  JobWorld w;
  bool ok;
  {
    Deadline d(wd, 0, "setup", kPhaseDeadlineS);
    ok = w.Boot(ctx.traced, &r) && SetupPlan(w, ctx.seed, slots, &plan, &r);
  }
  r.setup_s = static_cast<double>(NowNs() - t0) / 1e9;
  if (!ok) {
    return r;
  }
  // The oracle's expected outputs are the benchmark's own work, so they are
  // computed outside set-up time.
  for (uint64_t j = 0; j < kJobs; ++j) {
    plan.jobs[j].expect = Output(plan, plan.jobs[j], j);
  }
  histar::ProcessManager& procs = w.unix->procs();
  procs.RegisterProgram("cc", [&plan, &outs](histar::ProcessContext& c) -> int64_t {
    return JobBody(c, plan, &outs);
  });
  histar::FileSystem& fs = w.unix->fs();

  spans::SetEnabled(ctx.traced);
  KernelCounters kc0 = KernelCounters::Read(*w.kernel);
  SyscallHist hist0 = SyscallHist::Read();
  uint64_t busy_ns = 0;
  uint64_t start = NowNs();
  std::deque<InFlight> q;
  uint64_t next = 0;
  while (next < kJobs || !q.empty()) {
    if (next < kJobs && q.size() < slots) {
      const Plan::Job& job = plan.jobs[next];
      histar::ProcessOpts opts;
      opts.extra_ownership = plan.slots[job.slot].user.OwnershipEntries();
      InFlight f{next, NowNs(), nullptr};
      wd->Begin(1 + job.slot, "job", kJobDeadlineS);
      Result<std::unique_ptr<histar::ProcHandle>> h = [&] {
        Deadline d(wd, 0, "proc.Spawn", kJobDeadlineS);
        Span s("proc.Spawn", next + 1);
        return procs.Spawn(w.unix->init_context(), "cc", {"cc", std::to_string(next)}, opts);
      }();
      busy_ns += NowNs() - f.start_ns;
      ++next;
      if (!r.Check(h.status(), "proc.Spawn")) {
        wd->End(1 + job.slot);
        continue;
      }
      f.handle = h.take();
      q.push_back(std::move(f));
      continue;
    }
    InFlight f = std::move(q.front());
    q.pop_front();
    const Plan::Job& job = plan.jobs[f.index];
    const histar::UnixUser& user = plan.slots[job.slot].user;
    Result<int64_t> status = [&] {
      Deadline d(wd, 0, "proc.Wait", kJobDeadlineS);
      Span s("proc.Wait", f.index + 1);
      return f.handle->Wait(w.init, static_cast<uint32_t>(2 * kJobDeadlineS * 1000));
    }();
    r.samples["op_ms"].push_back(static_cast<double>(NowNs() - f.start_ns) / 1e6);
    wd->End(1 + job.slot);
    ++r.ops;
    // A job's outputs are read only after Wait has joined its thread.
    const JobOut& out = outs[f.index];
    if (r.Check(status.status(), "proc.Wait") &&
        r.Check(status.value() == 0, "job exit status", out.error)) {
      r.samples["read_us"].insert(r.samples["read_us"].end(), out.read_us.begin(),
                                  out.read_us.end());
      r.samples["create_us"].push_back(out.create_us);
      // Output oracle: the bytes the job wrote equal the driver's hash.
      Deadline d(wd, 0, "verify", kJobDeadlineS);
      std::string name = "o" + std::to_string(f.index);
      Result<ObjectId> id = [&] {
        Span s("fs.Lookup", f.index + 1);
        return fs.Lookup(w.init, user.home, name);
      }();
      if (r.Check(id.status(), "fs.Lookup output")) {
        std::vector<uint8_t> buf(kOutBytes);
        Result<uint64_t> n = [&] {
          Span s("fs.ReadAt", f.index + 1);
          return fs.ReadAt(w.init, user.home, id.value(), buf.data(), 0, kOutBytes);
        }();
        r.Check(n.ok() && n.value() == kOutBytes && buf == job.expect,
                "job output differs from the driver's hash", name);
        Span s("fs.Unlink", f.index + 1);
        r.Check(fs.Unlink(w.init, user.home, name), "fs.Unlink output");
      }
    }
    uint64_t d0 = NowNs();
    {
      Deadline d(wd, 0, "proc.Destroy", kJobDeadlineS);
      Span s("proc.Destroy", f.index + 1);
      r.Check(f.handle->Destroy(w.init), "proc.Destroy");
      f.handle.reset();
    }
    busy_ns += NowNs() - d0;
  }
  uint64_t wall = NowNs() - start;
  spans::SetEnabled(false);
  r.wall_s = static_cast<double>(wall) / 1e9;
  r.scalars["span_wall_s"] = r.wall_s;
  r.scalars["ops_per_s"] = static_cast<double>(r.ops) / r.wall_s;
  if (ctx.traced) {
    FillKernelLayers(*w.kernel, w.init, kc0, hist0, r.ops, &r);
    FillAbsentStoreLayers(&r);
    r.layer["unixlib.proc.driver_busy_ratio"] = {
        static_cast<double>(busy_ns) / static_cast<double>(wall),
        std::to_string(busy_ns / 1000) + " us in Spawn+Destroy / " + std::to_string(wall / 1000) +
            " us wall"};
  }
  return r;
}

void StallOneJob(Watchdog* wd) {
  RoundResult r;
  JobWorld w;
  if (!w.Boot(false, &r)) {
    return;
  }
  histar::ProcessManager& procs = w.unix->procs();
  procs.RegisterProgram("stall", [](histar::ProcessContext&) -> int64_t {
    std::this_thread::sleep_for(std::chrono::seconds(5));
    return 0;
  });
  wd->Begin(1, "job(injected stall)", 0.2);
  Result<std::unique_ptr<histar::ProcHandle>> h =
      procs.Spawn(w.unix->init_context(), "stall", {"stall"});
  if (h.ok()) {
    (void)h.value()->Wait(w.init, 10000);
    h.value()->Destroy(w.init);
  }
}

}  // namespace perfbench
