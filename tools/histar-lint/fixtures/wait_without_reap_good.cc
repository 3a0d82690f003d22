// Fixture: every waited-on ProcHandle is reaped with Destroy in the same
// function — wait-without-reap must stay quiet. Decoys: a CondVar::Wait,
// Wait calls inside comments and strings, and a Destroy on another object.
#include "src/core/sync.h"
#include "src/unixlib/process.h"

namespace histar {

struct Queue {
  Mutex mu;
  CondVar cv;
  bool ready GUARDED_BY(mu) = false;

  void Block() {
    MutexLock lock(&mu);
    while (!ready) {
      cv.Wait(mu);  // a condition variable, not a process
    }
  }
};

std::string ServeOne(ProcessContext& ctx) {
  // worker.value()->Wait(ctx.self) in a comment is not a finding.
  const char* doc = "h->Wait(self) without Destroy";
  (void)doc;
  Result<std::unique_ptr<ProcHandle>> worker = ctx.mgr->Spawn(ctx, "worker", {});
  if (worker.ok()) {
    worker.value()->Wait(ctx.self, 5000);
    worker.value()->Destroy(ctx.self);
  }
  return "done";
}

int64_t Collect(ProcessContext& ctx, ProcHandle* h) {
  Result<int64_t> st = h->Wait(ctx.self);
  h->Destroy(ctx.self);
  return st.ok() ? st.value() : -1;
}

void Helper(ProcessContext& ctx) {
  auto h = ctx.mgr->Spawn(ctx, "av-helper", {"av-helper"});
  h.value()->Wait(ctx.self);
  if (h.ok()) {
    h.value()->Destroy(ctx.self);
  }
}

}  // namespace histar
