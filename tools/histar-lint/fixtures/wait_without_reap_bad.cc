// Fixture: ProcHandles waited on but never destroyed — must trip
// wait-without-reap. The spawner keeps each child's pr/pw ownership.
#include "src/unixlib/process.h"

namespace histar {

std::string ServeOne(ProcessContext& ctx, ObjectId area) {
  Result<std::unique_ptr<ProcHandle>> worker = ctx.mgr->Spawn(ctx, "worker", {});
  if (worker.ok()) {
    worker.value()->Wait(ctx.self, 5000);  // BAD: only the area is revoked
  }
  ctx.kernel->sys_container_unref(ctx.self, ContainerEntry{ctx.env.proc_root, area});
  return "done";
}

int64_t Collect(ProcessContext& ctx, ProcHandle* h) {
  Result<int64_t> st = h->Wait(ctx.self);  // BAD
  return st.ok() ? st.value() : -1;
}

void Helper(ProcessContext& ctx) {
  auto h = ctx.mgr->Spawn(ctx, "av-helper", {"av-helper"});
  h.value()->Wait(ctx.self);  // BAD: auto-typed handle
}

}  // namespace histar
