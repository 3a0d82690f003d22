// The benchmark's two workloads. Each call runs one fixed-count round in a
// freshly booted world; RATIONALE.md says why each workload was chosen.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "perfbench/bench.h"

namespace perfbench {

// One client thread: labeled 1 kB files against the persistent store, with
// periodic checkpoints, the fsync WAL path, and recovery checked at the end.
RoundResult RunFsDurable(const RoundCtx& ctx);

// A make-style load: at most nproc-1 spawned jobs in flight, one user each.
RoundResult RunParJobs(const RoundCtx& ctx);

// Job slots par_jobs keeps in flight on this host.
size_t ParJobSlots();

// Spawns one job that sleeps past its deadline. Returns only if the
// watchdog failed to end the process.
void StallOneJob(Watchdog* watchdog);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
