// The batched syscall dispatcher (PR 3) and the legacy one-element wrappers.
//
// SubmitBatch is the single kernel entry point: it walks the request span in
// submission order, unions the shard footprints of consecutive *batchable*
// requests (those whose footprint is computable from the descriptor alone
// and whose execution neither blocks nor leaves the lock), and executes each
// such group under ONE ascending-order TableLock — the lock round-trip that
// used to be paid per call is paid per group. Requests that cannot join a
// group (data-dependent footprints, unlocked phases, sleeps: as_access,
// thread_alert, container_unref, gate_invoke, futexes, net I/O, sync) close
// the current group and run their pre-batch implementation unchanged, so
// the lock hierarchy (ARCHITECTURE.md "Concurrency model") is untouched:
// one TableLock at a time, futex_mu_ never nested, entry functions outside
// every lock.
//
// Object ids for create-type requests are preallocated while NO lock is
// held (AllocObjectId briefly probes the candidate's shard itself), then
// folded into the group footprint — the same order the per-call path used.
#include <cassert>
#include <type_traits>

#include "src/core/trace.h"
#include "src/kernel/kernel.h"

namespace histar {

namespace {

template <typename T, typename... Ts>
inline constexpr bool kIsAny = (std::is_same_v<T, Ts> || ...);

// Compile-time SyscallReq alternative index of T (the trace event's
// syscall-kind field; also the wire tag).
template <typename T, size_t I = 0>
constexpr size_t ReqIndexOf() {
  if constexpr (std::is_same_v<T, std::variant_alternative_t<I, SyscallReq>>) {
    return I;
  } else {
    return ReqIndexOf<T, I + 1>();
  }
}

// Stages request k's flight-recorder syscall event: its kind, completion
// status and the taint scratch its execution stamped. The status lookup is
// an out-of-line call, so it too compiles out with recording.
inline void StageOne(const SyscallReq& req, const SyscallRes& res) {
  if constexpr (HISTAR_TRACE) {
    trace::StageSyscall(static_cast<uint16_t>(req.index()),
                        static_cast<int8_t>(ResStatus(res)));
  }
}

// Requests that consume a preallocated object id (create paths).
template <typename T>
inline constexpr bool kCreatesObject =
    kIsAny<T, ThreadCreateReq, ContainerCreateReq, SegmentCreateReq, SegmentCopyReq,
           AsCreateReq, GateCreateReq>;

}  // namespace

Kernel::BatchPlan Kernel::PlanOf(ObjectId self, const SyscallReq& req) {
  BatchPlan plan;
  auto ids = [&plan](std::initializer_list<ObjectId> list) {
    for (ObjectId id : list) {
      plan.ids[plan.nids++] = id;
    }
    plan.batchable = true;
  };
  std::visit(
      [&](const auto& r) {
        using T = std::decay_t<decltype(r)>;
        if constexpr (kIsAny<T, SelfGetLabelReq, SelfGetClearanceReq>) {
          // Pure scalar self-reads: every field they touch is atomic or
          // immutable, so they run lock-free over the published index.
          ids({self});
          plan.lockfree = true;
        } else if constexpr (kIsAny<T, SelfGetAsReq, SelfLocalReadReq>) {
          // Read non-atomic Thread state (AS entry, local bytes) — stay on
          // the locked path.
          ids({self});
        } else if constexpr (kIsAny<T, CatCreateReq, SelfSetLabelReq, SelfSetClearanceReq,
                                    SelfHaltReq, SelfNextAlertReq, SelfLocalWriteReq>) {
          ids({self});
          plan.mutates = true;
        } else if constexpr (kIsAny<T, ObjGetTypeReq, ObjGetLabelReq, ObjGetDescripReq,
                                    ObjGetQuotaReq, SegmentGetLenReq, GateGetClosureReq>) {
          // ⟨D,O⟩ reads over immutable or published-atomic state (type,
          // label id, descrip, quota, published segment length, gate
          // closure): lock-free over the published index.
          ids({self, r.ce.container, r.ce.object});
          plan.lockfree = true;
        } else if constexpr (kIsAny<T, ObjGetMetadataReq, SegmentReadReq, AsGetReq>) {
          // ⟨D,O⟩ reads of mutable byte/vector state (metadata blob,
          // segment bytes, mappings) — locked, a concurrent writer may be
          // resizing the container.
          ids({self, r.ce.container, r.ce.object});
        } else if constexpr (kIsAny<T, ObjSetMetadataReq, ObjSetFixedQuotaReq,
                                    ObjSetImmutableReq, SegmentResizeReq, SegmentWriteReq,
                                    SegmentCasReq, AsSetReq>) {
          ids({self, r.ce.container, r.ce.object});
          plan.mutates = true;
        } else if constexpr (std::is_same_v<T, SelfSetAsReq>) {
          ids({self, r.as.container, r.as.object});
          plan.mutates = true;
        } else if constexpr (std::is_same_v<T, ConsoleWriteReq>) {
          ids({self, r.dev.container, r.dev.object});
          plan.mutates = true;
        } else if constexpr (kIsAny<T, ContainerGetParentReq, ContainerListReq,
                                    ContainerHasReq>) {
          // Container reads resolve links through the published snapshot
          // (Container::HasLink / ContainerListLocked), so they are safe
          // lock-free; parent is immutable after creation.
          ids({self, r.container});
          plan.lockfree = true;
        } else if constexpr (std::is_same_v<T, ContainerLinkReq>) {
          ids({self, r.container, r.src.container, r.src.object});
          plan.mutates = true;
        } else if constexpr (std::is_same_v<T, QuotaMoveReq>) {
          ids({self, r.d, r.o});
          plan.mutates = true;
        } else if constexpr (kIsAny<T, ThreadCreateReq, ContainerCreateReq, SegmentCreateReq,
                                    AsCreateReq, GateCreateReq>) {
          ids({self, r.spec.container});
          plan.mutates = true;
          plan.needs_new_id = true;  // the preallocated id joins the footprint
        } else if constexpr (std::is_same_v<T, SegmentCopyReq>) {
          ids({self, r.src.container, r.src.object, r.spec.container});
          plan.mutates = true;
          plan.needs_new_id = true;
        } else {
          // Data-dependent footprint, unlocked phase, or sleep: runs alone
          // through its pre-batch implementation (ExecUnbatched).
          plan.batchable = false;
        }
      },
      req);
  return plan;
}

void Kernel::ExecLocked(ObjectId self, const SyscallReq& req, SyscallRes* out,
                        const std::vector<ObjectId>& new_ids, size_t* next_new_id) {
  // Converts the Locked body's Result<T>/Status into the matching completion
  // descriptor. Value fields stay default-initialized on failure.
  std::visit(
      [&](const auto& r) {
        table_.cap().AssertHeld();  // closures don't inherit the caller's lock set
        using T = std::decay_t<decltype(r)>;
        [[maybe_unused]] ObjectId nid = kInvalidObject;
        if constexpr (kCreatesObject<T>) {
          nid = new_ids[(*next_new_id)++];
        }
        if constexpr (std::is_same_v<T, CatCreateReq>) {
          Result<CategoryId> v = CatCreateLocked(self);
          *out = CatCreateRes{v.status(), v.ok() ? v.value() : kInvalidCategory};
        } else if constexpr (std::is_same_v<T, SelfSetLabelReq>) {
          *out = SelfSetLabelRes{SelfSetLabelLocked(self, r.label)};
        } else if constexpr (std::is_same_v<T, SelfSetClearanceReq>) {
          *out = SelfSetClearanceRes{SelfSetClearanceLocked(self, r.clearance)};
        } else if constexpr (std::is_same_v<T, SelfGetLabelReq>) {
          Result<Label> v = SelfGetLabelLocked(self);
          *out = SelfGetLabelRes{v.status(), v.ok() ? v.take() : Label()};
        } else if constexpr (std::is_same_v<T, SelfGetClearanceReq>) {
          Result<Label> v = SelfGetClearanceLocked(self);
          *out = SelfGetClearanceRes{v.status(), v.ok() ? v.take() : Label()};
        } else if constexpr (std::is_same_v<T, SelfSetAsReq>) {
          *out = SelfSetAsRes{SelfSetAsLocked(self, r.as)};
        } else if constexpr (std::is_same_v<T, SelfGetAsReq>) {
          Result<ContainerEntry> v = SelfGetAsLocked(self);
          *out = SelfGetAsRes{v.status(), v.ok() ? v.value() : ContainerEntry{}};
        } else if constexpr (std::is_same_v<T, SelfHaltReq>) {
          *out = SelfHaltRes{SelfHaltLocked(self)};
        } else if constexpr (std::is_same_v<T, ThreadCreateReq>) {
          Result<ObjectId> v = ThreadCreateLocked(self, r.spec, r.label, r.clearance, nid);
          *out = ThreadCreateRes{v.status(), v.ok() ? v.value() : kInvalidObject};
        } else if constexpr (std::is_same_v<T, SelfNextAlertReq>) {
          Result<uint64_t> v = SelfNextAlertLocked(self);
          *out = SelfNextAlertRes{v.status(), v.ok() ? v.value() : 0};
        } else if constexpr (std::is_same_v<T, SelfLocalReadReq>) {
          *out = SelfLocalReadRes{SelfLocalReadLocked(self, r.buf, r.off, r.len)};
        } else if constexpr (std::is_same_v<T, SelfLocalWriteReq>) {
          *out = SelfLocalWriteRes{SelfLocalWriteLocked(self, r.buf, r.off, r.len)};
        } else if constexpr (std::is_same_v<T, ContainerCreateReq>) {
          Result<ObjectId> v = ContainerCreateLocked(self, r.spec, r.avoid_types, nid);
          *out = ContainerCreateRes{v.status(), v.ok() ? v.value() : kInvalidObject};
        } else if constexpr (std::is_same_v<T, ContainerGetParentReq>) {
          Result<ObjectId> v = ContainerGetParentLocked(self, r.container);
          *out = ContainerGetParentRes{v.status(), v.ok() ? v.value() : kInvalidObject};
        } else if constexpr (std::is_same_v<T, ContainerListReq>) {
          Result<std::vector<ObjectId>> v = ContainerListLocked(self, r.container);
          *out = ContainerListRes{v.status(),
                                  v.ok() ? v.take() : std::vector<ObjectId>{}};
        } else if constexpr (std::is_same_v<T, ContainerLinkReq>) {
          *out = ContainerLinkRes{ContainerLinkLocked(self, r.container, r.src)};
        } else if constexpr (std::is_same_v<T, ContainerHasReq>) {
          Result<bool> v = ContainerHasLocked(self, r.container, r.obj);
          *out = ContainerHasRes{v.status(), v.ok() && v.value()};
        } else if constexpr (std::is_same_v<T, ObjGetTypeReq>) {
          Result<ObjectType> v = ObjGetTypeLocked(self, r.ce);
          *out = ObjGetTypeRes{v.status(), v.ok() ? v.value() : ObjectType::kContainer};
        } else if constexpr (std::is_same_v<T, ObjGetLabelReq>) {
          Result<Label> v = ObjGetLabelLocked(self, r.ce);
          *out = ObjGetLabelRes{v.status(), v.ok() ? v.take() : Label()};
        } else if constexpr (std::is_same_v<T, ObjGetDescripReq>) {
          Result<std::string> v = ObjGetDescripLocked(self, r.ce);
          *out = ObjGetDescripRes{v.status(), v.ok() ? v.take() : std::string()};
        } else if constexpr (std::is_same_v<T, ObjGetQuotaReq>) {
          Result<uint64_t> v = ObjGetQuotaLocked(self, r.ce);
          *out = ObjGetQuotaRes{v.status(), v.ok() ? v.value() : 0};
        } else if constexpr (std::is_same_v<T, ObjGetMetadataReq>) {
          Result<std::vector<uint8_t>> v = ObjGetMetadataLocked(self, r.ce);
          *out = ObjGetMetadataRes{v.status(),
                                   v.ok() ? v.take() : std::vector<uint8_t>{}};
        } else if constexpr (std::is_same_v<T, ObjSetMetadataReq>) {
          *out = ObjSetMetadataRes{
              ObjSetMetadataLocked(self, r.ce, r.data, static_cast<size_t>(r.len))};
        } else if constexpr (std::is_same_v<T, ObjSetFixedQuotaReq>) {
          *out = ObjSetFixedQuotaRes{ObjSetFixedQuotaLocked(self, r.ce)};
        } else if constexpr (std::is_same_v<T, ObjSetImmutableReq>) {
          *out = ObjSetImmutableRes{ObjSetImmutableLocked(self, r.ce)};
        } else if constexpr (std::is_same_v<T, QuotaMoveReq>) {
          *out = QuotaMoveRes{QuotaMoveLocked(self, r.d, r.o, r.n)};
        } else if constexpr (std::is_same_v<T, SegmentCreateReq>) {
          Result<ObjectId> v = SegmentCreateLocked(self, r.spec, r.len, nid);
          *out = SegmentCreateRes{v.status(), v.ok() ? v.value() : kInvalidObject};
        } else if constexpr (std::is_same_v<T, SegmentCopyReq>) {
          Result<ObjectId> v = SegmentCopyLocked(self, r.spec, r.src, nid);
          *out = SegmentCopyRes{v.status(), v.ok() ? v.value() : kInvalidObject};
        } else if constexpr (std::is_same_v<T, SegmentResizeReq>) {
          *out = SegmentResizeRes{SegmentResizeLocked(self, r.ce, r.len)};
        } else if constexpr (std::is_same_v<T, SegmentGetLenReq>) {
          Result<uint64_t> v = SegmentGetLenLocked(self, r.ce);
          *out = SegmentGetLenRes{v.status(), v.ok() ? v.value() : 0};
        } else if constexpr (std::is_same_v<T, SegmentReadReq>) {
          *out = SegmentReadRes{SegmentReadLocked(self, r.ce, r.buf, r.off, r.len)};
        } else if constexpr (std::is_same_v<T, SegmentWriteReq>) {
          *out = SegmentWriteRes{SegmentWriteLocked(self, r.ce, r.buf, r.off, r.len)};
        } else if constexpr (std::is_same_v<T, SegmentCasReq>) {
          Result<uint64_t> v = SegmentCasLocked(self, r.ce, r.off, r.expected, r.desired);
          *out = SegmentCasRes{v.status(), v.ok() ? v.value() : 0};
        } else if constexpr (std::is_same_v<T, AsCreateReq>) {
          Result<ObjectId> v = AsCreateLocked(self, r.spec, nid);
          *out = AsCreateRes{v.status(), v.ok() ? v.value() : kInvalidObject};
        } else if constexpr (std::is_same_v<T, AsSetReq>) {
          *out = AsSetRes{AsSetLocked(self, r.ce, r.mappings)};
        } else if constexpr (std::is_same_v<T, AsGetReq>) {
          Result<std::vector<Mapping>> v = AsGetLocked(self, r.ce);
          *out = AsGetRes{v.status(), v.ok() ? v.take() : std::vector<Mapping>{}};
        } else if constexpr (std::is_same_v<T, GateCreateReq>) {
          Result<ObjectId> v = GateCreateLocked(self, r.spec, r.gate_label, r.gate_clearance,
                                                r.entry_name, r.closure, nid);
          *out = GateCreateRes{v.status(), v.ok() ? v.value() : kInvalidObject};
        } else if constexpr (std::is_same_v<T, GateGetClosureReq>) {
          Result<std::vector<uint64_t>> v = GateGetClosureLocked(self, r.ce);
          *out = GateGetClosureRes{v.status(),
                                   v.ok() ? v.take() : std::vector<uint64_t>{}};
        } else if constexpr (std::is_same_v<T, ConsoleWriteReq>) {
          *out = ConsoleWriteRes{ConsoleWriteLocked(self, r.dev, r.text)};
        } else {
          // PlanOf marked this request batchable but no Locked body exists —
          // dispatcher drift. The completion stays monostate; wrappers and
          // callers translate that to kInvalidArg (SubmitOne below).
          *out = std::monostate{};
        }
      },
      req);
}

void Kernel::ExecUnbatched(ObjectId self, const SyscallReq& req, SyscallRes* out) {
  std::visit(
      [&](const auto& r) {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, ThreadAlertReq>) {
          *out = ThreadAlertRes{DoThreadAlert(self, r.thread, r.code)};
        } else if constexpr (std::is_same_v<T, ContainerUnrefReq>) {
          *out = ContainerUnrefRes{DoContainerUnref(self, r.ce)};
        } else if constexpr (std::is_same_v<T, AsAccessReq>) {
          *out = AsAccessRes{DoAsAccess(self, r.va, r.buf, r.len, r.write)};
        } else if constexpr (std::is_same_v<T, GateInvokeReq>) {
          *out = GateInvokeRes{
              DoGateInvoke(self, r.gate, r.request_label, r.request_clearance, r.verify_label)};
        } else if constexpr (std::is_same_v<T, FutexWaitReq>) {
          *out = FutexWaitRes{DoFutexWait(self, r.seg, r.offset, r.expected, r.timeout_ms)};
        } else if constexpr (std::is_same_v<T, FutexWakeReq>) {
          Result<uint32_t> v = DoFutexWake(self, r.seg, r.offset, r.max_count);
          *out = FutexWakeRes{v.status(), v.ok() ? v.value() : 0};
        } else if constexpr (std::is_same_v<T, NetMacAddrReq>) {
          Result<std::array<uint8_t, 6>> v = DoNetMacAddr(self, r.dev);
          *out = NetMacAddrRes{v.status(),
                               v.ok() ? v.value() : std::array<uint8_t, 6>{}};
        } else if constexpr (std::is_same_v<T, NetTransmitReq>) {
          *out = NetTransmitRes{DoNetTransmit(self, r.dev, r.seg, r.off, r.len)};
        } else if constexpr (std::is_same_v<T, NetReceiveReq>) {
          Result<uint64_t> v = DoNetReceive(self, r.dev, r.seg, r.off, r.maxlen);
          *out = NetReceiveRes{v.status(), v.ok() ? v.value() : 0};
        } else if constexpr (std::is_same_v<T, NetWaitReq>) {
          *out = NetWaitRes{DoNetWait(self, r.dev, r.timeout_ms)};
        } else if constexpr (std::is_same_v<T, SyncReq>) {
          *out = SyncRes{DoSync(self)};
        } else if constexpr (std::is_same_v<T, SyncObjectReq>) {
          *out = SyncObjectRes{DoSyncObject(self, r.ce)};
        } else if constexpr (std::is_same_v<T, SyncPagesReq>) {
          *out = SyncPagesRes{DoSyncPages(self, r.ce, r.offset, r.len)};
        } else if constexpr (std::is_same_v<T, TraceReadReq>) {
          // Unbatchable by design: the body takes its own shared TableLock
          // to resolve the reader, then walks the recorder lock-free.
          TraceReadRes v;
          DoTraceRead(self, r.max_events, &v);
          *out = std::move(v);
        } else {
          *out = std::monostate{};  // batchable kinds never reach here
        }
      },
      req);
}

size_t Kernel::GrowBatchGroup(ObjectId self, std::span<const SyscallReq> reqs, size_t i,
                              const BatchPlan& first, uint64_t* mask, bool* exclusive,
                              std::vector<ObjectId>* new_ids) {
  // Union the shard masks of consecutive batchable requests, escalate to
  // exclusive if anything mutates, and preallocate object ids for create
  // entries NOW — AllocObjectId probes a shard itself and must run before
  // the group lock (kernel.h helper contract). A group is homogeneous in
  // lockfree-ness so SubmitBatch can run a lock-free group with no
  // TableLock at all. A group has at most trace::kStageEvents members, the
  // size of the recorder's per-thread stage; a longer run of batchable
  // requests becomes several groups.
  size_t j = i;
  while (j < reqs.size() && j - i < trace::kStageEvents) {
    BatchPlan p = (j == i) ? first : PlanOf(self, reqs[j]);
    if (!p.batchable) {
      break;
    }
    if (j > i && p.lockfree != first.lockfree) {
      break;
    }
    for (size_t k = 0; k < p.nids; ++k) {
      *mask |= table_.ShardMaskOf(p.ids[k]);
    }
    if (p.needs_new_id) {
      Result<ObjectId> id = AllocObjectId();
      new_ids->push_back(id.value());
      *mask |= table_.ShardMaskOf(id.value());
    }
    *exclusive |= p.mutates;
    ++j;
  }
  return j;
}

Status Kernel::SubmitBatch(ObjectId self, std::span<const SyscallReq> reqs,
                           std::span<SyscallRes> res) {
  if (res.size() < reqs.size()) {
    return Status::kInvalidArg;
  }
  // One stripe round-trip charges the whole batch; no global atomic (each
  // entry still counts as one syscall, so fig-12-style accounting is
  // unchanged whether callers batch or not).
  CountSyscalls(self, reqs.size());
  size_t i = 0;
  while (i < reqs.size()) {
    assert(trace::StagedSyscalls() == 0);
    BatchPlan first = PlanOf(self, reqs[i]);
    if (!first.batchable) {
      uint64_t t0 = trace::RecordNowNs();
      trace::ResetTaint();
      ExecUnbatched(self, reqs[i], &res[i]);
      StageOne(reqs[i], res[i]);
      trace::CloseSyscallGroup(self, t0, trace::RecordNowNs());
      ++i;
      continue;
    }
    uint64_t mask = 0;
    bool exclusive = false;
    std::vector<ObjectId> new_ids;
    size_t j = GrowBatchGroup(self, reqs, i, first, &mask, &exclusive, &new_ids);
    // ONE clock pair per group: each executed request stages its event and
    // CloseSyscallGroup writes them all with the amortized share — that,
    // plus zero shared atomics in the recorder, is what keeps the warm
    // lock-free row inside the 5% gate (scripts/check_bench_pr10.sh).
    uint64_t t0 = trace::RecordNowNs();
    if (first.lockfree) {
      // Lock-free read group (PR 6): ZERO shard locks. The epoch guard pins
      // every published entry the group can reach; PublishedReadMode routes
      // Kernel::Get through the shard's lock-free published index, and the
      // same *Locked bodies run unchanged on top of it (they are
      // side-effect-free for every lockfree-marked kind). The zero is the
      // acceptance property asserted by tests/kernel/batch_lock_test.cc.
      EpochGuard guard;
      PublishedReadMode published;
      // The epoch + published-read pair IS this group's covering
      // acquisition; the scoped stand-in discharges the bodies' static
      // table-capability requirement (see object_table.h).
      PublishedReadTableCap cap_scope(table_);
      size_t next_new_id = 0;
      for (size_t k = i; k < j; ++k) {
        trace::ResetTaint();
        ExecLocked(self, reqs[k], &res[k], new_ids, &next_new_id);
        StageOne(reqs[k], res[k]);
      }
    } else {
      // The group's single lock round-trip: every shard any member touches,
      // ascending order, one acquisition (the acceptance property asserted
      // by tests/kernel/batch_lock_test.cc).
      TableLock lk(
          table_,
          exclusive ? TableLock::Mode::kExclusive : TableLock::Mode::kShared,
          mask, TableLock::ByMask{});
      size_t next_new_id = 0;
      for (size_t k = i; k < j; ++k) {
        trace::ResetTaint();
        ExecLocked(self, reqs[k], &res[k], new_ids, &next_new_id);
        StageOne(reqs[k], res[k]);
      }
    }
    trace::CloseSyscallGroup(self, t0, trace::RecordNowNs());
    if (!first.lockfree) {
      // Lock-free groups deliberately record NO kTableLock event — the
      // zero-lock property shows up in the trace as its absence.
      trace::RecordEvent(trace::EventKind::kTableLock, mask,
                         exclusive ? 1 : 0, j - i, 0, 0, 0, t0);
    }
    i = j;
  }
  return Status::kOk;
}

// ---- Legacy wrappers --------------------------------------------------------
//
// Every sys_* entry point is a one-element batch: source compatibility for
// all existing callers, one code path (SubmitBatch) for all enforcement.

namespace {

template <typename ResT, typename ReqT>
ResT SubmitOne(Kernel* k, ObjectId self, ReqT&& req) {
  SyscallReq r{std::forward<ReqT>(req)};
  SyscallRes out;
  k->SubmitBatch(self, std::span<const SyscallReq>(&r, 1), std::span<SyscallRes>(&out, 1));
  if (ResT* res = std::get_if<ResT>(&out)) {
    return std::move(*res);
  }
  // Unfilled (monostate) completion — dispatcher drift between PlanOf and
  // ExecLocked/ExecUnbatched. Every Res type default-constructs with
  // status == kInvalidArg, so report that instead of crashing on std::get.
  return ResT{};
}

template <typename T>
Result<T> ToResult(Status st, T&& value) {
  if (st != Status::kOk) {
    return st;
  }
  return std::forward<T>(value);
}

}  // namespace

Result<CategoryId> Kernel::sys_cat_create(ObjectId self) {
  CatCreateRes r = SubmitOne<CatCreateRes>(this, self, CatCreateReq{});
  return ToResult(r.status, std::move(r.cat));
}

Status Kernel::sys_self_set_label(ObjectId self, const Label& l) {
  return SubmitOne<SelfSetLabelRes>(this, self, SelfSetLabelReq{l}).status;
}

Status Kernel::sys_self_set_clearance(ObjectId self, const Label& c) {
  return SubmitOne<SelfSetClearanceRes>(this, self, SelfSetClearanceReq{c}).status;
}

Result<Label> Kernel::sys_self_get_label(ObjectId self) {
  SelfGetLabelRes r = SubmitOne<SelfGetLabelRes>(this, self, SelfGetLabelReq{});
  return ToResult(r.status, std::move(r.label));
}

Result<Label> Kernel::sys_self_get_clearance(ObjectId self) {
  SelfGetClearanceRes r = SubmitOne<SelfGetClearanceRes>(this, self, SelfGetClearanceReq{});
  return ToResult(r.status, std::move(r.clearance));
}

Status Kernel::sys_self_set_as(ObjectId self, ContainerEntry as) {
  return SubmitOne<SelfSetAsRes>(this, self, SelfSetAsReq{as}).status;
}

Result<ContainerEntry> Kernel::sys_self_get_as(ObjectId self) {
  SelfGetAsRes r = SubmitOne<SelfGetAsRes>(this, self, SelfGetAsReq{});
  return ToResult(r.status, std::move(r.as));
}

Status Kernel::sys_self_halt(ObjectId self) {
  return SubmitOne<SelfHaltRes>(this, self, SelfHaltReq{}).status;
}

Result<ObjectId> Kernel::sys_thread_create(ObjectId self, const CreateSpec& spec,
                                           const Label& new_label,
                                           const Label& new_clearance) {
  ThreadCreateRes r =
      SubmitOne<ThreadCreateRes>(this, self, ThreadCreateReq{spec, new_label, new_clearance});
  return ToResult(r.status, std::move(r.id));
}

Status Kernel::sys_thread_alert(ObjectId self, ContainerEntry thread, uint64_t code) {
  return SubmitOne<ThreadAlertRes>(this, self, ThreadAlertReq{thread, code}).status;
}

Result<uint64_t> Kernel::sys_self_next_alert(ObjectId self) {
  SelfNextAlertRes r = SubmitOne<SelfNextAlertRes>(this, self, SelfNextAlertReq{});
  return ToResult(r.status, std::move(r.code));
}

Status Kernel::sys_self_local_read(ObjectId self, void* buf, uint64_t off, uint64_t len) {
  return SubmitOne<SelfLocalReadRes>(this, self, SelfLocalReadReq{buf, off, len}).status;
}

Status Kernel::sys_self_local_write(ObjectId self, const void* buf, uint64_t off,
                                    uint64_t len) {
  return SubmitOne<SelfLocalWriteRes>(this, self, SelfLocalWriteReq{buf, off, len}).status;
}

Result<ObjectId> Kernel::sys_container_create(ObjectId self, const CreateSpec& spec,
                                              uint32_t avoid_types) {
  ContainerCreateRes r =
      SubmitOne<ContainerCreateRes>(this, self, ContainerCreateReq{spec, avoid_types});
  return ToResult(r.status, std::move(r.id));
}

Status Kernel::sys_container_unref(ObjectId self, ContainerEntry ce) {
  return SubmitOne<ContainerUnrefRes>(this, self, ContainerUnrefReq{ce}).status;
}

Result<ObjectId> Kernel::sys_container_get_parent(ObjectId self, ObjectId container) {
  ContainerGetParentRes r =
      SubmitOne<ContainerGetParentRes>(this, self, ContainerGetParentReq{container});
  return ToResult(r.status, std::move(r.parent));
}

Result<std::vector<ObjectId>> Kernel::sys_container_list(ObjectId self, ObjectId container) {
  ContainerListRes r = SubmitOne<ContainerListRes>(this, self, ContainerListReq{container});
  return ToResult(r.status, std::move(r.links));
}

Status Kernel::sys_container_link(ObjectId self, ObjectId container, ContainerEntry src) {
  return SubmitOne<ContainerLinkRes>(this, self, ContainerLinkReq{container, src}).status;
}

Result<bool> Kernel::sys_container_has(ObjectId self, ObjectId container, ObjectId obj) {
  ContainerHasRes r = SubmitOne<ContainerHasRes>(this, self, ContainerHasReq{container, obj});
  return ToResult(r.status, std::move(r.has));
}

Result<ObjectType> Kernel::sys_obj_get_type(ObjectId self, ContainerEntry ce) {
  ObjGetTypeRes r = SubmitOne<ObjGetTypeRes>(this, self, ObjGetTypeReq{ce});
  return ToResult(r.status, std::move(r.type));
}

Result<Label> Kernel::sys_obj_get_label(ObjectId self, ContainerEntry ce) {
  ObjGetLabelRes r = SubmitOne<ObjGetLabelRes>(this, self, ObjGetLabelReq{ce});
  return ToResult(r.status, std::move(r.label));
}

Result<std::string> Kernel::sys_obj_get_descrip(ObjectId self, ContainerEntry ce) {
  ObjGetDescripRes r = SubmitOne<ObjGetDescripRes>(this, self, ObjGetDescripReq{ce});
  return ToResult(r.status, std::move(r.descrip));
}

Result<uint64_t> Kernel::sys_obj_get_quota(ObjectId self, ContainerEntry ce) {
  ObjGetQuotaRes r = SubmitOne<ObjGetQuotaRes>(this, self, ObjGetQuotaReq{ce});
  return ToResult(r.status, std::move(r.quota));
}

Result<std::vector<uint8_t>> Kernel::sys_obj_get_metadata(ObjectId self, ContainerEntry ce) {
  ObjGetMetadataRes r = SubmitOne<ObjGetMetadataRes>(this, self, ObjGetMetadataReq{ce});
  return ToResult(r.status, std::move(r.metadata));
}

Status Kernel::sys_obj_set_metadata(ObjectId self, ContainerEntry ce, const void* data,
                                    size_t len) {
  return SubmitOne<ObjSetMetadataRes>(this, self,
                                      ObjSetMetadataReq{ce, data, static_cast<uint64_t>(len)})
      .status;
}

Status Kernel::sys_obj_set_fixed_quota(ObjectId self, ContainerEntry ce) {
  return SubmitOne<ObjSetFixedQuotaRes>(this, self, ObjSetFixedQuotaReq{ce}).status;
}

Status Kernel::sys_obj_set_immutable(ObjectId self, ContainerEntry ce) {
  return SubmitOne<ObjSetImmutableRes>(this, self, ObjSetImmutableReq{ce}).status;
}

Status Kernel::sys_quota_move(ObjectId self, ObjectId d, ObjectId o, int64_t n) {
  return SubmitOne<QuotaMoveRes>(this, self, QuotaMoveReq{d, o, n}).status;
}

Result<ObjectId> Kernel::sys_segment_create(ObjectId self, const CreateSpec& spec,
                                            uint64_t len) {
  SegmentCreateRes r = SubmitOne<SegmentCreateRes>(this, self, SegmentCreateReq{spec, len});
  return ToResult(r.status, std::move(r.id));
}

Result<ObjectId> Kernel::sys_segment_copy(ObjectId self, const CreateSpec& spec,
                                          ContainerEntry src) {
  SegmentCopyRes r = SubmitOne<SegmentCopyRes>(this, self, SegmentCopyReq{spec, src});
  return ToResult(r.status, std::move(r.id));
}

Status Kernel::sys_segment_resize(ObjectId self, ContainerEntry ce, uint64_t len) {
  return SubmitOne<SegmentResizeRes>(this, self, SegmentResizeReq{ce, len}).status;
}

Result<uint64_t> Kernel::sys_segment_get_len(ObjectId self, ContainerEntry ce) {
  SegmentGetLenRes r = SubmitOne<SegmentGetLenRes>(this, self, SegmentGetLenReq{ce});
  return ToResult(r.status, std::move(r.len));
}

Status Kernel::sys_segment_read(ObjectId self, ContainerEntry ce, void* buf, uint64_t off,
                                uint64_t len) {
  return SubmitOne<SegmentReadRes>(this, self, SegmentReadReq{ce, buf, off, len}).status;
}

Status Kernel::sys_segment_write(ObjectId self, ContainerEntry ce, const void* buf,
                                 uint64_t off, uint64_t len) {
  return SubmitOne<SegmentWriteRes>(this, self, SegmentWriteReq{ce, buf, off, len}).status;
}

Result<uint64_t> Kernel::sys_segment_cas(ObjectId self, ContainerEntry ce, uint64_t off,
                                         uint64_t expected, uint64_t desired) {
  SegmentCasRes r =
      SubmitOne<SegmentCasRes>(this, self, SegmentCasReq{ce, off, expected, desired});
  return ToResult(r.status, std::move(r.observed));
}

Result<ObjectId> Kernel::sys_as_create(ObjectId self, const CreateSpec& spec) {
  AsCreateRes r = SubmitOne<AsCreateRes>(this, self, AsCreateReq{spec});
  return ToResult(r.status, std::move(r.id));
}

Status Kernel::sys_as_set(ObjectId self, ContainerEntry ce,
                          const std::vector<Mapping>& mappings) {
  return SubmitOne<AsSetRes>(this, self, AsSetReq{ce, mappings}).status;
}

Result<std::vector<Mapping>> Kernel::sys_as_get(ObjectId self, ContainerEntry ce) {
  AsGetRes r = SubmitOne<AsGetRes>(this, self, AsGetReq{ce});
  return ToResult(r.status, std::move(r.mappings));
}

Status Kernel::sys_as_access(ObjectId self, uint64_t va, void* buf, uint64_t len, bool write) {
  return SubmitOne<AsAccessRes>(this, self, AsAccessReq{va, buf, len, write}).status;
}

Result<ObjectId> Kernel::sys_gate_create(ObjectId self, const CreateSpec& spec,
                                         const Label& gate_label, const Label& gate_clearance,
                                         const std::string& entry_name,
                                         const std::vector<uint64_t>& closure) {
  GateCreateRes r = SubmitOne<GateCreateRes>(
      this, self, GateCreateReq{spec, gate_label, gate_clearance, entry_name, closure});
  return ToResult(r.status, std::move(r.id));
}

Status Kernel::sys_gate_invoke(ObjectId self, ContainerEntry gate, const Label& request_label,
                               const Label& request_clearance, const Label& verify_label) {
  // By-ref fast path (PR 5): gate_invoke is unbatchable — it can never join
  // a lock group — and its descriptor would copy THREE caller labels into
  // the variant per call, the heaviest wrapper cost on the hottest
  // unbatchable entry point (every daemon RPC crosses a gate). Calling the
  // Do* body directly is observably identical to the one-element batch
  // (ExecUnbatched does exactly this after the copies; the access-matrix
  // equivalence sweep in tests/kernel/syscall_abi_test.cc pins it) but
  // skips descriptor construction entirely. Entry bookkeeping is preserved:
  // one syscall charged, same as SubmitBatch would — and one trace event,
  // recorded here since the fast path bypasses the dispatcher's loop.
  CountSyscalls(self, 1);
  assert(trace::StagedSyscalls() == 0);
  uint64_t t0 = trace::RecordNowNs();
  trace::ResetTaint();
  Status st = DoGateInvoke(self, gate, request_label, request_clearance, verify_label);
  // Staged only now: the entry's nested syscalls closed their own groups.
  trace::StageSyscall(static_cast<uint16_t>(ReqIndexOf<GateInvokeReq>()),
                      static_cast<int8_t>(st));
  trace::CloseSyscallGroup(self, t0, trace::RecordNowNs());
  return st;
}

Result<std::vector<uint64_t>> Kernel::sys_gate_get_closure(ObjectId self, ContainerEntry ce) {
  GateGetClosureRes r = SubmitOne<GateGetClosureRes>(this, self, GateGetClosureReq{ce});
  return ToResult(r.status, std::move(r.closure));
}

Status Kernel::sys_futex_wait(ObjectId self, ContainerEntry seg, uint64_t offset,
                              uint64_t expected, uint32_t timeout_ms) {
  return SubmitOne<FutexWaitRes>(this, self, FutexWaitReq{seg, offset, expected, timeout_ms})
      .status;
}

Result<uint32_t> Kernel::sys_futex_wake(ObjectId self, ContainerEntry seg, uint64_t offset,
                                        uint32_t max_count) {
  FutexWakeRes r = SubmitOne<FutexWakeRes>(this, self, FutexWakeReq{seg, offset, max_count});
  return ToResult(r.status, std::move(r.woken));
}

Result<std::array<uint8_t, 6>> Kernel::sys_net_macaddr(ObjectId self, ContainerEntry dev) {
  NetMacAddrRes r = SubmitOne<NetMacAddrRes>(this, self, NetMacAddrReq{dev});
  return ToResult(r.status, std::move(r.mac));
}

Status Kernel::sys_net_transmit(ObjectId self, ContainerEntry dev, ContainerEntry seg,
                                uint64_t off, uint64_t len) {
  return SubmitOne<NetTransmitRes>(this, self, NetTransmitReq{dev, seg, off, len}).status;
}

Result<uint64_t> Kernel::sys_net_receive(ObjectId self, ContainerEntry dev, ContainerEntry seg,
                                         uint64_t off, uint64_t maxlen) {
  NetReceiveRes r = SubmitOne<NetReceiveRes>(this, self, NetReceiveReq{dev, seg, off, maxlen});
  return ToResult(r.status, std::move(r.len));
}

Status Kernel::sys_net_wait(ObjectId self, ContainerEntry dev, uint32_t timeout_ms) {
  return SubmitOne<NetWaitRes>(this, self, NetWaitReq{dev, timeout_ms}).status;
}

Status Kernel::sys_console_write(ObjectId self, ContainerEntry dev, const std::string& text) {
  return SubmitOne<ConsoleWriteRes>(this, self, ConsoleWriteReq{dev, text}).status;
}

Status Kernel::sys_sync(ObjectId self) {
  return SubmitOne<SyncRes>(this, self, SyncReq{}).status;
}

Status Kernel::sys_sync_object(ObjectId self, ContainerEntry ce) {
  return SubmitOne<SyncObjectRes>(this, self, SyncObjectReq{ce}).status;
}

Status Kernel::sys_sync_pages(ObjectId self, ContainerEntry ce, uint64_t offset,
                              uint64_t len) {
  return SubmitOne<SyncPagesRes>(this, self, SyncPagesReq{ce, offset, len}).status;
}

TraceReadRes Kernel::sys_trace_read(ObjectId self, uint32_t max_events) {
  return SubmitOne<TraceReadRes>(this, self, TraceReadReq{max_events});
}

}  // namespace histar
