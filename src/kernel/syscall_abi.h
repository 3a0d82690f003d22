// The batched syscall ABI (PR 3): uniform request/completion descriptors.
//
// Every kernel entry point has exactly one request alternative in SyscallReq
// and one completion alternative in SyscallRes. A batch is a span of
// requests submitted through Kernel::SubmitBatch, which fills the matching
// span of completions: completion i always describes request i, carries its
// own Status (partial failure is per-entry — later entries still execute),
// and holds alternative index i+1 of SyscallRes (index 0, std::monostate,
// means "never filled"). The descriptors carry the §3 label-rule inputs
// explicitly — caller-supplied labels, container entries, create specs —
// so the dispatcher can compute a request's full shard footprint before
// touching any lock; that is what lets SubmitBatch execute a run of
// same-footprint requests under ONE ascending-order TableLock instead of
// one per call (ARCHITECTURE.md "The batched syscall ABI").
//
// Buffer fields (`buf`, `data`) are caller-owned raw pointers, exactly like
// an io_uring SQE referencing user memory: they must stay valid until the
// matching completion is filled — descriptors describe in-process memory,
// not a wire protocol.
#ifndef SRC_KERNEL_SYSCALL_ABI_H_
#define SRC_KERNEL_SYSCALL_ABI_H_

#include <array>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "src/core/label.h"
#include "src/core/status.h"
#include "src/kernel/object.h"
#include "src/kernel/types.h"

namespace histar {

// Parameters for creating any object: the destination container, the new
// object's label, descriptive string and quota.
struct CreateSpec {
  ObjectId container = kInvalidObject;
  Label label;
  std::string descrip;
  uint64_t quota = 16 * kPageSize;
};

// ---- Request descriptors (one per sys_* entry point) ------------------------
//
// Threads (§3.1)
struct CatCreateReq {};
struct SelfSetLabelReq {
  Label label;
};
struct SelfSetClearanceReq {
  Label clearance;
};
struct SelfGetLabelReq {};
struct SelfGetClearanceReq {};
struct SelfSetAsReq {
  ContainerEntry as;
};
struct SelfGetAsReq {};
struct SelfHaltReq {};
struct ThreadCreateReq {
  CreateSpec spec;
  Label label;
  Label clearance;
};
struct ThreadAlertReq {
  ContainerEntry thread;
  uint64_t code = 0;
};
struct SelfNextAlertReq {};
struct SelfLocalReadReq {
  void* buf = nullptr;
  uint64_t off = 0;
  uint64_t len = 0;
};
struct SelfLocalWriteReq {
  const void* buf = nullptr;
  uint64_t off = 0;
  uint64_t len = 0;
};

// Containers (§3.2, §3.3)
struct ContainerCreateReq {
  CreateSpec spec;
  uint32_t avoid_types = 0;
};
struct ContainerUnrefReq {
  ContainerEntry ce;
};
struct ContainerGetParentReq {
  ObjectId container = kInvalidObject;
};
struct ContainerListReq {
  ObjectId container = kInvalidObject;
};
struct ContainerLinkReq {
  ObjectId container = kInvalidObject;
  ContainerEntry src;
};
struct ContainerHasReq {
  ObjectId container = kInvalidObject;
  ObjectId obj = kInvalidObject;
};

// Generic object calls (§3.2)
struct ObjGetTypeReq {
  ContainerEntry ce;
};
struct ObjGetLabelReq {
  ContainerEntry ce;
};
struct ObjGetDescripReq {
  ContainerEntry ce;
};
struct ObjGetQuotaReq {
  ContainerEntry ce;
};
struct ObjGetMetadataReq {
  ContainerEntry ce;
};
struct ObjSetMetadataReq {
  ContainerEntry ce;
  const void* data = nullptr;
  uint64_t len = 0;
};
struct ObjSetFixedQuotaReq {
  ContainerEntry ce;
};
struct ObjSetImmutableReq {
  ContainerEntry ce;
};
struct QuotaMoveReq {
  ObjectId d = kInvalidObject;
  ObjectId o = kInvalidObject;
  int64_t n = 0;
};

// Segments (§3)
struct SegmentCreateReq {
  CreateSpec spec;
  uint64_t len = 0;
};
struct SegmentCopyReq {
  CreateSpec spec;
  ContainerEntry src;
};
struct SegmentResizeReq {
  ContainerEntry ce;
  uint64_t len = 0;
};
struct SegmentGetLenReq {
  ContainerEntry ce;
};
struct SegmentReadReq {
  ContainerEntry ce;
  void* buf = nullptr;
  uint64_t off = 0;
  uint64_t len = 0;
};
struct SegmentWriteReq {
  ContainerEntry ce;
  const void* buf = nullptr;
  uint64_t off = 0;
  uint64_t len = 0;
};
// Atomic compare-and-swap of the 8-byte-aligned word at `off`: stores
// `desired` iff the word equals `expected`. The completion carries the word
// observed before the swap, so the caller tells success (observed ==
// expected) from contention. The stand-in for the hardware atomics HiStar's
// library runs on mapped segment memory (§4.1): user mutexes live on it.
struct SegmentCasReq {
  ContainerEntry ce;
  uint64_t off = 0;
  uint64_t expected = 0;
  uint64_t desired = 0;
};

// Address spaces (§3.4)
struct AsCreateReq {
  CreateSpec spec;
};
struct AsSetReq {
  ContainerEntry ce;
  std::vector<Mapping> mappings;
};
struct AsGetReq {
  ContainerEntry ce;
};
struct AsAccessReq {
  uint64_t va = 0;
  void* buf = nullptr;
  uint64_t len = 0;
  bool write = false;
};

// Gates (§3.5)
struct GateCreateReq {
  CreateSpec spec;
  Label gate_label;
  Label gate_clearance;
  std::string entry_name;
  std::vector<uint64_t> closure;
};
struct GateInvokeReq {
  ContainerEntry gate;
  Label request_label;
  Label request_clearance;
  Label verify_label;
};
struct GateGetClosureReq {
  ContainerEntry ce;
};

// Futexes (§4.1)
struct FutexWaitReq {
  ContainerEntry seg;
  uint64_t offset = 0;
  uint64_t expected = 0;
  uint32_t timeout_ms = 0;
};
struct FutexWakeReq {
  ContainerEntry seg;
  uint64_t offset = 0;
  uint32_t max_count = 0;
};

// Devices (§4.1, §5.7)
struct NetMacAddrReq {
  ContainerEntry dev;
};
struct NetTransmitReq {
  ContainerEntry dev;
  ContainerEntry seg;
  uint64_t off = 0;
  uint64_t len = 0;
};
struct NetReceiveReq {
  ContainerEntry dev;
  ContainerEntry seg;
  uint64_t off = 0;
  uint64_t maxlen = 0;
};
struct NetWaitReq {
  ContainerEntry dev;
  uint32_t timeout_ms = 0;
};
struct ConsoleWriteReq {
  ContainerEntry dev;
  std::string text;
};

// Persistence (§3, §4)
struct SyncReq {};
struct SyncObjectReq {
  ContainerEntry ce;
};
struct SyncPagesReq {
  ContainerEntry ce;
  uint64_t offset = 0;
  uint64_t len = 0;
};

// Flight-recorder export (PR 10): returns the flow-checked view of the
// kernel trace rings (src/core/trace.h). `self` is the reader whose raised
// label gates per-event visibility; events that do not flow to it are
// counted in TraceReadRes::withheld but never returned.
struct TraceReadReq {
  uint32_t max_events = 0;  // 0 → kTraceReadDefaultMax
};

inline constexpr uint32_t kTraceReadDefaultMax = 256;
inline constexpr uint32_t kTraceReadMaxEvents = 16384;

// ---- Completion descriptors -------------------------------------------------
//
// Every completion leads with its own Status; value fields are meaningful
// only when status == Status::kOk.
struct CatCreateRes {
  Status status = Status::kInvalidArg;
  CategoryId cat = kInvalidCategory;
};
struct SelfSetLabelRes {
  Status status = Status::kInvalidArg;
};
struct SelfSetClearanceRes {
  Status status = Status::kInvalidArg;
};
struct SelfGetLabelRes {
  Status status = Status::kInvalidArg;
  Label label;
};
struct SelfGetClearanceRes {
  Status status = Status::kInvalidArg;
  Label clearance;
};
struct SelfSetAsRes {
  Status status = Status::kInvalidArg;
};
struct SelfGetAsRes {
  Status status = Status::kInvalidArg;
  ContainerEntry as;
};
struct SelfHaltRes {
  Status status = Status::kInvalidArg;
};
struct ThreadCreateRes {
  Status status = Status::kInvalidArg;
  ObjectId id = kInvalidObject;
};
struct ThreadAlertRes {
  Status status = Status::kInvalidArg;
};
struct SelfNextAlertRes {
  Status status = Status::kInvalidArg;
  uint64_t code = 0;
};
struct SelfLocalReadRes {
  Status status = Status::kInvalidArg;
};
struct SelfLocalWriteRes {
  Status status = Status::kInvalidArg;
};
struct ContainerCreateRes {
  Status status = Status::kInvalidArg;
  ObjectId id = kInvalidObject;
};
struct ContainerUnrefRes {
  Status status = Status::kInvalidArg;
};
struct ContainerGetParentRes {
  Status status = Status::kInvalidArg;
  ObjectId parent = kInvalidObject;
};
struct ContainerListRes {
  Status status = Status::kInvalidArg;
  std::vector<ObjectId> links;
};
struct ContainerLinkRes {
  Status status = Status::kInvalidArg;
};
struct ContainerHasRes {
  Status status = Status::kInvalidArg;
  bool has = false;
};
struct ObjGetTypeRes {
  Status status = Status::kInvalidArg;
  ObjectType type = ObjectType::kContainer;
};
struct ObjGetLabelRes {
  Status status = Status::kInvalidArg;
  Label label;
};
struct ObjGetDescripRes {
  Status status = Status::kInvalidArg;
  std::string descrip;
};
struct ObjGetQuotaRes {
  Status status = Status::kInvalidArg;
  uint64_t quota = 0;
};
struct ObjGetMetadataRes {
  Status status = Status::kInvalidArg;
  std::vector<uint8_t> metadata;
};
struct ObjSetMetadataRes {
  Status status = Status::kInvalidArg;
};
struct ObjSetFixedQuotaRes {
  Status status = Status::kInvalidArg;
};
struct ObjSetImmutableRes {
  Status status = Status::kInvalidArg;
};
struct QuotaMoveRes {
  Status status = Status::kInvalidArg;
};
struct SegmentCreateRes {
  Status status = Status::kInvalidArg;
  ObjectId id = kInvalidObject;
};
struct SegmentCopyRes {
  Status status = Status::kInvalidArg;
  ObjectId id = kInvalidObject;
};
struct SegmentResizeRes {
  Status status = Status::kInvalidArg;
};
struct SegmentGetLenRes {
  Status status = Status::kInvalidArg;
  uint64_t len = 0;
};
struct SegmentReadRes {
  Status status = Status::kInvalidArg;
};
struct SegmentWriteRes {
  Status status = Status::kInvalidArg;
};
struct SegmentCasRes {
  Status status = Status::kInvalidArg;
  uint64_t observed = 0;
};
struct AsCreateRes {
  Status status = Status::kInvalidArg;
  ObjectId id = kInvalidObject;
};
struct AsSetRes {
  Status status = Status::kInvalidArg;
};
struct AsGetRes {
  Status status = Status::kInvalidArg;
  std::vector<Mapping> mappings;
};
struct AsAccessRes {
  Status status = Status::kInvalidArg;
};
struct GateCreateRes {
  Status status = Status::kInvalidArg;
  ObjectId id = kInvalidObject;
};
struct GateInvokeRes {
  Status status = Status::kInvalidArg;
};
struct GateGetClosureRes {
  Status status = Status::kInvalidArg;
  std::vector<uint64_t> closure;
};
struct FutexWaitRes {
  Status status = Status::kInvalidArg;
};
struct FutexWakeRes {
  Status status = Status::kInvalidArg;
  uint32_t woken = 0;
};
struct NetMacAddrRes {
  Status status = Status::kInvalidArg;
  std::array<uint8_t, 6> mac = {};
};
struct NetTransmitRes {
  Status status = Status::kInvalidArg;
};
struct NetReceiveRes {
  Status status = Status::kInvalidArg;
  uint64_t len = 0;
};
struct NetWaitRes {
  Status status = Status::kInvalidArg;
};
struct ConsoleWriteRes {
  Status status = Status::kInvalidArg;
};
struct SyncRes {
  Status status = Status::kInvalidArg;
};
struct SyncObjectRes {
  Status status = Status::kInvalidArg;
};
struct SyncPagesRes {
  Status status = Status::kInvalidArg;
};
// One exported flight-recorder event (the wire form of trace::Event plus
// its slot/seq provenance). Labels travel as raw LabelIds: the flow check
// already ran kernel-side, so every event here is one the reader may see.
struct TraceEventWire {
  uint64_t ts_ns = 0;
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t c = 0;
  uint64_t seq = 0;
  uint32_t slot = 0;
  uint32_t dur_ns = 0;
  uint32_t tlabel = 0;
  uint32_t olabel = 0;
  uint32_t kind = 0;  // trace::EventKind
  uint32_t code = 0;  // Status, two's complement
  uint32_t aux = 0;   // syscall kind / trace::StoreOp
  uint32_t gen = 0;   // label generation the ids were minted under (trace.h)
};
struct TraceReadRes {
  Status status = Status::kInvalidArg;
  uint64_t total = 0;     // events inspected across all slots
  uint64_t withheld = 0;  // events whose labels do not flow to the reader
  std::vector<TraceEventWire> events;
};

// ---- The variants -----------------------------------------------------------
//
// Alternative order is the ABI: SyscallRes alternative i+1 completes
// SyscallReq alternative i (SyscallRes index 0 is monostate, "unfilled").
// Appending new syscalls at the end keeps existing indices (trace events
// and SyscallKindName record them) stable. Indices are never persisted,
// so a trace dump is read with the tracefmt built from the same tree.
using SyscallReq = std::variant<
    CatCreateReq, SelfSetLabelReq, SelfSetClearanceReq, SelfGetLabelReq, SelfGetClearanceReq,
    SelfSetAsReq, SelfGetAsReq, SelfHaltReq, ThreadCreateReq, ThreadAlertReq, SelfNextAlertReq,
    SelfLocalReadReq, SelfLocalWriteReq, ContainerCreateReq, ContainerUnrefReq,
    ContainerGetParentReq, ContainerListReq, ContainerLinkReq, ContainerHasReq, ObjGetTypeReq,
    ObjGetLabelReq, ObjGetDescripReq, ObjGetQuotaReq, ObjGetMetadataReq, ObjSetMetadataReq,
    ObjSetFixedQuotaReq, ObjSetImmutableReq, QuotaMoveReq, SegmentCreateReq, SegmentCopyReq,
    SegmentResizeReq, SegmentGetLenReq, SegmentReadReq, SegmentWriteReq, AsCreateReq, AsSetReq,
    AsGetReq, AsAccessReq, GateCreateReq, GateInvokeReq, GateGetClosureReq, FutexWaitReq,
    FutexWakeReq, NetMacAddrReq, NetTransmitReq, NetReceiveReq, NetWaitReq, ConsoleWriteReq,
    SyncReq, SyncObjectReq, SyncPagesReq, TraceReadReq, SegmentCasReq>;

using SyscallRes = std::variant<
    std::monostate, CatCreateRes, SelfSetLabelRes, SelfSetClearanceRes, SelfGetLabelRes,
    SelfGetClearanceRes, SelfSetAsRes, SelfGetAsRes, SelfHaltRes, ThreadCreateRes,
    ThreadAlertRes, SelfNextAlertRes, SelfLocalReadRes, SelfLocalWriteRes, ContainerCreateRes,
    ContainerUnrefRes, ContainerGetParentRes, ContainerListRes, ContainerLinkRes,
    ContainerHasRes, ObjGetTypeRes, ObjGetLabelRes, ObjGetDescripRes, ObjGetQuotaRes,
    ObjGetMetadataRes, ObjSetMetadataRes, ObjSetFixedQuotaRes, ObjSetImmutableRes, QuotaMoveRes,
    SegmentCreateRes, SegmentCopyRes, SegmentResizeRes, SegmentGetLenRes, SegmentReadRes,
    SegmentWriteRes, AsCreateRes, AsSetRes, AsGetRes, AsAccessRes, GateCreateRes, GateInvokeRes,
    GateGetClosureRes, FutexWaitRes, FutexWakeRes, NetMacAddrRes, NetTransmitRes, NetReceiveRes,
    NetWaitRes, ConsoleWriteRes, SyncRes, SyncObjectRes, SyncPagesRes, TraceReadRes,
    SegmentCasRes>;

inline constexpr size_t kNumSyscallKinds = std::variant_size_v<SyscallReq>;
static_assert(std::variant_size_v<SyscallRes> == kNumSyscallKinds + 1,
              "every request alternative needs exactly one completion alternative");

// Stable human-readable name for a SyscallReq alternative index ("unknown"
// out of range). The table in syscall_abi.cc is static_asserted against
// kNumSyscallKinds, so appending a descriptor without naming it is a
// compile error. Consumers: trace dumps, tools/tracefmt, docs.
const char* SyscallKindName(size_t index);

// The Status of a completion (kInvalidArg for an unfilled monostate):
// every completion alternative leads with one, so callers need no 50-arm
// switch to read it.
Status ResStatus(const SyscallRes& res);

}  // namespace histar

#endif  // SRC_KERNEL_SYSCALL_ABI_H_
