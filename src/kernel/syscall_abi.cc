// Descriptor utilities for the batched syscall ABI (syscall_abi.h): the
// syscall kind-name table and the generic completion/slot helpers the ring
// and chain executors use.
#include "src/kernel/syscall_abi.h"

#include <utility>

namespace histar {

namespace {
// One entry per SyscallReq alternative, in ABI order.
constexpr const char* kSyscallKindNames[] = {
    "cat_create", "self_set_label", "self_set_clearance", "self_get_label",
    "self_get_clearance", "self_set_as", "self_get_as", "self_halt",
    "thread_create", "thread_alert", "self_next_alert", "self_local_read",
    "self_local_write", "container_create", "container_unref",
    "container_get_parent", "container_list", "container_link",
    "container_has", "obj_get_type", "obj_get_label", "obj_get_descrip",
    "obj_get_quota", "obj_get_metadata", "obj_set_metadata",
    "obj_set_fixed_quota", "obj_set_immutable", "quota_move",
    "segment_create", "segment_copy", "segment_resize", "segment_get_len",
    "segment_read", "segment_write", "as_create", "as_set", "as_get",
    "as_access", "gate_create", "gate_invoke", "gate_get_closure",
    "futex_wait", "futex_wake", "net_mac_addr", "net_transmit",
    "net_receive", "net_wait", "console_write", "sync", "sync_object",
    "sync_pages", "ring_create", "ring_submit", "ring_wait", "ring_reap",
    "trace_read",
};
static_assert(sizeof(kSyscallKindNames) / sizeof(kSyscallKindNames[0]) ==
                  kNumSyscallKinds,
              "name every SyscallReq alternative (append here too)");
}  // namespace

const char* SyscallKindName(size_t index) {
  return index < kNumSyscallKinds ? kSyscallKindNames[index] : "unknown";
}

namespace {

// Default-constructs alternative `idx` of V; false if V has no such index.
template <typename V, size_t... I>
bool EmplaceByIndex(size_t idx, V* out, std::index_sequence<I...>) {
  bool hit = false;
  ((idx == I ? (out->template emplace<I>(), hit = true) : false), ...);
  return hit;
}

template <typename V>
bool EmplaceByIndex(size_t idx, V* out) {
  return EmplaceByIndex(idx, out, std::make_index_sequence<std::variant_size_v<V>>{});
}

}  // namespace

// ---- Chain/completion utilities ---------------------------------------------

Status ResStatus(const SyscallRes& res) {
  return std::visit(
      [](const auto& alt) -> Status {
        if constexpr (std::is_same_v<std::decay_t<decltype(alt)>, std::monostate>) {
          return Status::kInvalidArg;  // never filled
        } else {
          return alt.status;
        }
      },
      res);
}

void MakeRes(const SyscallReq& req, Status st, SyscallRes* out) {
  // Completion alternative i+1 answers request alternative i (the variant
  // layout contract asserted in syscall_abi.h), so the index arithmetic
  // cannot miss — but stay defensive and leave monostate on the impossible
  // path rather than crash.
  if (!EmplaceByIndex(req.index() + 1, out)) {
    *out = std::monostate{};
    return;
  }
  std::visit(
      [st](auto& alt) {
        if constexpr (!std::is_same_v<std::decay_t<decltype(alt)>, std::monostate>) {
          alt.status = st;
        }
      },
      *out);
}

bool ResSlotRead(const SyscallRes& res, RingSlot slot, uint64_t* v) {
  return std::visit(
      [&](const auto& alt) -> bool {
        using T = std::decay_t<decltype(alt)>;
        if constexpr (std::is_same_v<T, std::monostate>) {
          return false;
        } else {
          if (alt.status != Status::kOk) {
            return false;  // value fields are meaningful only on success
          }
          switch (slot) {
            case RingSlot::kLen:
              if constexpr (requires { alt.len; }) {
                *v = alt.len;
                return true;
              }
              return false;
            case RingSlot::kObject:
            case RingSlot::kContainer:
              if constexpr (requires { alt.id; }) {
                *v = alt.id;
                return true;
              }
              return false;
            case RingSlot::kCount:
              if constexpr (requires { alt.woken; }) {
                *v = alt.woken;
                return true;
              }
              return false;
            default:
              return false;  // kNone / kOff are not completion sources
          }
        }
      },
      res);
}

bool ReqSlotWrite(SyscallReq* req, RingSlot slot, uint64_t v) {
  return std::visit(
      [&](auto& r) -> bool {
        switch (slot) {
          case RingSlot::kLen:
            if constexpr (requires { r.len; }) {
              r.len = v;
              return true;
            } else if constexpr (requires { r.maxlen; }) {
              r.maxlen = v;
              return true;
            }
            return false;
          case RingSlot::kOff:
            if constexpr (requires { r.off; }) {
              r.off = v;
              return true;
            } else if constexpr (requires { r.offset; }) {
              r.offset = v;
              return true;
            }
            return false;
          case RingSlot::kObject:
            if constexpr (requires { r.ce; }) {
              r.ce.object = v;
              return true;
            }
            return false;
          case RingSlot::kContainer:
            if constexpr (requires { r.ce; }) {
              r.ce.container = v;
              return true;
            }
            return false;
          default:
            return false;
        }
      },
      *req);
}

}  // namespace histar
