// Gates: protected control transfer and privilege movement (paper §3.5),
// including the Figure 7 gate-call sequence and tainted invocation.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "src/core/trace.h"
#include "tests/kernel/kernel_test_util.h"

namespace histar {
namespace {

class GateTest : public KernelTest {};

TEST_F(GateTest, CreateRequiresOwnedStar) {
  Result<CategoryId> c = kernel_->sys_cat_create(init_);
  ASSERT_TRUE(c.ok());
  kernel_->RegisterGateEntry("noop", [](GateCall&) {});
  CreateSpec spec;
  spec.container = kernel_->root_container();
  spec.descrip = "g";
  // init owns c: may store c⋆ in a gate.
  Label gl(Level::k1, {{c.value(), Level::kStar}});
  Result<ObjectId> g =
      kernel_->sys_gate_create(init_, spec, gl, Label(Level::k2), "noop", {});
  EXPECT_TRUE(g.ok()) << StatusName(g.status());
  // A plain thread may not mint a gate owning c.
  ObjectId plain = MakeThread(Label(), Label(Level::k2));
  Result<ObjectId> bad =
      kernel_->sys_gate_create(plain, spec, gl, Label(Level::k2), "noop", {});
  EXPECT_FALSE(bad.ok());
}

TEST_F(GateTest, CreateRequiresRegisteredEntry) {
  CreateSpec spec;
  spec.container = kernel_->root_container();
  Result<ObjectId> g =
      kernel_->sys_gate_create(init_, spec, Label(), Label(Level::k2), "unregistered", {});
  EXPECT_FALSE(g.ok());
  EXPECT_EQ(g.status(), Status::kNotFound);
}

TEST_F(GateTest, InvokeGrantsGateOwnership) {
  // The core privilege-transfer property: a gate owning c lets its invoker
  // request c⋆.
  Result<CategoryId> c = kernel_->sys_cat_create(init_);
  ASSERT_TRUE(c.ok());
  bool ran = false;
  kernel_->RegisterGateEntry("grant-check", [&](GateCall& call) {
    ran = true;
    Result<Label> l = call.kernel->sys_self_get_label(call.thread);
    ASSERT_TRUE(l.ok());
    EXPECT_EQ(l.value().get(42), Level::k1);  // sanity: unrelated category
  });
  CreateSpec spec;
  spec.container = kernel_->root_container();
  Label gl(Level::k1, {{c.value(), Level::kStar}});
  Result<ObjectId> g =
      kernel_->sys_gate_create(init_, spec, gl, Label(Level::k2), "grant-check", {});
  ASSERT_TRUE(g.ok());

  ObjectId plain = MakeThread(Label(), Label(Level::k2));
  Label req(Level::k1, {{c.value(), Level::kStar}});
  ASSERT_EQ(kernel_->sys_gate_invoke(plain, RootEntry(g.value()), req, Label(Level::k2),
                                     Label()),
            Status::kOk);
  EXPECT_TRUE(ran);
  Result<Label> after = kernel_->sys_self_get_label(plain);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().get(c.value()), Level::kStar);
}

TEST_F(GateTest, InvokeCannotRequestUnownedStar) {
  Result<CategoryId> c = kernel_->sys_cat_create(init_);
  Result<CategoryId> other = kernel_->sys_cat_create(init_);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(other.ok());
  kernel_->RegisterGateEntry("noop2", [](GateCall&) {});
  CreateSpec spec;
  spec.container = kernel_->root_container();
  Label gl(Level::k1, {{c.value(), Level::kStar}});
  Result<ObjectId> g =
      kernel_->sys_gate_create(init_, spec, gl, Label(Level::k2), "noop2", {});
  ASSERT_TRUE(g.ok());
  ObjectId plain = MakeThread(Label(), Label(Level::k2));
  // Requesting ⋆ in a category neither the thread nor gate owns: floor has
  // level 1 there, and ⋆ < 1.
  Label req(Level::k1, {{other.value(), Level::kStar}});
  EXPECT_EQ(kernel_->sys_gate_invoke(plain, RootEntry(g.value()), req, Label(Level::k2),
                                     Label()),
            Status::kLabelCheckFailed);
}

TEST_F(GateTest, GateClearanceGatesInvocation) {
  // A gate with clearance {c0, 2} can only be invoked by owners of c — the
  // signal-gate pattern (§5.6). Note the gate's own label must own c too
  // (L_G ⊑ C_G), just as the paper's signal gate carries the user's ⋆.
  Result<CategoryId> c = kernel_->sys_cat_create(init_);
  ASSERT_TRUE(c.ok());
  kernel_->RegisterGateEntry("sig", [](GateCall&) {});
  CreateSpec spec;
  spec.container = kernel_->root_container();
  Label gl(Level::k1, {{c.value(), Level::kStar}});
  Label gcl(Level::k2, {{c.value(), Level::k0}});
  Result<ObjectId> g = kernel_->sys_gate_create(init_, spec, gl, gcl, "sig", {});
  ASSERT_TRUE(g.ok()) << StatusName(g.status());
  ObjectId plain = MakeThread(Label(), Label(Level::k2));
  EXPECT_EQ(kernel_->sys_gate_invoke(plain, RootEntry(g.value()), Label(), Label(Level::k2),
                                     Label()),
            Status::kLabelCheckFailed);
  // init owns c (⋆ ≤ 0), so init may invoke.
  EXPECT_EQ(kernel_->sys_gate_invoke(init_, RootEntry(g.value()),
                                     kernel_->sys_self_get_label(init_).value(),
                                     kernel_->sys_self_get_clearance(init_).value(), Label()),
            Status::kOk);
}

TEST_F(GateTest, DefaultClearanceRefusesTaintedCallers) {
  // §5.5: services that don't want tainted copies simply keep the default
  // gate clearance {2}; a caller already tainted t3 fails L_T ⊑ C_G.
  Result<CategoryId> t = kernel_->sys_cat_create(init_);
  ASSERT_TRUE(t.ok());
  kernel_->RegisterGateEntry("noop3", [](GateCall&) {});
  CreateSpec spec;
  spec.container = kernel_->root_container();
  Result<ObjectId> g =
      kernel_->sys_gate_create(init_, spec, Label(), Label(Level::k2), "noop3", {});
  ASSERT_TRUE(g.ok());
  Label tl(Level::k1, {{t.value(), Level::k3}});
  Label tc(Level::k2, {{t.value(), Level::k3}});
  ObjectId tainted = MakeThread(tl, tc);
  EXPECT_EQ(kernel_->sys_gate_invoke(tainted, RootEntry(g.value()), tl, tc, Label()),
            Status::kLabelCheckFailed);
}

TEST_F(GateTest, TaintedInvocationAcquiresTaintAtEntry) {
  // The §5.5 flow: a caller *owning* t invokes the service gate requesting
  // a t3-tainted label; inside the entry the thread is tainted, and the
  // floor rule prevents it from requesting anything less on the way in.
  Result<CategoryId> t = kernel_->sys_cat_create(init_);
  ASSERT_TRUE(t.ok());
  CategoryId tc_id = t.value();
  Label observed;
  kernel_->RegisterGateEntry("svc-taint", [&](GateCall& call) {
    observed = call.kernel->sys_self_get_label(call.thread).value();
  });
  CreateSpec spec;
  spec.container = kernel_->root_container();
  // Gate accepts callers tainted up to t3 (its creator owns t, so its
  // clearance may cover t3 — C_G ⊑ C_T holds after cat_create).
  Label gate_clear(Level::k2, {{tc_id, Level::k3}});
  Result<ObjectId> g =
      kernel_->sys_gate_create(init_, spec, Label(), gate_clear, "svc-taint", {});
  ASSERT_TRUE(g.ok()) << StatusName(g.status());
  // Spawn the pre-tainted worker now, while init still owns t and can write
  // the root container (after the invoke below init is tainted and cannot).
  Label tl(Level::k1, {{tc_id, Level::k3}});
  Label tcl(Level::k2, {{tc_id, Level::k3}});
  ObjectId worker = MakeThread(tl, tcl);

  // init owns t (just allocated): request a t3 label across the gate.
  Label req = kernel_->sys_self_get_label(init_).value();
  req.set(tc_id, Level::k3);
  Label reqc = kernel_->sys_self_get_clearance(init_).value();
  ASSERT_EQ(kernel_->sys_gate_invoke(init_, RootEntry(g.value()), req, reqc, Label()),
            Status::kOk);
  EXPECT_EQ(observed.get(tc_id), Level::k3);
  // A tainted non-owner cannot shed taint at the gate (the floor rule) but
  // may cross it keeping the taint.
  EXPECT_EQ(kernel_->sys_gate_invoke(worker, RootEntry(g.value()), Label(), Label(Level::k2),
                                     tl),
            Status::kLabelCheckFailed);
  // (Note the verify label must also satisfy L_T ⊑ L_V, so it is tl here.)
  EXPECT_EQ(kernel_->sys_gate_invoke(worker, RootEntry(g.value()), tl, tcl, tl),
            Status::kOk);
}

TEST_F(GateTest, VerifyLabelMustBeProvable) {
  // L_T ⊑ L_V: claiming ownership you don't have fails.
  Result<CategoryId> c = kernel_->sys_cat_create(init_);
  ASSERT_TRUE(c.ok());
  Label seen;
  kernel_->RegisterGateEntry("verify-capture",
                             [&](GateCall& call) { seen = call.verify; });
  CreateSpec spec;
  spec.container = kernel_->root_container();
  Result<ObjectId> g =
      kernel_->sys_gate_create(init_, spec, Label(), Label(Level::k2), "verify-capture", {});
  ASSERT_TRUE(g.ok());
  ObjectId plain = MakeThread(Label(), Label(Level::k2));
  Label claim(Level::k1, {{c.value(), Level::kStar}});
  EXPECT_EQ(kernel_->sys_gate_invoke(plain, RootEntry(g.value()), Label(), Label(Level::k2),
                                     claim),
            Status::kLabelCheckFailed);
  // init really owns c; the entry sees the proof without gaining anything.
  EXPECT_EQ(kernel_->sys_gate_invoke(init_, RootEntry(g.value()), Label(), Label(Level::k2),
                                     claim),
            Status::kOk);
  EXPECT_EQ(seen.get(c.value()), Level::kStar);
}

TEST_F(GateTest, ReturnGatePatternRestoresPrivilege) {
  // Figure 7: caller makes a return gate holding its own privileges, guarded
  // by a fresh return category r; the service thread re-acquires the
  // caller's privileges only through that gate.
  Result<CategoryId> d = kernel_->sys_cat_create(init_);  // daemon's category
  ASSERT_TRUE(d.ok());

  // The "caller": a thread owning r after allocating it.
  ObjectId caller = MakeThread(Label(), Label(Level::k2));
  Result<CategoryId> r = kernel_->sys_cat_create(caller);
  ASSERT_TRUE(r.ok());
  Label caller_label = kernel_->sys_self_get_label(caller).value();
  Label caller_clear = kernel_->sys_self_get_clearance(caller).value();

  // Return gate: label = caller's privileges, clearance requires r0.
  kernel_->RegisterGateEntry("return", [](GateCall&) {});
  CreateSpec rspec;
  rspec.container = kernel_->root_container();
  Label rclear(Level::k2, {{r.value(), Level::k0}});
  Result<ObjectId> rgate =
      kernel_->sys_gate_create(caller, rspec, caller_label, rclear, "return", {});
  ASSERT_TRUE(rgate.ok()) << StatusName(rgate.status());

  // Service gate owned by the daemon (init owns d).
  bool service_ran = false;
  ObjectId rgate_id = rgate.value();
  CategoryId rcat = r.value();
  kernel_->RegisterGateEntry("service", [&](GateCall& call) {
    service_ran = true;
    Kernel* k = call.kernel;
    // Inside the daemon's domain: the thread holds d⋆ and r⋆ but not the
    // caller's other privileges. Return by invoking the return gate.
    Label now = k->sys_self_get_label(call.thread).value();
    EXPECT_EQ(now.get(rcat), Level::kStar);
    ContainerEntry rg{k->root_container(), rgate_id};
    Status st = k->sys_gate_invoke(call.thread, rg,
                                   k->sys_obj_get_label(call.thread, rg).value(),
                                   k->sys_self_get_clearance(call.thread).value(), Label());
    EXPECT_EQ(st, Status::kOk);
  });
  CreateSpec sspec;
  sspec.container = kernel_->root_container();
  Label sgl(Level::k1, {{d.value(), Level::kStar}});
  Result<ObjectId> sgate =
      kernel_->sys_gate_create(init_, sspec, sgl, Label(Level::k2), "service", {});
  ASSERT_TRUE(sgate.ok());

  // Caller invokes the service gate, granting r⋆ (so the service can return)
  // and receiving d⋆ (the daemon's privilege for the call's duration).
  Label req(Level::k1, {{d.value(), Level::kStar}, {rcat, Level::kStar}});
  ASSERT_EQ(kernel_->sys_gate_invoke(caller, RootEntry(sgate.value()), req, Label(Level::k2),
                                     Label()),
            Status::kOk);
  EXPECT_TRUE(service_ran);
  // After the return gate, the thread has the caller's original privileges
  // (which include r⋆ ownership via cat_create).
  Label after = kernel_->sys_self_get_label(caller).value();
  EXPECT_EQ(after.get(rcat), Level::kStar);
  EXPECT_EQ(after, caller_label);
}

TEST_F(GateTest, ClosureWordsArePassedThrough) {
  std::vector<uint64_t> got;
  kernel_->RegisterGateEntry("closure", [&](GateCall& call) { got = call.closure; });
  CreateSpec spec;
  spec.container = kernel_->root_container();
  Result<ObjectId> g = kernel_->sys_gate_create(init_, spec, Label(), Label(Level::k2),
                                                "closure", {7, 8, 9});
  ASSERT_TRUE(g.ok());
  ASSERT_EQ(kernel_->sys_gate_invoke(init_, RootEntry(g.value()), Label(), Label(Level::k2),
                                     Label()),
            Status::kOk);
  EXPECT_EQ(got, (std::vector<uint64_t>{7, 8, 9}));
  Result<std::vector<uint64_t>> via_sys = kernel_->sys_gate_get_closure(init_,
                                                                        RootEntry(g.value()));
  ASSERT_TRUE(via_sys.ok());
  EXPECT_EQ(via_sys.value(), (std::vector<uint64_t>{7, 8, 9}));
}

TEST_F(GateTest, NestedGroupsLandBeforeTheGateEventWithTheirOwnDurations) {
  // A gate's entry issues syscalls of its own. Each closes its own trace
  // group while the gate call is still running; the gate stages its event
  // only after the entry returns, so the nested events land first and the
  // gate's event alone carries the whole call's duration.
  if (!HISTAR_TRACE) {
    GTEST_SKIP() << "recording compiled out";
  }
  constexpr uint64_t kPauseNs = 5'000'000;
  ObjectId seg = MakeSegment(Label(), 64);
  kernel_->RegisterGateEntry("nested", [&](GateCall& call) {
    EXPECT_TRUE(call.kernel->sys_segment_get_len(call.thread, RootEntry(seg)).ok());
    std::this_thread::sleep_for(std::chrono::nanoseconds(kPauseNs));
    EXPECT_TRUE(call.kernel->sys_obj_get_type(call.thread, RootEntry(seg)).ok());
  });
  CreateSpec spec;
  spec.container = kernel_->root_container();
  Result<ObjectId> g =
      kernel_->sys_gate_create(init_, spec, Label(), Label(Level::k2), "nested", {});
  ASSERT_TRUE(g.ok());

  const size_t slot = trace::Recorder::CurrentSlot();
  auto syscalls_after = [slot](uint64_t seq) {
    std::vector<trace::SlotEvent> all;
    trace::Snapshot(&all);
    std::vector<trace::Event> out;
    for (const trace::SlotEvent& se : all) {
      if (se.slot == slot && se.seq >= seq &&
          se.event.kind == static_cast<uint8_t>(trace::EventKind::kSyscall)) {
        out.push_back(se.event);
      }
    }
    return out;
  };
  std::vector<trace::SlotEvent> before;
  trace::Snapshot(&before);
  uint64_t start = 0;
  for (const trace::SlotEvent& se : before) {
    if (se.slot == slot) {
      start = se.seq + 1;
    }
  }

  ASSERT_EQ(kernel_->sys_gate_invoke(init_, RootEntry(g.value()), Label(), Label(Level::k2),
                                     Label()),
            Status::kOk);
  std::vector<trace::Event> events = syscalls_after(start);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].aux, SyscallReq{SegmentGetLenReq{}}.index());
  EXPECT_EQ(events[1].aux, SyscallReq{ObjGetTypeReq{}}.index());
  EXPECT_EQ(events[2].aux, SyscallReq{GateInvokeReq{}}.index());
  // Each nested group is timed alone; the gate's span covers the pause.
  EXPECT_LT(events[0].dur_ns, kPauseNs);
  EXPECT_LT(events[1].dur_ns, kPauseNs);
  EXPECT_GE(events[2].dur_ns, kPauseNs);
  EXPECT_GE(events[1].ts_ns, events[0].ts_ns + kPauseNs);
}

}  // namespace
}  // namespace histar
