// Networking tests (paper §5.7): the untrusted stack, the i-taint on
// everything from the wire, and end-to-end stream transfer between two
// machines on the simulated switch.
#include "src/net/netd.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace histar {
namespace {

class NetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = std::make_unique<NetSwitch>();
    // Two "machines" sharing a kernel for test simplicity: two devices, two
    // stacks, one switch. Labels keep the stacks honest regardless.
    kernel_ = std::make_unique<Kernel>();
    world_ = UnixWorld::Boot(kernel_.get());
    ASSERT_NE(world_, nullptr);
    CurrentThread::Set(world_->init_thread());
    a_ = NetDaemon::Start(world_.get(), net_->NewPort(), "netd-a");
    b_ = NetDaemon::Start(world_.get(), net_->NewPort(), "netd-b");
    ASSERT_NE(a_, nullptr);
    ASSERT_NE(b_, nullptr);
  }

  void TearDown() override {
    a_->Stop();
    b_->Stop();
    CurrentThread::Set(kInvalidObject);
  }

  // Makes a client thread tainted i2 for the given stack.
  ObjectId MakeClient(NetDaemon* d, const std::string& name) {
    Label l = d->ClientTaint();
    Label c(Level::k2, {{d->taint().i, Level::k3}});
    return kernel_->BootstrapThread(l, c, name);
  }

  std::unique_ptr<NetSwitch> net_;
  std::unique_ptr<Kernel> kernel_;
  std::unique_ptr<UnixWorld> world_;
  std::unique_ptr<NetDaemon> a_;
  std::unique_ptr<NetDaemon> b_;
};

TEST_F(NetTest, ConnectAcceptSendRecv) {
  ObjectId server = MakeClient(b_.get(), "server");
  ObjectId client = MakeClient(a_.get(), "client");

  Result<uint64_t> ls = b_->Listen(server, 80);
  ASSERT_TRUE(ls.ok()) << StatusName(ls.status());

  std::thread srv([&]() {
    CurrentThread bind(server);
    Result<uint64_t> conn = b_->Accept(server, ls.value(), 5000);
    ASSERT_TRUE(conn.ok()) << StatusName(conn.status());
    char buf[64] = {};
    Result<uint64_t> n = b_->Recv(server, conn.value(), buf, sizeof(buf), 5000);
    ASSERT_TRUE(n.ok()) << StatusName(n.status());
    std::string got(buf, n.value());
    EXPECT_EQ(got, "GET /");
    const char resp[] = "hello from b";
    ASSERT_TRUE(b_->Send(server, conn.value(), resp, sizeof(resp)).ok());
  });

  CurrentThread bind(client);
  Result<uint64_t> conn = a_->Connect(client, b_->mac(), 80);
  ASSERT_TRUE(conn.ok()) << StatusName(conn.status());
  const char req[] = {'G', 'E', 'T', ' ', '/'};
  ASSERT_TRUE(a_->Send(client, conn.value(), req, sizeof(req)).ok());
  char buf[64] = {};
  Result<uint64_t> n = a_->Recv(client, conn.value(), buf, sizeof(buf), 5000);
  srv.join();
  ASSERT_TRUE(n.ok()) << StatusName(n.status());
  EXPECT_STREQ(buf, "hello from b");
}

TEST_F(NetTest, BulkTransferIsReliable) {
  ObjectId server = MakeClient(b_.get(), "server");
  ObjectId client = MakeClient(a_.get(), "client");
  constexpr uint64_t kTotal = 1 << 20;  // 1 MB through 64 kB rings

  Result<uint64_t> ls = b_->Listen(server, 9000);
  ASSERT_TRUE(ls.ok());
  std::thread srv([&]() {
    CurrentThread bind(server);
    Result<uint64_t> conn = b_->Accept(server, ls.value(), 5000);
    ASSERT_TRUE(conn.ok());
    std::vector<uint8_t> chunk(8192);
    uint64_t seen = 0;
    uint64_t checksum = 0;
    while (seen < kTotal) {
      Result<uint64_t> n = b_->Recv(server, conn.value(), chunk.data(), chunk.size(), 10000);
      ASSERT_TRUE(n.ok()) << StatusName(n.status());
      for (uint64_t i = 0; i < n.value(); ++i) {
        checksum += chunk[i];
      }
      seen += n.value();
    }
    EXPECT_EQ(seen, kTotal);
    // Every byte b[i] = i & 0xff; verify the aggregate.
    uint64_t want = 0;
    for (uint64_t i = 0; i < kTotal; ++i) {
      want += i & 0xff;
    }
    EXPECT_EQ(checksum, want);
  });

  CurrentThread bind(client);
  Result<uint64_t> conn = a_->Connect(client, b_->mac(), 9000);
  ASSERT_TRUE(conn.ok());
  std::vector<uint8_t> chunk(8192);
  uint64_t sent = 0;
  while (sent < kTotal) {
    uint64_t n = std::min<uint64_t>(chunk.size(), kTotal - sent);
    for (uint64_t i = 0; i < n; ++i) {
      chunk[i] = static_cast<uint8_t>((sent + i) & 0xff);
    }
    Result<uint64_t> w = a_->Send(client, conn.value(), chunk.data(), n);
    ASSERT_TRUE(w.ok()) << StatusName(w.status());
    sent += w.value();
  }
  srv.join();
}

TEST_F(NetTest, UntaintedThreadCannotReadSocketData) {
  // The central property: network payloads live in {i2, 1} segments, so a
  // thread that has not tainted itself i2 cannot observe them.
  ObjectId client = MakeClient(a_.get(), "client");
  CurrentThread bind(client);
  Result<uint64_t> ls = a_->Listen(client, 1234);
  ASSERT_TRUE(ls.ok());
  Result<ContainerEntry> seg = a_->SocketSegment(ls.value());
  ASSERT_TRUE(seg.ok());

  ObjectId plain = kernel_->BootstrapThread(Label(), Label(Level::k2), "plain");
  char buf[8];
  EXPECT_EQ(kernel_->sys_segment_read(plain, seg.value(), buf, 0, 8),
            Status::kLabelCheckFailed);
  // The i2-tainted client can.
  EXPECT_EQ(kernel_->sys_segment_read(client, seg.value(), buf, 0, 8), Status::kOk);
}

TEST_F(NetTest, UntaintedThreadCannotOpenSockets) {
  // Socket setup writes into netd's i2-tainted process container, which an
  // untainted thread cannot modify; the taint is mandatory, not advisory.
  ObjectId plain = kernel_->BootstrapThread(Label(), Label(Level::k2), "plain");
  CurrentThread bind(plain);
  Result<uint64_t> ls = a_->Listen(plain, 7);
  EXPECT_FALSE(ls.ok());
}

TEST_F(NetTest, ForeignTaintCannotTransmit) {
  // A thread tainted v3 in a category netd does not own can neither invoke
  // the ctl gate (clearance {2}) nor write the device — the §6.1 scanner
  // containment reduced to its essence.
  Result<CategoryId> v = kernel_->sys_cat_create(world_->init_thread());
  ASSERT_TRUE(v.ok());
  Label vl = a_->ClientTaint();
  vl.set(v.value(), Level::k3);
  Label vc(Level::k2, {{a_->taint().i, Level::k3}, {v.value(), Level::k3}});
  ObjectId tainted = kernel_->BootstrapThread(vl, vc, "v-tainted");
  CurrentThread bind(tainted);
  Result<uint64_t> ls = a_->Listen(tainted, 99);
  EXPECT_FALSE(ls.ok());
  // Direct device access fails too: the device is {nr3, nw0, i2, 1} and the
  // thread's v3 cannot flow into it.
  ObjectId seg = [&] {
    CreateSpec spec;
    spec.container = kernel_->root_container();
    spec.label = vl;
    spec.quota = 16 * kPageSize;
    spec.descrip = "payload";
    // Creating in root requires writing root — v3 taint forbids even that;
    // use a fresh tainted container off the root created by init.
    return kInvalidObject;
  }();
  (void)seg;
  ContainerEntry dev{kernel_->root_container(), a_->device()};
  // Even with a buffer it could read, transmitting requires modifying the
  // device: v3 ⋢ device label.
  EXPECT_EQ(kernel_->sys_net_transmit(tainted, dev, dev, 0, 0), Status::kLabelCheckFailed);
}

TEST_F(NetTest, CloseSignalsEof) {
  ObjectId server = MakeClient(b_.get(), "server");
  ObjectId client = MakeClient(a_.get(), "client");
  Result<uint64_t> ls = b_->Listen(server, 81);
  ASSERT_TRUE(ls.ok());
  std::thread srv([&]() {
    CurrentThread bind(server);
    Result<uint64_t> conn = b_->Accept(server, ls.value(), 5000);
    ASSERT_TRUE(conn.ok());
    ASSERT_EQ(b_->CloseSocket(server, conn.value()), Status::kOk);
  });
  CurrentThread bind(client);
  Result<uint64_t> conn = a_->Connect(client, b_->mac(), 81);
  ASSERT_TRUE(conn.ok());
  srv.join();
  char buf[8];
  Result<uint64_t> n = a_->Recv(client, conn.value(), buf, sizeof(buf), 5000);
  ASSERT_TRUE(n.ok()) << StatusName(n.status());
  EXPECT_EQ(n.value(), 0u);  // EOF
}

TEST_F(NetTest, ConnectSurvivesALateListen) {
  // The client's first SYN reaches b before b listens, and b drops it.
  // Connect resends within its 2 s wait, so it still connects, and the
  // resent copies yield exactly one connection.
  ObjectId server = MakeClient(b_.get(), "server");
  ObjectId client = MakeClient(a_.get(), "client");
  Status accepted = Status::kInvalidArg;
  Status sent = Status::kInvalidArg;
  Status second = Status::kOk;
  std::thread srv([&]() {
    CurrentThread bind(server);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    Result<uint64_t> ls = b_->Listen(server, 83);
    if (!ls.ok()) {
      accepted = ls.status();
      return;
    }
    Result<uint64_t> conn = b_->Accept(server, ls.value(), 5000);
    accepted = conn.status();
    if (conn.ok()) {
      const char msg[] = "late";
      Result<uint64_t> n = b_->Send(server, conn.value(), msg, sizeof(msg));
      sent = n.status();
    }
    second = b_->Accept(server, ls.value(), 300).status();
  });
  CurrentThread bind(client);
  Result<uint64_t> conn = a_->Connect(client, b_->mac(), 83);
  char buf[8] = {};
  Result<uint64_t> n = Status::kNotFound;
  if (conn.ok()) {
    n = a_->Recv(client, conn.value(), buf, sizeof(buf), 5000);
  }
  srv.join();
  ASSERT_TRUE(conn.ok()) << StatusName(conn.status());
  EXPECT_EQ(accepted, Status::kOk) << StatusName(accepted);
  EXPECT_EQ(sent, Status::kOk) << StatusName(sent);
  ASSERT_TRUE(n.ok()) << StatusName(n.status());
  EXPECT_STREQ(buf, "late");
  EXPECT_NE(second, Status::kOk) << "a resent SYN was accepted as a second connection";
}

TEST_F(NetTest, SwitchAccountsVirtualTime) {
  // 100 Mb/s line rate: bytes forwarded accrue simulated nanoseconds for
  // the Figure 13 wget experiment.
  net_->ResetSimTime();
  ObjectId server = MakeClient(b_.get(), "server");
  ObjectId client = MakeClient(a_.get(), "client");
  Result<uint64_t> ls = b_->Listen(server, 82);
  ASSERT_TRUE(ls.ok());
  std::thread srv([&]() {
    CurrentThread bind(server);
    Result<uint64_t> conn = b_->Accept(server, ls.value(), 5000);
    ASSERT_TRUE(conn.ok());
    char buf[4096];
    uint64_t seen = 0;
    while (seen < 100 * 1024) {
      Result<uint64_t> n = b_->Recv(server, conn.value(), buf, sizeof(buf), 5000);
      ASSERT_TRUE(n.ok());
      seen += n.value();
    }
  });
  CurrentThread bind(client);
  Result<uint64_t> conn = a_->Connect(client, b_->mac(), 82);
  ASSERT_TRUE(conn.ok());
  std::vector<uint8_t> chunk(4096, 9);
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(a_->Send(client, conn.value(), chunk.data(), chunk.size()).ok());
  }
  srv.join();
  // ≥ 100 KiB at 100 Mb/s ≈ ≥ 8.4 simulated ms.
  EXPECT_GT(net_->sim_time_ns(), 8'000'000u);
}

TEST_F(NetTest, SmallRoundTripsDoNotWaitForThePumpTimeout) {
  // Request/response ping-pong of 8-byte messages on an otherwise idle
  // switch. Each Send must wake the transmit loop: if the queued bytes
  // waited for netd's 5 ms NIC poll instead, every round trip would pay
  // about two of those timeouts. The bound allows two thirds of one per
  // round trip, which leaves room for sanitizer builds.
  constexpr int kRoundTrips = 300;
  constexpr auto kIdleTimeout = std::chrono::milliseconds(5);
  ObjectId server = MakeClient(b_.get(), "server");
  ObjectId client = MakeClient(a_.get(), "client");
  Result<uint64_t> ls = b_->Listen(server, 7);
  ASSERT_TRUE(ls.ok());

  // Reads exactly 8 bytes; false on error or EOF.
  auto recv8 = [](NetDaemon* d, ObjectId self, uint64_t sock, uint64_t* word) {
    uint8_t* dst = reinterpret_cast<uint8_t*>(word);
    uint64_t got = 0;
    while (got < 8) {
      Result<uint64_t> n = d->Recv(self, sock, dst + got, 8 - got, 5000);
      if (!n.ok() || n.value() == 0) {
        return false;
      }
      got += n.value();
    }
    return true;
  };

  std::thread srv([&]() {
    CurrentThread bind(server);
    Result<uint64_t> conn = b_->Accept(server, ls.value(), 5000);
    ASSERT_TRUE(conn.ok());
    for (int i = 0; i < kRoundTrips; ++i) {
      uint64_t word = 0;
      ASSERT_TRUE(recv8(b_.get(), server, conn.value(), &word));
      ++word;
      ASSERT_TRUE(b_->Send(server, conn.value(), &word, 8).ok());
    }
  });

  CurrentThread bind(client);
  Result<uint64_t> conn = a_->Connect(client, b_->mac(), 7);
  ASSERT_TRUE(conn.ok());
  auto t0 = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < kRoundTrips; ++i) {
    uint64_t word = i * 2;
    ASSERT_TRUE(a_->Send(client, conn.value(), &word, 8).ok());
    ASSERT_TRUE(recv8(a_.get(), client, conn.value(), &word));
    ASSERT_EQ(word, i * 2 + 1);
  }
  auto elapsed = std::chrono::steady_clock::now() - t0;
  srv.join();
  EXPECT_LT(elapsed, kRoundTrips * kIdleTimeout * 2 / 3)
      << std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count() << " ms";
}

}  // namespace
}  // namespace histar
