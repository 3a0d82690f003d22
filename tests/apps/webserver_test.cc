// §6.4 web services: per-user data isolation survives buggy or malicious
// service code, authentication runs through the §6.2 daemon, and the
// demultiplexer's container-based resource control works.
#include "src/apps/webserver.h"

#include <gtest/gtest.h>

namespace histar {
namespace {

class WebServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    kernel_ = std::make_unique<Kernel>();
    world_ = UnixWorld::Boot(kernel_.get());
    ASSERT_NE(world_, nullptr);
    CurrentThread::Set(world_->init_thread());
    log_ = LogService::Start(world_.get());
    auth_ = AuthSystem::Start(world_.get(), log_.get());
    store_ = UserStore::Create(world_.get());
    ASSERT_NE(auth_, nullptr);
    ASSERT_NE(store_, nullptr);

    alice_ = auth_->AddUser("alice", "wonderland").value();
    bob_ = auth_->AddUser("bob", "builder").value();
    ASSERT_EQ(store_->AddUser(world_->init_thread(), alice_), Status::kOk);
    ASSERT_EQ(store_->AddUser(world_->init_thread(), bob_), Status::kOk);
    // Seed data as each user (init owns both users' categories at account
    // creation time).
    ASSERT_EQ(store_->Put(world_->init_thread(), "alice", "ssn", "123-45-6789"),
              Status::kOk);
    ASSERT_EQ(store_->Put(world_->init_thread(), "bob", "ssn", "987-65-4321"), Status::kOk);
  }
  void TearDown() override { CurrentThread::Set(kInvalidObject); }

  // Runs one request through a real worker process spawned like the demux
  // does (no network, for determinism).
  std::string Serve(const WebRequest& req) {
    ProcessContext& ctx = world_->init_context();
    FdTable fds(kernel_.get(), ctx.ids, Label());
    Result<std::pair<int, int>> pipe = fds.CreatePipe(world_->init_thread());
    EXPECT_TRUE(pipe.ok());
    ProcessOpts opts;
    opts.inherit_fds = {fds.Entry(pipe.value().second).value()};
    std::vector<std::string> args = {
        "web-worker", req.op == WebRequest::Op::kGet ? "GET" : "PUT",
        req.user,     req.key,
        req.password, req.data};
    Result<std::unique_ptr<ProcHandle>> h =
        world_->procs().Spawn(ctx, "web-worker", args, opts);
    if (!h.ok()) {
      return "spawn-failed";
    }
    std::string resp;
    char buf[512];
    while (resp.find('\n') == std::string::npos) {
      Result<uint64_t> n =
          fds.ReadTimeout(world_->init_thread(), pipe.value().first, buf, sizeof(buf), 5000);
      if (!n.ok() || n.value() == 0) {
        break;
      }
      resp.append(buf, n.value());
    }
    h.value()->Wait(world_->init_thread(), 5000);
    h.value()->Destroy(world_->init_thread());
    if (!resp.empty() && resp.back() == '\n') {
      resp.pop_back();
    }
    return resp;
  }

  // Sends one request line over a fresh connection and returns the
  // response line.
  static std::string HttpRequest(NetDaemon* client, ObjectId browser, MacAddr server,
                                 const std::string& line) {
    Result<uint64_t> conn = client->Connect(browser, server, 80);
    EXPECT_TRUE(conn.ok());
    std::string msg = line + "\n";
    EXPECT_TRUE(client->Send(browser, conn.value(), msg.data(), msg.size()).ok());
    std::string resp;
    char buf[512];
    for (;;) {
      Result<uint64_t> n = client->Recv(browser, conn.value(), buf, sizeof(buf), 10000);
      if (!n.ok() || n.value() == 0) {
        break;
      }
      resp.append(buf, n.value());
      if (resp.find('\n') != std::string::npos) {
        break;
      }
    }
    client->CloseSocket(browser, conn.value());
    if (!resp.empty() && resp.back() == '\n') {
      resp.pop_back();
    }
    return resp;
  }

  void RegisterWorker() {
    // The production worker program, registered the way WebServer::Start
    // does (tests reuse it without a network).
    AuthSystem* auth = auth_.get();
    UserStore* store = store_.get();
    world_->procs().RegisterProgram("web-worker", [auth, store](ProcessContext& ctx)
                                                      -> int64_t {
      WebRequest req;
      req.op = ctx.args[1] == "GET" ? WebRequest::Op::kGet : WebRequest::Op::kPut;
      req.user = ctx.args[2];
      req.key = ctx.args[3];
      req.password = ctx.args[4];
      req.data = ctx.args[5];
      std::string resp = ServeOne(ctx, auth, store, req);
      resp.push_back('\n');
      ctx.fds->Write(ctx.self, 0, resp.data(), resp.size());
      return 0;
    });
  }

  std::unique_ptr<Kernel> kernel_;
  std::unique_ptr<UnixWorld> world_;
  std::unique_ptr<LogService> log_;
  std::unique_ptr<AuthSystem> auth_;
  std::unique_ptr<UserStore> store_;
  UnixUser alice_;
  UnixUser bob_;
};

TEST_F(WebServiceTest, RequestParserAcceptsAndRejects) {
  WebRequest g = ParseRequest("GET alice/ssn PASS wonderland");
  EXPECT_EQ(g.op, WebRequest::Op::kGet);
  EXPECT_EQ(g.user, "alice");
  EXPECT_EQ(g.key, "ssn");
  EXPECT_EQ(g.password, "wonderland");

  WebRequest p = ParseRequest("PUT bob/bio PASS builder DATA I fix things");
  EXPECT_EQ(p.op, WebRequest::Op::kPut);
  EXPECT_EQ(p.data, "I fix things");

  EXPECT_EQ(ParseRequest("").op, WebRequest::Op::kBad);
  EXPECT_EQ(ParseRequest("GET noslash PASS x").op, WebRequest::Op::kBad);
  EXPECT_EQ(ParseRequest("GET a/b NOPASS x").op, WebRequest::Op::kBad);
  EXPECT_EQ(ParseRequest("PUT a/b PASS x").op, WebRequest::Op::kBad);  // no DATA
}

TEST_F(WebServiceTest, AuthenticatedUserReadsOwnData) {
  RegisterWorker();
  WebRequest req;
  req.op = WebRequest::Op::kGet;
  req.user = "alice";
  req.key = "ssn";
  req.password = "wonderland";
  EXPECT_EQ(Serve(req), "200 123-45-6789");
}

TEST_F(WebServiceTest, WrongPasswordGetsOneBitOnly) {
  RegisterWorker();
  WebRequest req;
  req.op = WebRequest::Op::kGet;
  req.user = "alice";
  req.key = "ssn";
  req.password = "guess";
  EXPECT_EQ(Serve(req), "403 denied");
}

TEST_F(WebServiceTest, PutThenGetRoundTrips) {
  RegisterWorker();
  WebRequest put;
  put.op = WebRequest::Op::kPut;
  put.user = "bob";
  put.key = "bio";
  put.password = "builder";
  put.data = "can we fix it";
  EXPECT_EQ(Serve(put), "200 stored");
  WebRequest get = put;
  get.op = WebRequest::Op::kGet;
  EXPECT_EQ(Serve(get), "200 can we fix it");
}

TEST_F(WebServiceTest, MaliciousWorkerCannotCrossUsers) {
  // The §6.4 claim: service-code compromise does not cross user boundaries.
  // This worker authenticates as alice (whose password it legitimately has)
  // and then goes after bob's record by every available path.
  AuthSystem* auth = auth_.get();
  UserStore* store = store_.get();
  ObjectId bob_home = bob_.home;
  world_->procs().RegisterProgram("web-worker", [auth, store, bob_home](ProcessContext& ctx)
                                                    -> int64_t {
    Result<LoginResult> login = auth->Login(ctx.self, "alice", ctx.args[4]);
    std::string resp;
    if (!login.ok() || !login.value().authenticated) {
      resp = "403 denied";
    } else {
      // (a) straight read of bob's record through the store
      Result<std::string> theft = store->Get(ctx.self, "bob", "ssn");
      // (b) forge a record into bob's area
      Status forgery = store->Put(ctx.self, "bob", "ssn", "000-00-0000");
      // (c) go under the store: walk bob's home directory
      FileSystem fs(ctx.kernel);
      Result<std::vector<std::pair<std::string, ObjectId>>> ls =
          fs.ReadDir(ctx.self, bob_home);
      resp = std::string("steal=") + std::string(StatusName(theft.status())) +
             " forge=" + std::string(StatusName(forgery)) +
             " walk=" + std::string(StatusName(ls.status()));
    }
    resp.push_back('\n');
    ctx.fds->Write(ctx.self, 0, resp.data(), resp.size());
    return 0;
  });
  WebRequest req;
  req.op = WebRequest::Op::kGet;
  req.user = "alice";
  req.key = "ssn";
  req.password = "wonderland";
  std::string resp = Serve(req);
  EXPECT_EQ(resp,
            "steal=label-check-failed forge=label-check-failed walk=label-check-failed");
  // And bob's record is untouched.
  EXPECT_EQ(store_->Get(world_->init_thread(), "bob", "ssn").value(), "987-65-4321");
}

TEST_F(WebServiceTest, EndToEndOverTheNetwork) {
  NetSwitch net;
  std::unique_ptr<NetDaemon> server_stack =
      NetDaemon::Start(world_.get(), net.NewPort(), "netd-s");
  std::unique_ptr<NetDaemon> client_stack =
      NetDaemon::Start(world_.get(), net.NewPort(), "netd-c");
  ASSERT_NE(server_stack, nullptr);
  ASSERT_NE(client_stack, nullptr);
  std::unique_ptr<WebServer> web =
      WebServer::Start(world_.get(), server_stack.get(), auth_.get(), store_.get(), 80);
  ASSERT_NE(web, nullptr);

  Label cl = client_stack->ClientTaint();
  Label cc(Level::k2, {{client_stack->taint().i, Level::k3}});
  ObjectId browser = kernel_->BootstrapThread(cl, cc, "browser");
  CurrentThread bind(browser);

  auto request = [&](const std::string& line) {
    return HttpRequest(client_stack.get(), browser, server_stack->mac(), line);
  };

  EXPECT_EQ(request("GET alice/ssn PASS wonderland"), "200 123-45-6789");
  EXPECT_EQ(request("GET alice/ssn PASS wrong"), "403 denied");
  EXPECT_EQ(request("PUT alice/city PASS wonderland DATA Oxford"), "200 stored");
  EXPECT_EQ(request("GET alice/city PASS wonderland"), "200 Oxford");
  EXPECT_EQ(request("GET alice/nope PASS wonderland"), "404 not-found");
  EXPECT_EQ(request("garbage"), "400 bad");
  EXPECT_EQ(web->requests_served(), 6u);
  web->Stop();
  server_stack->Stop();
  client_stack->Stop();
}

TEST_F(WebServiceTest, DemuxReapsWorkersSoInitLabelStaysBounded) {
  // The demux spawns each worker as init, and init owns every worker's
  // pr/pw until Destroy reaps it. So init's label and clearance are as
  // large after 20 requests as after 1. The demux reaps a worker before it
  // sends the response, so each reply orders the check after the reap.
  // 20 connections stay well under netd's socket limit.
  NetSwitch net;
  std::unique_ptr<NetDaemon> server_stack =
      NetDaemon::Start(world_.get(), net.NewPort(), "netd-s");
  std::unique_ptr<NetDaemon> client_stack =
      NetDaemon::Start(world_.get(), net.NewPort(), "netd-c");
  ASSERT_NE(server_stack, nullptr);
  ASSERT_NE(client_stack, nullptr);
  std::unique_ptr<WebServer> web =
      WebServer::Start(world_.get(), server_stack.get(), auth_.get(), store_.get(), 80);
  ASSERT_NE(web, nullptr);
  ObjectId browser = kernel_->BootstrapThread(
      client_stack->ClientTaint(), Label(Level::k2, {{client_stack->taint().i, Level::k3}}),
      "browser");
  CurrentThread bind(browser);
  ObjectId init = world_->init_thread();
  auto sizes = [&] {
    return std::make_pair(kernel_->sys_self_get_label(init).value().entry_count(),
                          kernel_->sys_self_get_clearance(init).value().entry_count());
  };

  ASSERT_EQ(HttpRequest(client_stack.get(), browser, server_stack->mac(),
                        "GET alice/ssn PASS wonderland"),
            "200 123-45-6789");
  std::pair<size_t, size_t> after_one = sizes();
  for (int i = 1; i < 20; ++i) {
    ASSERT_EQ(HttpRequest(client_stack.get(), browser, server_stack->mac(),
                          "GET alice/ssn PASS wonderland"),
              "200 123-45-6789")
        << "request " << i;
  }
  EXPECT_EQ(sizes(), after_one);
  web->Stop();
  EXPECT_EQ(web->requests_served(), 20u);
  server_stack->Stop();
  client_stack->Stop();
}

}  // namespace
}  // namespace histar
