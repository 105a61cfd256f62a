// End-to-end tests of the epoll network front end: request/response over
// real loopback sockets, byte-identity with the direct DiffService::Submit
// path, pipelining with out-of-order completion, per-frame error handling
// vs fatal framing errors, connection fan-in, and the graceful-shutdown
// regression (no accepted request is dropped without an error response).

#include "net/server.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/client.h"
#include "net/wire.h"
#include "service/diff_service.h"

namespace treediff {
namespace net {
namespace {

void PreInternLabels(LabelTable& table) {
  table.Intern("D");
  table.Intern("P");
  table.Intern("S");
}

std::string OldDoc(int i) {
  return "(D (P (S \"alpha " + std::to_string(i) +
         " one two three\") (S \"beta common tail\")) "
         "(P (S \"gamma shared base\")))";
}

std::string NewDoc(int i) {
  return "(D (P (S \"alpha " + std::to_string(i) +
         " one two four\") (S \"beta common tail\")) "
         "(P (S \"gamma shared base\") (S \"epsilon new\")))";
}

struct ServerFixture {
  explicit ServerFixture(NetServerOptions net_options = {},
                         DiffServiceOptions service_options = {}) {
    service = std::make_unique<DiffService>(service_options);
    PreInternLabels(*service->label_table());
    server = std::make_unique<NetServer>(service.get(), net_options);
    const Status started = server->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }

  std::unique_ptr<DiffService> service;
  std::unique_ptr<NetServer> server;
};

TEST(NetServerTest, PingAndDiff) {
  ServerFixture fx;
  SimpleClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.server->port()).ok());
  ASSERT_TRUE(client.Ping().ok());

  WireResponse response;
  ASSERT_TRUE(
      client.Diff(OldDoc(1), NewDoc(1), kFormatSexpr, &response).ok());
  ASSERT_TRUE(response.ok()) << response.payload;
  EXPECT_GT(response.value, 0u);          // Operations.
  EXPECT_FALSE(response.payload.empty());  // Script text.
}

TEST(NetServerTest, ResponsesByteIdenticalToDirectSubmit) {
  // A reference service (no network) and a served service, both freshly
  // constructed with the same options and label interning order, fed the
  // same requests in the same order: the wire response must carry exactly
  // the bytes the direct API returns.
  DiffServiceOptions service_options;
  DiffService reference(service_options);
  PreInternLabels(*reference.label_table());

  ServerFixture fx({}, service_options);
  SimpleClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.server->port()).ok());

  for (int i = 0; i < 16; ++i) {
    DiffRequest direct;
    direct.format = DiffRequest::Format::kSexpr;
    direct.old_doc = OldDoc(i);
    direct.new_doc = NewDoc(i);
    const DiffResponse expected = reference.SubmitSync(std::move(direct));
    ASSERT_TRUE(expected.status.ok());

    WireResponse got;
    ASSERT_TRUE(client.Diff(OldDoc(i), NewDoc(i), kFormatSexpr, &got).ok());
    ASSERT_TRUE(got.ok()) << got.payload;
    EXPECT_EQ(got.payload, expected.script) << "request " << i;
    EXPECT_EQ(got.value, static_cast<uint32_t>(expected.operations));
    EXPECT_EQ(got.rung, static_cast<uint8_t>(expected.rung));
    EXPECT_EQ(got.aux, static_cast<uint32_t>(expected.pruned_subtrees));
  }
}

TEST(NetServerTest, OpenCommitVdiffAndMetricsOpcodes) {
  ServerFixture fx;
  SimpleClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.server->port()).ok());

  WireResponse response;
  ASSERT_TRUE(client.Open("doc-1", OldDoc(0), kFormatSexpr, &response).ok());
  ASSERT_TRUE(response.ok()) << response.payload;

  ASSERT_TRUE(client.Commit("doc-1", NewDoc(0), kFormatSexpr, &response).ok());
  ASSERT_TRUE(response.ok()) << response.payload;
  EXPECT_EQ(response.value, 1u);  // The committed version number.

  ASSERT_TRUE(client.Vdiff("doc-1", 0, 1, &response).ok());
  ASSERT_TRUE(response.ok()) << response.payload;
  EXPECT_GT(response.value, 0u);

  // Unknown store: the error must come back as a response, not a hang.
  ASSERT_TRUE(client.Vdiff("no-such-doc", 0, 1, &response).ok());
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(response.code(), Code::kNotFound);

  std::string text;
  ASSERT_TRUE(client.Metrics(&text).ok());
  EXPECT_NE(text.find("net_frames_total"), std::string::npos);
  EXPECT_NE(text.find("# TYPE"), std::string::npos);
}

/// A fresh, empty directory for replica logs, unique to this process.
std::filesystem::path FreshDir(const std::string& name) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("treediff_net_server_" + name + "_" +
                        std::to_string(getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TEST(NetServerTest, ReplicatedOpenCommitAndStatusOpcodes) {
  namespace fs = std::filesystem;
  const fs::path dir = FreshDir("repl");
  {
    NetServerOptions options;
    options.store_dir = dir.string();
    ServerFixture fx(options);
    SimpleClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", fx.server->port()).ok());

    WireResponse response;
    ASSERT_TRUE(client
                    .Open("doc-r", OldDoc(0), kFormatSexpr, &response,
                          /*replicas=*/3)
                    .ok());
    ASSERT_TRUE(response.ok()) << response.payload;
    ASSERT_TRUE(
        client.Commit("doc-r", NewDoc(0), kFormatSexpr, &response).ok());
    ASSERT_TRUE(response.ok()) << response.payload;
    EXPECT_EQ(response.value, 1u);

    std::string status;
    ASSERT_TRUE(client.StatusText(&status).ok());
    EXPECT_NE(status.find("store=doc-r versions=2 "), std::string::npos)
        << status;
    EXPECT_NE(status.find("REPL doc=doc-r epoch="), std::string::npos)
        << status;
    // Leader-only acks return before the followers have shipped, and a
    // follower's log file appears with its first shipped batch: wait until
    // the status shows both followers caught up.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (status.find("r1=follower:lag=0 r2=follower:lag=0") ==
               std::string::npos &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      ASSERT_TRUE(client.StatusText(&status).ok());
    }
    for (int r = 0; r < 3; ++r) {
      EXPECT_TRUE(fs::exists(dir / ("doc-r.r" + std::to_string(r) + ".log")))
          << "replica " << r;
    }
  }
  fs::remove_all(dir);
}

TEST(NetServerTest, ReplicatedOpenRejectsUnsafeDocIds) {
  namespace fs = std::filesystem;
  const fs::path root = FreshDir("docid");
  const fs::path logs = root / "logs";
  fs::create_directories(logs);
  {
    NetServerOptions options;
    options.store_dir = logs.string();
    ServerFixture fx(options);
    SimpleClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", fx.server->port()).ok());
    const std::string ids[] = {"../x", "a/b", "", ".x", "a b",
                               std::string(200, 'a')};
    for (const std::string& id : ids) {
      WireResponse response;
      ASSERT_TRUE(
          client.Open(id, OldDoc(0), kFormatSexpr, &response, 1).ok());
      EXPECT_EQ(response.code(), Code::kInvalidArgument) << id;
    }
  }
  // No log was created anywhere: not in the store dir, not beside it.
  size_t entries = 0;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    EXPECT_EQ(entry.path(), logs);
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
  fs::remove_all(root);
}

TEST(NetServerTest, MalformedFrameGetsErrorResponseStreamSurvives) {
  ServerFixture fx;
  SimpleClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.server->port()).ok());

  // Valid outer length, invalid opcode: the per-frame error tier.
  WireRequest bad;
  bad.opcode = Opcode::kPing;
  bad.request_id = 77;
  std::string bytes = EncodeRequest(bad);
  bytes[kLenPrefixBytes] = static_cast<char>(0x6E);
  ASSERT_TRUE(client.SendRaw(bytes).ok());

  WireResponse response;
  ASSERT_TRUE(client.Receive(&response).ok());
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(response.request_id, 77u);  // Correlation survived.

  // The connection is still healthy.
  EXPECT_TRUE(client.Ping().ok());
}

TEST(NetServerTest, OversizedFrameAnsweredThenClosed) {
  ServerFixture fx;
  SimpleClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.server->port()).ok());

  const uint32_t huge = 1u << 30;
  std::string prefix;
  for (int i = 0; i < 4; ++i) {
    prefix.push_back(static_cast<char>((huge >> (8 * i)) & 0xFF));
  }
  ASSERT_TRUE(client.SendRaw(prefix).ok());

  WireResponse response;
  ASSERT_TRUE(client.Receive(&response).ok());
  EXPECT_FALSE(response.ok());  // The fatal tier still answers once...
  const Status eof = client.Receive(&response);
  EXPECT_FALSE(eof.ok());  // ...then the stream is closed.
}

TEST(NetServerTest, PipelinedRequestsCorrelateByRequestId) {
  ServerFixture fx;
  SimpleClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.server->port()).ok());

  constexpr int kPipelined = 60;
  for (int i = 0; i < kPipelined; ++i) {
    WireRequest request;
    request.opcode = Opcode::kDiff;
    request.request_id = 1000 + static_cast<uint64_t>(i);
    request.old_doc = OldDoc(i % 7);
    request.new_doc = NewDoc(i % 7);
    ASSERT_TRUE(client.Send(request).ok());
  }
  std::unordered_map<uint64_t, bool> seen;
  for (int i = 0; i < kPipelined; ++i) {
    WireResponse response;
    ASSERT_TRUE(client.Receive(&response).ok());
    ASSERT_TRUE(response.ok()) << response.payload;
    EXPECT_FALSE(seen[response.request_id]) << "duplicate response";
    seen[response.request_id] = true;
  }
  for (int i = 0; i < kPipelined; ++i) {
    EXPECT_TRUE(seen[1000 + static_cast<uint64_t>(i)]) << "missing " << i;
  }
}

TEST(NetServerTest, ManyConcurrentConnections) {
  NetServerOptions net_options;
  net_options.num_event_threads = 2;
  ServerFixture fx(net_options);

  constexpr int kConns = 96;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int c = 0; c < kConns / 8; ++c) {
        SimpleClient client;
        if (!client.Connect("127.0.0.1", fx.server->port()).ok() ||
            !client.Ping().ok()) {
          ++failures;
          continue;
        }
        WireResponse response;
        if (!client.Diff(OldDoc(t), NewDoc(c), kFormatSexpr, &response).ok() ||
            !response.ok()) {
          ++failures;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(NetServerTest, ConnectionCapRejectsExtras) {
  NetServerOptions net_options;
  net_options.max_connections = 4;
  ServerFixture fx(net_options);

  std::vector<SimpleClient> clients(4);
  for (auto& c : clients) {
    ASSERT_TRUE(c.Connect("127.0.0.1", fx.server->port()).ok());
    ASSERT_TRUE(c.Ping().ok());
  }
  // The 5th connects at TCP level (the backlog accepts) but the server
  // closes it instead of serving: a request must fail, and the rejection
  // counter must move.
  SimpleClient extra;
  ASSERT_TRUE(extra.Connect("127.0.0.1", fx.server->port()).ok());
  EXPECT_FALSE(extra.Ping().ok());
  EXPECT_GE(fx.service->metrics()
                .counter("net_connections_rejected_total")
                ->Value(),
            1u);
}

TEST(NetServerTest, GracefulShutdownAnswersEveryAcceptedRequest) {
  // The no-drop regression: requests the server has ACCEPTED (decoded off
  // the socket) must each get a response — a real one if it finished
  // inside the drain window, an error response otherwise. Silence is the
  // one forbidden outcome.
  ServerFixture fx;
  SimpleClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.server->port()).ok());

  constexpr uint64_t kRequests = 40;
  for (uint64_t i = 0; i < kRequests; ++i) {
    WireRequest request;
    request.opcode = Opcode::kDiff;
    request.request_id = i;
    request.old_doc = OldDoc(static_cast<int>(i));
    request.new_doc = NewDoc(static_cast<int>(i));
    ASSERT_TRUE(client.Send(request).ok());
  }
  // Wait until every frame is accepted (decoded), so the shutdown race is
  // exactly the one under test.
  Counter* frames = fx.service->metrics().counter("net_frames_total");
  while (frames->Value() < kRequests) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::thread shutdown([&] { fx.server->Shutdown(); });
  uint64_t answered = 0;
  for (uint64_t i = 0; i < kRequests; ++i) {
    WireResponse response;
    if (!client.Receive(&response).ok()) break;
    ++answered;  // OK or error — both are answers.
  }
  shutdown.join();
  EXPECT_EQ(answered, kRequests);
}

TEST(NetServerTest, DrainingConnectionsGetUnavailable) {
  ServerFixture fx;
  SimpleClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", fx.server->port()).ok());
  ASSERT_TRUE(client.Ping().ok());

  std::thread shutdown([&] { fx.server->Shutdown(); });
  // Frames sent during the drain are answered with kUnavailable until the
  // connection closes; either outcome is correct depending on timing, but
  // a hang is not.
  WireRequest request;
  request.opcode = Opcode::kPing;
  request.request_id = 5;
  if (client.Send(request).ok()) {
    WireResponse response;
    const Status received = client.Receive(&response);
    if (received.ok() && !response.ok()) {
      EXPECT_EQ(response.code(), Code::kUnavailable);
    }
  }
  shutdown.join();
}

}  // namespace
}  // namespace net
}  // namespace treediff
