// Tests for the event-driven TCP front end (src/server/net/): framing
// robustness against torn/oversized/garbage streams, the epoll EventLoop's
// ownership and task-queue contract, and the TcpServer's lifecycle and
// back-pressure behavior — typed BUSY sheds, slow-loris drops, a stalled or
// killed client never blocking other sessions, and Stop()/WaitForShutdown()
// with clients attached.
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "env/simulated_cdb.h"
#include "server/dispatch.h"
#include "server/net/event_loop.h"
#include "server/net/frame.h"
#include "server/net/frame_client.h"
#include "server/net/tcp_server.h"
#include "server/tuning_server.h"
#include "tuner/cdbtune.h"

namespace cdbtune::server {
namespace {

using net::EncodeFrame;
using net::Frame;
using net::FrameClient;
using net::FrameDecoder;
using net::FrameType;

// --- Framing -----------------------------------------------------------------

TEST(FrameTest, EncodeThenDecodeRoundTrips) {
  FrameDecoder decoder;
  const std::string wire = EncodeFrame(FrameType::kRequest, "PING") +
                           EncodeFrame(FrameType::kResponse, "OK pong=1") +
                           EncodeFrame(FrameType::kBusy, "") +
                           EncodeFrame(FrameType::kError, "bad");
  decoder.Feed(wire.data(), wire.size());

  Frame frame;
  auto got = decoder.Next(&frame);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(*got);
  EXPECT_EQ(frame.type, FrameType::kRequest);
  EXPECT_EQ(frame.payload, "PING");
  ASSERT_TRUE(*decoder.Next(&frame));
  EXPECT_EQ(frame.type, FrameType::kResponse);
  EXPECT_EQ(frame.payload, "OK pong=1");
  ASSERT_TRUE(*decoder.Next(&frame));
  EXPECT_EQ(frame.type, FrameType::kBusy);
  EXPECT_TRUE(frame.payload.empty());
  ASSERT_TRUE(*decoder.Next(&frame));
  EXPECT_EQ(frame.type, FrameType::kError);
  EXPECT_EQ(frame.payload, "bad");

  got = decoder.Next(&frame);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(*got) << "drained decoder must report need-more-bytes";
  EXPECT_EQ(decoder.pending_bytes(), 0u);
}

TEST(FrameTest, DecoderReassemblesByteAtATimeTornStream) {
  // The worst torn-read case: every byte of a three-frame stream arrives in
  // its own Feed. No byte boundary may confuse the decoder.
  const std::string wire =
      EncodeFrame(FrameType::kRequest, "OPEN engine=sim") +
      EncodeFrame(FrameType::kRequest, "") +
      EncodeFrame(FrameType::kRequest, std::string(300, 'x'));
  FrameDecoder decoder;
  std::vector<std::string> payloads;
  for (char byte : wire) {
    decoder.Feed(&byte, 1);
    Frame frame;
    auto got = decoder.Next(&frame);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    if (*got) payloads.push_back(frame.payload);
  }
  ASSERT_EQ(payloads.size(), 3u);
  EXPECT_EQ(payloads[0], "OPEN engine=sim");
  EXPECT_EQ(payloads[1], "");
  EXPECT_EQ(payloads[2], std::string(300, 'x'));
}

TEST(FrameTest, DecoderRejectsBadMagicAndStaysPoisoned) {
  FrameDecoder decoder;
  std::string wire = EncodeFrame(FrameType::kRequest, "PING");
  wire[0] = 'X';  // Corrupt the magic.
  decoder.Feed(wire.data(), wire.size());
  Frame frame;
  auto got = decoder.Next(&frame);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(got.status().message().find("magic"), std::string::npos)
      << got.status().ToString();
  // Sticky: even fresh valid bytes cannot resynchronize the stream.
  const std::string good = EncodeFrame(FrameType::kRequest, "PING");
  decoder.Feed(good.data(), good.size());
  EXPECT_FALSE(decoder.Next(&frame).ok());
}

TEST(FrameTest, DecoderRejectsBadVersionAndReservedBytes) {
  {
    FrameDecoder decoder;
    std::string wire = EncodeFrame(FrameType::kRequest, "PING");
    wire[4] = 99;  // Unknown version.
    decoder.Feed(wire.data(), wire.size());
    Frame frame;
    auto got = decoder.Next(&frame);
    ASSERT_FALSE(got.ok());
    EXPECT_NE(got.status().message().find("version"), std::string::npos);
  }
  {
    FrameDecoder decoder;
    std::string wire = EncodeFrame(FrameType::kRequest, "PING");
    wire[6] = 1;  // Nonzero reserved bytes.
    decoder.Feed(wire.data(), wire.size());
    Frame frame;
    EXPECT_FALSE(decoder.Next(&frame).ok());
  }
}

TEST(FrameTest, DecoderRejectsOversizedDeclaredLengthFromHeaderAlone) {
  // A hostile length prefix must be rejected from the 12 header bytes —
  // before any payload arrives, so nothing is ever buffered for it.
  FrameDecoder decoder(/*max_payload=*/1024);
  std::string wire = EncodeFrame(FrameType::kRequest, "x");
  wire[8] = static_cast<char>(0xFF);  // length = 0xFFFFFF01: ~4 GB declared.
  wire[9] = static_cast<char>(0xFF);
  wire[10] = static_cast<char>(0xFF);
  wire[11] = static_cast<char>(0xFF);
  decoder.Feed(wire.data(), net::kFrameHeaderBytes);  // Header only.
  Frame frame;
  auto got = decoder.Next(&frame);
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.status().message().find("length"), std::string::npos)
      << got.status().ToString();
}

TEST(FrameTest, DecoderAcceptsPayloadAtExactlyTheCap) {
  FrameDecoder decoder(/*max_payload=*/64);
  const std::string wire =
      EncodeFrame(FrameType::kRequest, std::string(64, 'y'));
  decoder.Feed(wire.data(), wire.size());
  Frame frame;
  auto got = decoder.Next(&frame);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(*got);
  EXPECT_EQ(frame.payload.size(), 64u);
}

// --- EventLoop ---------------------------------------------------------------

TEST(EventLoopTest, RunsQueuedTasksOnLoopThreadAndServesChannels) {
  net::EventLoop loop;
  ASSERT_TRUE(loop.Init().ok());
  std::thread runner([&] { loop.Run(); });

  // Cross-thread tasks execute on the loop thread, in order.
  std::atomic<int> ran{0};
  std::atomic<bool> on_loop_thread{false};
  loop.QueueTask([&] {
    on_loop_thread.store(loop.IsLoopThread());
    ran.fetch_add(1);
  });

  // A pipe channel: registration must happen on the loop thread, so it goes
  // through the task queue; the read handler fires when bytes arrive.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::atomic<int> reads{0};
  loop.QueueTask([&] {
    ASSERT_TRUE(loop.AddChannel(fds[0], net::Ready::kRead,
                                [&](uint32_t ready) {
                                  EXPECT_TRUE(ready & net::Ready::kRead);
                                  char buf[8];
                                  (void)!::read(fds[0], buf, sizeof(buf));
                                  reads.fetch_add(1);
                                })
                    .ok());
  });
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  for (int i = 0; i < 500 && (ran.load() == 0 || reads.load() == 0); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(ran.load(), 1);
  EXPECT_TRUE(on_loop_thread.load());
  EXPECT_GE(reads.load(), 1);

  loop.QueueTask([&] { loop.RemoveChannel(fds[0]); });
  loop.Stop();
  runner.join();
  ::close(fds[0]);
  ::close(fds[1]);
}

// --- TcpServer ---------------------------------------------------------------

/// One standard model trained once and shared by every test in this binary
/// (its weights are only ever cloned, never mutated).
tuner::CdbTuner& SharedTrainedTuner() {
  struct Model {
    std::unique_ptr<env::SimulatedCdb> db;
    std::unique_ptr<tuner::CdbTuner> tuner;
  };
  static Model* model = [] {
    auto* m = new Model;
    m->db = env::SimulatedCdb::MysqlCdb(env::CdbA(), 71);
    auto space = knobs::KnobSpace::AllTunable(&m->db->registry());
    tuner::CdbTuneOptions options;
    options.max_offline_steps = 40;
    options.steps_per_episode = 10;
    options.seed = 71;
    m->tuner = std::make_unique<tuner::CdbTuner>(m->db.get(), space, options);
    m->tuner->OfflineTrain(workload::SysbenchReadWrite());
    return m;
  }();
  return *model->tuner;
}

/// TuningServer + Dispatcher + TcpServer wired the way cdbtune_serve does
/// it, on an ephemeral port.
struct TcpFixture {
  TuningServer server;
  Dispatcher dispatcher{&server};
  std::unique_ptr<net::TcpServer> front;

  explicit TcpFixture(net::TcpServerOptions options = {}) {
    EXPECT_TRUE(server.AdoptModel(SharedTrainedTuner()).ok());
    front = std::make_unique<net::TcpServer>(&dispatcher, options);
    dispatcher.RegisterTransport(front.get());
  }

  util::Status Start() { return front->Start(); }
  uint16_t port() const { return front->port(); }
};

/// Returns a connected client, or null (with a failed EXPECT) on error.
std::unique_ptr<FrameClient> ConnectTo(const TcpFixture& fixture) {
  auto client = std::make_unique<FrameClient>();
  util::Status connected = client->Connect("127.0.0.1", fixture.port());
  EXPECT_TRUE(connected.ok()) << connected.ToString();
  if (!connected.ok()) return nullptr;
  return client;
}

/// Bounds the client's blocking reads, so a reply the server never sends
/// fails the test instead of wedging the suite.
void BoundReads(const FrameClient& client) {
  timeval timeout{.tv_sec = 5, .tv_usec = 0};
  ASSERT_EQ(::setsockopt(client.fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
            0);
}

TEST(TcpServerTest, ServesSessionLifecycleOverBinaryFraming) {
  TcpFixture fixture;
  ASSERT_TRUE(fixture.Start().ok());
  auto client = ConnectTo(fixture);
  ASSERT_NE(client, nullptr);

  auto pong = client->Call("PING");
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(*pong, "OK pong=1");

  auto opened = client->Call("OPEN engine=sim seed=7 steps=2");
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened->rfind("OK id=0", 0), 0u) << *opened;
  auto stepped = client->Call("STEP id=0 n=2");
  ASSERT_TRUE(stepped.ok());
  EXPECT_EQ(stepped->rfind("OK id=0 step=2", 0), 0u) << *stepped;

  // STATUS over TCP reports this transport's own telemetry.
  auto status = client->Call("STATUS");
  ASSERT_TRUE(status.ok());
  EXPECT_NE(status->find("tcp_conns=1"), std::string::npos) << *status;
  EXPECT_NE(status->find("tcp_accepted=1"), std::string::npos) << *status;
  EXPECT_NE(status->find("tcp_frames_in="), std::string::npos) << *status;

  auto closed = client->Call("CLOSE id=0");
  ASSERT_TRUE(closed.ok());
  EXPECT_EQ(closed->rfind("OK id=0", 0), 0u) << *closed;

  // SHUTDOWN over the binary transport unblocks WaitForShutdown.
  auto bye = client->Call("SHUTDOWN");
  ASSERT_TRUE(bye.ok());
  EXPECT_EQ(*bye, "OK bye=1");
  fixture.front->WaitForShutdown();
  fixture.server.DrainAndStop();
  fixture.front->Stop();
}

// Regression: the daemon parks its main thread in WaitForShutdown() while
// workers serve requests. With one condition variable shared by both, an
// enqueue's NotifyOne could wake the shutdown waiter instead of a worker;
// the waiter re-slept and the wakeup was consumed, stranding the queued
// request and hanging its client forever.
TEST(TcpServerTest, ServesClientsWhileWaitForShutdownBlocks) {
  TcpFixture fixture;
  ASSERT_TRUE(fixture.Start().ok());
  std::thread waiter([&] { fixture.front->WaitForShutdown(); });

  // Failures break out instead of returning, so the waiter is always
  // released and joined below.
  for (int i = 0; i < 200; ++i) {
    auto client = ConnectTo(fixture);
    if (client == nullptr) break;
    BoundReads(*client);
    auto reply = client->Call("PING");
    if (!reply.ok()) {
      ADD_FAILURE() << "connection " << i
                    << " never served: " << reply.status().ToString();
      break;
    }
    EXPECT_EQ(*reply, "OK pong=1");
  }

  bool shut_down = false;
  auto client = ConnectTo(fixture);
  if (client != nullptr) {
    BoundReads(*client);
    auto bye = client->Call("SHUTDOWN");
    shut_down = bye.ok() && *bye == "OK bye=1";
    EXPECT_TRUE(shut_down) << (bye.ok() ? *bye : bye.status().ToString());
  }
  if (!shut_down) fixture.front->Stop();  // Releases the waiter.
  waiter.join();
  fixture.server.DrainAndStop();
  fixture.front->Stop();
}

TEST(TcpServerTest, StopClosesIdleConnections) {
  net::TcpServerOptions options;
  options.worker_threads = 1;
  TcpFixture fixture(options);
  ASSERT_TRUE(fixture.Start().ok());
  // One client that was served and then went idle, one that never sent a
  // byte: Stop must return with both attached, and both must then read
  // end-of-stream rather than block.
  auto served = ConnectTo(fixture);
  ASSERT_NE(served, nullptr);
  ASSERT_TRUE(served->Call("PING").ok());
  auto silent = ConnectTo(fixture);
  ASSERT_NE(silent, nullptr);
  BoundReads(*served);
  BoundReads(*silent);
  // connect() returns once the kernel queues the silent client, which can
  // be before the reactor accepts it; a Stop in that window closes the
  // listener on it and the peer reads a reset, not end-of-stream. Wait
  // until both are attached.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (fixture.front->Scrape().connections < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(fixture.front->Scrape().connections, 2u);

  fixture.front->Stop();
  for (FrameClient* client : {served.get(), silent.get()}) {
    auto frame = client->ReadFrame();
    ASSERT_FALSE(frame.ok());
    EXPECT_NE(frame.status().message().find("closed by server"),
              std::string::npos)
        << frame.status().ToString();
  }
}

TEST(TcpServerTest, PipeliningBeyondTheCapStillAnswersEveryRequest) {
  // Regression for the decoder-stall hazard: a burst of pipelined requests
  // arrives in one write, so every frame after the first sits in the
  // decoder with no kernel bytes behind it — the server must decode the
  // next one as each response goes out, not wait for a read event that
  // will never come.
  TcpFixture fixture;
  ASSERT_TRUE(fixture.Start().ok());
  auto client = ConnectTo(fixture);
  ASSERT_NE(client, nullptr);

  constexpr int kBurst = 100;
  std::string burst;
  for (int i = 0; i < kBurst; ++i) {
    burst += EncodeFrame(FrameType::kRequest, "PING");
  }
  ASSERT_TRUE(client->SendBytes(burst).ok());
  for (int i = 0; i < kBurst; ++i) {
    auto frame = client->ReadFrame();
    ASSERT_TRUE(frame.ok()) << "reply " << i << ": "
                            << frame.status().ToString();
    ASSERT_EQ(frame->type, FrameType::kResponse) << "reply " << i;
    EXPECT_EQ(frame->payload, "OK pong=1");
  }
  fixture.front->Stop();
}

TEST(TcpServerTest, ShedsConnectionsOverBudgetWithTypedBusyFrame) {
  net::TcpServerOptions options;
  options.max_connections = 1;
  TcpFixture fixture(options);
  ASSERT_TRUE(fixture.Start().ok());

  auto first = ConnectTo(fixture);
  ASSERT_NE(first, nullptr);
  ASSERT_TRUE(first->Call("PING").ok());  // First connection is serving.

  // A refused peer that never reads its BUSY frame: the shed write is
  // non-blocking, so this peer must not stop the reactor from shedding the
  // next one.
  auto mute = ConnectTo(fixture);
  ASSERT_NE(mute, nullptr);

  // The next connection must be shed with a typed BUSY frame, then
  // closed — never queued, never blocking the reactor.
  auto refused = ConnectTo(fixture);
  ASSERT_NE(refused, nullptr);
  BoundReads(*refused);
  auto frame = refused->ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->type, FrameType::kBusy);
  EXPECT_FALSE(refused->ReadFrame().ok()) << "shed connection must close";

  // The surviving connection is unaffected, and telemetry shows both sheds.
  auto status = first->Call("STATUS");
  ASSERT_TRUE(status.ok());
  EXPECT_NE(status->find("tcp_shed=2"), std::string::npos) << *status;
  fixture.front->Stop();
}

TEST(TcpServerTest, MalformedStreamGetsErrorFrameThenClose) {
  TcpFixture fixture;
  ASSERT_TRUE(fixture.Start().ok());
  auto client = ConnectTo(fixture);
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->SendBytes("GET / HTTP/1.1\r\n\r\n").ok());
  auto frame = client->ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->type, FrameType::kError);
  EXPECT_NE(frame->payload.find("magic"), std::string::npos)
      << frame->payload;
  EXPECT_FALSE(client->ReadFrame().ok()) << "poisoned connection must close";
  fixture.front->Stop();
}

TEST(TcpServerTest, ValidFramesBeforePoisonAreAnswered) {
  // A well-formed request and garbage in one write: the request is still
  // answered, in order, before the ERROR frame that ends the connection.
  TcpFixture fixture;
  ASSERT_TRUE(fixture.Start().ok());
  auto client = ConnectTo(fixture);
  ASSERT_NE(client, nullptr);
  BoundReads(*client);
  ASSERT_TRUE(client
                  ->SendBytes(EncodeFrame(FrameType::kRequest, "PING") +
                              "GET / HTTP/1.1\r\n\r\n")
                  .ok());
  auto reply = client->ReadFrame();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->type, FrameType::kResponse);
  EXPECT_EQ(reply->payload, "OK pong=1");
  auto error = client->ReadFrame();
  ASSERT_TRUE(error.ok()) << error.status().ToString();
  EXPECT_EQ(error->type, FrameType::kError);
  EXPECT_NE(error->payload.find("magic"), std::string::npos)
      << error->payload;
  EXPECT_FALSE(client->ReadFrame().ok()) << "poisoned connection must close";
  fixture.front->Stop();
}

TEST(TcpServerTest, OversizedDeclaredLengthIsRejectedBeforeBuffering) {
  net::TcpServerOptions options;
  options.max_frame_bytes = 1024;
  TcpFixture fixture(options);
  ASSERT_TRUE(fixture.Start().ok());
  auto client = ConnectTo(fixture);
  ASSERT_NE(client, nullptr);
  std::string header = EncodeFrame(FrameType::kRequest, "");
  header[8] = static_cast<char>(0xFF);  // Declare a ~4 GB payload.
  header[9] = static_cast<char>(0xFF);
  header[10] = static_cast<char>(0xFF);
  header[11] = static_cast<char>(0x7F);
  ASSERT_TRUE(client->SendBytes(header).ok());
  auto frame = client->ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->type, FrameType::kError);
  EXPECT_NE(frame->payload.find("length"), std::string::npos)
      << frame->payload;
  fixture.front->Stop();
}

TEST(TcpServerTest, SlowLorisClientIsDroppedWithoutBlockingOthers) {
  // A client that floods requests and never drains its replies must be
  // dropped the moment its bounded send queue would overflow — while other
  // connections keep being served the whole time.
  net::TcpServerOptions options;
  options.sendq_bytes = 4096;
  TcpFixture fixture(options);
  ASSERT_TRUE(fixture.Start().ok());

  auto observer = ConnectTo(fixture);
  ASSERT_NE(observer, nullptr);
  BoundReads(*observer);
  ASSERT_TRUE(observer->Call("PING").ok());

  auto loris = ConnectTo(fixture);
  ASSERT_NE(loris, nullptr);
  // Shrink the loris's receive window so replies pile up on the server.
  int tiny = 1;
  ASSERT_EQ(::setsockopt(loris->fd(), SOL_SOCKET, SO_RCVBUF, &tiny,
                         sizeof(tiny)),
            0);
  // A server that stops reading would leave the flood's send() blocked
  // forever; bound it so that regression fails instead of hanging.
  timeval send_timeout{.tv_sec = 10, .tv_usec = 0};
  ASSERT_EQ(::setsockopt(loris->fd(), SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
                         sizeof(send_timeout)),
            0);

  // The flood is sized in bytes, not time: each ~1 KB unknown-verb request
  // draws an ERR reply that echoes the verb, and 16k of them (~16 MB of
  // replies) overrun any kernel send buffer the server's socket can
  // autotune to (4 MB by default on Linux) plus the 4 KB cap, so the drop
  // is certain. The flood ends when a send fails, i.e. once the server has
  // closed the connection.
  std::atomic<bool> flood_done{false};
  std::thread flood([&] {
    const std::string request =
        EncodeFrame(FrameType::kRequest, std::string(1000, 'X'));
    std::string chunk;
    for (int i = 0; i < 16; ++i) chunk += request;
    for (int i = 0; i < 1024; ++i) {
      if (!loris->SendBytes(chunk).ok()) break;
    }
    flood_done.store(true);
  });

  // A well-behaved client is served for as long as the flood runs.
  bool served = true;
  do {
    auto reply = observer->Call("PING");
    served = reply.ok() && *reply == "OK pong=1";
    EXPECT_TRUE(served) << "observer starved during the flood: "
                        << (reply.ok() ? *reply : reply.status().ToString());
  } while (served && !flood_done.load());
  flood.join();

  auto status = observer->Call("STATUS");
  ASSERT_TRUE(status.ok()) << status.status().ToString();
  const std::string key = "tcp_sendq_drops=";
  const size_t at = status->find(key);
  ASSERT_NE(at, std::string::npos) << *status;
  EXPECT_GE(std::stoull(status->substr(at + key.size())), 1u)
      << "slow-loris connection was never shed: " << *status;
  fixture.front->Stop();
}

TEST(TcpServerTest, KilledClientMidEpisodeDoesNotDisturbOtherSessions) {
  TcpFixture fixture;
  ASSERT_TRUE(fixture.Start().ok());

  auto doomed = ConnectTo(fixture);
  ASSERT_NE(doomed, nullptr);
  auto opened = doomed->Call("OPEN engine=sim seed=11 steps=3");
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened->rfind("OK id=0", 0), 0u) << *opened;
  // Fire a STEP and vanish before the response: the worker's completion
  // must be dropped silently when the connection id no longer resolves.
  ASSERT_TRUE(doomed->SendFrame(FrameType::kRequest, "STEP id=0").ok());
  doomed->Close();

  auto survivor = ConnectTo(fixture);
  ASSERT_NE(survivor, nullptr);
  auto pong = survivor->Call("PING");
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(*pong, "OK pong=1");
  // The session itself outlives its transport connection (sessions are
  // owned by the TuningServer, not the socket): a new connection can
  // observe and close it.
  auto status = survivor->Call("STATUS id=0");
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->rfind("OK id=0", 0), 0u) << *status;
  // The killed client's STEP may still be running on a worker, and a busy
  // session refuses CLOSE by design: wait until STATUS shows it idle.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (status->find(" busy=0") == std::string::npos &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    status = survivor->Call("STATUS id=0");
    ASSERT_TRUE(status.ok()) << status.status().ToString();
  }
  ASSERT_NE(status->find(" busy=0"), std::string::npos) << *status;
  auto closed = survivor->Call("CLOSE id=0");
  ASSERT_TRUE(closed.ok());
  EXPECT_EQ(closed->rfind("OK id=0", 0), 0u) << *closed;
  fixture.front->Stop();
}

// Transport determinism: the same session spec stepped over the binary TCP
// transport and through the in-process dispatcher must produce bitwise
// identical step responses — the wire format adds no nondeterminism.
TEST(TcpServerTest, EpisodesOverTcpMatchInProcessBitwise) {
  const std::vector<std::string> script = {
      "OPEN engine=sim workload=sysbench_rw seed=42 steps=3",
      "STEP id=0", "STEP id=0", "STEP id=0", "STATUS id=0",
      "BEST_CONFIG id=0", "CLOSE id=0"};

  // In-process reference.
  TuningServer reference;
  ASSERT_TRUE(reference.AdoptModel(SharedTrainedTuner()).ok());
  Dispatcher dispatcher(&reference);
  std::vector<std::string> expected;
  for (const std::string& line : script) {
    expected.push_back(dispatcher.Dispatch(line).response);
  }

  // The same script over epoll/TCP with four concurrent idle connections
  // sharing the reactor (they must not perturb the served session).
  TcpFixture fixture;
  ASSERT_TRUE(fixture.Start().ok());
  std::vector<std::unique_ptr<FrameClient>> idle;
  for (int i = 0; i < 4; ++i) {
    auto extra = std::make_unique<FrameClient>();
    ASSERT_TRUE(extra->Connect("127.0.0.1", fixture.port()).ok());
    ASSERT_TRUE(extra->Call("PING").ok());
    idle.push_back(std::move(extra));
  }
  auto client = ConnectTo(fixture);
  ASSERT_NE(client, nullptr);
  for (size_t i = 0; i < script.size(); ++i) {
    auto reply = client->Call(script[i]);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(*reply, expected[i]) << "diverged on: " << script[i];
  }
  fixture.front->Stop();
}

}  // namespace
}  // namespace cdbtune::server
