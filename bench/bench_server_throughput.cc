// Multi-session tuning server throughput (the tentpole subsystem's perf
// surface): complete tuning episodes per second as the number of concurrent
// tenants grows 1 -> 16 in-process and 64 -> 1024 over the epoll/TCP binary
// front end (one live connection per tenant — the C10K surface), and the
// latency of greedy model recommendations while round-stepping is in
// flight. Results merge into BENCH_exec_time.json via
// bench/run_benchmarks.sh.
#include <benchmark/benchmark.h>

#include <sys/resource.h>

#include "bench_common.h"

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "env/simulated_cdb.h"
#include "server/dispatch.h"
#include "server/net/frame_client.h"
#include "server/net/tcp_server.h"
#include "server/tuning_server.h"
#include "tuner/cdbtune.h"
#include "util/thread_pool.h"

namespace cdbtune {
namespace {

/// One small standard model, trained once and cloned into every server.
tuner::CdbTuner& TrainedTuner() {
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

server::SessionSpec SimSpec(uint64_t seed, int max_steps) {
  server::SessionSpec spec;
  spec.engine = "sim";
  spec.seed = seed;
  spec.max_steps = max_steps;
  return spec;
}

/// Cloning the trained standard model into a fresh server (one DdpgAgent
/// construction plus a weight copy): the per-server set-up the episode
/// benchmarks below keep out of their timed regions.
void BM_AdoptModel(benchmark::State& state) {
  tuner::CdbTuner& trained = TrainedTuner();
  for (auto _ : state) {
    state.PauseTiming();
    auto srv = std::make_unique<server::TuningServer>();
    state.ResumeTiming();
    const bool adopted = srv->AdoptModel(trained).ok();
    state.PauseTiming();
    srv.reset();
    state.ResumeTiming();
    if (!adopted) {
      state.SkipWithError("AdoptModel failed");
      break;
    }
  }
}
BENCHMARK(BM_AdoptModel)->Unit(benchmark::kMillisecond);

/// Full tuning episodes — open N sessions, round-step to completion, close —
/// reported as sessions tuned per second. Offline training, server
/// construction, AdoptModel (see BM_AdoptModel) and teardown are untimed.
void BM_ServerEpisodes(benchmark::State& state) {
  const size_t sessions = static_cast<size_t>(state.range(0));
  util::ComputeContext::Get().SetThreads(4);
  tuner::CdbTuner& trained = TrainedTuner();
  uint64_t seed = 1;
  for (auto _ : state) {
    state.PauseTiming();
    auto srv = std::make_unique<server::TuningServer>();
    const bool adopted = srv->AdoptModel(trained).ok();
    state.ResumeTiming();
    if (!adopted) {
      state.SkipWithError("AdoptModel failed");
      break;
    }
    std::vector<int> ids;
    for (size_t i = 0; i < sessions; ++i) {
      auto id = srv->Open(SimSpec(seed++, /*max_steps=*/5));
      if (!id.ok()) {
        state.SkipWithError("Open failed");
        break;
      }
      ids.push_back(*id);
    }
    while (true) {
      auto stepped = srv->StepRound();
      if (!stepped.ok() || *stepped == 0) break;
    }
    for (int id : ids) {
      benchmark::DoNotOptimize(srv->Close(id));
    }
    state.PauseTiming();
    srv.reset();
    state.ResumeTiming();
  }
  state.counters["sessions_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * sessions),
      benchmark::Counter::kIsRate);
  util::ComputeContext::Get().SetThreads(0);
}
// The episodes run on pool workers, so the main thread's CPU time says
// nothing about them: time (and so rate) on the wall clock.
BENCHMARK(BM_ServerEpisodes)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// The same episode workload through the epoll/TCP binary front end, one
/// live connection per tenant held open for the whole episode — so the
/// reactor multiplexes `sessions` concurrent connections while an admin
/// connection drives the rounds. Reported, like BM_ServerEpisodes, as
/// sessions tuned per second: comparing the two series isolates the
/// transport's overhead, and ~linear decay across 64 -> 1024 is the C10K
/// acceptance gate. Server construction, AdoptModel, the listener's start
/// and the teardown are untimed; connecting and OPEN are the tenant's work
/// and stay timed.
void BM_ServerEpisodesTcp(benchmark::State& state) {
  const size_t sessions = static_cast<size_t>(state.range(0));
  util::ComputeContext::Get().SetThreads(4);
  tuner::CdbTuner& trained = TrainedTuner();
  /// The daemon's wiring, built per iteration with timing paused.
  struct Stack {
    Stack(const server::TuningServerOptions& server_options,
          const server::net::TcpServerOptions& tcp_options)
        : srv(server_options),
          dispatcher(&srv),
          front(&dispatcher, tcp_options) {
      dispatcher.RegisterTransport(&front);
    }
    server::TuningServer srv;
    server::Dispatcher dispatcher;
    server::net::TcpServer front;
  };
  server::TuningServerOptions server_options;
  server_options.max_sessions = sessions;
  // Small per-shard rings keep 1024 tenants' unmerged experience bounded.
  server_options.shard_capacity = 8;
  server::net::TcpServerOptions tcp_options;
  tcp_options.max_connections = sessions + 8;
  uint64_t seed = 1;
  for (auto _ : state) {
    state.PauseTiming();
    auto stack = std::make_unique<Stack>(server_options, tcp_options);
    const bool adopted = stack->srv.AdoptModel(trained).ok();
    const bool started = adopted && stack->front.Start().ok();
    state.ResumeTiming();
    if (!started) {
      state.SkipWithError(adopted ? "TcpServer Start failed"
                                  : "AdoptModel failed");
      break;
    }
    server::net::TcpServer& front = stack->front;
    std::vector<std::unique_ptr<server::net::FrameClient>> clients;
    clients.reserve(sessions);
    bool failed = false;
    for (size_t i = 0; i < sessions && !failed; ++i) {
      auto client = std::make_unique<server::net::FrameClient>();
      if (!client->Connect("127.0.0.1", front.port()).ok()) {
        state.SkipWithError("Connect failed");
        failed = true;
        break;
      }
      auto opened = client->Call("OPEN engine=sim seed=" +
                                 std::to_string(seed++) + " steps=5");
      if (!opened.ok() || opened->rfind("OK id=", 0) != 0) {
        state.SkipWithError("OPEN over TCP failed");
        failed = true;
        break;
      }
      clients.push_back(std::move(client));
    }
    if (!failed) {
      server::net::FrameClient admin;
      if (!admin.Connect("127.0.0.1", front.port()).ok()) {
        state.SkipWithError("admin Connect failed");
        failed = true;
      }
      while (!failed) {
        auto round = admin.Call("ROUND");
        if (!round.ok()) {
          state.SkipWithError("ROUND over TCP failed");
          failed = true;
          break;
        }
        if (round->find("sessions=0") != std::string::npos) break;
      }
      for (size_t i = 0; i < clients.size() && !failed; ++i) {
        auto closed = clients[i]->Call("CLOSE id=" + std::to_string(i));
        if (!closed.ok() || closed->rfind("OK", 0) != 0) {
          state.SkipWithError("CLOSE over TCP failed");
          failed = true;
        }
      }
    }
    state.PauseTiming();
    clients.clear();
    front.Stop();
    stack.reset();
    state.ResumeTiming();
    if (failed) break;
  }
  state.counters["sessions_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * sessions),
      benchmark::Counter::kIsRate);
  util::ComputeContext::Get().SetThreads(0);
}
BENCHMARK(BM_ServerEpisodesTcp)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Greedy recommendation latency while 8 tenants round-step in the
/// background — measures contention on the shared-model lock. Recommend
/// holds it shared, as the round's policy forwards do, so it waits only
/// for the round barrier's exclusive merge, not for the tenants' inference.
void BM_RecommendUnderLoad(benchmark::State& state) {
  util::ComputeContext::Get().SetThreads(4);
  tuner::CdbTuner& trained = TrainedTuner();
  server::TuningServer srv;
  if (!srv.AdoptModel(trained).ok()) {
    state.SkipWithError("AdoptModel failed");
    return;
  }
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    // A budget the benchmark never exhausts keeps the load steady.
    if (!srv.Open(SimSpec(seed, /*max_steps=*/1 << 20)).ok()) {
      state.SkipWithError("Open failed");
      return;
    }
  }
  std::atomic<bool> stop{false};
  std::thread load([&] {
    // lint: allow(atomic-ordering) — plain quit flag: the loader only needs
    // to *eventually* observe the store, and no other data is published
    // through it (join() below is the real synchronization point).
    while (!stop.load(std::memory_order_relaxed)) {
      auto stepped = srv.StepRound();
      if (!stepped.ok() || *stepped == 0) break;
    }
  });
  std::vector<double> s(trained.agent().options().state_dim, 0.1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(srv.Recommend(s));
  }
  // lint: allow(atomic-ordering) — see the matching relaxed load above.
  stop.store(true, std::memory_order_relaxed);
  load.join();
  srv.DrainAndStop();
  util::ComputeContext::Get().SetThreads(0);
}
BENCHMARK(BM_RecommendUnderLoad)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace cdbtune

// Custom main instead of BENCHMARK_MAIN(): records host/environment
// metadata (load average, CPU model, SIMD tier, thread count) into the
// JSON context so saved reports are self-describing.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // The 1024-tenant TCP series holds ~2x that many descriptors open at once
  // (client + server end per connection); lift a default 1024 soft limit to
  // whatever the hard limit allows before the reactor starts accepting.
  rlimit files;
  if (::getrlimit(RLIMIT_NOFILE, &files) == 0 && files.rlim_cur < 8192) {
    rlimit raised = files;
    raised.rlim_cur =
        files.rlim_max == RLIM_INFINITY
            ? 8192
            : (files.rlim_max < 8192 ? files.rlim_max : rlim_t{8192});
    if (::setrlimit(RLIMIT_NOFILE, &raised) != 0) {
      std::fprintf(stderr,
                   "warning: could not raise RLIMIT_NOFILE above %llu; "
                   "BM_ServerEpisodesTcp/1024 may fail\n",
                   static_cast<unsigned long long>(files.rlim_cur));
    }
  }
  cdbtune::bench::AddBenchEnvironmentContext();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
