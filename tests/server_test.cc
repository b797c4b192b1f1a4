#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "persist/atomic_file.h"
#include "persist/chunk.h"
#include "rl/noise.h"
#include "server/dispatch.h"
#include "server/protocol.h"
#include "server/tuning_server.h"
#include "env/simulated_cdb.h"
#include "tuner/cdbtune.h"
#include "util/thread_pool.h"

#include <unistd.h>

namespace cdbtune::server {
namespace {

// --- ShardedExperiencePool ---------------------------------------------------

tuner::Experience MarkedExperience(double marker) {
  tuner::Experience experience;
  experience.transition.state = {marker};
  experience.transition.action = {marker};
  experience.transition.next_state = {marker};
  experience.transition.reward = marker;
  experience.workload_name = "test";
  return experience;
}

TEST(ShardedExperiencePoolTest, CollectMergesInShardThenArrivalOrder) {
  tuner::ShardedExperiencePool pool(3, 8);
  // Interleave writers; the merged order must still be (shard, arrival).
  pool.Add(2, MarkedExperience(20));
  pool.Add(0, MarkedExperience(1));
  pool.Add(1, MarkedExperience(10));
  pool.Add(0, MarkedExperience(2));
  pool.Add(2, MarkedExperience(21));

  std::vector<tuner::Experience> merged = pool.CollectNew();
  ASSERT_EQ(merged.size(), 5u);
  EXPECT_EQ(merged[0].transition.reward, 1);
  EXPECT_EQ(merged[1].transition.reward, 2);
  EXPECT_EQ(merged[2].transition.reward, 10);
  EXPECT_EQ(merged[3].transition.reward, 20);
  EXPECT_EQ(merged[4].transition.reward, 21);

  // A second collect sees only what arrived since.
  EXPECT_TRUE(pool.CollectNew().empty());
  pool.Add(1, MarkedExperience(11));
  std::vector<tuner::Experience> again = pool.CollectNew();
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0].transition.reward, 11);
  EXPECT_EQ(pool.total_added(), 6u);
  EXPECT_EQ(pool.total_dropped(), 0u);
}

TEST(ShardedExperiencePoolTest, RingDropsOldestWhenTrainerLags) {
  tuner::ShardedExperiencePool pool(1, 2);
  pool.Add(0, MarkedExperience(1));
  pool.Add(0, MarkedExperience(2));
  pool.Add(0, MarkedExperience(3));  // Overwrites 1 before any merge.
  std::vector<tuner::Experience> merged = pool.CollectNew();
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].transition.reward, 2);
  EXPECT_EQ(merged[1].transition.reward, 3);
  EXPECT_EQ(pool.total_added(), 3u);
  EXPECT_EQ(pool.total_dropped(), 1u);
}

TEST(ShardedExperiencePoolTest, SnapshotCopiesRetainedWindow) {
  tuner::ShardedExperiencePool pool(2, 2);
  for (int i = 0; i < 3; ++i) pool.Add(0, MarkedExperience(i));
  pool.Add(1, MarkedExperience(10));
  tuner::MemoryPool snapshot;
  pool.SnapshotInto(&snapshot);
  ASSERT_EQ(snapshot.size(), 3u);  // Shard 0 retains {1, 2}, shard 1 {10}.
  EXPECT_EQ(snapshot.at(0).transition.reward, 1);
  EXPECT_EQ(snapshot.at(1).transition.reward, 2);
  EXPECT_EQ(snapshot.at(2).transition.reward, 10);
}

// --- Protocol ----------------------------------------------------------------

TEST(ProtocolTest, ParsesVerbAndArguments) {
  auto command = ParseCommand("OPEN engine=sim seed=42 workload=tpcc");
  ASSERT_TRUE(command.ok());
  EXPECT_EQ(command->verb, "OPEN");
  EXPECT_EQ(command->args.at("engine"), "sim");
  EXPECT_EQ(command->args.at("seed"), "42");
  EXPECT_EQ(command->args.at("workload"), "tpcc");
}

TEST(ProtocolTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseCommand("").ok());
  EXPECT_FALSE(ParseCommand("   ").ok());
  EXPECT_FALSE(ParseCommand("STEP id").ok());
  EXPECT_FALSE(ParseCommand("STEP =3").ok());
}

TEST(ProtocolTest, AccessorsValidate) {
  auto command = ParseCommand("STEP id=3 frac=0.5 bad=xyz");
  ASSERT_TRUE(command.ok());
  EXPECT_EQ(GetInt(*command, "id").value(), 3);
  EXPECT_FALSE(GetInt(*command, "missing").ok());
  EXPECT_EQ(GetIntOr(*command, "missing", 7).value(), 7);
  EXPECT_FALSE(GetIntOr(*command, "bad", 7).ok());
  EXPECT_EQ(GetDoubleOr(*command, "frac", 0.0).value(), 0.5);
  EXPECT_FALSE(GetDoubleOr(*command, "bad", 0.0).ok());
  EXPECT_EQ(GetStringOr(*command, "missing", "dflt"), "dflt");
}

TEST(ProtocolTest, DoubleFormattingRoundTrips) {
  for (double v : {0.1, 1e300, -3.25, 1234567.875, 1.0 / 3.0}) {
    EXPECT_EQ(std::stod(FormatDouble(v)), v);
  }
}

TEST(ProtocolTest, WorkloadNamesResolve) {
  EXPECT_TRUE(WorkloadByName("sysbench_rw").ok());
  EXPECT_TRUE(WorkloadByName("tpch").ok());
  EXPECT_FALSE(WorkloadByName("nosuch").ok());
}

// --- TuningServer ------------------------------------------------------------

/// One standard model trained once and shared by every server test (its
/// weights are only ever cloned, never mutated).
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

std::vector<SessionSpec> TestSpecs(size_t count) {
  const workload::WorkloadSpec workloads[] = {
      workload::SysbenchReadWrite(), workload::SysbenchReadOnly(),
      workload::SysbenchWriteOnly(), workload::Tpcc(), workload::Ycsb()};
  const env::HardwareSpec shapes[] = {env::CdbA(), env::CdbB(), env::CdbC()};
  std::vector<SessionSpec> specs;
  for (size_t i = 0; i < count; ++i) {
    SessionSpec spec;
    spec.engine = "sim";
    spec.workload = workloads[i % 5];
    spec.hardware = shapes[i % 3];
    spec.seed = 500 + i;
    spec.max_steps = 4;
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// Runs each spec alone in its own single-session server (the reference
/// trajectory for the concurrency tests).
std::vector<tuner::OnlineTuneResult> RunEachSolo(
    const std::vector<SessionSpec>& specs) {
  std::vector<tuner::OnlineTuneResult> results;
  for (const SessionSpec& spec : specs) {
    TuningServer server;
    EXPECT_TRUE(server.AdoptModel(SharedTrainedTuner()).ok());
    auto id = server.Open(spec);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    while (true) {
      auto record = server.Step(*id);
      if (!record.ok()) break;
      auto status = server.GetStatus(*id);
      if (!status.ok() || status->phase != tuner::SessionPhase::kTuning) break;
    }
    auto result = server.Close(*id);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    results.push_back(*result);
  }
  return results;
}

void ExpectSameResult(const tuner::OnlineTuneResult& a,
                      const tuner::OnlineTuneResult& b) {
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.initial.throughput, b.initial.throughput);
  EXPECT_EQ(a.best.throughput, b.best.throughput);
  EXPECT_EQ(a.best.latency, b.best.latency);
  EXPECT_EQ(a.best_config, b.best_config);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].reward, b.history[i].reward);
    EXPECT_EQ(a.history[i].throughput, b.history[i].throughput);
  }
}

TEST(TuningServerTest, EightConcurrentSessionsMatchSoloRuns) {
  auto specs = TestSpecs(8);
  auto solo = RunEachSolo(specs);

  util::ComputeContext::Get().SetThreads(4);
  TuningServer server;  // Default train_iters_per_round = 0: frozen model.
  ASSERT_TRUE(server.AdoptModel(SharedTrainedTuner()).ok());
  std::vector<int> ids;
  for (const SessionSpec& spec : specs) {
    auto id = server.Open(spec);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  EXPECT_EQ(server.open_sessions(), 8u);
  while (true) {
    auto stepped = server.StepRound();
    ASSERT_TRUE(stepped.ok()) << stepped.status().ToString();
    if (*stepped == 0) break;
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    auto result = server.Close(ids[i]);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSameResult(*result, solo[i]);
  }
  util::ComputeContext::Get().SetThreads(0);
}

TEST(TuningServerTest, ConcurrentStepsFromFourThreadsMatchSoloRuns) {
  // Direct STEPs (no round barrier) from four threads, two sessions each,
  // while a fifth thread keeps asking for Recommend: every session's policy
  // forward holds the model lock shared and runs alongside the others, and
  // each trajectory must still equal its solo run bit for bit.
  auto specs = TestSpecs(8);
  auto solo = RunEachSolo(specs);

  util::ComputeContext::Get().SetThreads(4);
  TuningServer server;
  ASSERT_TRUE(server.AdoptModel(SharedTrainedTuner()).ok());
  std::vector<int> ids;
  for (const SessionSpec& spec : specs) {
    auto id = server.Open(spec);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  const std::vector<double> probe(
      SharedTrainedTuner().agent().options().state_dim, 0.1);
  auto expected_recommendation = server.Recommend(probe);
  ASSERT_TRUE(expected_recommendation.ok());

  std::atomic<int> steppers_left{4};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      // Interleave this thread's two sessions step by step.
      bool open[2] = {true, true};
      while (open[0] || open[1]) {
        for (size_t k = 0; k < 2; ++k) {
          if (!open[k]) continue;
          const int id = ids[t + 4 * k];
          auto record = server.Step(id);
          EXPECT_TRUE(record.ok()) << record.status().ToString();
          auto status = server.GetStatus(id);
          open[k] = record.ok() && status.ok() &&
                    status->phase == tuner::SessionPhase::kTuning;
        }
      }
      steppers_left.fetch_sub(1);
    });
  }
  threads.emplace_back([&] {
    while (steppers_left.load() > 0) {
      auto recommendation = server.Recommend(probe);
      ASSERT_TRUE(recommendation.ok());
      EXPECT_EQ(*recommendation, *expected_recommendation);
    }
  });
  for (std::thread& thread : threads) thread.join();

  for (size_t i = 0; i < ids.size(); ++i) {
    auto result = server.Close(ids[i]);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSameResult(*result, solo[i]);
  }
  util::ComputeContext::Get().SetThreads(0);
}

TEST(TuningServerTest, OverlappingRecommendsDoNotStarveTraining) {
  // Recommend holds the model lock shared and is not fenced by the round
  // barrier, so six threads calling it back to back (some preempted while
  // holding it) keep the lock held shared without a gap. Training rounds and
  // TRAIN take it exclusive and must still get through promptly; behind a
  // reader-preferring lock they wait until the readers stop.
  util::ComputeContext::Get().SetThreads(4);
  TuningServerOptions options;
  options.train_iters_per_round = 2;
  TuningServer server(options);
  ASSERT_TRUE(server.AdoptModel(SharedTrainedTuner()).ok());
  for (const SessionSpec& spec : TestSpecs(2)) {
    ASSERT_TRUE(server.Open(spec).ok());
  }
  const std::vector<double> probe(
      SharedTrainedTuner().agent().options().state_dim, 0.1);
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 6; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) EXPECT_TRUE(server.Recommend(probe).ok());
    });
  }
  std::atomic<bool> trained{false};
  std::thread trainer([&] {
    for (int round = 0; round < 3; ++round) {
      EXPECT_TRUE(server.StepRound().ok());
    }
    EXPECT_TRUE(server.Train(2).ok());
    trained.store(true);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!trained.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const bool trained_in_time = trained.load();
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  trainer.join();
  EXPECT_TRUE(trained_in_time) << "training starved by Recommend readers";
  util::ComputeContext::Get().SetThreads(0);
}

TEST(TuningServerTest, ClosingOneSessionMidEpisodeLeavesOthersExact) {
  auto specs = TestSpecs(4);
  auto solo = RunEachSolo(specs);

  util::ComputeContext::Get().SetThreads(4);
  TuningServer server;
  ASSERT_TRUE(server.AdoptModel(SharedTrainedTuner()).ok());
  std::vector<int> ids;
  for (const SessionSpec& spec : specs) {
    auto id = server.Open(spec);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  ASSERT_TRUE(server.StepRound().ok());
  // Kill tenant 2 after one step; its best-so-far config still deploys.
  auto killed = server.Close(ids[2]);
  ASSERT_TRUE(killed.ok());
  EXPECT_EQ(killed->steps, 1);
  EXPECT_GT(killed->best.throughput, 0.0);
  while (true) {
    auto stepped = server.StepRound();
    ASSERT_TRUE(stepped.ok());
    if (*stepped == 0) break;
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i == 2) continue;
    auto result = server.Close(ids[i]);
    ASSERT_TRUE(result.ok());
    ExpectSameResult(*result, solo[i]);
  }
  util::ComputeContext::Get().SetThreads(0);
}

TEST(TuningServerTest, TrainingRoundsAreThreadCountInvariant) {
  // With training enabled results may drift from the frozen-solo runs, but
  // they must not depend on the thread count: merges happen at barriers in
  // (shard, arrival) order.
  auto run = [&](size_t threads) {
    util::ComputeContext::Get().SetThreads(threads);
    TuningServerOptions options;
    options.train_iters_per_round = 2;
    TuningServer server(options);
    EXPECT_TRUE(server.AdoptModel(SharedTrainedTuner()).ok());
    auto specs = TestSpecs(8);
    for (auto& spec : specs) spec.max_steps = 5;
    std::vector<int> ids;
    for (const SessionSpec& spec : specs) {
      auto id = server.Open(spec);
      EXPECT_TRUE(id.ok());
      ids.push_back(*id);
    }
    while (true) {
      auto stepped = server.StepRound();
      EXPECT_TRUE(stepped.ok());
      if (!stepped.ok() || *stepped == 0) break;
    }
    std::vector<tuner::OnlineTuneResult> results;
    for (int id : ids) {
      auto result = server.Close(id);
      EXPECT_TRUE(result.ok());
      results.push_back(*result);
    }
    util::ComputeContext::Get().SetThreads(0);
    return results;
  };
  auto with1 = run(1);
  auto with4 = run(4);
  ASSERT_EQ(with1.size(), with4.size());
  for (size_t i = 0; i < with1.size(); ++i) {
    ExpectSameResult(with1[i], with4[i]);
  }
}

TEST(TuningServerTest, CapacityAndErrorPaths) {
  TuningServerOptions options;
  options.max_sessions = 2;
  TuningServer server(options);

  SessionSpec spec;
  spec.seed = 900;
  // No model yet.
  EXPECT_FALSE(server.Open(spec).ok());
  ASSERT_TRUE(server.AdoptModel(SharedTrainedTuner()).ok());
  EXPECT_FALSE(server.AdoptModel(SharedTrainedTuner()).ok());  // Only once.

  spec.engine = "nosuch";
  EXPECT_FALSE(server.Open(spec).ok());
  spec.engine = "sim";
  auto first = server.Open(spec);
  ASSERT_TRUE(first.ok());
  spec.seed = 901;
  ASSERT_TRUE(server.Open(spec).ok());
  spec.seed = 902;
  auto third = server.Open(spec);
  EXPECT_FALSE(third.ok()) << "capacity is 2";

  EXPECT_FALSE(server.Step(99).ok());
  EXPECT_FALSE(server.Close(99).ok());
  EXPECT_FALSE(server.GetStatus(99).ok());
  EXPECT_EQ(server.ListStatus().size(), 2u);

  // Steps past the budget fail cleanly, and the phase reports finished.
  for (int i = 0; i < spec.max_steps; ++i) {
    EXPECT_TRUE(server.Step(*first).ok());
  }
  EXPECT_FALSE(server.Step(*first).ok());
  auto status = server.GetStatus(*first);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->phase, tuner::SessionPhase::kFinished);
  auto rendered = server.RenderBestConfig(*first);
  ASSERT_TRUE(rendered.ok());
  EXPECT_FALSE(rendered->empty()) << "tuned config should differ from default";

  server.DrainAndStop();
  spec.seed = 903;
  EXPECT_FALSE(server.Open(spec).ok()) << "draining refuses new sessions";
  EXPECT_EQ(server.open_sessions(), 0u);
}

TEST(TuningServerTest, RecommendServesGreedyActions) {
  TuningServer server;
  std::vector<double> state(
      SharedTrainedTuner().agent().options().state_dim, 0.0);
  EXPECT_FALSE(server.Recommend(state).ok());
  ASSERT_TRUE(server.AdoptModel(SharedTrainedTuner()).ok());
  EXPECT_FALSE(server.Recommend(std::vector<double>(3, 0.0)).ok());
  auto action = server.Recommend(state);
  ASSERT_TRUE(action.ok());
  auto again = server.Recommend(state);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*action, *again) << "greedy inference consumes no rng";
}

// Regression: a mini-engine tenant used to abort the server. A config whose
// redo log left too little disk for the table failed MiniCdb's data load but
// stayed installed, so the next crash recovery rebuilt on it and died. This
// tenant under the daemon's standard model reaches exactly that sequence.
TEST(TuningServerTest, MiniTenantSurvivesConfigItsDataDoesNotFit) {
  auto db = env::SimulatedCdb::MysqlCdb(env::CdbA(), 41);
  auto space = knobs::KnobSpace::AllTunable(&db->registry());
  tuner::CdbTuneOptions options;
  options.max_offline_steps = 200;
  options.seed = 41;
  tuner::CdbTuner standard(db.get(), space, options);
  standard.OfflineTrain(workload::SysbenchReadWrite());

  TuningServer server;
  ASSERT_TRUE(server.AdoptModel(standard).ok());
  Dispatcher dispatcher(&server);
  const std::string opened =
      dispatcher
          .Dispatch("OPEN engine=mini workload=tpcc seed=1042 rows=20000 "
                    "stress_s=60")
          .response;
  ASSERT_EQ(opened.rfind("OK id=0", 0), 0u) << opened;
  bool crashed = false;
  std::string stepped;
  do {
    stepped = dispatcher.Dispatch("STEP id=0").response;
    ASSERT_EQ(stepped.rfind("OK", 0), 0u) << stepped;
    crashed = crashed || stepped.find("crashed=1") != std::string::npos;
  } while (stepped.find("phase=TUNING") != std::string::npos);
  EXPECT_TRUE(crashed) << "the tenant no longer reaches a failing config";
  EXPECT_EQ(dispatcher.Dispatch("CLOSE id=0").response.rfind("OK id=0", 0),
            0u);
  EXPECT_EQ(dispatcher.Dispatch("PING").response, "OK pong=1");
}

// --- Dispatch ----------------------------------------------------------------

TEST(DispatchTest, BasicVerbs) {
  TuningServer server;
  ASSERT_TRUE(server.AdoptModel(SharedTrainedTuner()).ok());
  Dispatcher dispatcher(&server);
  EXPECT_EQ(dispatcher.Dispatch("PING").response, "OK pong=1");
  EXPECT_EQ(dispatcher.Dispatch("STATUS").response, "OK sessions=0");
  DispatchResult unknown = dispatcher.Dispatch("NOSUCH");
  EXPECT_EQ(unknown.response.rfind("ERR", 0), 0u);
  EXPECT_FALSE(unknown.shutdown);
  EXPECT_EQ(dispatcher.Dispatch("STEP id=0").response.rfind("ERR", 0), 0u);
  DispatchResult bye = dispatcher.Dispatch("SHUTDOWN");
  EXPECT_EQ(bye.response, "OK bye=1");
  EXPECT_TRUE(bye.shutdown);
}

TEST(DispatchTest, FullSessionLifecycle) {
  TuningServer server;
  ASSERT_TRUE(server.AdoptModel(SharedTrainedTuner()).ok());
  Dispatcher dispatcher(&server);
  std::string opened =
      dispatcher
          .Dispatch("OPEN engine=sim workload=sysbench_rw seed=42 steps=2")
          .response;
  ASSERT_EQ(opened.rfind("OK id=0", 0), 0u) << opened;
  std::string stepped = dispatcher.Dispatch("STEP id=0 n=2").response;
  EXPECT_EQ(stepped.rfind("OK id=0 step=2", 0), 0u) << stepped;
  std::string status = dispatcher.Dispatch("STATUS id=0").response;
  EXPECT_NE(status.find("phase=FINISHED"), std::string::npos) << status;
  std::string config = dispatcher.Dispatch("BEST_CONFIG id=0").response;
  EXPECT_EQ(config.rfind("OK id=0 config=", 0), 0u) << config;
  std::string closed = dispatcher.Dispatch("CLOSE id=0").response;
  EXPECT_EQ(closed.rfind("OK id=0 steps=2", 0), 0u) << closed;
  EXPECT_EQ(dispatcher.Dispatch("STATUS").response, "OK sessions=0");
}

TEST(DispatchTest, StatusReportsSafetyState) {
  TuningServerOptions options;
  options.safety.warmup_steps = 1;
  options.safety.regression_margin = 0.02;
  options.safety.rollback_after = 2;
  TuningServer server(options);
  ASSERT_TRUE(server.AdoptModel(SharedTrainedTuner()).ok());
  Dispatcher dispatcher(&server);

  // safety=1 turns the guardrail on for this tenant; the degrade knobs
  // inject a mid-tune regression into its simulated instance.
  std::string opened =
      dispatcher
          .Dispatch(
              "OPEN engine=sim workload=sysbench_rw seed=61 steps=5 safety=1 "
              "degrade=innodb_buffer_pool_size degrade_after=1 degrade_sev=0.9")
          .response;
  ASSERT_EQ(opened.rfind("OK id=0", 0), 0u) << opened;
  std::string status = dispatcher.Dispatch("STATUS id=0").response;
  EXPECT_NE(status.find("safety=1"), std::string::npos) << status;
  EXPECT_NE(status.find("base_tps="), std::string::npos) << status;
  EXPECT_NE(status.find("tr_width="), std::string::npos) << status;
  EXPECT_NE(status.find("rollbacks=0"), std::string::npos) << status;

  // Two degraded steps reach K consecutive violations: the guardrail rolls
  // the tenant back and STATUS shows it parked on last-known-good.
  ASSERT_EQ(dispatcher.Dispatch("STEP id=0 n=2").response.rfind("OK", 0),
            0u);
  status = dispatcher.Dispatch("STATUS id=0").response;
  EXPECT_NE(status.find("viol=2"), std::string::npos) << status;
  EXPECT_NE(status.find("rollbacks=1"), std::string::npos) << status;
  EXPECT_NE(status.find("on_lkg=1"), std::string::npos) << status;

  // An unguarded tenant reports safety=0 and no guardrail telemetry.
  opened =
      dispatcher
          .Dispatch("OPEN engine=sim workload=sysbench_rw seed=62 safety=0")
          .response;
  ASSERT_EQ(opened.rfind("OK id=1", 0), 0u) << opened;
  status = dispatcher.Dispatch("STATUS id=1").response;
  EXPECT_NE(status.find("safety=0"), std::string::npos) << status;
  EXPECT_EQ(status.find("base_tps="), std::string::npos) << status;

  EXPECT_EQ(
      dispatcher.Dispatch("OPEN engine=sim safety=2").response.rfind("ERR", 0),
      0u);
  EXPECT_EQ(dispatcher
                .Dispatch("OPEN engine=sim degrade=nosuch_knob degrade_sev=0.5")
                .response.rfind("ERR", 0),
            0u);
}

TEST(ShardedExperiencePoolTest, SnapshotAfterWraparoundIsDeterministic) {
  // Warm-start snapshots (REBUILD) must not depend on how session writers
  // interleaved: only the per-shard retained windows and the (shard,
  // arrival) merge order matter. Fill two pools with identical per-shard
  // sequences through different global interleavings — shard 0 overflows
  // its 4-slot ring — and require identical snapshots.
  tuner::ShardedExperiencePool first(3, 4);
  for (int i = 0; i <= 5; ++i) first.Add(0, MarkedExperience(i));
  (void)first.CollectNew();  // Snapshot must be merge-cursor independent.
  first.Add(1, MarkedExperience(10));
  first.Add(1, MarkedExperience(11));
  first.Add(2, MarkedExperience(20));

  tuner::ShardedExperiencePool second(3, 4);
  second.Add(2, MarkedExperience(20));
  for (int i = 0; i <= 2; ++i) second.Add(0, MarkedExperience(i));
  second.Add(1, MarkedExperience(10));
  for (int i = 3; i <= 5; ++i) second.Add(0, MarkedExperience(i));
  second.Add(1, MarkedExperience(11));

  EXPECT_EQ(first.total_dropped(), 2u);  // Shard 0 overwrote 0 and 1.
  tuner::MemoryPool snap1, snap2;
  first.SnapshotInto(&snap1);
  second.SnapshotInto(&snap2);  // Snapshot works with the merge outstanding…
  (void)second.CollectNew();    // …and the merge then accounts the overwrites.
  EXPECT_EQ(second.total_dropped(), 2u);
  const std::vector<double> expect = {2, 3, 4, 5, 10, 11, 20};
  ASSERT_EQ(snap1.size(), expect.size());
  ASSERT_EQ(snap2.size(), expect.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(snap1.at(i).transition.reward, expect[i]) << "index " << i;
    EXPECT_EQ(snap2.at(i).transition.reward, expect[i]) << "index " << i;
  }
}

// --- Checkpoint / restore / rebuild ------------------------------------------

std::string CheckpointPath(const std::string& tag) {
  return "/tmp/cdbtune_server_ckpt_" + std::to_string(::getpid()) + "_" + tag;
}

void RemoveGenerations(const std::string& path) {
  std::remove(path.c_str());
  for (int g = 1; g < 8; ++g) {
    std::remove((path + "." + std::to_string(g)).c_str());
  }
}

std::string FileBytes(const std::string& path) {
  auto bytes = persist::ReadFile(path);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? *bytes : std::string();
}

/// The tentpole regression: checkpoint a training server mid-flight, let the
/// original keep running to completion, restore the checkpoint into a fresh
/// process-equivalent server and run it to completion too. Both final
/// checkpoints must be bitwise identical and every session must report the
/// same result — kill -9 plus RESTORE is indistinguishable from never
/// crashing.
void ExpectCheckpointResumeEquivalence(size_t threads) {
  util::ComputeContext::Get().SetThreads(threads);
  const std::string tag = std::to_string(threads);
  const std::string mid = CheckpointPath("mid_" + tag);
  const std::string end_a = CheckpointPath("enda_" + tag);
  const std::string end_b = CheckpointPath("endb_" + tag);
  RemoveGenerations(mid);
  RemoveGenerations(end_a);
  RemoveGenerations(end_b);

  TuningServerOptions options;
  options.train_iters_per_round = 2;  // Agent evolves: full state matters.
  auto specs = TestSpecs(4);

  TuningServer a(options);
  ASSERT_TRUE(a.AdoptModel(SharedTrainedTuner()).ok());
  std::vector<int> ids;
  for (const SessionSpec& spec : specs) {
    auto id = a.Open(spec);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  ASSERT_TRUE(a.StepRound().ok());
  ASSERT_TRUE(a.StepRound().ok());
  ASSERT_TRUE(a.SaveCheckpoint(mid).ok());
  while (true) {
    auto stepped = a.StepRound();
    ASSERT_TRUE(stepped.ok()) << stepped.status().ToString();
    if (*stepped == 0) break;
  }
  ASSERT_TRUE(a.SaveCheckpoint(end_a).ok());

  TuningServer b(options);  // No model adopted: the checkpoint carries it.
  auto report = b.RestoreCheckpoint(mid);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->sessions, 4u);
  EXPECT_EQ(report->rounds_completed, 2u);
  EXPECT_TRUE(report->dropped.empty());
  EXPECT_EQ(b.rounds_completed(), 2u);
  while (true) {
    auto stepped = b.StepRound();
    ASSERT_TRUE(stepped.ok()) << stepped.status().ToString();
    if (*stepped == 0) break;
  }
  ASSERT_TRUE(b.SaveCheckpoint(end_b).ok());

  EXPECT_EQ(FileBytes(end_a), FileBytes(end_b))
      << "restored server diverged from the uninterrupted one";
  for (int id : ids) {
    auto result_a = a.Close(id);
    auto result_b = b.Close(id);
    ASSERT_TRUE(result_a.ok());
    ASSERT_TRUE(result_b.ok());
    ExpectSameResult(*result_a, *result_b);
  }
  RemoveGenerations(mid);
  RemoveGenerations(end_a);
  RemoveGenerations(end_b);
  util::ComputeContext::Get().SetThreads(0);
}

TEST(CheckpointTest, RestoreResumesBitwiseIdenticallySingleThread) {
  ExpectCheckpointResumeEquivalence(1);
}

TEST(CheckpointTest, RestoreResumesBitwiseIdenticallyFourThreads) {
  ExpectCheckpointResumeEquivalence(4);
}

TEST(CheckpointTest, StepRoundAutosavesEveryNRounds) {
  const std::string path = CheckpointPath("autosave");
  RemoveGenerations(path);
  TuningServerOptions options;
  options.autosave_path = path;
  options.autosave_every_rounds = 1;
  TuningServer server(options);
  ASSERT_TRUE(server.AdoptModel(SharedTrainedTuner()).ok());
  auto id = server.Open(TestSpecs(1)[0]);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(server.StepRound().ok());
  EXPECT_TRUE(persist::ReadFile(path).ok()) << "round did not autosave";

  TuningServer resumed(options);
  auto report = resumed.RestoreCheckpoint(path);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->sessions, 1u);
  EXPECT_EQ(report->rounds_completed, 1u);
  RemoveGenerations(path);
}

TEST(CheckpointTest, TornNewestGenerationFallsBack) {
  const std::string path = CheckpointPath("torn");
  RemoveGenerations(path);
  TuningServerOptions options;
  TuningServer server(options);
  ASSERT_TRUE(server.AdoptModel(SharedTrainedTuner()).ok());
  auto id = server.Open(TestSpecs(1)[0]);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(server.StepRound().ok());
  ASSERT_TRUE(server.SaveCheckpoint(path).ok());  // Generation 1-to-be.
  ASSERT_TRUE(server.StepRound().ok());
  ASSERT_TRUE(server.SaveCheckpoint(path).ok());  // Generation 0.

  // Tear the newest generation in half; restore must fall back to the
  // older one and report the drop.
  const std::string torn = FileBytes(path).substr(0, FileBytes(path).size() / 2);
  ASSERT_TRUE(persist::AtomicWriteFile(path, torn).ok());

  TuningServer resumed(options);
  auto report = resumed.RestoreCheckpoint(path);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->generation, 1);
  EXPECT_EQ(report->rounds_completed, 1u);
  ASSERT_EQ(report->dropped.size(), 1u);
  EXPECT_EQ(report->dropped[0].path, path);
  // The fallback server is live: it can finish the restored session.
  ASSERT_TRUE(resumed.StepRound().ok());
  RemoveGenerations(path);
}

TEST(CheckpointTest, CorruptCheckpointLeavesServerUntouched) {
  const std::string path = CheckpointPath("corrupt");
  RemoveGenerations(path);
  {
    TuningServer donor;
    ASSERT_TRUE(donor.AdoptModel(SharedTrainedTuner()).ok());
    auto id = donor.Open(TestSpecs(1)[0]);
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(donor.SaveCheckpoint(path).ok());
  }
  std::string corrupt = FileBytes(path);
  corrupt[corrupt.size() / 2] ^= 0x04;
  ASSERT_TRUE(persist::AtomicWriteFile(path, corrupt).ok());

  TuningServer victim;
  ASSERT_TRUE(victim.AdoptModel(SharedTrainedTuner()).ok());
  std::vector<double> state(
      SharedTrainedTuner().agent().options().state_dim, 0.25);
  auto before = victim.Recommend(state);
  ASSERT_TRUE(before.ok());

  auto report = victim.RestoreCheckpoint(path);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), util::StatusCode::kDataLoss);

  // No partially-applied state: the model and the session table are intact.
  auto after = victim.Recommend(state);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*before, *after);
  auto id = victim.Open(TestSpecs(1)[0]);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_TRUE(victim.Step(*id).ok());
  RemoveGenerations(path);
}

/// Returns `payload` with the length-prefixed collector-statistics string
/// that starts at byte `offset` replaced by `blob`.
std::string WithCollectorBlob(std::string_view payload, size_t offset,
                              const std::string& blob) {
  persist::Decoder dec(payload.substr(offset));
  std::string original;
  EXPECT_TRUE(dec.ReadString(&original));
  persist::Encoder enc;
  enc.AppendRaw(payload.data(), offset);
  enc.WriteString(blob);
  const size_t tail = offset + dec.position();
  enc.AppendRaw(payload.data() + tail, payload.size() - tail);
  return enc.Release();
}

// Regression: the collector statistics ride inside two checkpoint chunks as
// a text blob. A garbage blob behind valid CRCs used to abort the daemon in
// the standardizer's parser; RESTORE must fail with kDataLoss instead and
// leave the server serving.
TEST(CheckpointTest, MalformedCollectorStatisticsFailRestoreWithDataLoss) {
  const std::string path = CheckpointPath("collector");
  RemoveGenerations(path);
  {
    TuningServer donor;
    ASSERT_TRUE(donor.AdoptModel(SharedTrainedTuner()).ok());
    ASSERT_TRUE(donor.Open(TestSpecs(1)[0]).ok());
    ASSERT_TRUE(donor.SaveCheckpoint(path).ok());
  }
  auto original = persist::ChunkFile::Parse(FileBytes(path));
  ASSERT_TRUE(original.ok()) << original.status().ToString();

  // Where the blob sits: server/model_meta leads with it; a session's state
  // chunk stores the OU exploration noise first.
  const rl::DdpgOptions& model = SharedTrainedTuner().agent().options();
  auto state_chunk = original->Get("session/0/state");
  ASSERT_TRUE(state_chunk.ok());
  persist::Decoder skip(*state_chunk);
  rl::OrnsteinUhlenbeckNoise noise(model.action_dim, model.noise_theta,
                                   model.noise_sigma, util::Rng(1));
  ASSERT_TRUE(noise.LoadBinary(skip).ok());
  const std::vector<std::pair<std::string, size_t>> targets = {
      {"server/model_meta", 0}, {"session/0/state", skip.position()}};
  // Unparseable outright, and a right-dimension header over a bad body.
  const std::vector<std::string> blobs = {
      "garbage", std::to_string(model.state_dim) + "\nnot-a-number\n"};

  TuningServer server;
  ASSERT_TRUE(server.AdoptModel(SharedTrainedTuner()).ok());
  Dispatcher dispatcher(&server);
  for (const auto& [target, offset] : targets) {
    for (const std::string& blob : blobs) {
      persist::ChunkWriter writer;
      for (const std::string& name : original->Names()) {
        std::string payload(*original->Get(name));
        if (name == target) payload = WithCollectorBlob(payload, offset, blob);
        writer.Add(name, std::move(payload));
      }
      auto bytes = writer.Finish();
      ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
      ASSERT_TRUE(persist::AtomicWriteFile(path, *bytes).ok());

      const std::string restored =
          dispatcher.Dispatch("RESTORE path=" + path).response;
      EXPECT_EQ(restored.rfind("ERR DATA_LOSS", 0), 0u)
          << target << ": " << restored;
      EXPECT_EQ(dispatcher.Dispatch("PING").response, "OK pong=1");
    }
  }
  // The failed restores applied nothing: the server still tunes.
  const std::string opened =
      dispatcher.Dispatch("OPEN engine=sim seed=5 steps=1").response;
  ASSERT_EQ(opened.rfind("OK id=0", 0), 0u) << opened;
  EXPECT_EQ(dispatcher.Dispatch("STEP id=0").response.rfind("OK", 0), 0u);
  RemoveGenerations(path);
}

// Regression: a best offline action one knob short, behind valid CRCs, used
// to restore fine and then abort the daemon at the session's best-known
// step. The shared model reader accepts only an empty action or exactly
// action_dim, so RESTORE answers kDataLoss and the server keeps serving.
TEST(CheckpointTest, WrongLengthBestActionFailsRestoreWithDataLoss) {
  const std::string path = CheckpointPath("best_action");
  RemoveGenerations(path);
  {
    TuningServer donor;
    ASSERT_TRUE(donor.AdoptModel(SharedTrainedTuner()).ok());
    ASSERT_TRUE(donor.SaveCheckpoint(path).ok());
  }
  auto original = persist::ChunkFile::Parse(FileBytes(path));
  ASSERT_TRUE(original.ok()) << original.status().ToString();
  std::string collector;
  std::vector<double> best_action;
  ASSERT_TRUE(original->Decode("server/model_meta", [&](persist::Decoder& dec) {
    if (!dec.ReadString(&collector) || !dec.ReadDoubleVec(&best_action)) {
      return dec.status();
    }
    return util::Status::Ok();
  }).ok());
  ASSERT_EQ(best_action.size(),
            SharedTrainedTuner().agent().options().action_dim);
  best_action.pop_back();

  persist::ChunkWriter writer;
  for (const std::string& name : original->Names()) {
    std::string payload(*original->Get(name));
    if (name == "server/model_meta") {
      persist::Encoder enc;
      enc.WriteString(collector);
      enc.WriteDoubleVec(best_action);
      payload = enc.Release();
    }
    writer.Add(name, std::move(payload));
  }
  auto bytes = writer.Finish();
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  ASSERT_TRUE(persist::AtomicWriteFile(path, *bytes).ok());

  TuningServer server;
  ASSERT_TRUE(server.AdoptModel(SharedTrainedTuner()).ok());
  Dispatcher dispatcher(&server);
  const std::string restored =
      dispatcher.Dispatch("RESTORE path=" + path).response;
  EXPECT_EQ(restored.rfind("ERR DATA_LOSS", 0), 0u) << restored;
  EXPECT_EQ(dispatcher.Dispatch("PING").response, "OK pong=1");
  // Step 2 spends the best-known action: the step that used to abort.
  const std::string opened =
      dispatcher.Dispatch("OPEN engine=sim seed=5 steps=3").response;
  ASSERT_EQ(opened.rfind("OK id=0", 0), 0u) << opened;
  EXPECT_EQ(dispatcher.Dispatch("STEP id=0").response.rfind("OK", 0), 0u);
  EXPECT_EQ(dispatcher.Dispatch("STEP id=0").response.rfind("OK", 0), 0u);
  RemoveGenerations(path);
}

TEST(CheckpointTest, RestoreRefusesWithOpenSessions) {
  const std::string path = CheckpointPath("busy");
  RemoveGenerations(path);
  TuningServer donor;
  ASSERT_TRUE(donor.AdoptModel(SharedTrainedTuner()).ok());
  ASSERT_TRUE(donor.Open(TestSpecs(1)[0]).ok());
  ASSERT_TRUE(donor.SaveCheckpoint(path).ok());
  // The donor itself still has a live session; restoring over it would
  // destroy in-flight state.
  auto report = donor.RestoreCheckpoint(path);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), util::StatusCode::kFailedPrecondition);
  RemoveGenerations(path);
}

TEST(CheckpointTest, RebuildWarmStartsResizedAgent) {
  TuningServer server;
  ASSERT_TRUE(server.AdoptModel(SharedTrainedTuner()).ok());
  std::vector<int> ids;
  for (const SessionSpec& spec : TestSpecs(2)) {
    auto id = server.Open(spec);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  while (true) {
    auto stepped = server.StepRound();
    ASSERT_TRUE(stepped.ok());
    if (*stepped == 0) break;
  }
  for (int id : ids) ASSERT_TRUE(server.Close(id).ok());

  RebuildSpec spec;
  spec.actor_hidden = {24, 16};
  spec.seed = 99;
  spec.train_iters = 5;
  auto report = server.Rebuild(spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->experiences, 0u) << "warm start saw no replayed data";
  EXPECT_NE(report->params_after, report->params_before);

  // The rebuilt agent serves immediately: same state/action dims, new body.
  std::vector<double> state(
      SharedTrainedTuner().agent().options().state_dim, 0.0);
  EXPECT_TRUE(server.Recommend(state).ok());
  auto id = server.Open(TestSpecs(1)[0]);
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(server.Step(*id).ok());
}

TEST(DispatchTest, CheckpointVerbs) {
  const std::string path = CheckpointPath("dispatch");
  RemoveGenerations(path);
  TuningServer server;
  ASSERT_TRUE(server.AdoptModel(SharedTrainedTuner()).ok());
  Dispatcher dispatcher(&server);
  EXPECT_EQ(dispatcher.Dispatch("SAVE").response.rfind("ERR", 0), 0u);
  EXPECT_EQ(dispatcher.Dispatch("RESTORE").response.rfind("ERR", 0), 0u);
  EXPECT_EQ(
      dispatcher.Dispatch("REBUILD actor_hidden=12-x").response.rfind("ERR", 0),
      0u);

  std::string opened =
      dispatcher
          .Dispatch("OPEN engine=sim workload=sysbench_rw seed=31 steps=2")
          .response;
  ASSERT_EQ(opened.rfind("OK id=0", 0), 0u) << opened;
  ASSERT_EQ(dispatcher.Dispatch("STEP id=0").response.rfind("OK", 0), 0u);
  std::string saved = dispatcher.Dispatch("SAVE path=" + path).response;
  EXPECT_EQ(saved.rfind("OK path=", 0), 0u) << saved;

  std::string rebuilt =
      dispatcher.Dispatch("REBUILD actor_hidden=24-16 seed=5 train=2").response;
  EXPECT_EQ(rebuilt.rfind("OK experiences=", 0), 0u) << rebuilt;
  EXPECT_NE(rebuilt.find("params_after="), std::string::npos);

  // A fresh server restores the whole world from the file: model plus the
  // mid-flight session, which then finishes over the same protocol.
  TuningServer resumed;
  Dispatcher resumed_dispatcher(&resumed);
  std::string restored =
      resumed_dispatcher.Dispatch("RESTORE path=" + path).response;
  EXPECT_EQ(restored.rfind("OK path=", 0), 0u) << restored;
  EXPECT_NE(restored.find("sessions=1"), std::string::npos) << restored;
  std::string status = resumed_dispatcher.Dispatch("STATUS id=0").response;
  EXPECT_NE(status.find("phase=TUNING"), std::string::npos) << status;
  EXPECT_EQ(resumed_dispatcher.Dispatch("STEP id=0").response.rfind("OK", 0),
            0u);
  EXPECT_EQ(resumed_dispatcher.Dispatch("CLOSE id=0").response.rfind("OK", 0),
            0u);

  EXPECT_EQ(
      resumed_dispatcher.Dispatch("RESTORE path=/nonexistent/ck").response
          .rfind("ERR", 0),
      0u);
  RemoveGenerations(path);
}

}  // namespace
}  // namespace cdbtune::server
