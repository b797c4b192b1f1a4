#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "env/simulated_cdb.h"
#include "persist/atomic_file.h"
#include "persist/chunk.h"
#include "tuner/cdbtune.h"
#include "tuner/controller.h"
#include "tuner/memory_pool.h"
#include "tuner/metrics_collector.h"
#include "tuner/recommender.h"
#include "tuner/reward.h"

namespace cdbtune::tuner {
namespace {

// --- Reward function (Eqs. 4-7) -----------------------------------------------

TEST(RewardTest, MetricRewardMatchesEquation6) {
  // d0 > 0 branch: ((1+d0)^2 - 1) * |1 + dp|.
  EXPECT_NEAR(RewardFunction::MetricReward(0.5, 0.2, false),
              ((1.5 * 1.5) - 1.0) * 1.2, 1e-12);
  // d0 <= 0 branch: -((1-d0)^2 - 1) * |1 - dp|.
  EXPECT_NEAR(RewardFunction::MetricReward(-0.5, -0.2, false),
              -((1.5 * 1.5) - 1.0) * 1.2, 1e-12);
  // Zero change gives zero reward.
  EXPECT_DOUBLE_EQ(RewardFunction::MetricReward(0.0, 0.0, true), 0.0);
}

TEST(RewardTest, ClampRuleZeroesPositiveRewardAfterRegression) {
  // Overall progress positive but the last step regressed: CDBTune sets 0.
  EXPECT_DOUBLE_EQ(RewardFunction::MetricReward(0.5, -0.1, true), 0.0);
  // RF-C keeps the raw Eq. 6 value.
  EXPECT_GT(RewardFunction::MetricReward(0.5, -0.1, false), 0.0);
  // Negative overall progress is unaffected by the clamp flag.
  EXPECT_DOUBLE_EQ(RewardFunction::MetricReward(-0.5, -0.1, true),
                   RewardFunction::MetricReward(-0.5, -0.1, false));
}

TEST(RewardTest, ComputeBlendsThroughputAndLatency) {
  RewardFunction rf(RewardFunctionType::kCdbTune, 0.5, 0.5);
  rf.SetInitial({1000.0, 100.0});
  // Throughput doubled, latency halved, both monotone since prev.
  double r = rf.Compute({1500.0, 80.0}, {2000.0, 50.0});
  double dt0 = 1.0, dtp = (2000.0 - 1500.0) / 1500.0;
  double dl0 = 0.5, dlp = (-50.0 + 80.0) / 80.0;
  double expected = 0.5 * RewardFunction::MetricReward(dt0, dtp, true) +
                    0.5 * RewardFunction::MetricReward(dl0, dlp, true);
  EXPECT_NEAR(r, expected, 1e-12);
  EXPECT_GT(r, 0.0);
}

TEST(RewardTest, WorseThanInitialIsNegative) {
  RewardFunction rf;
  rf.SetInitial({1000.0, 100.0});
  EXPECT_LT(rf.Compute({900.0, 120.0}, {500.0, 300.0}), 0.0);
}

TEST(RewardTest, CoefficientsShiftSensitivity) {
  // Throughput up, latency up (mixed outcome): a throughput-weighted
  // function scores it higher than a latency-weighted one (Appendix C.1.2).
  PerfPoint initial{1000.0, 100.0};
  PerfPoint mixed{1500.0, 150.0};
  RewardFunction rt(RewardFunctionType::kCdbTune, 0.9, 0.1);
  RewardFunction rl(RewardFunctionType::kCdbTune, 0.1, 0.9);
  rt.SetInitial(initial);
  rl.SetInitial(initial);
  EXPECT_GT(rt.Compute(initial, mixed), rl.Compute(initial, mixed));
}

TEST(RewardTest, VariantsCollapseDeltasAsDocumented) {
  PerfPoint initial{1000.0, 100.0};
  PerfPoint prev{1400.0, 70.0};
  PerfPoint curr{1200.0, 90.0};  // Above initial, below previous.
  RewardFunction rf_a(RewardFunctionType::kPrevOnly);
  rf_a.SetInitial(initial);
  // RF-A only sees the regression vs. prev: negative reward.
  EXPECT_LT(rf_a.Compute(prev, curr), 0.0);

  RewardFunction rf_b(RewardFunctionType::kInitialOnly);
  rf_b.SetInitial(initial);
  // RF-B only sees the gain vs. initial: positive reward.
  EXPECT_GT(rf_b.Compute(prev, curr), 0.0);

  RewardFunction rf_cdb(RewardFunctionType::kCdbTune);
  rf_cdb.SetInitial(initial);
  // CDBTune: progress positive but last step regressed -> exactly zero.
  EXPECT_DOUBLE_EQ(rf_cdb.Compute(prev, curr), 0.0);
}

TEST(RewardTest, CrashRewardIsMinus100) {
  RewardFunction rf;
  EXPECT_DOUBLE_EQ(rf.crash_reward(), -100.0);
}

TEST(RewardDeathTest, RequiresValidInputs) {
  RewardFunction rf;
  EXPECT_DEATH(rf.Compute({1, 1}, {1, 1}), "SetInitial");
  EXPECT_DEATH(RewardFunction(RewardFunctionType::kCdbTune, 0.7, 0.7),
               "C_T \\+ C_L");
}

// --- MetricsCollector ------------------------------------------------------------

TEST(CollectorTest, GaugesAveragedCountersDifferenced) {
  MetricsCollector collector;
  env::StressResult result;
  result.duration_s = 10.0;
  result.before.fill(0.0);
  result.after.fill(0.0);
  result.after[0] = 500.0;                         // Gauge: passes through.
  result.before[env::kNumStateMetrics] = 100.0;    // Counter: differenced.
  result.after[env::kNumStateMetrics] = 400.0;
  std::vector<double> raw = collector.ProcessRaw(result);
  EXPECT_DOUBLE_EQ(raw[0], 500.0);
  EXPECT_DOUBLE_EQ(raw[env::kNumStateMetrics], 30.0);  // (400-100)/10 s.
}

TEST(CollectorTest, ProcessStandardizesOverTime) {
  MetricsCollector collector;
  env::StressResult result;
  result.duration_s = 1.0;
  util::Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    for (size_t m = 0; m < env::kNumInternalMetrics; ++m) {
      result.before[m] = 0;
      result.after[m] = rng.Gaussian(50.0, 10.0);
    }
    std::vector<double> state = collector.Process(result);
    EXPECT_EQ(state.size(), env::kNumInternalMetrics);
  }
  // After many observations, outputs are roughly standardized.
  for (size_t m = 0; m < env::kNumInternalMetrics; ++m) {
    result.after[m] = 50.0;
  }
  std::vector<double> centered = collector.Standardize(
      collector.ProcessRaw(result));
  for (double v : centered) EXPECT_LT(std::fabs(v), 1.0);
  EXPECT_EQ(collector.observations(), 200u);
}

// The statistics' bytes are part of v1 checkpoints (server/model_meta,
// session/*/state) and of model files: one length-prefixed string holding
// the standardizer's precision-17 text. Pin them exactly.
TEST(CollectorTest, BinaryEncodingIsThePrecision17Text) {
  MetricsCollector collector;
  env::StressResult result;
  result.duration_s = 1.0;
  result.before.fill(0.0);
  for (double v : {0.1, 0.7, 0.3}) {
    result.after.fill(v);
    collector.Process(result);
  }
  std::string text = std::to_string(env::kNumInternalMetrics) + "\n";
  for (size_t m = 0; m < env::kNumInternalMetrics; ++m) {
    text +=
        "3 0.3666666666666667 0.18666666666666665 0.10000000000000001 "
        "0.69999999999999996\n";
  }
  persist::Encoder want;
  want.WriteString(text);
  persist::Encoder got;
  collector.SaveBinary(got);
  EXPECT_EQ(got.bytes(), want.bytes());

  MetricsCollector restored;
  persist::Decoder dec(got.bytes());
  ASSERT_TRUE(restored.LoadBinary(dec).ok());
  EXPECT_TRUE(dec.Done());
  persist::Encoder again;
  restored.SaveBinary(again);
  EXPECT_EQ(again.bytes(), want.bytes());
}

TEST(CollectorTest, ToPerfPointUsesP99) {
  env::ExternalMetrics ext;
  ext.throughput_tps = 1234.0;
  ext.latency_p99_ms = 99.0;
  ext.latency_mean_ms = 10.0;
  PerfPoint p = MetricsCollector::ToPerfPoint(ext);
  EXPECT_DOUBLE_EQ(p.throughput, 1234.0);
  EXPECT_DOUBLE_EQ(p.latency, 99.0);
}

// --- MemoryPool -------------------------------------------------------------------

TEST(MemoryPoolTest, StoresAndFeeds) {
  MemoryPool pool;
  for (int i = 0; i < 5; ++i) {
    Experience e;
    e.transition.state = {1.0};
    e.transition.action = {0.5};
    e.transition.next_state = {2.0};
    e.transition.reward = i;
    e.from_user_request = i % 2 == 0;
    pool.Add(e);
  }
  EXPECT_EQ(pool.size(), 5u);
  EXPECT_EQ(pool.user_request_count(), 3u);
  rl::UniformReplay replay(16);
  pool.FeedInto(replay);
  EXPECT_EQ(replay.size(), 5u);
  pool.Clear();
  EXPECT_EQ(pool.size(), 0u);
}

// --- Recommender -------------------------------------------------------------------

TEST(RecommenderTest, RendersOnlyChangedActiveKnobs) {
  knobs::KnobRegistry reg = knobs::BuildMysqlCatalog();
  auto bp = *reg.FindIndex("innodb_buffer_pool_size");
  auto flush = *reg.FindIndex("innodb_flush_log_at_trx_commit");
  knobs::KnobSpace space(&reg, {bp, flush});
  Recommender rec(&space);

  knobs::Config base = reg.DefaultConfig();
  knobs::Config config = base;
  config[bp] = 1024.0 * 1024 * 1024;
  config[flush] = 2;
  auto commands = rec.RenderCommands(config, base);
  ASSERT_EQ(commands.size(), 2u);
  EXPECT_EQ(commands[0],
            "SET GLOBAL innodb_buffer_pool_size = 1073741824;");
  EXPECT_EQ(commands[1], "SET GLOBAL innodb_flush_log_at_trx_commit = 2;");
  // Unchanged config renders nothing.
  EXPECT_TRUE(rec.RenderCommands(base, base).empty());
}

TEST(RecommenderTest, BuildConfigRoundTrip) {
  knobs::KnobRegistry reg = knobs::BuildMysqlCatalog();
  knobs::KnobSpace space = knobs::KnobSpace::AllTunable(&reg);
  Recommender rec(&space);
  knobs::Config base = reg.DefaultConfig();
  std::vector<double> action(space.action_dim(), 0.5);
  knobs::Config config = rec.BuildConfig(action, base);
  EXPECT_EQ(config.size(), reg.size());
}

// --- CdbTuner ---------------------------------------------------------------------

CdbTuneOptions FastOptions() {
  CdbTuneOptions o;
  o.max_offline_steps = 60;
  o.steps_per_episode = 10;
  o.online_max_steps = 5;
  o.seed = 5;
  return o;
}

/// FastOptions with narrow networks, for tests that only need a model's
/// bytes to be non-trivial.
CdbTuneOptions SmallModelOptions() {
  CdbTuneOptions o = FastOptions();
  o.ddpg.actor_hidden = {16, 16};
  o.ddpg.critic_embed = 16;
  o.ddpg.critic_hidden = {16};
  o.ddpg.batch_size = 8;
  return o;
}

/// The tuner's whole model record (agent, collector statistics, best
/// action); equal bytes mean bitwise-equal models.
std::string ModelBytes(CdbTuner& tuner) {
  persist::ChunkWriter writer;
  AppendModelChunks(writer, tuner.agent(), tuner.collector(),
                    tuner.best_offline_action());
  auto bytes = writer.Finish();
  EXPECT_TRUE(bytes.ok());
  return *bytes;
}

/// Replaces the server/model_meta chunk of `prefix`.model with `payload`.
/// Every CRC is recomputed, so only the model reader's own checks stand
/// between the payload and the tuner.
void RewriteModelMeta(const std::string& prefix, const std::string& payload) {
  auto bytes = persist::ReadFile(prefix + ".model");
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  auto file = persist::ChunkFile::Parse(*std::move(bytes));
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  persist::ChunkWriter writer;
  for (const std::string& name : file->Names()) {
    writer.Add(name, name == "server/model_meta"
                         ? payload
                         : std::string(*file->Get(name)));
  }
  auto rebuilt = writer.Finish();
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  ASSERT_TRUE(persist::AtomicWriteFile(prefix + ".model", *rebuilt).ok());
}

TEST(CdbTunerTest, OfflineTrainingProducesHistory) {
  auto db = env::SimulatedCdb::MysqlCdb(env::CdbA(), 3);
  auto space = knobs::KnobSpace::AllTunable(&db->registry());
  CdbTuner tuner(db.get(), space, FastOptions());
  OfflineTrainResult result = tuner.OfflineTrain(workload::SysbenchReadWrite());
  EXPECT_EQ(result.iterations, 60);
  EXPECT_EQ(result.history.size(), 60u);
  EXPECT_GT(result.initial.throughput, 0.0);
  EXPECT_GE(result.best.throughput, result.initial.throughput * 0.99);
  EXPECT_EQ(tuner.memory_pool().size(), 60u);
  EXPECT_FALSE(tuner.best_offline_action().empty());
}

TEST(CdbTunerTest, OnlineTuneRespectsStepBudgetAndDeploysBest) {
  auto db = env::SimulatedCdb::MysqlCdb(env::CdbA(), 4);
  auto space = knobs::KnobSpace::AllTunable(&db->registry());
  CdbTuner tuner(db.get(), space, FastOptions());
  tuner.OfflineTrain(workload::SysbenchReadWrite());
  db->Reset();
  OnlineTuneResult result = tuner.OnlineTune(workload::SysbenchReadWrite());
  EXPECT_LE(result.steps, 5);
  EXPECT_GE(result.best.throughput, result.initial.throughput * 0.99);
  // The instance is left on the best configuration.
  EXPECT_EQ(db->current_config(), result.best_config);
}

TEST(CdbTunerTest, ScoreWeighsBothMetrics) {
  auto db = env::SimulatedCdb::MysqlCdb(env::CdbA());
  auto space = knobs::KnobSpace::AllTunable(&db->registry());
  CdbTuner tuner(db.get(), space, FastOptions());
  PerfPoint initial{1000.0, 100.0};
  EXPECT_DOUBLE_EQ(tuner.Score(initial, initial), 1.0);
  EXPECT_DOUBLE_EQ(tuner.Score(initial, {2000.0, 50.0}), 0.5 * 2 + 0.5 * 2);
  EXPECT_GT(tuner.Score(initial, {1500.0, 100.0}),
            tuner.Score(initial, {1000.0, 100.0}));
}

TEST(CdbTunerTest, CrashesAreRecordedAndPenalized) {
  auto db = env::SimulatedCdb::MysqlCdb(env::CdbA(), 6);
  auto space = knobs::KnobSpace::AllTunable(&db->registry());
  CdbTuneOptions o = FastOptions();
  o.max_offline_steps = 120;
  o.ddpg.noise_sigma = 0.5;  // Aggressive exploration: crashes will happen.
  o.random_action_prob = 0.8;
  CdbTuner tuner(db.get(), space, o);
  OfflineTrainResult result = tuner.OfflineTrain(workload::SysbenchReadWrite());
  EXPECT_GT(result.crashes, 0);
  bool found_crash_reward = false;
  for (const StepRecord& r : result.history) {
    if (r.crashed) {
      EXPECT_DOUBLE_EQ(r.reward, -100.0);
      found_crash_reward = true;
    }
  }
  EXPECT_TRUE(found_crash_reward);
}

TEST(CdbTunerTest, SetDatabaseEnablesCrossTesting) {
  auto train_db = env::SimulatedCdb::MysqlCdb(env::CdbA(), 7);
  auto tune_db = env::SimulatedCdb::MysqlCdb(env::MakeInstance("X1", 32, 100), 8);
  auto space = knobs::KnobSpace::AllTunable(&train_db->registry());
  CdbTuner tuner(train_db.get(), space, FastOptions());
  tuner.OfflineTrain(workload::SysbenchWriteOnly());
  tuner.SetDatabase(tune_db.get());
  OnlineTuneResult result = tuner.OnlineTune(workload::SysbenchWriteOnly());
  EXPECT_GT(result.initial.throughput, 0.0);
  EXPECT_GE(result.best.throughput, result.initial.throughput * 0.99);
}

TEST(CdbTunerTest, RewardClipBoundsHistory) {
  auto db = env::SimulatedCdb::MysqlCdb(env::CdbA(), 9);
  auto space = knobs::KnobSpace::AllTunable(&db->registry());
  CdbTuneOptions o = FastOptions();
  o.reward_clip = 5.0;
  CdbTuner tuner(db.get(), space, o);
  OfflineTrainResult result = tuner.OfflineTrain(workload::SysbenchReadWrite());
  for (const StepRecord& r : result.history) {
    if (!r.crashed) {
      EXPECT_GE(r.reward, -5.0);
      EXPECT_LE(r.reward, 5.0);
    }
  }
}

TEST(CdbTunerTest, SaveLoadModelRoundTrip) {
  auto db = env::SimulatedCdb::MysqlCdb(env::CdbA(), 12);
  auto space = knobs::KnobSpace::AllTunable(&db->registry());
  CdbTuner trained(db.get(), space, FastOptions());
  trained.OfflineTrain(workload::SysbenchReadWrite());
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "cdbtune_model_dir";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string prefix = (dir / "model").string();
  ASSERT_TRUE(trained.SaveModel(prefix).ok());
  // One file holds the whole model.
  std::vector<std::string> written;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    written.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(written, std::vector<std::string>{"model.model"});

  auto db2 = env::SimulatedCdb::MysqlCdb(env::CdbA(), 12);
  CdbTuner restored(db2.get(), space, FastOptions());
  ASSERT_TRUE(restored.LoadModel(prefix).ok());
  // Identical policies, normalization and best-experience memory.
  std::vector<double> state(env::kNumInternalMetrics, 0.2);
  EXPECT_EQ(trained.agent().SelectAction(state, false),
            restored.agent().SelectAction(state, false));
  EXPECT_EQ(ModelBytes(restored), ModelBytes(trained));
  // The restored model serves a tuning request.
  db2->Reset();
  auto result = restored.OnlineTune(workload::SysbenchReadWrite());
  EXPECT_GE(result.best.throughput, result.initial.throughput * 0.99);
  std::filesystem::remove_all(dir);
}

TEST(CdbTunerTest, LoadModelRejectsMalformedCollectorStatisticsUntouched) {
  auto db = env::SimulatedCdb::MysqlCdb(env::CdbA(), 15);
  auto space = knobs::KnobSpace::AllTunable(&db->registry());
  CdbTuner trained(db.get(), space, SmallModelOptions());
  trained.OfflineTrain(workload::SysbenchReadWrite());
  const std::string prefix = ::testing::TempDir() + "/cdbtune_bad_collector";

  auto db2 = env::SimulatedCdb::MysqlCdb(env::CdbA(), 15);
  CdbTuner victim(db2.get(), space, SmallModelOptions());
  const std::string before = ModelBytes(victim);

  // Valid weights beside collector statistics that are garbage: a Status,
  // not an abort, and neither the agent nor the collector moves.
  const std::string bad_blobs[] = {
      "garbage\n",
      std::to_string(env::kNumInternalMetrics) + "\nnot-a-number\n"};
  for (const std::string& blob : bad_blobs) {
    ASSERT_TRUE(trained.SaveModel(prefix).ok());
    persist::Encoder meta;
    meta.WriteString(blob);
    meta.WriteDoubleVec(trained.best_offline_action());
    RewriteModelMeta(prefix, meta.Release());
    util::Status loaded = victim.LoadModel(prefix);
    EXPECT_EQ(loaded.code(), util::StatusCode::kDataLoss) << loaded.ToString();
    EXPECT_EQ(ModelBytes(victim), before);
  }
  std::remove((prefix + ".model").c_str());
}

// Regression: a best action of the wrong length used to load and then abort
// OnlineTune at the best-known step. LoadModel must answer kDataLoss.
TEST(CdbTunerTest, LoadModelRejectsWrongLengthBestActionUntouched) {
  auto db = env::SimulatedCdb::MysqlCdb(env::CdbA(), 16);
  auto space = knobs::KnobSpace::AllTunable(&db->registry());
  CdbTuner trained(db.get(), space, SmallModelOptions());
  trained.OfflineTrain(workload::SysbenchReadWrite());
  ASSERT_EQ(trained.best_offline_action().size(), space.action_dim());
  const std::string prefix = ::testing::TempDir() + "/cdbtune_bad_action";

  auto db2 = env::SimulatedCdb::MysqlCdb(env::CdbA(), 16);
  CdbTuner victim(db2.get(), space, SmallModelOptions());
  const std::string before = ModelBytes(victim);

  for (size_t length : {space.action_dim() - 1, space.action_dim() + 1}) {
    ASSERT_TRUE(trained.SaveModel(prefix).ok());
    persist::Encoder meta;
    trained.collector().SaveBinary(meta);
    meta.WriteDoubleVec(std::vector<double>(length, 0.5));
    RewriteModelMeta(prefix, meta.Release());
    util::Status loaded = victim.LoadModel(prefix);
    EXPECT_EQ(loaded.code(), util::StatusCode::kDataLoss) << loaded.ToString();
    EXPECT_EQ(ModelBytes(victim), before);
  }
  // The victim still serves a tuning request through its best-known step.
  db2->Reset();
  EXPECT_GE(victim.OnlineTune(workload::SysbenchReadWrite()).steps, 2);
  std::remove((prefix + ".model").c_str());
}

TEST(CdbTunerTest, LoadModelMissingFileFails) {
  auto db = env::SimulatedCdb::MysqlCdb(env::CdbA(), 13);
  auto space = knobs::KnobSpace::AllTunable(&db->registry());
  CdbTuner tuner(db.get(), space, FastOptions());
  EXPECT_EQ(tuner.LoadModel("/nonexistent/path/model").code(),
            util::StatusCode::kNotFound);
}

TEST(CdbTunerTest, BootstrapFromPoolFeedsReplay) {
  auto db = env::SimulatedCdb::MysqlCdb(env::CdbA(), 14);
  auto space = knobs::KnobSpace::AllTunable(&db->registry());
  CdbTuner first(db.get(), space, FastOptions());
  first.OfflineTrain(workload::SysbenchReadWrite());
  ASSERT_GT(first.memory_pool().size(), 0u);

  CdbTuner second(db.get(), space, FastOptions());
  EXPECT_EQ(second.agent().replay_size(), 0u);
  second.BootstrapFromPool(first.memory_pool(), /*gradient_steps=*/10);
  EXPECT_EQ(second.agent().replay_size(), first.memory_pool().size());
}

// --- TuningController -----------------------------------------------------------

TEST(ControllerTest, TrainingAndTuningRequests) {
  auto db = env::SimulatedCdb::MysqlCdb(env::CdbA(), 10);
  CdbTuneOptions o = FastOptions();
  TuningController controller(db.get(), o);

  RequestSummary train =
      controller.HandleTrainingRequest(workload::SysbenchReadWrite());
  EXPECT_EQ(train.kind, "train");
  EXPECT_EQ(train.steps, o.max_offline_steps);
  EXPECT_GT(train.best_throughput, 0.0);

  db->Reset();
  RequestSummary tune =
      controller.HandleTuningRequest(workload::SysbenchReadWrite());
  EXPECT_EQ(tune.kind, "tune");
  EXPECT_LE(tune.steps, o.online_max_steps);
  EXPECT_GE(tune.best_throughput, tune.initial_throughput * 0.99);
  // A real recommendation changed at least one knob.
  EXPECT_FALSE(tune.commands.empty());
}

TEST(ControllerTest, TraceReplayRequest) {
  auto db = env::SimulatedCdb::MysqlCdb(env::CdbA(), 11);
  TuningController controller(db.get(), FastOptions());
  controller.HandleTrainingRequest(workload::SysbenchReadWrite());

  workload::OperationGenerator gen(workload::SysbenchReadWrite(), 10000,
                                   util::Rng(12));
  workload::Trace trace = workload::RecordTrace(gen, 200);
  db->Reset();
  RequestSummary summary = controller.HandleTuningRequest(trace);
  EXPECT_EQ(summary.kind, "tune");
  EXPECT_GT(summary.best_throughput, 0.0);
}

}  // namespace
}  // namespace cdbtune::tuner
