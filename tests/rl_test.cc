#include <cmath>
#include <map>
#include <thread>
#include <tuple>
#include <vector>

#include "gtest/gtest.h"
#include "rl/ddpg.h"
#include "rl/dqn.h"
#include "rl/noise.h"
#include "rl/qlearning.h"
#include "rl/replay.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace cdbtune::rl {
namespace {

Transition MakeTransition(double reward, size_t state_dim = 2,
                          size_t action_dim = 0) {
  if (action_dim == 0) action_dim = state_dim;
  Transition t;
  t.state.assign(state_dim, reward);
  t.action.assign(action_dim, 0.5);
  t.reward = reward;
  t.next_state.assign(state_dim, reward + 1);
  return t;
}

// --- UniformReplay -----------------------------------------------------------

TEST(UniformReplayTest, RingBufferOverwritesOldest) {
  UniformReplay replay(3);
  for (int i = 0; i < 5; ++i) replay.Add(MakeTransition(i));
  EXPECT_EQ(replay.size(), 3u);
  // Sample many times; rewards must come only from {2, 3, 4}.
  util::Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    SampleBatch batch = replay.Sample(2, rng);
    for (const Transition* t : batch.items) {
      EXPECT_GE(t->reward, 2.0);
    }
  }
}

TEST(UniformReplayTest, WeightsAreUnit) {
  UniformReplay replay(10);
  replay.Add(MakeTransition(1));
  util::Rng rng(2);
  SampleBatch batch = replay.Sample(4, rng);
  EXPECT_EQ(batch.items.size(), 4u);
  for (double w : batch.weights) EXPECT_DOUBLE_EQ(w, 1.0);
}

// --- PrioritizedReplay ---------------------------------------------------------

TEST(PrioritizedReplayTest, TotalPriorityTracksAdds) {
  PrioritizedReplay replay(8, /*alpha=*/1.0);
  EXPECT_DOUBLE_EQ(replay.TotalPriority(), 0.0);
  replay.Add(MakeTransition(1));
  replay.Add(MakeTransition(2));
  EXPECT_GT(replay.TotalPriority(), 0.0);
  EXPECT_EQ(replay.size(), 2u);
}

TEST(PrioritizedReplayTest, HighPriorityItemsSampledMoreOften) {
  PrioritizedReplay replay(4, /*alpha=*/1.0);
  for (int i = 0; i < 4; ++i) replay.Add(MakeTransition(i));
  // Give item 0 an enormous TD error and the rest tiny ones.
  replay.UpdatePriorities({0, 1, 2, 3}, {100.0, 0.001, 0.001, 0.001});
  util::Rng rng(3);
  std::map<size_t, int> histogram;
  for (int i = 0; i < 200; ++i) {
    SampleBatch batch = replay.Sample(4, rng);
    for (size_t idx : batch.indices) ++histogram[idx];
  }
  EXPECT_GT(histogram[0], histogram[1] * 5);
  EXPECT_GT(histogram[0], histogram[2] * 5);
}

TEST(PrioritizedReplayTest, ImportanceWeightsNormalizedToMaxOne) {
  PrioritizedReplay replay(8, 0.6, 0.4);
  for (int i = 0; i < 8; ++i) replay.Add(MakeTransition(i));
  replay.UpdatePriorities({0, 1}, {50.0, 0.01});
  util::Rng rng(4);
  SampleBatch batch = replay.Sample(8, rng);
  double max_w = 0;
  for (double w : batch.weights) {
    EXPECT_GT(w, 0.0);
    EXPECT_LE(w, 1.0 + 1e-12);
    max_w = std::max(max_w, w);
  }
  EXPECT_NEAR(max_w, 1.0, 1e-12);
}

TEST(PrioritizedReplayTest, OverwriteKeepsTreeConsistent) {
  PrioritizedReplay replay(4, 1.0);
  for (int i = 0; i < 12; ++i) replay.Add(MakeTransition(i));
  EXPECT_EQ(replay.size(), 4u);
  util::Rng rng(5);
  SampleBatch batch = replay.Sample(8, rng);
  for (const Transition* t : batch.items) {
    EXPECT_GE(t->reward, 8.0);  // Only the last four survive.
  }
}

TEST(PrioritizedReplayTest, BatchSampleIsThreadCountInvariant) {
  // Sample() draws all priorities from the caller's rng up front, then
  // partitions the sum-tree walks over the compute pool — so the batch must
  // be bitwise identical at any CDBTUNE_THREADS setting.
  auto run = [](size_t threads) {
    util::ComputeContext::Get().SetThreads(threads);
    PrioritizedReplay replay(64, 0.6, 0.4);
    for (int i = 0; i < 50; ++i) replay.Add(MakeTransition(i));
    std::vector<size_t> indices;
    std::vector<double> errors;
    for (size_t i = 0; i < 50; ++i) {
      indices.push_back(i);
      errors.push_back(0.01 + 0.37 * static_cast<double>(i % 7));
    }
    replay.UpdatePriorities(indices, errors);
    util::Rng rng(123);
    SampleBatch batch = replay.Sample(32, rng);
    std::vector<double> rewards;
    for (const Transition* t : batch.items) rewards.push_back(t->reward);
    util::ComputeContext::Get().SetThreads(0);
    return std::make_tuple(batch.indices, batch.weights, rewards);
  };
  auto solo = run(1);
  auto pooled = run(4);
  EXPECT_EQ(std::get<0>(solo), std::get<0>(pooled));
  EXPECT_EQ(std::get<1>(solo), std::get<1>(pooled));
  EXPECT_EQ(std::get<2>(solo), std::get<2>(pooled));
}

TEST(PrioritizedReplayTest, BetaAnnealing) {
  PrioritizedReplay replay(4, 0.6, 0.4);
  EXPECT_DOUBLE_EQ(replay.beta(), 0.4);
  replay.set_beta(1.0);
  EXPECT_DOUBLE_EQ(replay.beta(), 1.0);
}

// --- Noise -----------------------------------------------------------------------

TEST(NoiseTest, OrnsteinUhlenbeckIsTemporallyCorrelated) {
  OrnsteinUhlenbeckNoise noise(1, 0.15, 0.2, util::Rng(6));
  // Consecutive samples should be closer than independent draws.
  double consecutive = 0.0;
  std::vector<double> samples;
  for (int i = 0; i < 2000; ++i) samples.push_back(noise.Sample()[0]);
  for (size_t i = 1; i < samples.size(); ++i) {
    consecutive += std::fabs(samples[i] - samples[i - 1]);
  }
  consecutive /= static_cast<double>(samples.size() - 1);
  GaussianActionNoise iid(1, 0.2, util::Rng(7));
  double independent = 0.0;
  double prev = iid.Sample()[0];
  for (int i = 0; i < 2000; ++i) {
    double x = iid.Sample()[0];
    independent += std::fabs(x - prev);
    prev = x;
  }
  independent /= 2000.0;
  EXPECT_LT(consecutive, independent);
}

TEST(NoiseTest, DecayAndReset) {
  OrnsteinUhlenbeckNoise noise(2, 0.15, 0.2, util::Rng(8));
  noise.Decay(0.5);
  EXPECT_DOUBLE_EQ(noise.sigma(), 0.1);
  noise.Reset();
  EXPECT_DOUBLE_EQ(noise.sigma(), 0.2);
}

TEST(NoiseTest, GaussianScalesWithSigma) {
  GaussianActionNoise noise(1, 1.0, util::Rng(9));
  util::RunningStat stat;
  for (int i = 0; i < 5000; ++i) stat.Add(noise.Sample()[0]);
  EXPECT_NEAR(stat.stddev(), 1.0, 0.05);
  noise.Decay(0.1);
  util::RunningStat small;
  for (int i = 0; i < 5000; ++i) small.Add(noise.Sample()[0]);
  EXPECT_NEAR(small.stddev(), 0.1, 0.01);
}

TEST(NoiseTest, InstancesAreIndependentStreams) {
  // Session-affecting state must be per-instance: interleaving two noise
  // generators cannot perturb either one's sequence (the multi-session
  // server relies on this — each tenant owns its own OU process).
  OrnsteinUhlenbeckNoise solo_a(3, 0.15, 0.2, util::Rng(10));
  std::vector<std::vector<double>> expect_a;
  for (int i = 0; i < 64; ++i) expect_a.push_back(solo_a.Sample());
  OrnsteinUhlenbeckNoise solo_b(3, 0.15, 0.2, util::Rng(11));
  std::vector<std::vector<double>> expect_b;
  for (int i = 0; i < 64; ++i) expect_b.push_back(solo_b.Sample());

  OrnsteinUhlenbeckNoise a(3, 0.15, 0.2, util::Rng(10));
  OrnsteinUhlenbeckNoise b(3, 0.15, 0.2, util::Rng(11));
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(a.Sample(), expect_a[i]) << "draw " << i;
    EXPECT_EQ(b.Sample(), expect_b[i]) << "draw " << i;
  }
}

// --- DDPG ------------------------------------------------------------------------

DdpgOptions SmallDdpg(size_t state = 4, size_t action = 3) {
  DdpgOptions o;
  o.state_dim = state;
  o.action_dim = action;
  o.actor_hidden = {16, 16};
  o.critic_embed = 16;
  o.critic_hidden = {16};
  o.batch_size = 8;
  o.replay_capacity = 512;
  return o;
}

TEST(DdpgTest, ActionsInUnitCube) {
  DdpgAgent agent(SmallDdpg());
  std::vector<double> state{0.1, -0.5, 2.0, 0.0};
  for (bool explore : {false, true}) {
    for (int i = 0; i < 20; ++i) {
      auto action = agent.SelectAction(state, explore);
      ASSERT_EQ(action.size(), 3u);
      for (double a : action) {
        EXPECT_GE(a, 0.0);
        EXPECT_LE(a, 1.0);
      }
    }
  }
}

TEST(DdpgTest, DeterministicWithoutExploration) {
  DdpgAgent agent(SmallDdpg());
  std::vector<double> state{1, 2, 3, 4};
  auto a1 = agent.SelectAction(state, false);
  auto a2 = agent.SelectAction(state, false);
  EXPECT_EQ(a1, a2);
}

TEST(DdpgTest, TrainStepNoopUntilBatchAvailable) {
  DdpgAgent agent(SmallDdpg());
  TrainStats stats = agent.TrainStep();
  EXPECT_DOUBLE_EQ(stats.critic_loss, 0.0);
  agent.Observe(MakeTransition(1.0, 4, 3));
  stats = agent.TrainStep();
  EXPECT_DOUBLE_EQ(stats.critic_loss, 0.0);
}

TEST(DdpgTest, PaperArchitectureParameterCount) {
  // Table 5: actor 63 -> 128/128/128/64 -> 266; critic parallel 128+128 ->
  // 256 -> 64 -> 1. Verify the construction wires those shapes.
  DdpgOptions o;
  o.state_dim = 63;
  o.action_dim = 266;
  DdpgAgent agent(o);
  size_t actor =
      (63 * 128 + 128) + 2 * 128 +          // Linear + BatchNorm(gamma/beta)
      (128 * 128 + 128) + (128 * 128 + 128) +
      (128 * 64 + 64) + (64 * 266 + 266);
  size_t critic = (63 * 128 + 128) + (266 * 128 + 128) +  // parallel
                  (256 * 256 + 256) + 2 * 256 +           // trunk + BN
                  (256 * 64 + 64) + (64 * 1 + 1);
  EXPECT_EQ(agent.NumParameters(), actor + critic);
}

TEST(DdpgTest, LearnsContextualBandit) {
  // Reward = 1 - ||action - target(state)||^2: the optimal policy maps each
  // of two states to its own target point.
  DdpgOptions o = SmallDdpg(2, 2);
  o.gamma = 0.0;  // Pure bandit.
  o.noise_sigma = 0.3;
  o.noise_decay = 0.999;
  o.actor_lr = 3e-3;  // Small problem; learn fast enough for a unit test.
  o.critic_lr = 3e-3;
  o.dropout_rate = 0.0;  // A 16-unit net has no capacity to spare.
  DdpgAgent agent(o);
  util::Rng rng(10);
  auto target = [](const std::vector<double>& s) {
    return s[0] > 0 ? std::vector<double>{0.8, 0.2}
                    : std::vector<double>{0.2, 0.8};
  };
  for (int step = 0; step < 3000; ++step) {
    std::vector<double> state =
        rng.Bernoulli(0.5) ? std::vector<double>{1.0, 0.0}
                           : std::vector<double>{-1.0, 0.0};
    auto action = agent.SelectAction(state, true);
    auto t = target(state);
    double d2 = 0;
    for (size_t i = 0; i < 2; ++i) {
      d2 += (action[i] - t[i]) * (action[i] - t[i]);
    }
    Transition tr;
    tr.state = state;
    tr.action = action;
    tr.reward = 1.0 - d2;
    tr.next_state = state;
    tr.terminal = true;
    agent.Observe(std::move(tr));
    agent.TrainStep();
    agent.DecayNoise();
  }
  auto a_pos = agent.SelectAction({1.0, 0.0}, false);
  auto a_neg = agent.SelectAction({-1.0, 0.0}, false);
  EXPECT_NEAR(a_pos[0], 0.8, 0.25);
  EXPECT_NEAR(a_neg[0], 0.2, 0.25);
  EXPECT_GT(a_pos[0], a_neg[0] + 0.2);
}

TEST(DdpgTest, ChunkRoundTripPreservesPolicy) {
  DdpgAgent agent(SmallDdpg());
  // Train a little so weights are non-initial.
  for (int i = 0; i < 20; ++i) agent.Observe(MakeTransition(i * 0.1, 4, 3));
  for (int i = 0; i < 5; ++i) agent.TrainStep();

  persist::ChunkWriter writer;
  agent.AppendChunks(writer);
  auto bytes = writer.Finish();
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  auto file = persist::ChunkFile::Parse(*std::move(bytes));
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  DdpgAgent restored(SmallDdpg());
  ASSERT_TRUE(restored.RestoreFromChunks(*file).ok());
  std::vector<double> state{0.3, 0.1, -0.2, 0.9};
  EXPECT_EQ(agent.SelectAction(state, false),
            restored.SelectAction(state, false));
}

TEST(DdpgTest, CloneWeightsMatchesPolicy) {
  DdpgAgent a(SmallDdpg());
  for (int i = 0; i < 20; ++i) a.Observe(MakeTransition(i * 0.1, 4, 3));
  for (int i = 0; i < 5; ++i) a.TrainStep();
  DdpgAgent b(SmallDdpg());
  b.CloneWeightsFrom(a);
  std::vector<double> state{1, 0, 0, 1};
  EXPECT_EQ(a.SelectAction(state, false), b.SelectAction(state, false));
  EXPECT_NEAR(a.EstimateQ(state, {0.5, 0.5, 0.5}),
              b.EstimateQ(state, {0.5, 0.5, 0.5}), 1e-12);
}

TEST(DdpgTest, ConcurrentConstSelectActionMatchesSerial) {
  // SelectAction(state, noise) is const and cache-free: four threads sharing
  // one agent (each with its own noise stream, as the tuning server's
  // sessions do) must get exactly the actions of the same calls made one at
  // a time. Paper-sized networks, with BatchNorm statistics moved off their
  // initial values by a few training steps.
  util::ComputeContext::Get().SetThreads(4);
  DdpgOptions options;
  options.seed = 17;
  DdpgAgent agent(options);
  util::Rng data(18);
  auto random_vector = [&data](size_t n) {
    std::vector<double> v(n);
    for (double& x : v) x = data.Gaussian(0.0, 1.0);
    return v;
  };
  for (int i = 0; i < 40; ++i) {
    Transition t;
    t.state = random_vector(options.state_dim);
    t.action.assign(options.action_dim, 0.25 + 0.01 * i);
    t.reward = data.Gaussian(0.0, 1.0);
    t.next_state = random_vector(options.state_dim);
    agent.Observe(std::move(t));
  }
  for (int i = 0; i < 3; ++i) agent.TrainStep();

  constexpr int kThreads = 4;
  constexpr int kCalls = 12;
  std::vector<std::vector<double>> states;
  for (int i = 0; i < kThreads * kCalls; ++i) {
    states.push_back(random_vector(options.state_dim));
  }
  const std::vector<double> probe_action(options.action_dim, 0.5);
  const DdpgAgent& shared = agent;
  // Thread t's calls: greedy on even i, exploring (own OU stream) on odd.
  auto run = [&](int t, std::vector<std::vector<double>>* actions,
                 std::vector<double>* q) {
    OrnsteinUhlenbeckNoise noise(options.action_dim, options.noise_theta,
                                 options.noise_sigma, util::Rng(100 + t));
    for (int i = 0; i < kCalls; ++i) {
      const std::vector<double>& state = states[t * kCalls + i];
      actions->push_back(
          shared.SelectAction(state, i % 2 == 1 ? &noise : nullptr));
      q->push_back(shared.EstimateQ(state, probe_action));
    }
  };
  std::vector<std::vector<std::vector<double>>> serial(kThreads);
  std::vector<std::vector<double>> serial_q(kThreads);
  for (int t = 0; t < kThreads; ++t) run(t, &serial[t], &serial_q[t]);

  std::vector<std::vector<std::vector<double>>> parallel(kThreads);
  std::vector<std::vector<double>> parallel_q(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(run, t, &parallel[t], &parallel_q[t]);
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(parallel[t], serial[t]) << "thread " << t;
    EXPECT_EQ(parallel_q[t], serial_q[t]) << "thread " << t;
  }
  util::ComputeContext::Get().SetThreads(0);
}

// --- DQN -----------------------------------------------------------------------

TEST(DqnTest, ActionSpaceAndApply) {
  DqnOptions o;
  o.state_dim = 2;
  o.num_knobs = 3;
  o.knob_step = 0.1;
  DqnAgent agent(o);
  EXPECT_EQ(agent.num_actions(), 7u);
  std::vector<double> knobs{0.5, 0.5, 0.95};
  auto up0 = agent.ApplyAction(knobs, 0);
  EXPECT_NEAR(up0[0], 0.6, 1e-12);
  auto down1 = agent.ApplyAction(knobs, 3);
  EXPECT_NEAR(down1[1], 0.4, 1e-12);
  auto up2_clamped = agent.ApplyAction(knobs, 4);
  EXPECT_NEAR(up2_clamped[2], 1.0, 1e-12);
  auto noop = agent.ApplyAction(knobs, 6);
  EXPECT_EQ(noop, knobs);
}

TEST(DqnTest, EpsilonDecaysToFloor) {
  DqnOptions o;
  o.epsilon = 1.0;
  o.epsilon_decay = 0.5;
  o.epsilon_min = 0.1;
  DqnAgent agent(o);
  for (int i = 0; i < 20; ++i) agent.DecayEpsilon();
  EXPECT_DOUBLE_EQ(agent.epsilon(), 0.1);
}

TEST(DqnTest, LearnsBanditPreference) {
  // Two actions dominate: knob0-up is always rewarded, others punished.
  DqnOptions o;
  o.state_dim = 2;
  o.num_knobs = 1;
  o.hidden = {16};
  o.epsilon_decay = 0.99;
  DqnAgent agent(o);
  std::vector<double> state{0.5, 0.5};
  for (int i = 0; i < 600; ++i) {
    size_t action = agent.SelectAction(state, true);
    Transition t;
    t.state = state;
    t.action = {static_cast<double>(action)};
    t.reward = action == 0 ? 1.0 : -1.0;
    t.next_state = state;
    t.terminal = true;
    agent.Observe(std::move(t));
    agent.TrainStep();
    agent.DecayEpsilon();
  }
  EXPECT_EQ(agent.SelectAction(state, false), 0u);
}

// --- Q-learning ---------------------------------------------------------------

TEST(QLearningTest, ConvergesOnChainMdp) {
  // Chain of 4 states; action 1 moves right (reward 1 at the end), action 0
  // stays. Optimal policy: always move right.
  QLearningAgent agent(4, 2, 0.2, 0.9, 0.3);
  util::Rng rng(11);
  for (int episode = 0; episode < 500; ++episode) {
    size_t s = 0;
    for (int step = 0; step < 10 && s < 3; ++step) {
      size_t a = agent.SelectAction(s, true);
      size_t next = a == 1 ? s + 1 : s;
      double r = next == 3 ? 1.0 : 0.0;
      agent.Update(s, a, r, next, next == 3);
      s = next;
    }
  }
  for (size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(agent.SelectAction(s, false), 1u) << "state " << s;
    EXPECT_GT(agent.q(s, 1), agent.q(s, 0));
  }
}

TEST(QLearningTest, EpsilonDecay) {
  QLearningAgent agent(2, 2, 0.1, 0.9, 1.0);
  agent.DecayEpsilon(0.5, 0.2);
  EXPECT_DOUBLE_EQ(agent.epsilon(), 0.5);
  for (int i = 0; i < 10; ++i) agent.DecayEpsilon(0.5, 0.2);
  EXPECT_DOUBLE_EQ(agent.epsilon(), 0.2);
}

TEST(GridDiscretizerTest, EncodeDecodeRoundTrip) {
  GridDiscretizer grid(3, 4);
  EXPECT_EQ(grid.NumCells(), 64u);
  std::vector<double> x{0.1, 0.6, 0.9};
  size_t cell = grid.Encode(x);
  ASSERT_LT(cell, 64u);
  std::vector<double> center = grid.Decode(cell);
  EXPECT_EQ(grid.Encode(center), cell);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(center[i], x[i], 0.25);  // Within one cell width.
  }
}

TEST(GridDiscretizerTest, BoundaryValues) {
  GridDiscretizer grid(2, 10);
  EXPECT_EQ(grid.Encode({0.0, 0.0}), 0u);
  EXPECT_EQ(grid.Encode({1.0, 1.0}), 99u);
  EXPECT_EQ(grid.Encode({-5.0, 2.0}), grid.Encode({0.0, 1.0}));
}

TEST(GridDiscretizerDeathTest, RefusesCombinatorialExplosion) {
  // The paper's argument: 63 metrics x 100 bins each = 100^63 states.
  EXPECT_DEATH(GridDiscretizer(63, 100), "Q-table explosion");
}

}  // namespace
}  // namespace cdbtune::rl
