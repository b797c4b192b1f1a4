#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "nn/layer.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "util/random.h"

namespace cdbtune::nn {
namespace {

/// Checks analytic input gradients of `net` against central differences on
/// a scalar loss L = sum(output). Layers with stochastic behavior must be
/// run in deterministic (eval) mode by the caller.
void CheckInputGradient(Sequential& net, const Matrix& input, bool training,
                        double tolerance = 1e-6) {
  Matrix out = net.Forward(input, training);
  Matrix ones(out.rows(), out.cols(), 1.0);
  net.ZeroGrad();
  Matrix analytic = net.Backward(ones);

  const double eps = 1e-6;
  Matrix x = input;
  for (size_t r = 0; r < x.rows(); ++r) {
    for (size_t c = 0; c < x.cols(); ++c) {
      double saved = x.at(r, c);
      x.at(r, c) = saved + eps;
      double plus = net.Forward(x, training).Sum();
      x.at(r, c) = saved - eps;
      double minus = net.Forward(x, training).Sum();
      x.at(r, c) = saved;
      double numeric = (plus - minus) / (2 * eps);
      EXPECT_NEAR(analytic.at(r, c), numeric, tolerance)
          << "at (" << r << "," << c << ")";
    }
  }
}

/// Checks analytic parameter gradients against central differences.
void CheckParamGradients(Sequential& net, const Matrix& input, bool training,
                         double tolerance = 1e-6) {
  net.ZeroGrad();
  Matrix out = net.Forward(input, training);
  Matrix ones(out.rows(), out.cols(), 1.0);
  net.Backward(ones);

  const double eps = 1e-6;
  for (Parameter* p : net.Params()) {
    for (size_t r = 0; r < p->value.rows(); ++r) {
      for (size_t c = 0; c < p->value.cols(); ++c) {
        double saved = p->value.at(r, c);
        p->value.at(r, c) = saved + eps;
        double plus = net.Forward(input, training).Sum();
        p->value.at(r, c) = saved - eps;
        double minus = net.Forward(input, training).Sum();
        p->value.at(r, c) = saved;
        double numeric = (plus - minus) / (2 * eps);
        EXPECT_NEAR(p->grad.at(r, c), numeric, tolerance)
            << p->name << " (" << r << "," << c << ")";
      }
    }
  }
}

TEST(LinearTest, ForwardMatchesManualComputation) {
  util::Rng rng(1);
  Linear layer(2, 2, rng);
  // Overwrite weights with known values.
  auto params = layer.Params();
  params[0]->value = Matrix{{1, 2}, {3, 4}};   // weight (in x out)
  params[1]->value = Matrix{{10, 20}};         // bias
  Matrix x = {{1, 1}};
  Matrix y = layer.Forward(x, false);
  EXPECT_DOUBLE_EQ(y.at(0, 0), 1 * 1 + 1 * 3 + 10);
  EXPECT_DOUBLE_EQ(y.at(0, 1), 1 * 2 + 1 * 4 + 20);
}

TEST(LinearTest, GradientCheck) {
  util::Rng rng(2);
  Sequential net;
  net.Add(std::make_unique<Linear>(3, 4, rng, InitScheme::kXavierUniform));
  Matrix x = Matrix::RandomGaussian(5, 3, 0.0, 1.0, rng);
  CheckInputGradient(net, x, false);
  CheckParamGradients(net, x, false);
}

TEST(ActivationTest, ReluGradientCheck) {
  util::Rng rng(3);
  Sequential net;
  net.Add(std::make_unique<Linear>(3, 3, rng, InitScheme::kXavierUniform));
  net.Add(std::make_unique<Relu>());
  Matrix x = Matrix::RandomGaussian(4, 3, 0.5, 1.0, rng);
  CheckInputGradient(net, x, false, 1e-5);
}

TEST(ActivationTest, LeakyReluForwardAndGradient) {
  LeakyRelu layer(0.2);
  Matrix x = {{-10.0, 5.0}};
  Matrix y = layer.Forward(x, false);
  EXPECT_DOUBLE_EQ(y.at(0, 0), -2.0);
  EXPECT_DOUBLE_EQ(y.at(0, 1), 5.0);
  Matrix g = layer.Backward(Matrix(1, 2, 1.0));
  EXPECT_DOUBLE_EQ(g.at(0, 0), 0.2);
  EXPECT_DOUBLE_EQ(g.at(0, 1), 1.0);
}

TEST(ActivationTest, TanhGradientCheck) {
  util::Rng rng(4);
  Sequential net;
  net.Add(std::make_unique<Tanh>());
  Matrix x = Matrix::RandomGaussian(3, 4, 0.0, 1.5, rng);
  CheckInputGradient(net, x, false);
}

TEST(ActivationTest, SigmoidBoundsAndGradient) {
  util::Rng rng(5);
  Sequential net;
  net.Add(std::make_unique<Sigmoid>());
  Matrix x = Matrix::RandomGaussian(3, 4, 0.0, 2.0, rng);
  Matrix y = net.Forward(x, false);
  for (size_t r = 0; r < y.rows(); ++r) {
    for (size_t c = 0; c < y.cols(); ++c) {
      EXPECT_GT(y.at(r, c), 0.0);
      EXPECT_LT(y.at(r, c), 1.0);
    }
  }
  CheckInputGradient(net, x, false);
}

TEST(BatchNormTest, NormalizesBatchInTraining) {
  BatchNorm bn(3);
  util::Rng rng(6);
  Matrix x = Matrix::RandomGaussian(64, 3, 5.0, 2.0, rng);
  Matrix y = bn.Forward(x, true);
  Matrix mean = y.MeanRows();
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_NEAR(mean.at(0, c), 0.0, 1e-9);
  }
  // Per-feature variance ~1.
  for (size_t c = 0; c < 3; ++c) {
    double var = 0;
    for (size_t r = 0; r < y.rows(); ++r) var += y.at(r, c) * y.at(r, c);
    var /= static_cast<double>(y.rows());
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(BatchNormTest, RunningStatsConvergeAndDriveEval) {
  BatchNorm bn(1);
  util::Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    Matrix x = Matrix::RandomGaussian(32, 1, 4.0, 1.0, rng);
    bn.Forward(x, true);
  }
  EXPECT_NEAR(bn.running_mean().at(0, 0), 4.0, 0.2);
  EXPECT_NEAR(bn.running_var().at(0, 0), 1.0, 0.2);
  // In eval mode an input equal to the running mean maps to ~beta (0).
  Matrix probe(1, 1, 4.0);
  Matrix y = bn.Forward(probe, false);
  EXPECT_NEAR(y.at(0, 0), 0.0, 0.25);
}

TEST(BatchNormTest, TrainingGradientCheck) {
  util::Rng rng(8);
  Sequential net;
  net.Add(std::make_unique<BatchNorm>(3));
  Matrix x = Matrix::RandomGaussian(6, 3, 1.0, 2.0, rng);
  CheckInputGradient(net, x, true, 1e-5);
  CheckParamGradients(net, x, true, 1e-5);
}

TEST(BatchNormTest, EvalGradientCheck) {
  util::Rng rng(9);
  Sequential net;
  net.Add(std::make_unique<BatchNorm>(2));
  // Populate running stats first.
  net.Forward(Matrix::RandomGaussian(32, 2, 0.0, 1.0, rng), true);
  Matrix x = Matrix::RandomGaussian(4, 2, 0.0, 1.0, rng);
  CheckInputGradient(net, x, false);
}

TEST(DropoutTest, EvalModeIsIdentity) {
  util::Rng rng(10);
  Dropout layer(0.5, rng);
  Matrix x = Matrix::RandomGaussian(4, 4, 0.0, 1.0, rng);
  Matrix y = layer.Forward(x, false);
  for (size_t i = 0; i < x.rows(); ++i) {
    for (size_t j = 0; j < x.cols(); ++j) {
      EXPECT_DOUBLE_EQ(y.at(i, j), x.at(i, j));
    }
  }
}

TEST(DropoutTest, TrainingPreservesExpectation) {
  util::Rng rng(11);
  Dropout layer(0.3, rng);
  Matrix x(2000, 1, 1.0);
  Matrix y = layer.Forward(x, true);
  EXPECT_NEAR(y.MeanRows().at(0, 0), 1.0, 0.07);
}

TEST(DropoutTest, BackwardUsesSameMask) {
  util::Rng rng(12);
  Dropout layer(0.5, rng);
  Matrix x(1, 100, 1.0);
  Matrix y = layer.Forward(x, true);
  Matrix g = layer.Backward(Matrix(1, 100, 1.0));
  for (size_t c = 0; c < 100; ++c) {
    EXPECT_DOUBLE_EQ(g.at(0, c), y.at(0, c));  // Both equal mask value.
  }
}

TEST(ParallelLinearTest, SplitsInputCorrectly) {
  util::Rng rng(13);
  ParallelLinear layer(2, 3, 4, 5, rng);
  Matrix x = Matrix::RandomGaussian(2, 6, 0.0, 1.0, rng);
  Matrix y = layer.Forward(x, false);
  EXPECT_EQ(y.rows(), 2u);
  EXPECT_EQ(y.cols(), 8u);  // 3 + 5.
  EXPECT_EQ(layer.Params().size(), 4u);
}

TEST(ParallelLinearTest, GradientCheck) {
  util::Rng rng(14);
  Sequential net;
  net.Add(std::make_unique<ParallelLinear>(3, 4, 2, 4, rng,
                                           InitScheme::kXavierUniform));
  net.Add(std::make_unique<Tanh>());
  Matrix x = Matrix::RandomGaussian(4, 5, 0.0, 1.0, rng);
  CheckInputGradient(net, x, false);
  CheckParamGradients(net, x, false);
}

TEST(SequentialTest, CompositeGradientCheck) {
  // An actor-shaped stack (minus dropout): the full backward path.
  util::Rng rng(15);
  Sequential net;
  net.Add(std::make_unique<Linear>(4, 8, rng, InitScheme::kXavierUniform));
  net.Add(std::make_unique<LeakyRelu>(0.2));
  net.Add(std::make_unique<BatchNorm>(8));
  net.Add(std::make_unique<Linear>(8, 6, rng, InitScheme::kXavierUniform));
  net.Add(std::make_unique<Tanh>());
  net.Add(std::make_unique<Linear>(6, 2, rng, InitScheme::kXavierUniform));
  net.Add(std::make_unique<Sigmoid>());
  Matrix x = Matrix::RandomGaussian(5, 4, 0.0, 1.0, rng);
  CheckInputGradient(net, x, true, 1e-5);
  CheckParamGradients(net, x, true, 1e-5);
}

TEST(SequentialTest, MseLossValueAndGradient) {
  Matrix pred = {{1.0, 2.0}};
  Matrix target = {{0.0, 4.0}};
  Matrix grad;
  double loss = MseLoss(pred, target, &grad);
  EXPECT_DOUBLE_EQ(loss, (1.0 + 4.0) / 2.0);
  EXPECT_DOUBLE_EQ(grad.at(0, 0), 2.0 * 1.0 / 2.0);
  EXPECT_DOUBLE_EQ(grad.at(0, 1), 2.0 * -2.0 / 2.0);
}

TEST(SequentialTest, CopyAndSoftUpdate) {
  util::Rng rng(16);
  auto build = [&rng]() {
    Sequential net;
    net.Add(std::make_unique<Linear>(2, 2, rng));
    return net;
  };
  Sequential a = build();
  Sequential b = build();
  b.CopyParamsFrom(a);
  EXPECT_DOUBLE_EQ(b.Params()[0]->value.at(0, 0), a.Params()[0]->value.at(0, 0));

  // Soft update: b' = tau*a + (1-tau)*b; with identical nets it's a no-op.
  double before = b.Params()[0]->value.at(0, 0);
  b.SoftUpdateFrom(a, 0.1);
  EXPECT_DOUBLE_EQ(b.Params()[0]->value.at(0, 0), before);
  // Perturb a; b moves 10% toward it.
  a.Params()[0]->value.at(0, 0) = before + 1.0;
  b.SoftUpdateFrom(a, 0.1);
  EXPECT_NEAR(b.Params()[0]->value.at(0, 0), before + 0.1, 1e-12);
}

TEST(SequentialTest, SaveLoadRoundTrip) {
  util::Rng rng(17);
  auto build = [&rng]() {
    Sequential net;
    net.Add(std::make_unique<Linear>(3, 4, rng));
    net.Add(std::make_unique<BatchNorm>(4));
    net.Add(std::make_unique<Linear>(4, 1, rng));
    return net;
  };
  Sequential original = build();
  // Push some data through so BatchNorm running stats are non-trivial.
  original.Forward(Matrix::RandomGaussian(16, 3, 2.0, 1.0, rng), true);

  persist::Encoder enc;
  original.SaveBinary(enc);
  Sequential restored = build();
  persist::Decoder dec(enc.bytes());
  ASSERT_TRUE(restored.LoadBinary(dec).ok());
  EXPECT_TRUE(dec.Done());

  // The binary format is bit-exact: eval outputs match exactly.
  Matrix probe = Matrix::RandomGaussian(4, 3, 0.0, 1.0, rng);
  Matrix y1 = original.Forward(probe, false);
  Matrix y2 = restored.Forward(probe, false);
  for (size_t r = 0; r < y1.rows(); ++r) {
    EXPECT_EQ(y1.at(r, 0), y2.at(r, 0));
  }
}

TEST(SequentialTest, NumParametersCountsEverything) {
  util::Rng rng(18);
  Sequential net;
  net.Add(std::make_unique<Linear>(10, 5, rng));  // 50 + 5
  net.Add(std::make_unique<BatchNorm>(5));        // 5 + 5
  EXPECT_EQ(net.NumParameters(), 65u);
}

TEST(SequentialTest, LoadRejectsWrongArchitecture) {
  util::Rng rng(30);
  Sequential a;
  a.Add(std::make_unique<Linear>(2, 3, rng));
  persist::Encoder enc;
  a.SaveBinary(enc);
  Sequential b;
  b.Add(std::make_unique<Linear>(2, 3, rng));
  b.Add(std::make_unique<Tanh>());
  persist::Decoder dec(enc.bytes());
  util::Status loaded = b.LoadBinary(dec);
  EXPECT_EQ(loaded.code(), util::StatusCode::kDataLoss) << loaded.ToString();
  EXPECT_NE(loaded.message().find("layers"), std::string::npos)
      << loaded.ToString();
}

TEST(SequentialTest, CopyStateIncludesBatchNormBuffers) {
  util::Rng rng(32);
  auto build = [&rng]() {
    Sequential net;
    net.Add(std::make_unique<BatchNorm>(2));
    return net;
  };
  Sequential a = build();
  a.Forward(Matrix::RandomGaussian(64, 2, 3.0, 1.0, rng), true);
  Sequential b = build();
  b.CopyStateFrom(a);
  Matrix probe(1, 2, 3.0);
  Matrix ya = a.Forward(probe, false);
  Matrix yb = b.Forward(probe, false);
  EXPECT_DOUBLE_EQ(ya.at(0, 0), yb.at(0, 0));
  // Params-only copy would have missed the running statistics.
  Sequential c = build();
  c.CopyParamsFrom(a);
  Matrix yc = c.Forward(probe, false);
  EXPECT_NE(ya.at(0, 0), yc.at(0, 0));
}

TEST(OptimizerTest, SgdStepMath) {
  util::Rng rng(19);
  Sequential net;
  net.Add(std::make_unique<Linear>(1, 1, rng));
  auto params = net.Params();
  params[0]->value.at(0, 0) = 1.0;
  params[0]->grad.at(0, 0) = 2.0;
  params[1]->value.at(0, 0) = 0.0;
  params[1]->grad.at(0, 0) = 0.0;
  Sgd sgd(params, 0.1, 0.9);
  sgd.Step();
  EXPECT_NEAR(params[0]->value.at(0, 0), 1.0 - 0.1 * 2.0, 1e-12);
  sgd.Step();  // Momentum: v = 0.9*(-0.2) - 0.1*2 = -0.38.
  EXPECT_NEAR(params[0]->value.at(0, 0), 0.8 - 0.38, 1e-12);
}

TEST(OptimizerTest, AdamFirstStepIsLrSizedSignedStep) {
  util::Rng rng(20);
  Sequential net;
  net.Add(std::make_unique<Linear>(1, 1, rng));
  auto params = net.Params();
  params[0]->value.at(0, 0) = 1.0;
  params[0]->grad.at(0, 0) = 123.0;  // Magnitude irrelevant on step one.
  Adam adam(params, 0.01);
  adam.Step();
  EXPECT_NEAR(params[0]->value.at(0, 0), 1.0 - 0.01, 1e-6);
}

TEST(OptimizerTest, GradClipScalesGlobalNorm) {
  util::Rng rng(21);
  Sequential net;
  net.Add(std::make_unique<Linear>(1, 2, rng));
  auto params = net.Params();
  params[0]->grad.at(0, 0) = 3.0;
  params[0]->grad.at(0, 1) = 4.0;  // Norm 5 across this parameter.
  params[1]->grad = Matrix(1, 2, 0.0);
  Sgd sgd(params, 0.1);
  sgd.ClipGradNorm(1.0);
  EXPECT_NEAR(params[0]->grad.at(0, 0), 0.6, 1e-12);
  EXPECT_NEAR(params[0]->grad.at(0, 1), 0.8, 1e-12);
}

TEST(TrainingTest, LearnsLinearRegression) {
  util::Rng rng(22);
  Sequential net;
  net.Add(std::make_unique<Linear>(2, 1, rng, InitScheme::kXavierUniform));
  Adam opt(net.Params(), 0.05);
  // Target function y = 3a - 2b + 1.
  Matrix x(64, 2);
  Matrix y(64, 1);
  for (size_t i = 0; i < 64; ++i) {
    double a = rng.Uniform(-1, 1), b = rng.Uniform(-1, 1);
    x.SetRow(i, {a, b});
    y.at(i, 0) = 3 * a - 2 * b + 1;
  }
  double loss = 0;
  for (int epoch = 0; epoch < 300; ++epoch) {
    net.ZeroGrad();
    Matrix pred = net.Forward(x, true);
    Matrix grad;
    loss = MseLoss(pred, y, &grad);
    net.Backward(grad);
    opt.Step();
  }
  EXPECT_LT(loss, 1e-4);
}

TEST(TrainingTest, LearnsXorWithHiddenLayer) {
  util::Rng rng(23);
  Sequential net;
  net.Add(std::make_unique<Linear>(2, 8, rng, InitScheme::kXavierUniform));
  net.Add(std::make_unique<Tanh>());
  net.Add(std::make_unique<Linear>(8, 1, rng, InitScheme::kXavierUniform));
  net.Add(std::make_unique<Sigmoid>());
  Adam opt(net.Params(), 0.05);
  Matrix x = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  Matrix y = {{0}, {1}, {1}, {0}};
  for (int epoch = 0; epoch < 2000; ++epoch) {
    net.ZeroGrad();
    Matrix pred = net.Forward(x, true);
    Matrix grad;
    MseLoss(pred, y, &grad);
    net.Backward(grad);
    opt.Step();
  }
  Matrix pred = net.Forward(x, false);
  EXPECT_LT(pred.at(0, 0), 0.2);
  EXPECT_GT(pred.at(1, 0), 0.8);
  EXPECT_GT(pred.at(2, 0), 0.8);
  EXPECT_LT(pred.at(3, 0), 0.2);
}

// --- Infer: the const, cache-free eval forward -------------------------------

void ExpectBitwiseEqual(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
}

/// Every parameter's gradient of `a` equals `b`'s bit for bit.
void ExpectSameGrads(Sequential& a, Sequential& b) {
  std::vector<Parameter*> pa = a.Params();
  std::vector<Parameter*> pb = b.Params();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    SCOPED_TRACE("param " + std::to_string(i) + " " + pa[i]->name);
    ExpectBitwiseEqual(pa[i]->grad, pb[i]->grad);
  }
}

/// Paper Table 5 actor (63 -> #Knobs = 266) on its own Rng.
Sequential Table5Actor(util::Rng& rng) {
  Sequential net;
  net.Add(std::make_unique<Linear>(63, 128, rng));
  net.Add(std::make_unique<LeakyRelu>(0.2));
  net.Add(std::make_unique<BatchNorm>(128));
  net.Add(std::make_unique<Linear>(128, 128, rng));
  net.Add(std::make_unique<Tanh>());
  net.Add(std::make_unique<Dropout>(0.3, rng));
  net.Add(std::make_unique<Linear>(128, 128, rng));
  net.Add(std::make_unique<Tanh>());
  net.Add(std::make_unique<Linear>(128, 64, rng));
  net.Add(std::make_unique<Tanh>());
  net.Add(std::make_unique<Linear>(64, 266, rng));
  net.Add(std::make_unique<Sigmoid>());
  return net;
}

/// Paper Table 5 critic over [63 state | 266 action] columns.
Sequential Table5Critic(util::Rng& rng) {
  Sequential net;
  net.Add(std::make_unique<ParallelLinear>(63, 128, 266, 128, rng,
                                           InitScheme::kGaussian001));
  net.Add(std::make_unique<Linear>(256, 256, rng, InitScheme::kGaussian001));
  net.Add(std::make_unique<LeakyRelu>(0.2));
  net.Add(std::make_unique<BatchNorm>(256));
  net.Add(std::make_unique<Dropout>(0.3, rng));
  net.Add(std::make_unique<Linear>(256, 64, rng, InitScheme::kGaussian001));
  net.Add(std::make_unique<Tanh>());
  net.Add(std::make_unique<Linear>(64, 1, rng, InitScheme::kGaussian001));
  return net;
}

/// A few training-mode forwards so BatchNorm's running statistics are far
/// from their (0, 1) initial values.
void TrainRunningStats(Sequential& net, size_t in, util::Rng& rng) {
  for (int i = 0; i < 5; ++i) {
    net.Forward(Matrix::RandomGaussian(32, in, 0.7, 1.3, rng), true);
  }
}

TEST(InferTest, EqualsEvalForwardForEveryLayerType) {
  util::Rng rng(41);
  auto batch_norm = std::make_unique<BatchNorm>(5);
  for (int i = 0; i < 4; ++i) {
    batch_norm->Forward(Matrix::RandomGaussian(16, 5, 2.0, 3.0, rng), true);
  }
  ASSERT_NE(batch_norm->running_mean().at(0, 0), 0.0);
  std::vector<std::unique_ptr<Layer>> layers;
  layers.push_back(std::make_unique<Linear>(5, 5, rng));
  layers.push_back(std::make_unique<Relu>());
  layers.push_back(std::make_unique<LeakyRelu>(0.2));
  layers.push_back(std::make_unique<Tanh>());
  layers.push_back(std::make_unique<Sigmoid>());
  layers.push_back(std::move(batch_norm));
  layers.push_back(std::make_unique<ParallelLinear>(2, 3, 3, 2, rng));
  layers.push_back(std::make_unique<Dropout>(0.3, rng));
  for (size_t rows : {size_t{1}, size_t{7}}) {
    Matrix x = Matrix::RandomGaussian(rows, 5, 0.0, 2.0, rng);
    for (auto& layer : layers) {
      SCOPED_TRACE(layer->Name() + " rows=" + std::to_string(rows));
      const Layer& frozen = *layer;
      Matrix inferred = frozen.Infer(x);
      ExpectBitwiseEqual(inferred, layer->Forward(x, /*training=*/false));
    }
  }
}

TEST(InferTest, EqualsEvalForwardForTable5Networks) {
  util::Rng rng(42);
  Sequential actor = Table5Actor(rng);
  Sequential critic = Table5Critic(rng);
  TrainRunningStats(actor, 63, rng);
  TrainRunningStats(critic, 63 + 266, rng);
  for (size_t rows : {size_t{1}, size_t{64}}) {
    SCOPED_TRACE("rows=" + std::to_string(rows));
    Matrix states = Matrix::RandomGaussian(rows, 63, 0.0, 1.0, rng);
    ExpectBitwiseEqual(actor.Infer(states), actor.Forward(states, false));
    Matrix actions = Matrix::RandomUniform(rows, 266, 0.0, 1.0, rng);
    Matrix input = states.ConcatCols(actions);
    ExpectBitwiseEqual(critic.Infer(input), critic.Forward(input, false));
  }
}

TEST(InferTest, InterleavedInferLeavesBackwardCachesUntouched) {
  // Two identical actors (same seeds, so dropout draws the same masks): one
  // runs Forward -> Backward, the other Forward -> Infer -> Backward. An
  // Infer that touched a cache would change the second one's gradients.
  util::Rng rng_a(43), rng_b(43), data(44);
  Sequential a = Table5Actor(rng_a);
  Sequential b = Table5Actor(rng_b);
  TrainRunningStats(a, 63, rng_a);
  TrainRunningStats(b, 63, rng_b);
  Matrix x = Matrix::RandomGaussian(32, 63, 0.0, 1.0, data);
  Matrix probe = Matrix::RandomGaussian(5, 63, 1.0, 2.0, data);
  Matrix g = Matrix::RandomGaussian(32, 266, 0.0, 1.0, data);
  for (bool training : {true, false}) {
    SCOPED_TRACE(training ? "training forward" : "eval forward");
    a.ZeroGrad();
    b.ZeroGrad();
    a.Forward(x, training);
    b.Forward(x, training);
    b.Infer(probe);
    ExpectBitwiseEqual(a.Backward(g), b.Backward(g));
    ExpectSameGrads(a, b);
  }
}

TEST(BackwardTest, TrimmedInputGradientIsBitwiseTheFullOnesTail) {
  // Sequential::Backward(g, param_grads, first_input_col) must accumulate
  // the same parameter gradients and return exactly the trailing columns of
  // the full input gradient, whether the first layer is a Linear (actor) or
  // a ParallelLinear (critic), for every cut a layer accepts: none, all, and
  // the critic's state/action split.
  util::Rng data(45);
  struct Case {
    bool critic;
    size_t first_col;
  };
  const Case cases[] = {{false, 0}, {false, kNoInputGrad}, {true, 0},
                        {true, 63}, {true, kNoInputGrad}};
  for (const Case& c : cases) {
    for (bool param_grads : {true, false}) {
      SCOPED_TRACE(std::string(c.critic ? "critic" : "actor") + " from " +
                   std::to_string(c.first_col) +
                   (param_grads ? " +params" : " input-only"));
      util::Rng rng_a(46), rng_b(46);
      Sequential a = c.critic ? Table5Critic(rng_a) : Table5Actor(rng_a);
      Sequential b = c.critic ? Table5Critic(rng_b) : Table5Actor(rng_b);
      const size_t in = c.critic ? 63 + 266 : 63;
      const size_t out = c.critic ? 1 : 266;
      Matrix x = Matrix::RandomGaussian(32, in, 0.0, 1.0, data);
      Matrix g = Matrix::RandomGaussian(32, out, 0.0, 1.0, data);
      a.ZeroGrad();
      b.ZeroGrad();
      a.Forward(x, true);
      b.Forward(x, true);
      Matrix full = a.Backward(g, param_grads);
      Matrix trimmed = b.Backward(g, param_grads, c.first_col);
      Matrix head, tail;
      full.SplitCols(std::min(c.first_col, in), &head, &tail);
      ExpectBitwiseEqual(trimmed, tail);
      ExpectSameGrads(a, b);
    }
  }
}

TEST(BackwardDeathTest, TrimAtAColumnNoLayerSplitsAtDies) {
  // The child re-executes the binary: a forked one would find no compute
  // pool threads behind the backward's GEMMs.
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  util::Rng rng(46);
  Sequential critic = Table5Critic(rng);
  Matrix x = Matrix::RandomGaussian(4, 63 + 266, 0.0, 1.0, rng);
  critic.Forward(x, true);
  Matrix g(4, 1, 1.0);
  EXPECT_DEATH(critic.Backward(g, /*param_grads=*/true, 20),
               "ParallelLinear cannot trim its input gradient at column 20");
}

}  // namespace
}  // namespace cdbtune::nn
