#include "rl/dqn.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace cdbtune::rl {

using nn::Matrix;

DqnAgent::DqnAgent(DqnOptions options)
    : options_(std::move(options)),
      rng_(options_.seed),
      q_net_(BuildNet()),
      target_net_(BuildNet()) {
  target_net_.CopyParamsFrom(q_net_);
  opt_ = std::make_unique<nn::Adam>(q_net_.Params(), options_.learning_rate);
  replay_ = std::make_unique<UniformReplay>(options_.replay_capacity);
}

nn::Sequential DqnAgent::BuildNet() {
  nn::Sequential net;
  size_t in = options_.state_dim;
  for (size_t width : options_.hidden) {
    net.Add(std::make_unique<nn::Linear>(in, width, rng_,
                                         nn::InitScheme::kXavierUniform));
    net.Add(std::make_unique<nn::Relu>());
    in = width;
  }
  net.Add(std::make_unique<nn::Linear>(in, num_actions(), rng_,
                                       nn::InitScheme::kXavierUniform));
  return net;
}

size_t DqnAgent::SelectAction(const std::vector<double>& state, bool explore) {
  if (explore && rng_.Bernoulli(options_.epsilon)) {
    return static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(num_actions()) - 1));
  }
  Matrix q = q_net_.Infer(Matrix::RowVector(state));
  size_t best = 0;
  for (size_t a = 1; a < num_actions(); ++a) {
    if (q.at(0, a) > q.at(0, best)) best = a;
  }
  return best;
}

std::vector<double> DqnAgent::ApplyAction(const std::vector<double>& knobs,
                                          size_t action) const {
  CDBTUNE_CHECK(knobs.size() == options_.num_knobs) << "knob count mismatch";
  CDBTUNE_CHECK(action < num_actions()) << "action index out of range";
  std::vector<double> out = knobs;
  if (action == 2 * options_.num_knobs) return out;  // no-op
  size_t knob = action / 2;
  double delta = (action % 2 == 0) ? options_.knob_step : -options_.knob_step;
  out[knob] = std::clamp(out[knob] + delta, 0.0, 1.0);
  return out;
}

void DqnAgent::Observe(Transition transition) {
  CDBTUNE_CHECK(transition.action.size() == 1)
      << "DQN transitions carry a single action index";
  replay_->Add(std::move(transition));
}

double DqnAgent::TrainStep() {
  const size_t batch = options_.batch_size;
  if (replay_->size() < batch) return 0.0;
  SampleBatch sample = replay_->Sample(batch, rng_);

  Matrix states(batch, options_.state_dim);
  Matrix next_states(batch, options_.state_dim);
  for (size_t i = 0; i < batch; ++i) {
    states.SetRow(i, sample.items[i]->state);
    next_states.SetRow(i, sample.items[i]->next_state);
  }

  Matrix next_q = target_net_.Infer(next_states);
  q_net_.ZeroGrad();
  Matrix q = q_net_.Forward(states, /*training=*/true);

  // Only the taken action's Q receives gradient.
  Matrix grad(batch, num_actions());
  double loss = 0.0;
  for (size_t i = 0; i < batch; ++i) {
    const Transition& t = *sample.items[i];
    size_t a = static_cast<size_t>(t.action[0]);
    double max_next = next_q.at(i, 0);
    for (size_t j = 1; j < num_actions(); ++j) {
      max_next = std::max(max_next, next_q.at(i, j));
    }
    double target = t.reward + (t.terminal ? 0.0 : options_.gamma * max_next);
    double diff = q.at(i, a) - target;
    loss += diff * diff;
    grad.at(i, a) = 2.0 * diff / static_cast<double>(batch);
  }
  loss /= static_cast<double>(batch);
  q_net_.Backward(grad, /*param_grads=*/true, nn::kNoInputGrad);
  opt_->ClipGradNorm(5.0);
  opt_->Step();

  if (++steps_ % options_.target_sync_every == 0) {
    target_net_.CopyParamsFrom(q_net_);
  }
  return loss;
}

void DqnAgent::DecayEpsilon() {
  options_.epsilon =
      std::max(options_.epsilon_min, options_.epsilon * options_.epsilon_decay);
}

}  // namespace cdbtune::rl
