#ifndef CDBTUNE_NN_LAYER_H_
#define CDBTUNE_NN_LAYER_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/matrix.h"
#include "persist/encoding.h"
#include "util/random.h"
#include "util/status.h"

namespace cdbtune::nn {

/// Bit-exact binary matrix codec used by the checkpoint subsystem: u64
/// rows, u64 cols, then every element bit-cast through uint64_t.
void SaveMatrixBinary(persist::Encoder& enc, const Matrix& m);
util::Status LoadMatrixBinary(persist::Decoder& dec, Matrix* out);

/// A learnable tensor plus its accumulated gradient. Optimizers operate on
/// flat lists of these, collected from layers via Layer::Params().
struct Parameter {
  Matrix value;
  Matrix grad;
  std::string name;

  Parameter() = default;
  Parameter(Matrix v, std::string n)
      : value(std::move(v)), grad(value.rows(), value.cols()), name(std::move(n)) {}

  void ZeroGrad() { grad = Matrix(value.rows(), value.cols()); }
};

/// Weight initialization schemes. The paper (Table 4) initializes network
/// weights Uniform(-0.1, 0.1) and learnable critic parameters Normal(0, 0.01).
enum class InitScheme {
  kUniform01,      // U(-0.1, 0.1)
  kGaussian001,    // N(0, 0.01)
  kXavierUniform,  // U(+-sqrt(6/(fan_in+fan_out)))
};

/// `first_input_col` for Layer::BackwardFrom / Sequential::Backward when
/// the caller discards the whole input gradient.
inline constexpr size_t kNoInputGrad = static_cast<size_t>(-1);

/// Base class for all network layers.
///
/// The library uses explicit forward/backward (no autograd tape): Forward
/// caches whatever Backward needs; Backward receives dLoss/dOutput,
/// accumulates into each Parameter::grad, and returns dLoss/dInput.
/// A Forward must precede each Backward.
class Layer {
 public:
  virtual ~Layer() = default;

  /// `training` toggles BatchNorm batch statistics and Dropout masking.
  virtual Matrix Forward(const Matrix& input, bool training) = 0;
  /// Eval-mode forward that writes nothing: bitwise equal to
  /// Forward(input, /*training=*/false) (Forward's eval arithmetic calls
  /// into it), but no activation cache is touched, so any number of threads
  /// may Infer through one layer at once and an Infer between a Forward and
  /// its Backward changes nothing. For forwards no Backward follows.
  virtual Matrix Infer(const Matrix& input) const = 0;
  /// `param_grads = false` skips accumulation into Parameter::grad and only
  /// propagates dLoss/dInput — the DDPG actor update backpropagates through
  /// the critic without wanting critic gradients, and the weight-gradient
  /// GEMMs are the bulk of a backward pass. Every override declares the
  /// same default so the flag behaves identically through any static type.
  virtual Matrix Backward(const Matrix& grad_output,
                          bool param_grads = true) = 0;
  /// Backward for a network's first layer when the caller reads only input
  /// gradient columns [first_input_col, in): accumulates the same parameter
  /// gradients and returns just those columns. Every layer accepts 0 (the
  /// whole gradient) and kNoInputGrad (none); ParallelLinear also accepts
  /// its split point. Any other column dies. Linear layers skip the GEMM
  /// work for the unread columns.
  virtual Matrix BackwardFrom(const Matrix& grad_output, bool param_grads,
                              size_t first_input_col);

  /// Learnable parameters, if any. Pointers stay valid for the layer's life.
  virtual std::vector<Parameter*> Params() { return {}; }

  virtual std::string Name() const = 0;

  /// Persists learnable parameters AND internal buffers (e.g., BatchNorm
  /// running statistics) bit-exactly, so a reloaded model behaves
  /// identically in eval. LoadBinary validates shapes against the live
  /// layer and rejects mismatches instead of aborting, so a corrupt or
  /// foreign checkpoint surfaces as a Status the caller can fall back from.
  virtual void SaveBinary(persist::Encoder& enc) const;
  virtual util::Status LoadBinary(persist::Decoder& dec);
};

/// Fully connected layer: output = input * weight + bias.
class Linear : public Layer {
 public:
  Linear(size_t in_features, size_t out_features, util::Rng& rng,
         InitScheme init = InitScheme::kUniform01);

  Matrix Forward(const Matrix& input, bool training) override;
  Matrix Infer(const Matrix& input) const override;
  Matrix Backward(const Matrix& grad_output, bool param_grads = true) override;
  Matrix BackwardFrom(const Matrix& grad_output, bool param_grads,
                      size_t first_input_col) override;
  std::vector<Parameter*> Params() override { return {&weight_, &bias_}; }
  std::string Name() const override { return "Linear"; }

  size_t in_features() const { return weight_.value.rows(); }
  size_t out_features() const { return weight_.value.cols(); }

 private:
  /// dW += input^T * g and db += colsum(g), from the cached input.
  void AccumulateParamGrads(const Matrix& grad_output);

  Parameter weight_;  // in x out
  Parameter bias_;    // 1 x out
  Matrix input_cache_;
};

/// max(0, x).
class Relu : public Layer {
 public:
  Matrix Forward(const Matrix& input, bool training) override;
  Matrix Infer(const Matrix& input) const override;
  Matrix Backward(const Matrix& grad_output, bool param_grads = true) override;
  std::string Name() const override { return "Relu"; }

 private:
  /// Per-element gradient factor (1.0 where x > 0, else 0.0), derived once
  /// in Forward so Backward is a single contiguous Hadamard product. The
  /// buffer persists across steps and is only reallocated on shape change.
  Matrix mask_;
};

/// x for x > 0, slope * x otherwise. The paper's Table 5 lists "ReLU 0.2",
/// i.e., a leaky ReLU with negative slope 0.2.
class LeakyRelu : public Layer {
 public:
  explicit LeakyRelu(double slope = 0.2) : slope_(slope) {}

  Matrix Forward(const Matrix& input, bool training) override;
  Matrix Infer(const Matrix& input) const override;
  Matrix Backward(const Matrix& grad_output, bool param_grads = true) override;
  std::string Name() const override { return "LeakyRelu"; }

 private:
  double slope_;
  /// Per-element gradient factor (1.0 where x > 0, else slope), derived once
  /// in Forward; see Relu::mask_.
  Matrix mask_;
};

class Tanh : public Layer {
 public:
  Matrix Forward(const Matrix& input, bool training) override;
  Matrix Infer(const Matrix& input) const override;
  Matrix Backward(const Matrix& grad_output, bool param_grads = true) override;
  std::string Name() const override { return "Tanh"; }

 private:
  Matrix output_cache_;
};

/// 1 / (1 + e^-x). Used as the actor's output squash so recommended knob
/// vectors land in the normalized [0, 1] configuration space.
class Sigmoid : public Layer {
 public:
  Matrix Forward(const Matrix& input, bool training) override;
  Matrix Infer(const Matrix& input) const override;
  Matrix Backward(const Matrix& grad_output, bool param_grads = true) override;
  std::string Name() const override { return "Sigmoid"; }

 private:
  Matrix output_cache_;
};

/// Per-feature batch normalization with learnable scale/shift and running
/// statistics for evaluation mode.
class BatchNorm : public Layer {
 public:
  explicit BatchNorm(size_t features, double momentum = 0.1,
                     double epsilon = 1e-5);

  Matrix Forward(const Matrix& input, bool training) override;
  Matrix Infer(const Matrix& input) const override;
  Matrix Backward(const Matrix& grad_output, bool param_grads = true) override;
  std::vector<Parameter*> Params() override { return {&gamma_, &beta_}; }
  std::string Name() const override { return "BatchNorm"; }

  void SaveBinary(persist::Encoder& enc) const override;
  util::Status LoadBinary(persist::Decoder& dec) override;

  const Matrix& running_mean() const { return running_mean_; }
  const Matrix& running_var() const { return running_var_; }

 private:
  /// 1 / sqrt(var + epsilon), per feature.
  Matrix StdInv(const Matrix& var) const;
  /// gamma * (input - mean) * std_inv + beta: the one copy of the
  /// normalization arithmetic, shared by Forward (batch or running
  /// statistics) and Infer. Also stores the normalized input when `x_hat`
  /// is non-null.
  Matrix Normalize(const Matrix& input, const Matrix& mean,
                   const Matrix& std_inv, Matrix* x_hat) const;

  double momentum_;
  double epsilon_;
  Parameter gamma_;  // 1 x features
  Parameter beta_;   // 1 x features
  Matrix running_mean_;
  Matrix running_var_;
  // Backward caches (training mode only).
  Matrix x_hat_;
  Matrix std_inv_;  // 1 x features
  // Whether the last Forward used batch statistics (full backward formula)
  // or fixed running statistics (constants in the backward pass).
  bool training_backward_ = false;
};

/// Two side-by-side Linear layers over a column-partitioned input:
/// input = [left | right] (split at `left_in`), output =
/// [LinearL(left) | LinearR(right)].
///
/// This is the critic's "Parallel Full Connection" from the paper's
/// Table 5: the 63 state metrics and the #Knobs action are embedded by
/// separate 128-unit layers before the trunk sees their concatenation.
class ParallelLinear : public Layer {
 public:
  ParallelLinear(size_t left_in, size_t left_out, size_t right_in,
                 size_t right_out, util::Rng& rng,
                 InitScheme init = InitScheme::kUniform01);

  Matrix Forward(const Matrix& input, bool training) override;
  Matrix Infer(const Matrix& input) const override;
  Matrix Backward(const Matrix& grad_output, bool param_grads = true) override;
  /// A `first_input_col` of `left_in` skips the left embedding's
  /// input-gradient GEMM (the DDPG actor update reads only dQ/daction).
  Matrix BackwardFrom(const Matrix& grad_output, bool param_grads,
                      size_t first_input_col) override;
  std::vector<Parameter*> Params() override;
  std::string Name() const override { return "ParallelLinear"; }

  size_t left_in() const { return left_in_; }
  size_t left_out() const { return left_out_; }

 private:
  size_t left_in_;
  size_t left_out_;
  Linear left_;
  Linear right_;
};

/// Inverted dropout: zeroes activations with probability `rate` during
/// training and scales survivors by 1/(1-rate); identity in eval mode.
class Dropout : public Layer {
 public:
  Dropout(double rate, util::Rng& rng);

  Matrix Forward(const Matrix& input, bool training) override;
  Matrix Infer(const Matrix& input) const override;
  Matrix Backward(const Matrix& grad_output, bool param_grads = true) override;
  std::string Name() const override { return "Dropout"; }

 private:
  double rate_;
  util::Rng* rng_;  // Not owned.
  Matrix mask_;
  bool mask_valid_ = false;
};

}  // namespace cdbtune::nn

#endif  // CDBTUNE_NN_LAYER_H_
