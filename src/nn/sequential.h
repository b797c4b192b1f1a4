#ifndef CDBTUNE_NN_SEQUENTIAL_H_
#define CDBTUNE_NN_SEQUENTIAL_H_

#include <memory>
#include <vector>

#include "nn/layer.h"
#include "util/status.h"

namespace cdbtune::nn {

/// An ordered stack of layers trained with explicit backprop.
///
/// Sequential also provides the parameter-space operations DDPG needs on
/// whole networks: hard copy (target-net init) and Polyak soft update
/// (theta' <- tau*theta + (1-tau)*theta').
class Sequential {
 public:
  Sequential() = default;

  // Networks own their layers and are not copyable; clone via architecture
  // rebuild + CopyParamsFrom where needed.
  Sequential(const Sequential&) = delete;
  Sequential& operator=(const Sequential&) = delete;
  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;

  /// Appends a layer; returns *this for fluent construction.
  Sequential& Add(std::unique_ptr<Layer> layer);

  /// Runs all layers in order. `training` is forwarded to each layer.
  Matrix Forward(const Matrix& input, bool training);

  /// Eval-mode forward through Layer::Infer: bitwise equal to
  /// Forward(input, false), but const and cache-free, so concurrent callers
  /// may share one network. The path for every forward no Backward follows.
  Matrix Infer(const Matrix& input) const;

  /// Backpropagates dLoss/dOutput through the stack, accumulating parameter
  /// gradients; returns dLoss/dInput. `param_grads = false` propagates the
  /// input gradient only (no Parameter::grad accumulation) — used when a
  /// network is differentiated through rather than trained.
  /// `first_input_col` trims the returned gradient to input columns
  /// [first_input_col, in) — kNoInputGrad when the caller discards it, or
  /// a first-layer ParallelLinear's split point — and the first layer skips
  /// the GEMM work for the columns nobody reads (Layer::BackwardFrom). The
  /// columns returned are bitwise unchanged.
  Matrix Backward(const Matrix& grad_output, bool param_grads = true,
                  size_t first_input_col = 0);

  /// All learnable parameters in layer order.
  std::vector<Parameter*> Params();

  void ZeroGrad();

  size_t num_layers() const { return layers_.size(); }
  Layer& layer(size_t i) { return *layers_[i]; }

  /// Total scalar parameter count (reported by the bench harnesses).
  size_t NumParameters();

  /// Copies every parameter value from `other`. Architectures must match.
  /// Internal buffers (BatchNorm running statistics) are NOT copied; use
  /// CopyStateFrom for a bit-exact clone.
  void CopyParamsFrom(Sequential& other);

  /// Copies parameters AND internal buffers via the serialization path, so
  /// the copy behaves identically in eval mode.
  void CopyStateFrom(const Sequential& other);

  /// Polyak averaging toward `source`: p <- tau * p_source + (1-tau) * p.
  void SoftUpdateFrom(Sequential& source, double tau);

  /// Bit-exact binary serialization for checkpoints (DESIGN.md §9): layer
  /// count + per-layer type name + Layer::SaveBinary payload. LoadBinary
  /// requires the live network to have the same architecture and returns
  /// kDataLoss (leaving a prefix of layers updated — callers stage into a
  /// scratch network) on any mismatch or short read.
  void SaveBinary(persist::Encoder& enc) const;
  util::Status LoadBinary(persist::Decoder& dec);

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

/// Mean squared error loss over all elements of (prediction - target).
/// `grad` receives dLoss/dPrediction (same shape as prediction).
double MseLoss(const Matrix& prediction, const Matrix& target, Matrix* grad);

}  // namespace cdbtune::nn

#endif  // CDBTUNE_NN_SEQUENTIAL_H_
