#include "nn/layer.h"

#include <cmath>

#include "util/check.h"

namespace cdbtune::nn {

void SaveMatrixBinary(persist::Encoder& enc, const Matrix& m) {
  enc.WriteU64(m.rows());
  enc.WriteU64(m.cols());
  const double* data = m.data();
  for (size_t i = 0; i < m.size(); ++i) enc.WriteDouble(data[i]);
}

util::Status LoadMatrixBinary(persist::Decoder& dec, Matrix* out) {
  uint64_t rows = 0, cols = 0;
  if (!dec.ReadU64(&rows) || !dec.ReadU64(&cols)) return dec.status();
  if (cols != 0 && rows > dec.remaining() / (8 * cols)) {
    return util::Status::DataLoss("matrix dimensions exceed payload: " +
                                  std::to_string(rows) + "x" +
                                  std::to_string(cols));
  }
  Matrix m(rows, cols);
  double* data = m.data();
  for (size_t i = 0; i < m.size(); ++i) {
    if (!dec.ReadDouble(&data[i])) return dec.status();
  }
  *out = std::move(m);
  return util::Status::Ok();
}

void Layer::SaveBinary(persist::Encoder& enc) const {
  for (Parameter* p : const_cast<Layer*>(this)->Params()) {
    SaveMatrixBinary(enc, p->value);
  }
}

util::Status Layer::LoadBinary(persist::Decoder& dec) {
  for (Parameter* p : Params()) {
    Matrix loaded;
    CDBTUNE_RETURN_IF_ERROR(LoadMatrixBinary(dec, &loaded));
    if (!loaded.SameShape(p->value)) {
      return util::Status::DataLoss(
          "checkpoint shape mismatch for parameter " + p->name);
    }
    p->value = std::move(loaded);
  }
  return util::Status::Ok();
}

Matrix Layer::BackwardFrom(const Matrix& grad_output, bool param_grads,
                           size_t first_input_col) {
  CDBTUNE_CHECK(first_input_col == 0 || first_input_col == kNoInputGrad)
      << Name() << " cannot trim its input gradient at column "
      << first_input_col;
  Matrix grad_in = Backward(grad_output, param_grads);
  if (first_input_col == 0) return grad_in;
  return Matrix(grad_in.rows(), 0);
}

Linear::Linear(size_t in_features, size_t out_features, util::Rng& rng,
               InitScheme init) {
  Matrix w;
  switch (init) {
    case InitScheme::kUniform01:
      w = Matrix::RandomUniform(in_features, out_features, -0.1, 0.1, rng);
      break;
    case InitScheme::kGaussian001:
      w = Matrix::RandomGaussian(in_features, out_features, 0.0, 0.01, rng);
      break;
    case InitScheme::kXavierUniform: {
      double bound =
          std::sqrt(6.0 / static_cast<double>(in_features + out_features));
      w = Matrix::RandomUniform(in_features, out_features, -bound, bound, rng);
      break;
    }
  }
  weight_ = Parameter(std::move(w), "weight");
  bias_ = Parameter(Matrix(1, out_features), "bias");
}

Matrix Linear::Forward(const Matrix& input, bool /*training*/) {
  input_cache_ = input;
  return Infer(input);
}

Matrix Linear::Infer(const Matrix& input) const {
  CDBTUNE_DCHECK_EQ(input.cols(), in_features());
  return input.MatMulBias(weight_.value, bias_.value);
}

// Fused kernels: dW = input^T * g accumulated straight into the grad buffer
// and dX = g * W^T, without materializing either transpose or a dW
// temporary.
void Linear::AccumulateParamGrads(const Matrix& grad_output) {
  CDBTUNE_CHECK(!input_cache_.empty()) << "Backward before Forward";
  CDBTUNE_DCHECK_EQ(grad_output.cols(), out_features());
  CDBTUNE_DCHECK_EQ(grad_output.rows(), input_cache_.rows());
  input_cache_.MatMulTransposedAAccumulate(grad_output, &weight_.grad);
  bias_.grad.AddInPlace(grad_output.SumRows());
}

Matrix Linear::Backward(const Matrix& grad_output, bool param_grads) {
  if (param_grads) AccumulateParamGrads(grad_output);
  return grad_output.MatMulTransposedB(weight_.value);
}

Matrix Linear::BackwardFrom(const Matrix& grad_output, bool param_grads,
                            size_t first_input_col) {
  if (first_input_col == 0) return Backward(grad_output, param_grads);
  CDBTUNE_CHECK(first_input_col == kNoInputGrad)
      << "Linear cannot trim its input gradient at column " << first_input_col;
  if (param_grads) AccumulateParamGrads(grad_output);
  return Matrix(grad_output.rows(), 0);
}

Matrix Relu::Forward(const Matrix& input, bool /*training*/) {
  if (!mask_.SameShape(input)) mask_ = Matrix(input.rows(), input.cols());
  const double* x = input.data();
  double* m = mask_.data();
  const size_t n = input.size();
  for (size_t i = 0; i < n; ++i) m[i] = x[i] > 0.0 ? 1.0 : 0.0;
  return Infer(input);
}

Matrix Relu::Infer(const Matrix& input) const {
  Matrix out(input.rows(), input.cols());
  const double* x = input.data();
  double* y = out.data();
  const size_t n = input.size();
  for (size_t i = 0; i < n; ++i) y[i] = x[i] > 0.0 ? x[i] : 0.0;
  return out;
}

Matrix Relu::Backward(const Matrix& grad_output, bool /*param_grads*/) {
  CDBTUNE_DCHECK(grad_output.SameShape(mask_))
      << "Relu gradient shape does not match the cached forward mask";
  Matrix grad = grad_output;
  grad.MulInPlace(mask_);
  return grad;
}

Matrix LeakyRelu::Forward(const Matrix& input, bool /*training*/) {
  if (!mask_.SameShape(input)) mask_ = Matrix(input.rows(), input.cols());
  const double slope = slope_;
  const double* x = input.data();
  double* m = mask_.data();
  const size_t n = input.size();
  for (size_t i = 0; i < n; ++i) m[i] = x[i] > 0.0 ? 1.0 : slope;
  return Infer(input);
}

Matrix LeakyRelu::Infer(const Matrix& input) const {
  Matrix out(input.rows(), input.cols());
  const double slope = slope_;
  const double* x = input.data();
  double* y = out.data();
  const size_t n = input.size();
  for (size_t i = 0; i < n; ++i) y[i] = x[i] > 0.0 ? x[i] : slope * x[i];
  return out;
}

Matrix LeakyRelu::Backward(const Matrix& grad_output, bool /*param_grads*/) {
  CDBTUNE_DCHECK(grad_output.SameShape(mask_))
      << "LeakyRelu gradient shape does not match the cached forward mask";
  Matrix grad = grad_output;
  grad.MulInPlace(mask_);
  return grad;
}

Matrix Tanh::Forward(const Matrix& input, bool /*training*/) {
  output_cache_ = Infer(input);
  return output_cache_;
}

Matrix Tanh::Infer(const Matrix& input) const {
  return input.Map([](double x) { return std::tanh(x); });
}

Matrix Tanh::Backward(const Matrix& grad_output, bool /*param_grads*/) {
  CDBTUNE_DCHECK(grad_output.SameShape(output_cache_))
      << "Tanh gradient shape does not match the cached forward output";
  Matrix grad = grad_output;
  double* g = grad.data();
  const double* y = output_cache_.data();
  const size_t n = grad.size();
  for (size_t i = 0; i < n; ++i) g[i] *= 1.0 - y[i] * y[i];
  return grad;
}

Matrix Sigmoid::Forward(const Matrix& input, bool /*training*/) {
  output_cache_ = Infer(input);
  return output_cache_;
}

Matrix Sigmoid::Infer(const Matrix& input) const {
  return input.Map([](double x) { return 1.0 / (1.0 + std::exp(-x)); });
}

Matrix Sigmoid::Backward(const Matrix& grad_output, bool /*param_grads*/) {
  CDBTUNE_DCHECK(grad_output.SameShape(output_cache_))
      << "Sigmoid gradient shape does not match the cached forward output";
  Matrix grad = grad_output;
  double* g = grad.data();
  const double* y = output_cache_.data();
  const size_t n = grad.size();
  for (size_t i = 0; i < n; ++i) g[i] *= y[i] * (1.0 - y[i]);
  return grad;
}

BatchNorm::BatchNorm(size_t features, double momentum, double epsilon)
    : momentum_(momentum),
      epsilon_(epsilon),
      gamma_(Matrix(1, features, 1.0), "gamma"),
      beta_(Matrix(1, features, 0.0), "beta"),
      running_mean_(1, features, 0.0),
      running_var_(1, features, 1.0) {}

Matrix BatchNorm::StdInv(const Matrix& var) const {
  Matrix std_inv(1, var.cols());
  for (size_t c = 0; c < var.cols(); ++c) {
    std_inv.at(0, c) = 1.0 / std::sqrt(var.at(0, c) + epsilon_);
  }
  return std_inv;
}

Matrix BatchNorm::Normalize(const Matrix& input, const Matrix& mean,
                            const Matrix& std_inv, Matrix* x_hat) const {
  const size_t n = input.rows();
  const size_t f = input.cols();
  CDBTUNE_CHECK(f == gamma_.value.cols())
      << "BatchNorm feature mismatch: " << f << " vs " << gamma_.value.cols();
  Matrix out(n, f);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < f; ++c) {
      double xh = (input.at(r, c) - mean.at(0, c)) * std_inv.at(0, c);
      if (x_hat != nullptr) x_hat->at(r, c) = xh;
      out.at(r, c) = gamma_.value.at(0, c) * xh + beta_.value.at(0, c);
    }
  }
  return out;
}

Matrix BatchNorm::Infer(const Matrix& input) const {
  return Normalize(input, running_mean_, StdInv(running_var_), nullptr);
}

Matrix BatchNorm::Forward(const Matrix& input, bool training) {
  const size_t n = input.rows();
  const size_t f = input.cols();
  CDBTUNE_CHECK(f == gamma_.value.cols())
      << "BatchNorm feature mismatch: " << f << " vs " << gamma_.value.cols();
  // A batch of one has no spread: it normalizes with running statistics,
  // exactly like eval mode.
  training_backward_ = training && n > 1;
  if (!training_backward_) {
    std_inv_ = StdInv(running_var_);
    x_hat_ = Matrix(n, f);
    // In eval mode the backward pass treats mean/var as constants, which
    // the cached x_hat_/std_inv_ already encode.
    return Normalize(input, running_mean_, std_inv_, &x_hat_);
  }

  Matrix mean = input.MeanRows();
  Matrix var(1, f);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < f; ++c) {
      double d = input.at(r, c) - mean.at(0, c);
      var.at(0, c) += d * d;
    }
  }
  var.Scale(1.0 / static_cast<double>(n));
  // Update running statistics (exponential moving average).
  for (size_t c = 0; c < f; ++c) {
    running_mean_.at(0, c) = (1.0 - momentum_) * running_mean_.at(0, c) +
                             momentum_ * mean.at(0, c);
    running_var_.at(0, c) =
        (1.0 - momentum_) * running_var_.at(0, c) + momentum_ * var.at(0, c);
  }
  std_inv_ = StdInv(var);
  x_hat_ = Matrix(n, f);
  return Normalize(input, mean, std_inv_, &x_hat_);
}

Matrix BatchNorm::Backward(const Matrix& grad_output, bool param_grads) {
  const size_t n = grad_output.rows();
  const size_t f = grad_output.cols();
  CDBTUNE_CHECK(x_hat_.rows() == n && x_hat_.cols() == f)
      << "BatchNorm Backward shape mismatch";

  if (param_grads) {
    for (size_t r = 0; r < n; ++r) {
      for (size_t c = 0; c < f; ++c) {
        gamma_.grad.at(0, c) += grad_output.at(r, c) * x_hat_.at(r, c);
        beta_.grad.at(0, c) += grad_output.at(r, c);
      }
    }
  }

  Matrix grad_in(n, f);
  if (!training_backward_) {
    // Eval statistics are constants: dx = g * gamma * std_inv.
    for (size_t r = 0; r < n; ++r) {
      for (size_t c = 0; c < f; ++c) {
        grad_in.at(r, c) =
            grad_output.at(r, c) * gamma_.value.at(0, c) * std_inv_.at(0, c);
      }
    }
    return grad_in;
  }

  // Standard batch-norm backward: for each feature c,
  // dx = (gamma * std_inv / n) * (n*g - sum(g) - x_hat * sum(g*x_hat)).
  for (size_t c = 0; c < f; ++c) {
    double sum_g = 0.0;
    double sum_gx = 0.0;
    for (size_t r = 0; r < n; ++r) {
      sum_g += grad_output.at(r, c);
      sum_gx += grad_output.at(r, c) * x_hat_.at(r, c);
    }
    double scale = gamma_.value.at(0, c) * std_inv_.at(0, c) /
                   static_cast<double>(n);
    for (size_t r = 0; r < n; ++r) {
      grad_in.at(r, c) =
          scale * (static_cast<double>(n) * grad_output.at(r, c) - sum_g -
                   x_hat_.at(r, c) * sum_gx);
    }
  }
  return grad_in;
}

void BatchNorm::SaveBinary(persist::Encoder& enc) const {
  Layer::SaveBinary(enc);
  SaveMatrixBinary(enc, running_mean_);
  SaveMatrixBinary(enc, running_var_);
}

util::Status BatchNorm::LoadBinary(persist::Decoder& dec) {
  CDBTUNE_RETURN_IF_ERROR(Layer::LoadBinary(dec));
  Matrix mean, var;
  CDBTUNE_RETURN_IF_ERROR(LoadMatrixBinary(dec, &mean));
  CDBTUNE_RETURN_IF_ERROR(LoadMatrixBinary(dec, &var));
  if (!mean.SameShape(running_mean_) || !var.SameShape(running_var_)) {
    return util::Status::DataLoss("checkpoint BatchNorm buffer shape mismatch");
  }
  running_mean_ = std::move(mean);
  running_var_ = std::move(var);
  return util::Status::Ok();
}

ParallelLinear::ParallelLinear(size_t left_in, size_t left_out,
                               size_t right_in, size_t right_out,
                               util::Rng& rng, InitScheme init)
    : left_in_(left_in),
      left_out_(left_out),
      left_(left_in, left_out, rng, init),
      right_(right_in, right_out, rng, init) {}

Matrix ParallelLinear::Forward(const Matrix& input, bool training) {
  Matrix left_x, right_x;
  input.SplitCols(left_in_, &left_x, &right_x);
  Matrix left_y = left_.Forward(left_x, training);
  Matrix right_y = right_.Forward(right_x, training);
  return left_y.ConcatCols(right_y);
}

Matrix ParallelLinear::Infer(const Matrix& input) const {
  Matrix left_x, right_x;
  input.SplitCols(left_in_, &left_x, &right_x);
  return left_.Infer(left_x).ConcatCols(right_.Infer(right_x));
}

Matrix ParallelLinear::Backward(const Matrix& grad_output, bool param_grads) {
  Matrix left_g, right_g;
  grad_output.SplitCols(left_out_, &left_g, &right_g);
  Matrix left_dx = left_.Backward(left_g, param_grads);
  Matrix right_dx = right_.Backward(right_g, param_grads);
  return left_dx.ConcatCols(right_dx);
}

Matrix ParallelLinear::BackwardFrom(const Matrix& grad_output,
                                    bool param_grads, size_t first_input_col) {
  if (first_input_col == 0) return Backward(grad_output, param_grads);
  CDBTUNE_CHECK(first_input_col == left_in_ || first_input_col == kNoInputGrad)
      << "ParallelLinear cannot trim its input gradient at column "
      << first_input_col << " (only at its split, " << left_in_ << ")";
  Matrix left_g, right_g;
  grad_output.SplitCols(left_out_, &left_g, &right_g);
  left_.BackwardFrom(left_g, param_grads, kNoInputGrad);
  return right_.BackwardFrom(right_g, param_grads,
                             first_input_col == left_in_ ? 0 : kNoInputGrad);
}

std::vector<Parameter*> ParallelLinear::Params() {
  std::vector<Parameter*> out = left_.Params();
  for (Parameter* p : right_.Params()) out.push_back(p);
  return out;
}

Dropout::Dropout(double rate, util::Rng& rng) : rate_(rate), rng_(&rng) {
  CDBTUNE_CHECK(rate >= 0.0 && rate < 1.0) << "dropout rate out of range";
}

Matrix Dropout::Forward(const Matrix& input, bool training) {
  if (!training || rate_ == 0.0) {
    mask_valid_ = false;
    return Infer(input);
  }
  const double keep = 1.0 - rate_;
  mask_ = Matrix(input.rows(), input.cols());
  Matrix out = input;
  for (size_t r = 0; r < input.rows(); ++r) {
    for (size_t c = 0; c < input.cols(); ++c) {
      double m = rng_->Bernoulli(keep) ? 1.0 / keep : 0.0;
      mask_.at(r, c) = m;
      out.at(r, c) *= m;
    }
  }
  mask_valid_ = true;
  return out;
}

Matrix Dropout::Infer(const Matrix& input) const { return input; }

Matrix Dropout::Backward(const Matrix& grad_output, bool /*param_grads*/) {
  if (!mask_valid_) return grad_output;
  CDBTUNE_DCHECK(grad_output.SameShape(mask_))
      << "Dropout gradient shape does not match the cached mask";
  Matrix grad = grad_output;
  grad.MulInPlace(mask_);
  return grad;
}

}  // namespace cdbtune::nn
