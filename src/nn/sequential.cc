#include "nn/sequential.h"

#include "util/check.h"

namespace cdbtune::nn {

Sequential& Sequential::Add(std::unique_ptr<Layer> layer) {
  layers_.push_back(std::move(layer));
  return *this;
}

Matrix Sequential::Forward(const Matrix& input, bool training) {
  Matrix x = input;
  for (auto& layer : layers_) x = layer->Forward(x, training);
  return x;
}

Matrix Sequential::Infer(const Matrix& input) const {
  Matrix x = input;
  for (const auto& layer : layers_) x = layer->Infer(x);
  return x;
}

Matrix Sequential::Backward(const Matrix& grad_output, bool param_grads,
                            size_t first_input_col) {
  if (layers_.empty()) return grad_output;
  Matrix g = grad_output;
  for (size_t i = layers_.size() - 1; i > 0; --i) {
    g = layers_[i]->Backward(g, param_grads);
  }
  return layers_[0]->BackwardFrom(g, param_grads, first_input_col);
}

std::vector<Parameter*> Sequential::Params() {
  std::vector<Parameter*> out;
  for (auto& layer : layers_) {
    for (Parameter* p : layer->Params()) out.push_back(p);
  }
  return out;
}

void Sequential::ZeroGrad() {
  for (Parameter* p : Params()) p->ZeroGrad();
}

size_t Sequential::NumParameters() {
  size_t n = 0;
  for (Parameter* p : Params()) n += p->value.size();
  return n;
}

void Sequential::CopyParamsFrom(Sequential& other) {
  auto dst = Params();
  auto src = other.Params();
  CDBTUNE_CHECK(dst.size() == src.size()) << "architecture mismatch in copy";
  for (size_t i = 0; i < dst.size(); ++i) {
    CDBTUNE_CHECK(dst[i]->value.SameShape(src[i]->value))
        << "parameter shape mismatch at index " << i;
    dst[i]->value = src[i]->value;
  }
}

void Sequential::CopyStateFrom(const Sequential& other) {
  persist::Encoder enc;
  other.SaveBinary(enc);
  persist::Decoder dec(enc.bytes());
  util::Status status = LoadBinary(dec);
  CDBTUNE_CHECK(status.ok()) << "CopyStateFrom architecture mismatch: "
                             << status.ToString();
}

void Sequential::SoftUpdateFrom(Sequential& source, double tau) {
  auto dst = Params();
  auto src = source.Params();
  CDBTUNE_CHECK(dst.size() == src.size()) << "architecture mismatch in update";
  for (size_t i = 0; i < dst.size(); ++i) {
    Matrix& dm = dst[i]->value;
    const Matrix& sm = src[i]->value;
    CDBTUNE_CHECK(dm.SameShape(sm)) << "parameter shape mismatch at index " << i;
    double* __restrict__ d = dm.data();
    const double* __restrict__ s = sm.data();
    const size_t n = dm.size();
    const double keep = 1.0 - tau;
    for (size_t j = 0; j < n; ++j) d[j] = tau * s[j] + keep * d[j];
  }
}

void Sequential::SaveBinary(persist::Encoder& enc) const {
  enc.WriteU32(static_cast<uint32_t>(layers_.size()));
  for (const auto& layer : layers_) {
    enc.WriteString(layer->Name());
    layer->SaveBinary(enc);
  }
}

util::Status Sequential::LoadBinary(persist::Decoder& dec) {
  uint32_t count = 0;
  if (!dec.ReadU32(&count)) return dec.status();
  if (count != layers_.size()) {
    return util::Status::DataLoss(
        "checkpoint has " + std::to_string(count) + " layers, network has " +
        std::to_string(layers_.size()));
  }
  for (auto& layer : layers_) {
    std::string name;
    if (!dec.ReadString(&name)) return dec.status();
    if (name != layer->Name()) {
      return util::Status::DataLoss("checkpoint layer type mismatch: file " +
                                    name + " vs network " + layer->Name());
    }
    CDBTUNE_RETURN_IF_ERROR(layer->LoadBinary(dec));
  }
  return util::Status::Ok();
}

double MseLoss(const Matrix& prediction, const Matrix& target, Matrix* grad) {
  CDBTUNE_CHECK(prediction.SameShape(target)) << "MSE shape mismatch";
  Matrix diff = prediction - target;
  double loss = diff.MeanSquare();
  if (grad != nullptr) {
    *grad = diff;
    grad->Scale(2.0 / static_cast<double>(diff.size()));
  }
  return loss;
}

}  // namespace cdbtune::nn
