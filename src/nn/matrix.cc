#include "nn/matrix.h"

#include <cmath>
#include <cstring>
#include <ostream>

#include "nn/simd/dispatch.h"
#include "nn/simd/gemm.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace cdbtune::nn {

namespace {

/// Multiply-add count below which parallel dispatch costs more than it
/// saves; ranges were picked so batch-32 layer matmuls (32x329x256 ≈ 2.7M
/// madds) parallelize while row-vector forwards stay inline.
constexpr size_t kParallelFlops = 256 * 1024;

/// Minimum rows per chunk when splitting an output across threads.
constexpr size_t kRowGrain = 4;

/// Batches smaller than this never pack B: the pack pass streams the whole
/// operand once, which only amortizes when enough output rows reuse it.
/// Row-vector recommendation forwards (n = 1) always take the raw-B path.
constexpr size_t kPackMinRows = 8;

/// O += A * B via the active tier's row kernel. The output must be
/// pre-initialized (zeros, or bias rows for the fused path). B is packed
/// into column strips when the tier packs and the shape is large enough to
/// amortize the pass — a decision that depends only on the shape and tier,
/// never the thread count, and packed/raw kernels accumulate in the same
/// order, so it cannot affect results.
void GemmInto(const double* a_data, const double* b_data, double* o_data,
              size_t n, size_t k, size_t m) {
  const simd::GemmKernels* kern = &simd::ActiveKernels();
  const bool parallel = n * k * m >= kParallelFlops;
  std::vector<double> packed;
  const double* bp = nullptr;
  if (kern->pack_width != 0 && n >= kPackMinRows && parallel) {
    packed.resize(simd::PackedBSize(kern->pack_width, k, m));
    if (!packed.empty()) {
      kern->pack_b(b_data, packed.data(), k, m);
      bp = packed.data();
    }
  }
  if (parallel) {
    util::ComputeContext::Get().ParallelFor(
        0, n, kRowGrain, [=](size_t r0, size_t r1) {
          kern->gemm_rows(a_data, b_data, bp, o_data, k, m, r0, r1);
        });
  } else {
    kern->gemm_rows(a_data, b_data, bp, o_data, k, m, 0, n);
  }
}

/// O += A^T * B via the active tier. Threads own disjoint p ranges (rows of
/// the output); each runs the full ascending-i accumulation itself.
void GemmTransposedAInto(const double* a_data, const double* b_data,
                         double* o_data, size_t n, size_t k, size_t m) {
  const simd::GemmKernels* kern = &simd::ActiveKernels();
  if (n * k * m >= kParallelFlops) {
    util::ComputeContext::Get().ParallelFor(
        0, k, kRowGrain, [=](size_t p0, size_t p1) {
          kern->gemm_ta_cols(a_data, b_data, o_data, n, k, m, p0, p1);
        });
  } else {
    kern->gemm_ta_cols(a_data, b_data, o_data, n, k, m, 0, k);
  }
}

}  // namespace

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows)
    : rows_(rows.size()), cols_(rows.size() > 0 ? rows.begin()->size() : 0) {
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    CDBTUNE_CHECK(row.size() == cols_) << "ragged initializer list";
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::RowVector(const std::vector<double>& values) {
  Matrix m(1, values.size());
  for (size_t i = 0; i < values.size(); ++i) m.data_[i] = values[i];
  return m;
}

Matrix Matrix::RandomUniform(size_t rows, size_t cols, double lo, double hi,
                             util::Rng& rng) {
  Matrix m(rows, cols);
  for (double& v : m.data_) v = rng.Uniform(lo, hi);
  return m;
}

Matrix Matrix::RandomGaussian(size_t rows, size_t cols, double mean,
                              double stddev, util::Rng& rng) {
  Matrix m(rows, cols);
  for (double& v : m.data_) v = rng.Gaussian(mean, stddev);
  return m;
}

std::vector<double> Matrix::Row(size_t r) const {
  CDBTUNE_CHECK(r < rows_) << "row index " << r << " out of " << rows_;
  return std::vector<double>(data_.begin() + static_cast<long>(r * cols_),
                             data_.begin() + static_cast<long>((r + 1) * cols_));
}

void Matrix::SetRow(size_t r, const std::vector<double>& values) {
  CDBTUNE_CHECK(r < rows_) << "row index " << r << " out of " << rows_;
  CDBTUNE_CHECK(values.size() == cols_) << "row width mismatch";
  for (size_t c = 0; c < cols_; ++c) data_[r * cols_ + c] = values[c];
}

Matrix Matrix::MatMul(const Matrix& other) const {
  CDBTUNE_CHECK(cols_ == other.rows_)
      << "matmul shape mismatch: " << rows_ << "x" << cols_ << " * "
      << other.rows_ << "x" << other.cols_;
  Matrix out(rows_, other.cols_);
  GemmInto(data_.data(), other.data_.data(), out.data_.data(), rows_, cols_,
           other.cols_);
  return out;
}

Matrix Matrix::MatMulBias(const Matrix& other, const Matrix& bias) const {
  CDBTUNE_CHECK(cols_ == other.rows_)
      << "matmul shape mismatch: " << rows_ << "x" << cols_ << " * "
      << other.rows_ << "x" << other.cols_;
  CDBTUNE_CHECK(bias.rows_ == 1 && bias.cols_ == other.cols_)
      << "bias must be 1x" << other.cols_;
  Matrix out(rows_, other.cols_);
  // Seed every output row with the bias, then accumulate the product on
  // top: one pass over the output instead of matmul + broadcast-add.
  const size_t m = other.cols_;
  for (size_t r = 0; r < rows_; ++r) {
    std::memcpy(out.data_.data() + r * m, bias.data_.data(),
                m * sizeof(double));
  }
  GemmInto(data_.data(), other.data_.data(), out.data_.data(), rows_, cols_,
           m);
  return out;
}

Matrix Matrix::MatMulTransposedA(const Matrix& other) const {
  CDBTUNE_CHECK(rows_ == other.rows_)
      << "matmul^T_A shape mismatch: (" << rows_ << "x" << cols_ << ")^T * "
      << other.rows_ << "x" << other.cols_;
  Matrix out(cols_, other.cols_);
  GemmTransposedAInto(data_.data(), other.data_.data(), out.data_.data(),
                      rows_, cols_, other.cols_);
  return out;
}

void Matrix::MatMulTransposedAAccumulate(const Matrix& other,
                                         Matrix* acc) const {
  CDBTUNE_CHECK(rows_ == other.rows_)
      << "matmul^T_A shape mismatch: (" << rows_ << "x" << cols_ << ")^T * "
      << other.rows_ << "x" << other.cols_;
  CDBTUNE_CHECK(acc->rows_ == cols_ && acc->cols_ == other.cols_)
      << "accumulator must be " << cols_ << "x" << other.cols_;
  GemmTransposedAInto(data_.data(), other.data_.data(), acc->data_.data(),
                      rows_, cols_, other.cols_);
}

Matrix Matrix::MatMulTransposedB(const Matrix& other) const {
  CDBTUNE_CHECK(cols_ == other.cols_)
      << "matmul^T_B shape mismatch: " << rows_ << "x" << cols_ << " * ("
      << other.rows_ << "x" << other.cols_ << ")^T";
  Matrix out(rows_, other.rows_);
  const size_t n = rows_, k = cols_, m = other.rows_;
  const double* a_data = data_.data();
  const double* b_data = other.data_.data();
  double* o_data = out.data_.data();
  const simd::GemmKernels* kern = &simd::ActiveKernels();
  if (n * k * m >= kParallelFlops) {
    util::ComputeContext::Get().ParallelFor(
        0, n, kRowGrain, [=](size_t r0, size_t r1) {
          kern->gemm_tb_rows(a_data, b_data, o_data, k, m, r0, r1);
        });
  } else {
    kern->gemm_tb_rows(a_data, b_data, o_data, k, m, 0, n);
  }
  return out;
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) out.data_[c * rows_ + r] = at(r, c);
  }
  return out;
}

Matrix& Matrix::AddInPlace(const Matrix& other) {
  CDBTUNE_CHECK(SameShape(other)) << "add shape mismatch";
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::SubInPlace(const Matrix& other) {
  CDBTUNE_CHECK(SameShape(other)) << "sub shape mismatch";
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::MulInPlace(const Matrix& other) {
  CDBTUNE_CHECK(SameShape(other)) << "hadamard shape mismatch";
  for (size_t i = 0; i < data_.size(); ++i) data_[i] *= other.data_[i];
  return *this;
}

Matrix& Matrix::Scale(double factor) {
  for (double& v : data_) v *= factor;
  return *this;
}

Matrix& Matrix::AddRowBroadcast(const Matrix& row) {
  CDBTUNE_CHECK(row.rows_ == 1 && row.cols_ == cols_)
      << "broadcast row must be 1x" << cols_;
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) data_[r * cols_ + c] += row.data_[c];
  }
  return *this;
}

Matrix Matrix::SumRows() const {
  Matrix out(1, cols_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) out.data_[c] += data_[r * cols_ + c];
  }
  return out;
}

Matrix Matrix::MeanRows() const {
  Matrix out = SumRows();
  if (rows_ > 0) out.Scale(1.0 / static_cast<double>(rows_));
  return out;
}

double Matrix::Sum() const {
  double s = 0.0;
  for (double v : data_) s += v;
  return s;
}

double Matrix::MeanSquare() const {
  if (data_.empty()) return 0.0;
  double s = 0.0;
  for (double v : data_) s += v * v;
  return s / static_cast<double>(data_.size());
}

double Matrix::AbsMax() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::fabs(v));
  return m;
}

Matrix Matrix::ConcatCols(const Matrix& other) const {
  CDBTUNE_CHECK(rows_ == other.rows_) << "concat row mismatch";
  Matrix out(rows_, cols_ + other.cols_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) out.at(r, c) = at(r, c);
    for (size_t c = 0; c < other.cols_; ++c) {
      out.at(r, cols_ + c) = other.at(r, c);
    }
  }
  return out;
}

void Matrix::SplitCols(size_t split, Matrix* left, Matrix* right) const {
  CDBTUNE_CHECK(split <= cols_) << "split beyond width";
  *left = Matrix(rows_, split);
  *right = Matrix(rows_, cols_ - split);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < split; ++c) left->at(r, c) = at(r, c);
    for (size_t c = split; c < cols_; ++c) right->at(r, c - split) = at(r, c);
  }
}

std::ostream& operator<<(std::ostream& os, const Matrix& m) {
  os << "Matrix(" << m.rows_ << "x" << m.cols_ << ")";
  if (m.size() <= 64) {
    os << " [";
    for (size_t r = 0; r < m.rows_; ++r) {
      os << (r == 0 ? "[" : ", [");
      for (size_t c = 0; c < m.cols_; ++c) {
        os << (c == 0 ? "" : ", ") << m.at(r, c);
      }
      os << "]";
    }
    os << "]";
  }
  return os;
}

Matrix operator+(Matrix lhs, const Matrix& rhs) {
  lhs.AddInPlace(rhs);
  return lhs;
}

Matrix operator-(Matrix lhs, const Matrix& rhs) {
  lhs.SubInPlace(rhs);
  return lhs;
}

Matrix operator*(Matrix lhs, double factor) {
  lhs.Scale(factor);
  return lhs;
}

}  // namespace cdbtune::nn
