#ifndef CROWDRL_TENSOR_MATRIX_H_
#define CROWDRL_TENSOR_MATRIX_H_

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/status.h"

namespace crowdrl {

/// \brief Dense row-major float32 matrix.
///
/// This is the numeric substrate of the from-scratch neural-network stack
/// that replaces the paper's PyTorch/GPU setup. The class favours explicit,
/// auditable operations over expression templates: every op is a plain loop
/// that the compiler auto-vectorizes under `-O3 -march=native`.
///
/// Vectors are represented as 1×n or n×1 matrices. All shape violations are
/// programming errors and fail fast via CROWDRL_CHECK.
class Matrix {
 public:
  /// Empty 0×0 matrix.
  Matrix() : rows_(0), cols_(0) {}

  /// Uninitialized-to-zero matrix of the given shape.
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

  /// Builds from a nested initializer-style vector (row major).
  static Matrix FromRows(const std::vector<std::vector<float>>& rows);

  static Matrix Zeros(size_t rows, size_t cols) { return Matrix(rows, cols); }
  static Matrix Constant(size_t rows, size_t cols, float value);
  /// Identity (square).
  static Matrix Eye(size_t n);
  /// Entries iid uniform in [lo, hi).
  static Matrix Uniform(size_t rows, size_t cols, Rng* rng, float lo = -1.0f,
                        float hi = 1.0f);
  /// Entries iid normal(mean, stddev).
  static Matrix Normal(size_t rows, size_t cols, Rng* rng, float mean = 0.0f,
                       float stddev = 1.0f);
  /// Xavier/Glorot-uniform initialization for a fan_in×fan_out weight.
  static Matrix Xavier(size_t fan_in, size_t fan_out, Rng* rng);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& operator()(size_t r, size_t c) {
    CROWDRL_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  float operator()(size_t r, size_t c) const {
    CROWDRL_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  float* row_data(size_t r) { return data_.data() + r * cols_; }
  const float* row_data(size_t r) const { return data_.data() + r * cols_; }

  /// Reshapes to rows×cols without preserving contents: entries are
  /// unspecified afterwards (callers must overwrite every cell). Reuses the
  /// existing heap buffer whenever capacity allows, which is what makes the
  /// `*Into` kernel forms allocation-free in steady state.
  void Resize(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  /// Sets every entry to `value`.
  void Fill(float value);
  /// Sets every entry to zero (keeps shape).
  void SetZero() { Fill(0.0f); }

  /// Copies `src` (1×cols or a row of equal width) into row `r`.
  void SetRow(size_t r, const Matrix& src, size_t src_row = 0);
  void SetRow(size_t r, const std::vector<float>& src);
  /// Adds row `src_row` of `src` (equal width) onto row `r`.
  void AddToRow(size_t r, const Matrix& src, size_t src_row = 0);
  /// Returns row `r` as a 1×cols matrix.
  Matrix GetRow(size_t r) const;
  /// Returns rows [begin, end) as a new matrix.
  Matrix SliceRows(size_t begin, size_t end) const;

  // ---- Elementwise arithmetic (shapes must match exactly). ----
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(float scalar);
  Matrix operator+(const Matrix& other) const;
  Matrix operator-(const Matrix& other) const;
  Matrix operator*(float scalar) const;
  /// Hadamard (elementwise) product.
  Matrix CwiseProduct(const Matrix& other) const;
  /// other * alpha added in place (axpy).
  void AddScaled(const Matrix& other, float alpha);

  /// Adds a 1×cols row vector to every row (bias broadcast).
  void AddRowBroadcast(const Matrix& row_vec);

  /// Elementwise max(x, 0).
  Matrix Relu() const;
  /// Elementwise derivative mask of ReLU evaluated at *this (1 if > 0).
  Matrix ReluMask() const;

  /// Matrix transpose.
  Matrix Transpose() const;

  /// Frobenius-norm squared.
  double SquaredNorm() const;
  /// Sum of all entries.
  double Sum() const;
  /// Max entry (requires non-empty).
  float MaxCoeff() const;
  /// Min entry (requires non-empty).
  float MinCoeff() const;

  /// Max |a_ij - b_ij|; requires equal shapes.
  static float MaxAbsDiff(const Matrix& a, const Matrix& b);
  /// True if shapes match and all entries differ by at most `atol`.
  static bool AllClose(const Matrix& a, const Matrix& b, float atol = 1e-5f);

  /// True if any entry is NaN or Inf.
  bool HasNonFinite() const;

  /// Multi-line human-readable rendering (for diagnostics and tests).
  std::string ToString(int precision = 4) const;

  /// Binary serialization (shape header + raw float payload).
  Status Save(std::ostream* os) const;
  static Result<Matrix> Load(std::istream* is);

 private:
  size_t rows_;
  size_t cols_;
  std::vector<float> data_;
};

}  // namespace crowdrl

#endif  // CROWDRL_TENSOR_MATRIX_H_
