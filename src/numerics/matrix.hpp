// Dense row-major matrix with the operations required by GP regression.
#ifndef PARMIS_NUMERICS_MATRIX_HPP
#define PARMIS_NUMERICS_MATRIX_HPP

#include <cstddef>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "numerics/vec.hpp"

namespace parmis::num {

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix initialized to `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Builds a matrix from nested initializer data; all rows must agree.
  static Matrix from_rows(const std::vector<Vec>& rows);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Checked element access (for tests / defensive call sites).
  double at(std::size_t r, std::size_t c) const;

  /// Raw storage (row-major), e.g. for serialization.
  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  /// Returns row r as a vector copy.
  Vec row(std::size_t r) const;

  /// No-copy view of row r over the matrix's own storage.  The view
  /// aliases the matrix: writes through the mutable overload (or later
  /// writes to the matrix) are visible through it.  Invalidated by
  /// anything that reallocates the storage (resize, move-assign).
  std::span<const double> row_view(std::size_t r) const;
  std::span<double> row_view(std::size_t r);

  /// Matrix transpose.
  Matrix transposed() const;

  /// Matrix-vector product (this * x).  Requires x.size() == cols().
  Vec matvec(const Vec& x) const;

  /// Transposed matrix-vector product (this^T * x).
  Vec matvec_transposed(const Vec& x) const;

  /// Matrix-matrix product (this * other).
  Matrix matmul(const Matrix& other) const;

  /// In-place scalar addition to the diagonal (used for GP jitter).
  void add_diagonal(double value);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace parmis::num

#endif  // PARMIS_NUMERICS_MATRIX_HPP
