#include "numerics/matrix.hpp"

#include <cmath>

namespace parmis::num {

Matrix Matrix::from_rows(const std::vector<Vec>& rows) {
  require(!rows.empty(), "from_rows: need at least one row");
  Matrix out(rows.size(), rows.front().size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    require(rows[r].size() == out.cols_, "from_rows: ragged rows");
    for (std::size_t c = 0; c < out.cols_; ++c) out(r, c) = rows[r][c];
  }
  return out;
}

double Matrix::at(std::size_t r, std::size_t c) const {
  require(r < rows_ && c < cols_, "matrix index out of range");
  return (*this)(r, c);
}

Vec Matrix::row(std::size_t r) const {
  require(r < rows_, "row index out of range");
  return Vec(data_.begin() + static_cast<std::ptrdiff_t>(r * cols_),
             data_.begin() + static_cast<std::ptrdiff_t>((r + 1) * cols_));
}

std::span<const double> Matrix::row_view(std::size_t r) const {
  require(r < rows_, "row index out of range");
  return {data_.data() + r * cols_, cols_};
}

std::span<double> Matrix::row_view(std::size_t r) {
  require(r < rows_, "row index out of range");
  return {data_.data() + r * cols_, cols_};
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  }
  return out;
}

Vec Matrix::matvec(const Vec& x) const {
  require(x.size() == cols_, "matvec: dimension mismatch");
  Vec out(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* row_ptr = data_.data() + r * cols_;
    double s = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) s += row_ptr[c] * x[c];
    out[r] = s;
  }
  return out;
}

Vec Matrix::matvec_transposed(const Vec& x) const {
  require(x.size() == rows_, "matvec_transposed: dimension mismatch");
  Vec out(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* row_ptr = data_.data() + r * cols_;
    const double xr = x[r];
    for (std::size_t c = 0; c < cols_; ++c) out[c] += row_ptr[c] * xr;
  }
  return out;
}

Matrix Matrix::matmul(const Matrix& other) const {
  require(cols_ == other.rows_, "matmul: dimension mismatch");
  Matrix out(rows_, other.cols_);
  // i-k-j loop order keeps the inner loop contiguous in both operands.
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double aik = (*this)(i, k);
      if (aik == 0.0) continue;
      const double* brow = other.data_.data() + k * other.cols_;
      double* orow = out.data_.data() + i * other.cols_;
      for (std::size_t j = 0; j < other.cols_; ++j) orow[j] += aik * brow[j];
    }
  }
  return out;
}

void Matrix::add_diagonal(double value) {
  require(rows_ == cols_, "add_diagonal: matrix must be square");
  for (std::size_t i = 0; i < rows_; ++i) (*this)(i, i) += value;
}

}  // namespace parmis::num
