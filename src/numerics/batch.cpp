#include "numerics/batch.hpp"

#include <algorithm>
#include <cstring>
#include <new>

namespace parmis::num {

Matrix matmul_blocked(const Matrix& a, const Matrix& b) {
  require(a.cols() == b.rows(), "matmul_blocked: dimension mismatch");
  const std::size_t m = a.rows(), kk = a.cols(), n = b.cols();
  Matrix out(m, n, 0.0);
  const double* ad = a.data().data();
  const double* bd = b.data().data();
  double* od = out.data().data();
  // Tiles over (i, k, j); per output element the k accumulation stays in
  // increasing order (kb blocks are visited in order, k within a block
  // in order), which is what makes the result bitwise equal to the
  // naive loop.  No zero-skip: 0 * inf must still produce NaN.
  for (std::size_t ib = 0; ib < m; ib += kBatchBlock) {
    const std::size_t ie = std::min(ib + kBatchBlock, m);
    for (std::size_t kb = 0; kb < kk; kb += kBatchBlock) {
      const std::size_t ke = std::min(kb + kBatchBlock, kk);
      for (std::size_t jb = 0; jb < n; jb += kBatchBlock) {
        const std::size_t je = std::min(jb + kBatchBlock, n);
        for (std::size_t i = ib; i < ie; ++i) {
          const double* arow = ad + i * kk;
          double* orow = od + i * n;
          for (std::size_t k = kb; k < ke; ++k) {
            const double aik = arow[k];
            const double* brow = bd + k * n;
            for (std::size_t j = jb; j < je; ++j) {
              orow[j] += aik * brow[j];
            }
          }
        }
      }
    }
  }
  return out;
}

Matrix solve_lower_many(const Matrix& lower, const Matrix& rhs) {
  Matrix y = rhs;
  solve_lower_many_inplace(lower, y);
  return y;
}

void solve_lower_many_inplace(const Matrix& lower, Matrix& rhs) {
  require(lower.rows() == lower.cols(),
          "solve_lower_many: L must be square");
  require(rhs.rows() == lower.rows(),
          "solve_lower_many: dimension mismatch");
  const std::size_t n = lower.rows(), m = rhs.cols();
  if (n == 0 || m == 0) return;
  const double* ld = lower.data().data();
  double* yd = rhs.data().data();
  if (m == 1) {
    // One column (a single GP query): the same op sequence, with the
    // running difference kept in a register instead of in rhs.
    for (std::size_t i = 0; i < n; ++i) {
      const double* lrow = ld + i * n;
      double s = yd[i];
      for (std::size_t k = 0; k < i; ++k) s -= lrow[k] * yd[k];
      yd[i] = s / lrow[i];
    }
    return;
  }
  for (std::size_t cb = 0; cb < m; cb += kBatchBlock) {
    const std::size_t ce = std::min(cb + kBatchBlock, m);
    for (std::size_t i = 0; i < n; ++i) {
      const double* lrow = ld + i * n;
      double* yi = yd + i * m;
      for (std::size_t k = 0; k < i; ++k) {
        const double lik = lrow[k];
        const double* yk = yd + k * m;
        for (std::size_t c = cb; c < ce; ++c) yi[c] -= lik * yk[c];
      }
      const double lii = lrow[i];
      for (std::size_t c = cb; c < ce; ++c) yi[c] /= lii;
    }
  }
}

void AlignedBuffer::Deleter::operator()(double* p) const {
  ::operator delete[](p, std::align_val_t{64});
}

AlignedBuffer::AlignedBuffer(std::size_t size) : size_(size) {
  if (size_ == 0) return;
  void* raw = ::operator new[](size_ * sizeof(double), std::align_val_t{64});
  data_.reset(static_cast<double*>(raw));
  std::memset(data_.get(), 0, size_ * sizeof(double));
}

}  // namespace parmis::num
