// Batched linear-algebra primitives for the GP prediction backend.
//
// The PaRMIS acquisition sweep queries the GP posterior at hundreds of
// candidate thetas against ONE fixed Cholesky factor.  These primitives
// turn that sweep from N vector-sized operations into a handful of
// blocked matrix-sized ones:
//
//  * matmul_blocked       — cache-tiled row-major matrix product,
//  * solve_lower_many     — one forward substitution over a whole block
//                           of right-hand sides,
//  * AlignedBuffer        — 64-byte-aligned scratch for batch loops.
//
// Bit-equivalence contract: every primitive here performs, per output
// element, exactly the same floating-point operation sequence as its
// scalar counterpart (naive i-j-k matmul with an in-order k
// accumulation; Cholesky::solve_lower per column).  Blocking only
// reorders independent elements, never the reduction order within one
// element, so results are bitwise identical — including on hostile
// inputs (denormals, overflow to inf, NaN propagation).  The golden
// campaign digests depend on this; tests/numerics_test.cpp enforces it.
#ifndef PARMIS_NUMERICS_BATCH_HPP
#define PARMIS_NUMERICS_BATCH_HPP

#include <cstddef>
#include <memory>

#include "numerics/matrix.hpp"

namespace parmis::num {

/// Tile edge used by the blocked primitives.  Chosen so one tile pair
/// (64 x 64 doubles = 32 KiB) stays resident in a typical L1d cache.
inline constexpr std::size_t kBatchBlock = 64;

/// C = A * B with cache tiling over all three loop dimensions.
/// Bitwise identical to the naive triple loop (per output element the
/// inner-product accumulation runs over k in increasing order; zero
/// operands are NOT skipped, so inf/NaN propagate exactly as naively).
Matrix matmul_blocked(const Matrix& a, const Matrix& b);

/// Solves L Y = B by blocked forward substitution, where L is square
/// lower-triangular (entries above the diagonal are ignored) and each
/// column of B is an independent right-hand side.  Column c of the
/// result is bitwise identical to Cholesky::solve_lower applied to
/// column c of B; blocking runs over column groups only.
Matrix solve_lower_many(const Matrix& lower, const Matrix& rhs);

/// In-place variant: overwrites `rhs` with the solution, skipping the
/// copy (and allocation) of the returning form.  Identical operation
/// sequence, hence bitwise identical results.
void solve_lower_many_inplace(const Matrix& lower, Matrix& rhs);

/// Fixed-size 64-byte-aligned double buffer for batch workspaces.
/// Unlike std::vector the alignment is guaranteed (vectorized batch
/// loops want aligned loads) and the contents start zeroed.
class AlignedBuffer {
 public:
  AlignedBuffer() = default;
  explicit AlignedBuffer(std::size_t size);

  std::size_t size() const { return size_; }
  double* data() { return data_.get(); }
  const double* data() const { return data_.get(); }

  double& operator[](std::size_t i) { return data_[i]; }
  double operator[](std::size_t i) const { return data_[i]; }

 private:
  struct Deleter {
    void operator()(double* p) const;
  };
  std::unique_ptr<double[], Deleter> data_;
  std::size_t size_ = 0;
};

}  // namespace parmis::num

#endif  // PARMIS_NUMERICS_BATCH_HPP
