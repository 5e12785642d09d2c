// Minimal dense linear algebra used by the statistics and forecasting stacks.
//
// This intentionally implements only what the repository needs (row-major
// matrices, matrix products, Cholesky and general linear solves) rather than
// pulling in a full BLAS dependency. Sizes in this codebase are small
// (regression designs of a few hundred rows, LSTM weight blocks of a few
// thousand entries), so cache-naive loops are more than fast enough.
#ifndef SRC_STATS_LINALG_H_
#define SRC_STATS_LINALG_H_

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace femux {

// Row-major dense matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}
  Matrix(std::size_t rows, std::size_t cols, std::initializer_list<double> values);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  Matrix Transposed() const;

  // Returns this * other. Dimensions must agree.
  Matrix Multiply(const Matrix& other) const;

  // Returns this * v for a column vector v (v.size() must equal cols()).
  std::vector<double> Multiply(const std::vector<double>& v) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

// Solves A x = b for symmetric positive-definite A via Cholesky decomposition.
// A small ridge (`jitter`) is added to the diagonal if the decomposition
// encounters a non-positive pivot, which makes near-singular regression
// designs (e.g. constant traffic histories) solvable. Returns the solution.
std::vector<double> CholeskySolve(Matrix a, std::vector<double> b, double jitter = 1e-9);

// Caller-owned storage for CholeskySolveInto; allocation-free once it has
// solved a system of the same size.
struct CholeskyWorkspace {
  std::vector<double> a;  // The n x n row-major system; gains the jitter.
  std::vector<double> l;  // Cholesky factor.
  std::vector<double> y;  // Forward-substitution result.
};

// CholeskySolve in `ws`: solves ws.a x = b into `x` (both of size n, with
// ws.a filled by the caller). The same operations in the same order, so
// the two forms return the same bits.
void CholeskySolveInto(CholeskyWorkspace& ws, std::span<const double> b,
                       std::span<double> x, double jitter = 1e-9);

// Solves A x = b for general square A using partial-pivot Gaussian
// elimination. Returns empty vector if A is singular to working precision.
std::vector<double> GaussianSolve(Matrix a, std::vector<double> b);

// Dot product. Vectors must have the same length.
double Dot(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace femux

#endif  // SRC_STATS_LINALG_H_
