#include "src/stats/linalg.h"

#include "src/stats/simd.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <utility>

namespace femux {

Matrix::Matrix(std::size_t rows, std::size_t cols, std::initializer_list<double> values)
    : rows_(rows), cols_(cols), data_(values) {
  assert(data_.size() == rows * cols);
  data_.resize(rows * cols, 0.0);
}

Matrix Matrix::Transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      t(c, r) = (*this)(r, c);
    }
  }
  return t;
}

Matrix Matrix::Multiply(const Matrix& other) const {
  assert(cols_ == other.rows_);
  Matrix out(rows_, other.cols_);
  if (other.cols_ == 0) {
    return out;  // Taking &out(r, 0) / &other.data()[...] below would index
                 // element 0 of an empty vector.
  }
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(r, k);
      if (a == 0.0) {
        continue;
      }
      // Rows are contiguous (row-major), so the accumulation is a pure
      // elementwise axpy — vector lanes are independent columns and the
      // kernel is bit-identical to the scalar loop.
      simd::Axpy(&out(r, 0), a, &other.data()[k * other.cols_], other.cols_);
    }
  }
  return out;
}

std::vector<double> Matrix::Multiply(const std::vector<double>& v) const {
  assert(v.size() == cols_);
  std::vector<double> out(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) {
      acc += (*this)(r, c) * v[c];
    }
    out[r] = acc;
  }
  return out;
}

std::vector<double> CholeskySolve(Matrix a, std::vector<double> b, double jitter) {
  assert(a.cols() == a.rows() && b.size() == a.rows());
  CholeskyWorkspace ws{std::move(a.data()), {}, {}};
  std::vector<double> x(b.size());
  CholeskySolveInto(ws, b, x, jitter);
  return x;
}

void CholeskySolveInto(CholeskyWorkspace& ws, std::span<const double> b,
                       std::span<double> x, double jitter) {
  const std::size_t n = b.size();
  assert(ws.a.size() == n * n && x.size() == n);
  const auto a = [&ws, n](std::size_t i, std::size_t j) -> double& {
    return ws.a[i * n + j];
  };
  // Every entry of l and y is written before it is read, so neither needs
  // clearing between attempts.
  ws.l.resize(n * n);
  ws.y.resize(n);
  const auto l = [&ws, n](std::size_t i, std::size_t j) -> double& {
    return ws.l[i * n + j];
  };
  std::vector<double>& y = ws.y;

  // Attempt the decomposition, escalating the ridge until every pivot is
  // positive. Regression callers pass well-scaled designs, so this loop
  // almost always succeeds on the first try. Column by column: the entries
  // below a pivot need only earlier columns, so they do not wait on each
  // other, and each is the row-by-row form's expression in its order.
  for (int attempt = 0; attempt < 8; ++attempt) {
    bool ok = true;
    for (std::size_t j = 0; j < n; ++j) {
      double pivot = a(j, j);
      for (std::size_t k = 0; k < j; ++k) {
        pivot -= l(j, k) * l(j, k);
      }
      if (pivot <= 0.0) {
        ok = false;
        break;
      }
      l(j, j) = std::sqrt(pivot);
      for (std::size_t i = j + 1; i < n; ++i) {
        double sum = a(i, j);
        for (std::size_t k = 0; k < j; ++k) {
          sum -= l(i, k) * l(j, k);
        }
        l(i, j) = sum / l(j, j);
      }
    }
    if (!ok) {
      for (std::size_t i = 0; i < n; ++i) {
        a(i, i) += jitter;
      }
      jitter *= 100.0;
      continue;
    }
    // Forward substitution: L y = b.
    for (std::size_t i = 0; i < n; ++i) {
      double sum = b[i];
      for (std::size_t k = 0; k < i; ++k) {
        sum -= l(i, k) * y[k];
      }
      y[i] = sum / l(i, i);
    }
    // Back substitution: L^T x = y.
    for (std::size_t ii = n; ii-- > 0;) {
      double sum = y[ii];
      for (std::size_t k = ii + 1; k < n; ++k) {
        sum -= l(k, ii) * x[k];
      }
      x[ii] = sum / l(ii, ii);
    }
    return;
  }
  // Hopeless matrix: return zeros so callers degrade to a null model.
  std::fill(x.begin(), x.end(), 0.0);
}

std::vector<double> GaussianSolve(Matrix a, std::vector<double> b) {
  const std::size_t n = a.rows();
  assert(a.cols() == n && b.size() == n);
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot.
    std::size_t pivot = col;
    double best = std::abs(a(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::abs(a(r, col)) > best) {
        best = std::abs(a(r, col));
        pivot = r;
      }
    }
    if (best < 1e-12) {
      return {};
    }
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(a(pivot, c), a(col, c));
      }
      std::swap(b[pivot], b[col]);
    }
    for (std::size_t r = col + 1; r < n; ++r) {
      const double f = a(r, col) / a(col, col);
      if (f == 0.0) {
        continue;
      }
      for (std::size_t c = col; c < n; ++c) {
        a(r, c) -= f * a(col, c);
      }
      b[r] -= f * b[col];
    }
  }
  std::vector<double> x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = b[ii];
    for (std::size_t c = ii + 1; c < n; ++c) {
      sum -= a(ii, c) * x[c];
    }
    x[ii] = sum / a(ii, ii);
  }
  return x;
}

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  assert(a.size() == b.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += a[i] * b[i];
  }
  return acc;
}

}  // namespace femux
