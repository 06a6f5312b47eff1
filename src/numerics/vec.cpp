#include "numerics/vec.hpp"

#include <cmath>

namespace parmis::num {

double dot(const Vec& a, const Vec& b) {
  require(a.size() == b.size(), "dot: dimension mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm2(const Vec& a) { return std::sqrt(dot(a, a)); }

double squared_distance(const Vec& a, const Vec& b) {
  require(a.size() == b.size(), "squared_distance: dimension mismatch");
  return squared_distance(a.data(), b.data(), a.size());
}

Vec add(const Vec& a, const Vec& b) {
  require(a.size() == b.size(), "add: dimension mismatch");
  Vec out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

Vec sub(const Vec& a, const Vec& b) {
  require(a.size() == b.size(), "sub: dimension mismatch");
  Vec out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

Vec scale(const Vec& a, double s) {
  Vec out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] * s;
  return out;
}

void axpy(double alpha, const Vec& x, Vec& y) {
  require(x.size() == y.size(), "axpy: dimension mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

double mean(const Vec& a) {
  require(!a.empty(), "mean: empty vector");
  double s = 0.0;
  for (double v : a) s += v;
  return s / static_cast<double>(a.size());
}

double variance(const Vec& a) {
  if (a.size() < 2) return 0.0;
  const double m = mean(a);
  double s = 0.0;
  for (double v : a) s += (v - m) * (v - m);
  return s / static_cast<double>(a.size() - 1);
}

double stddev(const Vec& a) { return std::sqrt(variance(a)); }

}  // namespace parmis::num
