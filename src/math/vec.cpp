#include "math/vec.hpp"

#include <cmath>
#include <sstream>

#include "math/simd.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"

namespace scs {

Vec::Vec(std::size_t n, double value) : data_(n, value) {}

Vec::Vec(std::initializer_list<double> values) : data_(values) {}

Vec::Vec(std::vector<double> values) : data_(std::move(values)) {}

double& Vec::at(std::size_t i) {
  SCS_REQUIRE(i < data_.size(), "Vec::at: index out of range");
  return data_[i];
}

double Vec::at(std::size_t i) const {
  SCS_REQUIRE(i < data_.size(), "Vec::at: index out of range");
  return data_[i];
}

Vec& Vec::operator+=(const Vec& rhs) {
  SCS_REQUIRE(size() == rhs.size(), "Vec::operator+=: size mismatch");
  simd::add(data_.data(), rhs.data_.data(), size());
  return *this;
}

Vec& Vec::operator-=(const Vec& rhs) {
  SCS_REQUIRE(size() == rhs.size(), "Vec::operator-=: size mismatch");
  simd::sub(data_.data(), rhs.data_.data(), size());
  return *this;
}

Vec& Vec::operator*=(double s) {
  simd::scale(data_.data(), s, size());
  return *this;
}

Vec& Vec::operator/=(double s) {
  SCS_REQUIRE(s != 0.0, "Vec::operator/=: division by zero");
  for (auto& v : data_) v /= s;
  return *this;
}

Vec& Vec::axpy(double s, const Vec& rhs) {
  SCS_REQUIRE(size() == rhs.size(), "Vec::axpy: size mismatch");
  simd::axpy(data_.data(), s, rhs.data_.data(), size());
  return *this;
}

double Vec::norm() const {
  return std::sqrt(simd::dot(data_.data(), data_.data(), data_.size()));
}

double Vec::max_abs() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::fabs(v));
  return m;
}

double Vec::sum() const {
  double acc = 0.0;
  for (double v : data_) acc += v;
  return acc;
}

void Vec::fill(double value) {
  for (auto& v : data_) v = value;
}

std::string Vec::to_string() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < size(); ++i) {
    if (i) os << ", ";
    os << data_[i];
  }
  os << ']';
  return os.str();
}

Vec operator+(Vec lhs, const Vec& rhs) { return lhs += rhs; }
Vec operator-(Vec lhs, const Vec& rhs) { return lhs -= rhs; }
Vec operator*(double s, Vec v) { return v *= s; }
Vec operator*(Vec v, double s) { return v *= s; }
Vec operator/(Vec v, double s) { return v /= s; }
Vec operator-(Vec v) { return v *= -1.0; }

double dot(const Vec& a, const Vec& b) {
  SCS_REQUIRE(a.size() == b.size(), "dot: size mismatch");
  return simd::dot(a.begin(), b.begin(), a.size());
}

Vec hadamard(const Vec& a, const Vec& b) {
  SCS_REQUIRE(a.size() == b.size(), "hadamard: size mismatch");
  Vec out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] * b[i];
  return out;
}

Vec concat(const Vec& a, const Vec& b) {
  Vec out(a.size() + b.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i];
  for (std::size_t i = 0; i < b.size(); ++i) out[a.size() + i] = b[i];
  return out;
}

void hash_append(Fnv1a& h, const Vec& v) {
  hash_append(h, static_cast<std::uint64_t>(v.size()));
  for (std::size_t i = 0; i < v.size(); ++i) hash_append(h, v[i]);
}

}  // namespace scs
