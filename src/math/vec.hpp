// Dense real vector with the operations the numerical kernels need.
//
// This is deliberately a small value type (not an expression-template
// library): problem sizes in this project are at most a few thousand, and
// clarity of the solver code matters more than avoiding temporaries.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

namespace scs {

class Fnv1a;

class Vec {
 public:
  Vec() = default;
  explicit Vec(std::size_t n, double value = 0.0);
  Vec(std::initializer_list<double> values);
  explicit Vec(std::vector<double> values);

  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator[](std::size_t i) { return data_[i]; }
  double operator[](std::size_t i) const { return data_[i]; }

  /// Bounds-checked access (throws PreconditionError).
  double& at(std::size_t i);
  double at(std::size_t i) const;

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  double* begin() { return data_.data(); }
  double* end() { return data_.data() + data_.size(); }
  const double* begin() const { return data_.data(); }
  const double* end() const { return data_.data() + data_.size(); }

  Vec& operator+=(const Vec& rhs);
  Vec& operator-=(const Vec& rhs);
  Vec& operator*=(double s);
  Vec& operator/=(double s);

  /// this += s * rhs.
  Vec& axpy(double s, const Vec& rhs);

  /// Euclidean norm.
  double norm() const;
  /// Maximum absolute entry (0 for empty vectors).
  double max_abs() const;
  /// Sum of entries.
  double sum() const;

  /// Fill with a constant.
  void fill(double value);

  std::string to_string() const;

 private:
  std::vector<double> data_;
};

Vec operator+(Vec lhs, const Vec& rhs);
Vec operator-(Vec lhs, const Vec& rhs);
Vec operator*(double s, Vec v);
Vec operator*(Vec v, double s);
Vec operator/(Vec v, double s);
Vec operator-(Vec v);

/// Dot product; sizes must match.
double dot(const Vec& a, const Vec& b);

/// Elementwise product.
Vec hadamard(const Vec& a, const Vec& b);

/// Concatenate two vectors (used to feed [state; action] into the critic).
Vec concat(const Vec& a, const Vec& b);

/// Fold a vector into a cache-key digest (size, then raw IEEE-754 bits).
void hash_append(Fnv1a& h, const Vec& v);

}  // namespace scs
