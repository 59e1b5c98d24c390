// SOS programming: polynomial identities with free and SOS-constrained
// decision polynomials, compiled to a block SDP (Section 4, relaxation (11)).
//
// A program is a conjunction of polynomial identities of the form
//
//     constant(x) + sum_k  q_k(x) * D_k( P_k(x) )  ==  0,
//
// where each P_k is a decision polynomial (free-coefficient or SOS/Gram),
// q_k is a known polynomial multiplier, and D_k is optionally a partial
// derivative d/dx_i (derivatives are only supported on free polynomials --
// that is all the barrier program needs for the Lie term of (12)).
//
// Compilation matches coefficients monomial-by-monomial: free-polynomial
// coefficients become SDP free variables, Gram matrices become PSD blocks.
#pragma once

#include <optional>
#include <vector>

#include "opt/sdp.hpp"
#include "poly/basis.hpp"
#include "poly/polynomial.hpp"

namespace scs {

/// Most negative Gram eigenvalue a feasible SOS program may have.
inline constexpr double kSosGramTol = 1e-6;

class SosProgram {
 public:
  /// Handle to a decision polynomial.
  struct PolyVar {
    std::size_t id = 0;
  };

  explicit SosProgram(std::size_t num_vars);

  /// A polynomial with free coefficients over the given monomial basis.
  PolyVar add_free_poly(const std::vector<Monomial>& basis);

  /// An SOS polynomial z(x)' G z(x) with PSD Gram matrix G over the given
  /// monomial vector z.
  PolyVar add_sos_poly(const std::vector<Monomial>& gram_basis);

  /// One term of an identity: multiplier * var, or multiplier * d(var)/dx_i
  /// when derivative_var is set (free polynomials only).
  struct Term {
    Polynomial multiplier;
    PolyVar var;
    std::optional<std::size_t> derivative_var;
  };

  /// Add the identity: constant + sum(terms) == 0.
  void add_identity(const Polynomial& constant, std::vector<Term> terms);

  /// Add the point-evaluation constraint P(point) == value for a decision
  /// polynomial (normalizations such as B(x_c) = 1 that remove the trivial
  /// shrink-to-zero solution of feasibility programs).
  void add_point_constraint(PolyVar var, const Vec& point, double value);

  std::size_t num_vars() const { return num_vars_; }
  std::size_t num_identities() const { return identities_.size(); }
  std::size_t num_poly_vars() const { return vars_.size(); }

  struct Result {
    bool feasible = false;
    SdpSolution sdp;
    /// Extracted value of every decision polynomial, indexed by PolyVar id.
    std::vector<Polynomial> values;
    /// Max |coefficient| of each identity's residual after substitution.
    std::vector<double> identity_residuals;
    /// Minimum Gram eigenvalue across all SOS variables (>= -tol required).
    double min_gram_eigenvalue = 0.0;
    std::string failure_reason;

    const Polynomial& value(PolyVar v) const { return values[v.id]; }
  };

  /// Compile and solve. Feasibility requires the SDP to converge, every
  /// identity residual to be below `identity_tol`, and every Gram matrix to
  /// be PSD within kSosGramTol. `control` (borrowed, may be null) stops the
  /// SDP on a job cancellation or deadline.
  Result solve(const JobControl* control = nullptr,
               double identity_tol = 1e-5) const;

  /// The compiled SDP (exposed for testing and diagnostics).
  SdpProblem compile() const;

 private:
  enum class VarKind { kFree, kSos };
  struct VarInfo {
    VarKind kind;
    std::vector<Monomial> basis;  // coefficient basis or Gram basis
    std::size_t offset = 0;       // free-var offset or block index
  };
  struct Identity {
    Polynomial constant;
    std::vector<Term> terms;
  };
  struct PointConstraint {
    std::size_t var_id;
    Vec point;
    double value;
  };

  std::size_t num_vars_;
  std::vector<VarInfo> vars_;
  std::vector<Identity> identities_;
  std::vector<PointConstraint> point_constraints_;
  std::size_t num_free_scalars_ = 0;
  std::size_t num_blocks_ = 0;
};

/// Reconstruct z' G z as an explicit polynomial.
Polynomial sos_poly_from_gram(const std::vector<Monomial>& gram_basis,
                              const Mat& gram);

}  // namespace scs
