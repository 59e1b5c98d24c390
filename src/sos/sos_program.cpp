#include "sos/sos_program.hpp"

#include <cstdio>
#include <map>

#include "math/eigen_sym.hpp"
#include "math/qr.hpp"
#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace scs {

SosProgram::SosProgram(std::size_t num_vars) : num_vars_(num_vars) {
  SCS_REQUIRE(num_vars > 0, "SosProgram: need at least one variable");
}

SosProgram::PolyVar SosProgram::add_free_poly(
    const std::vector<Monomial>& basis) {
  SCS_REQUIRE(!basis.empty(), "add_free_poly: empty basis");
  for (const auto& m : basis)
    SCS_REQUIRE(m.num_vars() == num_vars_,
                "add_free_poly: basis variable count mismatch");
  VarInfo info;
  info.kind = VarKind::kFree;
  info.basis = basis;
  info.offset = num_free_scalars_;
  num_free_scalars_ += basis.size();
  vars_.push_back(std::move(info));
  return PolyVar{vars_.size() - 1};
}

SosProgram::PolyVar SosProgram::add_sos_poly(
    const std::vector<Monomial>& gram_basis) {
  SCS_REQUIRE(!gram_basis.empty(), "add_sos_poly: empty Gram basis");
  for (const auto& m : gram_basis)
    SCS_REQUIRE(m.num_vars() == num_vars_,
                "add_sos_poly: basis variable count mismatch");
  VarInfo info;
  info.kind = VarKind::kSos;
  info.basis = gram_basis;
  info.offset = num_blocks_;
  ++num_blocks_;
  vars_.push_back(std::move(info));
  return PolyVar{vars_.size() - 1};
}

void SosProgram::add_identity(const Polynomial& constant,
                              std::vector<Term> terms) {
  SCS_REQUIRE(constant.num_vars() == num_vars_,
              "add_identity: constant variable count mismatch");
  for (const auto& t : terms) {
    SCS_REQUIRE(t.var.id < vars_.size(), "add_identity: unknown variable");
    SCS_REQUIRE(t.multiplier.num_vars() == num_vars_,
                "add_identity: multiplier variable count mismatch");
    if (t.derivative_var.has_value()) {
      SCS_REQUIRE(*t.derivative_var < num_vars_,
                  "add_identity: derivative variable out of range");
      SCS_REQUIRE(vars_[t.var.id].kind == VarKind::kFree,
                  "add_identity: derivatives only supported on free polys");
    }
  }
  identities_.push_back({constant, std::move(terms)});
}

void SosProgram::add_point_constraint(PolyVar var, const Vec& point,
                                      double value) {
  SCS_REQUIRE(var.id < vars_.size(), "add_point_constraint: unknown variable");
  SCS_REQUIRE(point.size() == num_vars_,
              "add_point_constraint: point dimension mismatch");
  point_constraints_.push_back({var.id, point, value});
}

SdpProblem SosProgram::compile() const {
  SCS_REQUIRE(!identities_.empty(), "compile: no identities added");
  SdpProblem sdp;
  sdp.num_free = num_free_scalars_;
  sdp.block_dims.resize(num_blocks_);
  for (std::size_t k = 0; k < vars_.size(); ++k)
    if (vars_[k].kind == VarKind::kSos)
      sdp.block_dims[vars_[k].offset] = vars_[k].basis.size();
  // Feasibility objective: minimize total Gram trace (keeps certificates
  // small and gives the IPM a well-posed optimum).
  sdp.block_obj_weight.assign(num_blocks_, 1.0);

  for (const auto& ident : identities_) {
    // Equations for this identity, keyed by monomial.
    std::map<Monomial, SdpConstraint, GrlexLess> equations;
    const auto equation = [&](const Monomial& mono) -> SdpConstraint& {
      return equations[mono];
    };

    // Constant part: moves to the RHS with a sign flip.
    for (const auto& [mono, coeff] : ident.constant.terms())
      equation(mono).rhs -= coeff;

    for (const auto& term : ident.terms) {
      const VarInfo& info = vars_[term.var.id];
      const std::vector<Monomial>& var_basis = info.basis;
      if (info.kind == VarKind::kFree) {
        for (std::size_t j = 0; j < var_basis.size(); ++j) {
          // Effective basis element: m_j or d(m_j)/dx_i.
          double scale = 1.0;
          Monomial mj = var_basis[j];
          if (term.derivative_var.has_value()) {
            const auto [k, dm] = mj.derivative(*term.derivative_var);
            if (k == 0) continue;
            scale = static_cast<double>(k);
            mj = dm;
          }
          for (const auto& [qm, qc] : term.multiplier.terms()) {
            const Monomial target = qm * mj;
            equation(target).free_terms.emplace_back(info.offset + j,
                                                     qc * scale);
          }
        }
      } else {
        // SOS variable: q * z' G z. Entry convention: SdpEntry(value = v)
        // contributes v * G(a,a) on the diagonal and 2 v * G(a,b) off it,
        // exactly matching the ordered-pair expansion of z' G z.
        const auto& z = var_basis;
        for (std::size_t a = 0; a < z.size(); ++a) {
          for (std::size_t bcol = a; bcol < z.size(); ++bcol) {
            const Monomial zz = z[a] * z[bcol];
            for (const auto& [qm, qc] : term.multiplier.terms()) {
              const Monomial target = qm * zz;
              SdpEntry e;
              e.block = info.offset;
              e.row = a;
              e.col = bcol;
              e.value = qc;
              equation(target).entries.push_back(e);
            }
          }
        }
      }
    }

    // Merge duplicate free terms / entries per equation and emit.
    for (auto& [mono, con] : equations) {
      (void)mono;
      // Combine repeated free-variable terms.
      std::map<std::size_t, double> combined;
      for (const auto& [idx, coeff] : con.free_terms) combined[idx] += coeff;
      con.free_terms.clear();
      for (const auto& [idx, coeff] : combined)
        if (coeff != 0.0) con.free_terms.emplace_back(idx, coeff);
      // Combine repeated Gram entries.
      std::map<std::tuple<std::size_t, std::size_t, std::size_t>, double>
          centries;
      for (const auto& e : con.entries)
        centries[{e.block, e.row, e.col}] += e.value;
      con.entries.clear();
      for (const auto& [key, value] : centries) {
        if (value == 0.0) continue;
        con.entries.push_back(
            {std::get<0>(key), std::get<1>(key), std::get<2>(key), value});
      }
      sdp.constraints.push_back(std::move(con));
    }
  }

  // Point-evaluation constraints.
  for (const auto& pc : point_constraints_) {
    const VarInfo& info = vars_[pc.var_id];
    const std::vector<Monomial>& var_basis = info.basis;
    SdpConstraint con;
    con.rhs = pc.value;
    if (info.kind == VarKind::kFree) {
      for (std::size_t j = 0; j < var_basis.size(); ++j) {
        const double phi = var_basis[j].evaluate(pc.point);
        if (phi != 0.0) con.free_terms.emplace_back(info.offset + j, phi);
      }
    } else {
      // z(x)' G z(x) = value: diagonal entries contribute z_a^2, off-diagonal
      // pairs 2 z_a z_b (the entry convention supplies the factor of two).
      const Vec z = evaluate_basis(var_basis, pc.point);
      for (std::size_t a = 0; a < z.size(); ++a)
        for (std::size_t b = a; b < z.size(); ++b) {
          const double v = z[a] * z[b];
          if (v != 0.0)
            con.entries.push_back({info.offset, a, b, v});
        }
    }
    sdp.constraints.push_back(std::move(con));
  }
  return sdp;
}

Polynomial sos_poly_from_gram(const std::vector<Monomial>& gram_basis,
                              const Mat& gram) {
  SCS_REQUIRE(gram.rows() == gram_basis.size() &&
                  gram.cols() == gram_basis.size(),
              "sos_poly_from_gram: Gram size mismatch");
  SCS_REQUIRE(!gram_basis.empty(), "sos_poly_from_gram: empty basis");
  Polynomial p(gram_basis.front().num_vars());
  for (std::size_t a = 0; a < gram_basis.size(); ++a) {
    for (std::size_t b = 0; b < gram_basis.size(); ++b) {
      const double g = gram(a, b);
      if (g == 0.0) continue;
      p += Polynomial::term(g, gram_basis[a] * gram_basis[b]);
    }
  }
  return p;
}

SosProgram::Result SosProgram::solve(const SdpOptions& sdp_options,
                                     double identity_tol,
                                     double gram_tol) const {
  Result result;
  if (metrics_enabled()) {
    // perfbench reads this counter as `sos.gram_dim`; keep the name.
    std::size_t gram_dim = 0;
    for (const auto& v : vars_)
      if (v.kind == VarKind::kSos) gram_dim += v.basis.size();
    static Counter& dim =
        MetricsRegistry::instance().counter("sos.prune.gram_dim");
    dim.add(gram_dim);
  }
  const SdpProblem sdp = compile();
  if (sdp.block_dims.empty()) {
    // No SOS variables: the identities are a plain linear system in the free
    // coefficients. Solve it by least squares; the residual check below is
    // the acceptance test.
    const std::size_t m = sdp.constraints.size();
    const std::size_t s = sdp.num_free;
    // One ridge row per free variable keeps the stacked system full column
    // rank even when the identities leave some coefficients untouched
    // (those solve to ~0, the minimum-norm choice).
    Mat bmat(m + s, s);
    Vec rhs(m + s, 0.0);
    for (std::size_t i = 0; i < m; ++i) {
      for (const auto& [idx, coeff] : sdp.constraints[i].free_terms)
        bmat(i, idx) += coeff;
      rhs[i] = sdp.constraints[i].rhs;
    }
    for (std::size_t j = 0; j < s; ++j) bmat(m + j, j) = 1e-10;
    try {
      result.sdp.free_vars = Qr(bmat).solve_least_squares(rhs);
    } catch (const PreconditionError&) {
      result.failure_reason = "free-coefficient system is rank deficient";
      return result;
    }
    result.sdp.status = SdpStatus::kConverged;
    result.sdp.x.clear();
  } else {
    result.sdp = solve_sdp(sdp, sdp_options);
  }

  if (result.sdp.status == SdpStatus::kInfeasible && result.sdp.x.empty()) {
    result.failure_reason = "SDP structurally infeasible";
    return result;
  }
  if (result.sdp.status == SdpStatus::kNumericalFailure &&
      result.sdp.iterations <= 1) {
    result.failure_reason = "SDP numerical failure";
    return result;
  }

  // Extract decision polynomials regardless of status; the residual /
  // PSD checks below are the real acceptance test. A certified-infeasible
  // run keeps its last iterate too: the alternating BMI seeds its next
  // lambda- and B-step from it.
  result.values.resize(vars_.size());
  result.min_gram_eigenvalue = 0.0;
  bool first_gram = true;
  for (std::size_t k = 0; k < vars_.size(); ++k) {
    const VarInfo& info = vars_[k];
    if (info.kind == VarKind::kFree) {
      Vec coeffs(info.basis.size());
      for (std::size_t j = 0; j < info.basis.size(); ++j)
        coeffs[j] = result.sdp.free_vars[info.offset + j];
      result.values[k] = Polynomial::from_coefficients(info.basis, coeffs);
    } else {
      const Mat& gram = result.sdp.x[info.offset];
      result.values[k] = sos_poly_from_gram(info.basis, gram);
      const double ev = min_eigenvalue(gram);
      result.min_gram_eigenvalue =
          first_gram ? ev : std::min(result.min_gram_eigenvalue, ev);
      first_gram = false;
    }
  }

  // Identity residuals, normalized by each identity's coefficient scale so
  // the tolerance is meaningful for large-coefficient dynamics.
  double max_residual = 0.0;
  for (const auto& ident : identities_) {
    Polynomial residual = ident.constant;
    double scale = std::max(1.0, ident.constant.max_abs_coefficient());
    for (const auto& term : ident.terms) {
      Polynomial v = result.values[term.var.id];
      if (term.derivative_var.has_value())
        v = v.derivative(*term.derivative_var);
      scale = std::max(scale, term.multiplier.max_abs_coefficient() *
                                  std::max(1.0, v.max_abs_coefficient()));
      residual += term.multiplier * v;
    }
    const double r = residual.max_abs_coefficient();
    result.identity_residuals.push_back(r);
    max_residual = std::max(max_residual, r / scale);
  }

  // On rejection, carry the structured solver status (stalled, time-limit,
  // ...) so callers can tell a numeric breakdown from a genuinely
  // infeasible SOS program.
  const auto sdp_suffix = [&result]() -> std::string {
    if (result.sdp.status == SdpStatus::kConverged) return "";
    std::string s = std::string(" [sdp ") + to_string(result.sdp.status);
    if (result.sdp.restarts > 0)
      s += " after " + std::to_string(result.sdp.restarts) + " restart(s)";
    return s + "]";
  };
  if (result.sdp.status == SdpStatus::kInfeasible) {
    char bound[32];
    std::snprintf(bound, sizeof bound, "%.3g",
                  result.sdp.infeasibility_bound);
    result.failure_reason =
        std::string("SDP infeasible: every solution has Σ tr(G) + ‖f‖ ≥ ") +
        bound;
    return result;
  }
  if (max_residual > identity_tol) {
    result.failure_reason = "identity residual " +
                            std::to_string(max_residual) + " exceeds tol" +
                            sdp_suffix();
    return result;
  }
  if (result.min_gram_eigenvalue < -gram_tol) {
    result.failure_reason = "Gram matrix not PSD (min eig " +
                            std::to_string(result.min_gram_eigenvalue) + ")" +
                            sdp_suffix();
    return result;
  }
  result.feasible = true;
  return result;
}

}  // namespace scs
