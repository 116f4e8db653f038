#include "lagrange/lagrangian_model.hpp"

#include <stdexcept>
#include <utility>

namespace saim::lagrange {

LagrangianModel::LagrangianModel(const problems::ConstrainedProblem& problem,
                                 double penalty)
    : problem_(&problem),
      penalty_(penalty),
      lambda_(problem.num_constraints(), 0.0) {
  if (penalty_ < 0.0) {
    throw std::invalid_argument("LagrangianModel: penalty must be >= 0");
  }
  const std::size_t n = problem.n();
  const auto& f = problem.objective();
  const auto& constraints = problem.constraints();

  // Linear terms and offset of f + P ||g||^2: for g_m = a.x - b,
  //   g_m^2 = sum_j a_j^2 x_j + 2 sum_{j<k} a_j a_k x_j x_k
  //           - 2 b sum_j a_j x_j + b^2         (x_j^2 == x_j).
  base_linear_.resize(n);
  for (std::size_t i = 0; i < n; ++i) base_linear_[i] = 0.0 + f.linear(i);
  base_offset_ = 0.0 + f.offset();
  // 2P a_u for every term u of every row (the coupling of terms u < v of
  // one row is (2P a_u) a_v), and the seats of variable i, [seat_begin[i],
  // seat_begin[i + 1]): the (row, term) pairs naming it, rows ascending.
  std::vector<std::vector<double>> twice_pa(constraints.size());
  std::vector<std::size_t> seat_begin(n + 1, 0);
  for (std::size_t m = 0; m < constraints.size(); ++m) {
    const auto& row = constraints[m];
    for (const auto& [j, aj] : row.terms) {
      base_linear_[j] += penalty_ * aj * (aj - 2.0 * row.rhs);
      twice_pa[m].push_back(2.0 * penalty_ * aj);
      ++seat_begin[j + 1];
    }
    base_offset_ += penalty_ * row.rhs * row.rhs;
  }
  for (std::size_t i = 0; i < n; ++i) seat_begin[i + 1] += seat_begin[i];
  std::vector<std::pair<std::uint32_t, std::uint32_t>> seats(seat_begin[n]);
  std::vector<std::size_t> next(seat_begin.begin(), seat_begin.end() - 1);
  for (std::size_t m = 0; m < constraints.size(); ++m) {
    const auto& terms = constraints[m].terms;
    for (std::size_t u = 0; u < terms.size(); ++u) {
      seats[next[terms[u].first]++] = {static_cast<std::uint32_t>(m),
                                       static_cast<std::uint32_t>(u)};
    }
  }

  // J, the row sums and the quadratic offsets, one row of Q at a time.
  // Q's zeros are exactly +0.0 (0.0 + f_ij, and a sum that cancels rounds
  // to +0.0), so the sums run over every entry: adding +0.0 leaves them as
  // adding only the nonzero Q_ij would.
  std::vector<double> coupling(n * n);
  std::vector<double> q(n);
  ising_row_sum_.resize(n);
  double ising_offset = base_offset_;
  for (std::size_t i = 0; i < n; ++i) {
    const auto f_row = f.row(i);
    for (std::size_t j = 0; j < n; ++j) q[j] = 0.0 + f_row[j];
    for (std::size_t s = seat_begin[i]; s < seat_begin[i + 1]; ++s) {
      const auto [m, u] = seats[s];
      const auto& terms = constraints[m].terms;
      const double* pa = twice_pa[m].data();
      const double ai = terms[u].second;
      for (std::size_t v = 0; v < u; ++v) q[terms[v].first] += pa[v] * ai;
      for (std::size_t v = u + 1; v < terms.size(); ++v) {
        q[terms[v].first] += pa[u] * terms[v].second;
      }
    }
    double* j_row = coupling.data() + i * n;
    for (std::size_t j = 0; j < n; ++j) j_row[j] = 0.0 - q[j] / 4.0;
    double row_sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) row_sum += q[j];
    ising_row_sum_[i] = row_sum;
    for (std::size_t j = i + 1; j < n; ++j) {
      ising_quad_offset_ += q[j] / 4.0;
      ising_offset += q[j] / 4.0;
    }
  }

  // h_i = -(q_i/2 + row_sum_i/4) at lambda = 0.
  std::vector<double> field(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double qi = base_linear_[i];
    field[i] = -(qi / 2.0 + ising_row_sum_[i] / 4.0);
    ising_offset += qi / 2.0;
  }
  linear_ = base_linear_;
  ising_ = ising::IsingModel(std::move(coupling), std::move(field),
                             ising_offset);
}

void LagrangianModel::set_lambda(std::span<const double> lambda) {
  if (lambda.size() != lambda_.size()) {
    throw std::invalid_argument("LagrangianModel::set_lambda: size mismatch");
  }
  lambda_.assign(lambda.begin(), lambda.end());
  rebuild_linear();
}

void LagrangianModel::rebuild_linear() {
  // q = base_q + sum_m lambda_m a_m ;  c = base_c - sum_m lambda_m b_m.
  auto& q = linear_;
  for (std::size_t i = 0; i < q.size(); ++i) q[i] = base_linear_[i];
  double offset = base_offset_;
  const auto& constraints = problem_->constraints();
  for (std::size_t m = 0; m < constraints.size(); ++m) {
    const double lm = lambda_[m];
    if (lm == 0.0) continue;
    for (const auto& [j, aj] : constraints[m].terms) {
      q[j] += lm * aj;
    }
    offset -= lm * constraints[m].rhs;
  }

  // Refresh Ising fields/offset in place (couplings and row sums fixed).
  double ising_offset = offset + ising_quad_offset_;
  for (std::size_t i = 0; i < q.size(); ++i) {
    ising_.set_field(i, -(q[i] / 2.0 + ising_row_sum_[i] / 4.0));
    ising_offset += q[i] / 2.0;
  }
  ising_.set_offset(ising_offset);
}

double LagrangianModel::lagrangian(std::span<const std::uint8_t> x) const {
  double acc = problem_->objective_value(x);
  const auto& constraints = problem_->constraints();
  for (std::size_t m = 0; m < constraints.size(); ++m) {
    const double g = constraints[m].eval(x);
    acc += penalty_ * g * g + lambda_[m] * g;
  }
  return acc;
}

double heuristic_penalty(const problems::ConstrainedProblem& problem,
                         double alpha) {
  return alpha * problem.density_for_penalty() *
         static_cast<double>(problem.n());
}

}  // namespace saim::lagrange
