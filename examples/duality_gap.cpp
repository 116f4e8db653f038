// The paper's Fig. 2 story, computed exactly: how the Lagrange relaxation
// closes the duality gap that a too-small penalty leaves open.
//
// On a small QKP (enumerable), we compute for a sweep of penalties P:
//   * LB_P  = min_x E(x)        — penalty-method bound (eq. 4)
//   * whether argmin E is feasible
//   * LB_L  = max_lambda min_x L(x; lambda) — the Lagrangian dual value,
//     obtained by running SAIM with the *exact* inner minimizer (pure
//     subgradient dual ascent) and taking the best bound along the path
// and compare both against OPT from exhaustive enumeration. The printout
// shows exactly the paper's message: for P below the critical value the
// penalty bound sits strictly below OPT at an unfeasible minimizer, while
// the adaptive lambda closes (or nearly closes) the gap at the same P.
#include <cstdio>

#include "anneal/exact_backend.hpp"
#include "core/penalty_method.hpp"
#include "core/saim_solver.hpp"
#include "exact/exhaustive.hpp"
#include "lagrange/lagrangian_model.hpp"
#include "problems/qkp.hpp"

int main() {
  using namespace saim;

  // Handcrafted 10-item QKP with a small capacity so the slack-extended
  // system stays fully enumerable (10 + 4 slack bits = 16k states).
  const std::size_t n = 10;
  std::vector<std::int64_t> values = {64, 21, 90, 35, 50, 12, 78, 44, 9, 67};
  std::vector<std::int64_t> pairs(n * n, 0);
  auto pair = [&](std::size_t i, std::size_t j, std::int64_t w) {
    pairs[i * n + j] = w;
    pairs[j * n + i] = w;
  };
  pair(0, 2, 40);
  pair(1, 3, 25);
  pair(2, 6, 55);
  pair(4, 9, 30);
  pair(5, 7, 15);
  pair(6, 9, 45);
  const std::vector<std::int64_t> weights = {4, 2, 7, 3, 5, 2, 6, 4, 1, 5};
  const problems::QkpInstance inst("toy-10", values, pairs, weights, 15);
  const auto mapping = problems::qkp_to_problem(inst);
  const std::size_t total = mapping.problem.n();
  std::printf("QKP %s lowered to %zu binaries (10 items + %zu slack)\n",
              inst.name().c_str(), total, mapping.slack.num_bits());

  // OPT over the full slack-extended equality system, in normalized units.
  const auto opt = exact::exhaustive_minimize(
      total, [&](std::span<const std::uint8_t> x) {
        exact::Verdict v;
        v.feasible = mapping.problem.max_violation(x) <= 1e-9;
        v.cost = mapping.problem.objective_value(x);
        return v;
      });
  std::printf("OPT (normalized) = %.4f, feasible configs = %llu\n\n",
              opt.best_cost,
              static_cast<unsigned long long>(opt.feasible_count));

  std::printf("%8s %12s %10s %12s %10s\n", "P", "LB_P", "argmin", "LB_L",
              "gap-left");
  for (const double penalty : {0.1, 0.5, 1.0, 2.0, 5.0, 15.0, 40.0}) {
    // Penalty bound: exact min of E = f + P||g||^2.
    lagrange::LagrangianModel model(mapping.problem, penalty);
    const auto emin = exact::exhaustive_minimize(
        total, [&](std::span<const std::uint8_t> x) {
          return exact::Verdict{true, model.lagrangian(x)};
        });
    const bool argmin_feasible =
        mapping.problem.max_violation(emin.best_x) <= 1e-9;

    // Dual bound via exact-inner-solver SAIM: each iteration's
    // L(x_k; lambda_k) with the exact minimizer IS LB_L(lambda_k); the
    // maximum along the ascent approximates max_lambda LB_L.
    anneal::ExactBackend backend;
    core::SaimOptions opts;
    opts.iterations = 400;
    opts.eta = 2.0;
    opts.penalty = penalty;
    opts.record_history = true;
    core::SaimSolver solver(mapping.problem, backend, opts);
    const auto result = solver.solve();
    double dual_bound = -1e300;
    for (const auto& rec : result.history) {
      dual_bound = std::max(dual_bound, rec.lagrangian_energy);
    }

    std::printf("%8.1f %12.4f %10s %12.4f %9.1f%%\n", penalty,
                emin.best_cost, argmin_feasible ? "feasible" : "UNFEAS",
                dual_bound,
                opt.best_cost != 0.0
                    ? 100.0 * (opt.best_cost - dual_bound) / -opt.best_cost
                    : 0.0);
  }
  std::printf(
      "\nreading: LB_P < OPT with an UNFEASIBLE argmin marks P < P_C "
      "(paper Fig. 2a); LB_L recovers most of that gap at the same P "
      "(Fig. 2b), which is why SAIM can run with small untuned "
      "penalties.\n");
  return 0;
}
