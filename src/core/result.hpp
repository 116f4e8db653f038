// Result and trace types shared by the SAIM solver and the penalty-method
// baseline. The per-iteration history is what the paper's Fig. 3 (QKP) and
// Fig. 5 (MKP) plot: sample cost colored by feasibility, plus the Lagrange
// multiplier staircase.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "ising/qubo_model.hpp"
#include "util/stats.hpp"

namespace saim::core {

/// How a solve ended. Anything but kCompleted means the result is partial:
/// only the outer iterations finished before the stop carry samples, but
/// every field (best feasible sample, counters, history) is still valid
/// for the work actually done.
enum class Status {
  kCompleted,  ///< ran its full iteration budget (or converged early)
  kDeadline,   ///< stopped by an expired StopToken deadline
  kCancelled,  ///< stopped by an explicit StopSource::request_stop()
  kError,      ///< aborted by an execution error (service-level only)
};

[[nodiscard]] constexpr const char* to_string(Status s) noexcept {
  switch (s) {
    case Status::kCompleted: return "completed";
    case Status::kDeadline: return "deadline";
    case Status::kCancelled: return "cancelled";
    case Status::kError: return "error";
  }
  return "unknown";
}

/// One outer iteration (one SA run of the inner Ising machine).
struct IterationRecord {
  std::size_t iteration = 0;
  double sample_cost = 0.0;  ///< raw cost c(x_k) of the measured sample
  bool feasible = false;     ///< raw inequality feasibility of the sample
  double lagrangian_energy = 0.0;  ///< normalized L(x_k; lambda_k)
  double max_violation = 0.0;      ///< max_m |g_m(x_k)| (normalized)
  std::vector<double> lambda;      ///< multipliers used for this iteration
};

struct SolveResult {
  Status status = Status::kCompleted;
  bool found_feasible = false;
  ising::Bits best_x;  ///< decision bits of the best feasible sample
  double best_cost = std::numeric_limits<double>::infinity();  ///< raw cost

  std::size_t total_runs = 0;    ///< SA runs performed (K)
  std::size_t total_sweeps = 0;  ///< total MCS consumed (sample budget)
  std::size_t feasible_count = 0;

  /// Outer iteration (0-based) that measured the first feasible sample;
  /// empty when none did.
  std::optional<std::size_t> first_feasible_iter;
  /// max_m |g_m| of the last iteration's guide sample (the sample the
  /// final lambda update used), in normalized units; 0 when no iteration
  /// ran. How close a never-feasible solve came.
  double final_max_violation = 0.0;
  /// sum_m |lambda_m| of the multipliers the dual ascent ended with.
  double lambda_l1 = 0.0;

  /// Raw-cost statistics over feasible samples only (the paper's "Avg"
  /// column averages accuracy over feasible samples).
  util::RunningStats feasible_cost_stats;

  /// Raw cost of every feasible sample, in iteration order (enabled by
  /// SaimOptions::collect_feasible_costs). Powers the "Optimality %" column
  /// of Tables III-V: the share of feasible samples hitting the optimum.
  std::vector<double> feasible_costs;

  /// Fraction (%) of feasible samples with cost <= reference + tol.
  [[nodiscard]] double optimality_percent(double reference,
                                          double tol = 1e-9) const noexcept {
    if (feasible_costs.empty()) return 0.0;
    std::size_t hits = 0;
    for (const double c : feasible_costs) {
      if (c <= reference + tol) ++hits;
    }
    return 100.0 * static_cast<double>(hits) /
           static_cast<double>(feasible_costs.size());
  }

  /// Filled only when history recording is enabled.
  std::vector<IterationRecord> history;

  /// Fraction of measured samples that were feasible — the parenthesized
  /// percentage in Tables II-V.
  [[nodiscard]] double feasibility_rate() const noexcept {
    return total_runs
               ? static_cast<double>(feasible_count) /
                     static_cast<double>(total_runs)
               : 0.0;
  }
};

/// Paper eq. (13): accuracy(%) = 100 * c / OPT with negative costs, so a
/// feasible sample scores <= 100 and OPT scores exactly 100.
[[nodiscard]] inline double accuracy_percent(double cost,
                                             double opt) noexcept {
  return opt != 0.0 ? 100.0 * cost / opt : 0.0;
}

}  // namespace saim::core

namespace saim::util {
class CsvWriter;
}

namespace saim::core {

/// Writes a recorded history as CSV (iteration, cost, feasible, L, max
/// violation, lambda_*) — the format behind the Fig. 3 / Fig. 5 traces.
void write_history_csv(util::CsvWriter& csv,
                       const std::vector<IterationRecord>& history);

}  // namespace saim::core
