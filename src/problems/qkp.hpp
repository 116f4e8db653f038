// Quadratic Knapsack Problem (paper section IV-A, eq. 12):
//
//   min  -(1/2) x^T W x - h^T x     over x in {0,1}^N
//   s.t.  a^T x <= b
//
// with h in N^N item values, W symmetric nonnegative pair values (nonzero
// with probability d — the instance "density"), a in N^N weights and b the
// knapsack capacity. Costs are negative; the paper's accuracy metric is
// 100 * c(x)/OPT for feasible x (eq. 13).
//
// Instances follow the Billionnet–Soutif random scheme (their archive is
// not redistributable offline — see DESIGN.md substitutions): values
// uniform in [1,100], weights uniform in [1,50], capacity uniform in
// [50, sum(a)], all drawn from a deterministic per-name seed so that
// "300-50-8" always denotes the same instance.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "problems/constrained_problem.hpp"
#include "problems/slack.hpp"

namespace saim::problems {

class QkpInstance {
 public:
  QkpInstance() = default;
  QkpInstance(std::string name, std::vector<std::int64_t> values,
              std::vector<std::int64_t> pair_values,
              std::vector<std::int64_t> weights, std::int64_t capacity);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::size_t n() const noexcept { return values_.size(); }

  [[nodiscard]] std::int64_t value(std::size_t i) const {
    return values_.at(i);
  }
  [[nodiscard]] std::int64_t pair_value(std::size_t i, std::size_t j) const;
  /// Row i of W (length n, W_ii = 0).
  [[nodiscard]] std::span<const std::int64_t> pair_row(std::size_t i) const;
  [[nodiscard]] std::int64_t weight(std::size_t i) const {
    return weights_.at(i);
  }
  [[nodiscard]] std::int64_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::span<const std::int64_t> weights() const noexcept {
    return weights_;
  }
  [[nodiscard]] std::span<const std::int64_t> values() const noexcept {
    return values_;
  }

  /// Total profit h^T x + (1/2) x^T W x (a nonnegative integer).
  [[nodiscard]] std::int64_t profit(std::span<const std::uint8_t> x) const;

  /// Paper's cost c(x) = -profit(x) (minimization form, eq. 12).
  [[nodiscard]] std::int64_t cost(std::span<const std::uint8_t> x) const {
    return -profit(x);
  }

  [[nodiscard]] std::int64_t total_weight(
      std::span<const std::uint8_t> x) const;

  /// Raw feasibility a^T x <= b on the N decision bits.
  [[nodiscard]] bool feasible(std::span<const std::uint8_t> x) const {
    return total_weight(x) <= capacity_;
  }

  /// Fraction of nonzero off-diagonal pair values (the instance density d).
  [[nodiscard]] double density() const;

  /// max(|W|, |h|) — the paper's objective normalization constant.
  [[nodiscard]] std::int64_t max_objective_coefficient() const;

 private:
  std::string name_;
  std::vector<std::int64_t> values_;       ///< h, length n
  std::vector<std::int64_t> pair_values_;  ///< W dense n*n symmetric, 0 diag
  std::vector<std::int64_t> weights_;      ///< a, length n
  std::int64_t capacity_ = 0;              ///< b
};

struct QkpGeneratorParams {
  std::size_t n = 100;
  double density = 0.25;
  std::uint64_t seed = 1;
  std::int64_t max_value = 100;       ///< h_i, W_ij ~ U[1, max_value]
  std::int64_t max_weight = 50;       ///< a_i ~ U[1, max_weight]
  std::int64_t min_capacity = 50;     ///< b ~ U[min_capacity, sum(a)]
};

/// Deterministic random instance in the Billionnet–Soutif style.
QkpInstance generate_qkp(const QkpGeneratorParams& params);

/// Convenience for the paper's instance naming "N-d%-k", e.g. (300, 50, 8).
QkpInstance make_paper_qkp(std::size_t n, int density_percent, int index);

/// Result of lowering a QKP to the equality-constrained normalized form.
struct QkpMapping {
  ConstrainedProblem problem;  ///< objective+constraint over n+Q variables
  SlackEncoding slack;         ///< the capacity slack encoding
  double objective_scale = 1.0;   ///< raw f = objective_scale * normalized f
  double constraint_scale = 1.0;  ///< raw g = constraint_scale * normalized g
};

/// Builds min f = -(x^T W x)/2 - h^T x with equality constraint
/// a^T x + slack = b, normalized as in the paper: W,h by max(|W|,|h|) and
/// A,b by max(|A|,|b|) (slack coefficients included in A's maximum).
QkpMapping qkp_to_problem(const QkpInstance& instance, bool normalize = true);

/// Plain-text serialization (round-trips via load_qkp).
void save_qkp(std::ostream& os, const QkpInstance& instance);
QkpInstance load_qkp(std::istream& is);

/// Reader for the official Billionnet–Soutif archive format (jeu_N_d_k.txt):
///   name line, then n, then the n linear coefficients, then the strict
///   upper triangle of W row by row (n-1, n-2, ... entries), a blank-ish
///   separator value (constraint type, always 0/1 in the archive), the
///   capacity, and the n weights. Lets users who download the original
///   archive (https://cedric.cnam.fr/~soutif/QKP/) run the exact paper
///   instances through this library.
QkpInstance load_qkp_billionnet(std::istream& is);

/// Filesystem overload: opens `path` and parses it as Billionnet–Soutif.
/// Open failures and parse errors both name the file in the exception, so
/// a bad path in a 1000-line job stream is traceable.
QkpInstance load_qkp_billionnet(const std::string& path);

/// Filesystem overload of the plain-text load_qkp, same error contract.
QkpInstance load_qkp(const std::string& path);

}  // namespace saim::problems
