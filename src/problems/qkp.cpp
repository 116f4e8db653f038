#include "problems/qkp.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "problems/file_io.hpp"
#include "util/rng.hpp"

namespace saim::problems {

QkpInstance::QkpInstance(std::string name, std::vector<std::int64_t> values,
                         std::vector<std::int64_t> pair_values,
                         std::vector<std::int64_t> weights,
                         std::int64_t capacity)
    : name_(std::move(name)),
      values_(std::move(values)),
      pair_values_(std::move(pair_values)),
      weights_(std::move(weights)),
      capacity_(capacity) {
  const std::size_t n = values_.size();
  if (pair_values_.size() != n * n) {
    throw std::invalid_argument("QkpInstance: W must be n*n");
  }
  if (weights_.size() != n) {
    throw std::invalid_argument("QkpInstance: weights must have length n");
  }
  if (capacity_ < 0) {
    throw std::invalid_argument("QkpInstance: capacity must be >= 0");
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (pair_values_[i * n + i] != 0) {
      throw std::invalid_argument("QkpInstance: W diagonal must be zero");
    }
    for (std::size_t j = i + 1; j < n; ++j) {
      if (pair_values_[i * n + j] != pair_values_[j * n + i]) {
        throw std::invalid_argument("QkpInstance: W must be symmetric");
      }
    }
  }
}

std::int64_t QkpInstance::pair_value(std::size_t i, std::size_t j) const {
  const std::size_t n = values_.size();
  if (i >= n || j >= n) {
    throw std::out_of_range("QkpInstance::pair_value: index out of range");
  }
  return pair_values_[i * n + j];
}

std::int64_t QkpInstance::profit(std::span<const std::uint8_t> x) const {
  // Exact int64 sums, so any order gives the same profit: the pair loop
  // masks each term instead of branching on x_j, which a sampled x
  // mispredicts about half the time, and vectorizes.
  const std::size_t n = values_.size();
  std::int64_t p = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!x[i]) continue;
    p += values_[i];
    const std::int64_t* row = pair_values_.data() + i * n;
    for (std::size_t j = i + 1; j < n; ++j) {
      p += row[j] & -static_cast<std::int64_t>(x[j] != 0);
    }
  }
  return p;
}

std::int64_t QkpInstance::total_weight(
    std::span<const std::uint8_t> x) const {
  std::int64_t w = 0;
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    if (x[i]) w += weights_[i];
  }
  return w;
}

double QkpInstance::density() const {
  const std::size_t n = values_.size();
  if (n < 2) return 0.0;
  std::size_t nnz = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (pair_values_[i * n + j] != 0) ++nnz;
    }
  }
  return static_cast<double>(nnz) /
         (0.5 * static_cast<double>(n) * static_cast<double>(n - 1));
}

std::int64_t QkpInstance::max_objective_coefficient() const {
  std::int64_t m = 0;
  for (const auto v : values_) m = std::max(m, std::abs(v));
  for (const auto v : pair_values_) m = std::max(m, std::abs(v));
  return m;
}

QkpInstance generate_qkp(const QkpGeneratorParams& params) {
  if (params.n == 0) {
    throw std::invalid_argument("generate_qkp: n must be positive");
  }
  if (params.density < 0.0 || params.density > 1.0) {
    throw std::invalid_argument("generate_qkp: density must be in [0,1]");
  }
  util::Xoshiro256pp rng(params.seed);

  const std::size_t n = params.n;
  std::vector<std::int64_t> values(n);
  std::vector<std::int64_t> pair_values(n * n, 0);
  std::vector<std::int64_t> weights(n);

  for (auto& v : values) v = rng.range(1, params.max_value);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.uniform01() < params.density) {
        const std::int64_t w = rng.range(1, params.max_value);
        pair_values[i * n + j] = w;
        pair_values[j * n + i] = w;
      }
    }
  }
  std::int64_t weight_sum = 0;
  for (auto& w : weights) {
    w = rng.range(1, params.max_weight);
    weight_sum += w;
  }
  // Capacity uniform in [min_capacity, sum(a)] as in Billionnet–Soutif;
  // guard degenerate tiny instances where sum(a) < min_capacity.
  const std::int64_t lo = std::min(params.min_capacity, weight_sum);
  const std::int64_t capacity = rng.range(lo, weight_sum);

  std::string name = std::to_string(n) + "-" +
                     std::to_string(static_cast<int>(params.density * 100)) +
                     "-seed" + std::to_string(params.seed);
  return QkpInstance(std::move(name), std::move(values),
                     std::move(pair_values), std::move(weights), capacity);
}

QkpInstance make_paper_qkp(std::size_t n, int density_percent, int index) {
  QkpGeneratorParams params;
  params.n = n;
  params.density = static_cast<double>(density_percent) / 100.0;
  // Stable per-name seed: mixes (n, d, k) so each paper-style instance name
  // denotes one fixed instance across runs and machines.
  params.seed = util::derive_seed(
      0x51B05EEDULL,
      (static_cast<std::uint64_t>(n) << 20) ^
          (static_cast<std::uint64_t>(density_percent) << 8) ^
          static_cast<std::uint64_t>(index));
  QkpInstance inst = generate_qkp(params);
  // Rename to the paper's "N-d-k" convention.
  return QkpInstance(std::to_string(n) + "-" + std::to_string(density_percent) +
                         "-" + std::to_string(index),
                     {inst.values().begin(), inst.values().end()},
                     [&] {
                       std::vector<std::int64_t> w(n * n);
                       for (std::size_t i = 0; i < n; ++i)
                         for (std::size_t j = 0; j < n; ++j)
                           w[i * n + j] = inst.pair_value(i, j);
                       return w;
                     }(),
                     {inst.weights().begin(), inst.weights().end()},
                     inst.capacity());
}

QkpMapping qkp_to_problem(const QkpInstance& instance, bool normalize) {
  const std::size_t n = instance.n();
  SlackEncoding slack = make_slack_encoding(instance.capacity());
  const std::size_t total = n + slack.num_bits();

  // Objective f(x) = -(1/2) x^T W x - h^T x, normalized by max(|W|,|h|).
  const double obj_scale =
      normalize ? static_cast<double>(
                      std::max<std::int64_t>(1, instance.max_objective_coefficient()))
                : 1.0;
  ising::QuboModel objective(total);
  for (std::size_t i = 0; i < n; ++i) {
    if (instance.value(i) != 0) {
      objective.add_linear(i, -static_cast<double>(instance.value(i)) /
                                  obj_scale);
    }
    for (std::size_t j = i + 1; j < n; ++j) {
      const std::int64_t w = instance.pair_value(i, j);
      if (w != 0) {
        // The (1/2) x^T W x double-counts each pair; coefficient of x_i x_j
        // is exactly W_ij.
        objective.add_quadratic(i, j, -static_cast<double>(w) / obj_scale);
      }
    }
  }

  // Constraint a^T x + sum_q 2^q s_q = b, normalized by max(|A|,|b|) where
  // A is the slack-extended row.
  std::int64_t max_coeff = instance.capacity();
  for (std::size_t i = 0; i < n; ++i) {
    max_coeff = std::max(max_coeff, instance.weight(i));
  }
  for (const auto c : slack.coefficients) {
    max_coeff = std::max(max_coeff, c);
  }
  const double con_scale =
      normalize ? static_cast<double>(std::max<std::int64_t>(1, max_coeff))
                : 1.0;

  LinearConstraint row;
  row.terms.reserve(total);
  for (std::size_t i = 0; i < n; ++i) {
    if (instance.weight(i) != 0) {
      row.terms.emplace_back(static_cast<std::uint32_t>(i),
                             static_cast<double>(instance.weight(i)) /
                                 con_scale);
    }
  }
  for (std::size_t q = 0; q < slack.num_bits(); ++q) {
    row.terms.emplace_back(static_cast<std::uint32_t>(n + q),
                           static_cast<double>(slack.coefficients[q]) /
                               con_scale);
  }
  row.rhs = static_cast<double>(instance.capacity()) / con_scale;

  QkpMapping mapping;
  mapping.problem = ConstrainedProblem(std::move(objective), {std::move(row)},
                                       n);
  mapping.slack = std::move(slack);
  mapping.objective_scale = obj_scale;
  mapping.constraint_scale = con_scale;
  return mapping;
}

void save_qkp(std::ostream& os, const QkpInstance& instance) {
  const std::size_t n = instance.n();
  os << instance.name() << '\n' << n << ' ' << instance.capacity() << '\n';
  for (std::size_t i = 0; i < n; ++i) {
    os << instance.value(i) << (i + 1 < n ? ' ' : '\n');
  }
  for (std::size_t i = 0; i < n; ++i) {
    os << instance.weight(i) << (i + 1 < n ? ' ' : '\n');
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const std::int64_t w = instance.pair_value(i, j);
      if (w != 0) os << i << ' ' << j << ' ' << w << '\n';
    }
  }
  os << "-1 -1 -1\n";
}

QkpInstance load_qkp(std::istream& is) {
  std::string name;
  if (!(is >> name)) {
    throw std::runtime_error("load_qkp: missing header");
  }
  std::size_t n = 0;
  std::int64_t capacity = 0;
  if (!(is >> n >> capacity)) {
    throw std::runtime_error("load_qkp: missing size/capacity");
  }
  std::vector<std::int64_t> values(n);
  std::vector<std::int64_t> weights(n);
  for (auto& v : values) {
    if (!(is >> v)) throw std::runtime_error("load_qkp: bad values");
  }
  for (auto& w : weights) {
    if (!(is >> w)) throw std::runtime_error("load_qkp: bad weights");
  }
  std::vector<std::int64_t> pair_values(n * n, 0);
  while (true) {
    std::int64_t i = 0;
    std::int64_t j = 0;
    std::int64_t w = 0;
    if (!(is >> i >> j >> w)) {
      throw std::runtime_error("load_qkp: truncated pair list");
    }
    if (i < 0) break;
    const auto ui = static_cast<std::size_t>(i);
    const auto uj = static_cast<std::size_t>(j);
    if (ui >= n || uj >= n || ui == uj) {
      throw std::runtime_error("load_qkp: bad pair indices");
    }
    pair_values[ui * n + uj] = w;
    pair_values[uj * n + ui] = w;
  }
  return QkpInstance(std::move(name), std::move(values),
                     std::move(pair_values), std::move(weights), capacity);
}

QkpInstance load_qkp_billionnet(std::istream& is) {
  std::string name;
  if (!(is >> name)) {
    throw std::runtime_error("load_qkp_billionnet: missing name line");
  }
  std::size_t n = 0;
  if (!(is >> n) || n == 0) {
    throw std::runtime_error("load_qkp_billionnet: bad n");
  }
  std::vector<std::int64_t> values(n);
  for (auto& v : values) {
    if (!(is >> v)) {
      throw std::runtime_error("load_qkp_billionnet: bad linear terms");
    }
  }
  // Strict upper triangle, row by row: row i has n-1-i entries.
  std::vector<std::int64_t> pair_values(n * n, 0);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      std::int64_t w = 0;
      if (!(is >> w)) {
        throw std::runtime_error("load_qkp_billionnet: truncated triangle");
      }
      pair_values[i * n + j] = w;
      pair_values[j * n + i] = w;
    }
  }
  // Archive layout: a constraint-type flag (0/1), then capacity, then the
  // n weights.
  std::int64_t constraint_type = 0;
  std::int64_t capacity = 0;
  if (!(is >> constraint_type >> capacity)) {
    throw std::runtime_error("load_qkp_billionnet: missing capacity block");
  }
  std::vector<std::int64_t> weights(n);
  for (auto& w : weights) {
    if (!(is >> w)) {
      throw std::runtime_error("load_qkp_billionnet: bad weights");
    }
  }
  return QkpInstance(std::move(name), std::move(values),
                     std::move(pair_values), std::move(weights), capacity);
}

QkpInstance load_qkp_billionnet(const std::string& path) {
  return detail::load_instance_file(
      "load_qkp_billionnet", path,
      [](std::istream& is) { return load_qkp_billionnet(is); });
}

QkpInstance load_qkp(const std::string& path) {
  return detail::load_instance_file(
      "load_qkp", path, [](std::istream& is) { return load_qkp(is); });
}

}  // namespace saim::problems
