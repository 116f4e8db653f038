#include <gtest/gtest.h>

#include "anneal/backend.hpp"
#include "core/penalty_method.hpp"
#include "core/report.hpp"
#include "core/saim_solver.hpp"
#include "problems/qkp.hpp"

namespace saim::core {
namespace {

SolveResult small_solve(SaimOptions opts, const problems::QkpInstance& inst) {
  const auto mapping = problems::qkp_to_problem(inst);
  anneal::PBitBackend backend(pbit::Schedule::linear(10.0), 150);
  SaimSolver solver(mapping.problem, backend, opts);
  return solver.solve(make_qkp_evaluator(inst));
}

TEST(ReportCsv, HeaderAndRowShapeMatch) {
  const auto inst = problems::make_paper_qkp(12, 50, 9);
  SaimOptions opts;
  opts.iterations = 40;
  opts.eta = 20.0;
  opts.collect_feasible_costs = true;
  const auto result = small_solve(opts, inst);

  util::CsvWriter csv;
  write_report_header(csv);
  ReportRow row;
  row.instance = inst.name();
  row.method = "saim-pbit";
  row.reference_cost = result.found_feasible ? result.best_cost : -1.0;
  row.seconds = 0.5;
  report_result(csv, row, result);

  const std::string& out = csv.buffer();
  // Header + one data line.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);
  // Field count must match the header's.
  const auto header_end = out.find('\n');
  const auto commas_header = std::count(out.begin(),
                                        out.begin() +
                                            static_cast<std::ptrdiff_t>(
                                                header_end),
                                        ',');
  const auto commas_row =
      std::count(out.begin() + static_cast<std::ptrdiff_t>(header_end),
                 out.end(), ',');
  EXPECT_EQ(commas_header, commas_row);
  EXPECT_NE(out.find("12-50-9"), std::string::npos);
  EXPECT_NE(out.find("saim-pbit"), std::string::npos);
  // Reference == best -> best accuracy is exactly 100.
  EXPECT_NE(out.find("100"), std::string::npos);
}

TEST(ReportCsv, TtsFieldEmptyWithoutPerSampleCosts) {
  const auto inst = problems::make_paper_qkp(12, 50, 9);
  SaimOptions opts;
  opts.iterations = 20;
  opts.eta = 20.0;
  opts.collect_feasible_costs = false;  // no per-sample record
  const auto result = small_solve(opts, inst);

  util::CsvWriter csv;
  ReportRow row;
  row.instance = inst.name();
  row.method = "m";
  row.reference_cost = -1.0;
  report_result(csv, row, result);
  // Last field (tts99) must be empty -> row ends with a comma.
  const std::string& out = csv.buffer();
  ASSERT_GE(out.size(), 2u);
  EXPECT_EQ(out[out.size() - 2], ',');
}

}  // namespace
}  // namespace saim::core
