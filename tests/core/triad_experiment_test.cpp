#include "vpmem/core/triad_experiment.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "vpmem/util/error.hpp"

namespace vpmem::core {
namespace {

TriadExperiment small_experiment() {
  TriadExperiment exp;
  exp.setup.n = 128;
  exp.inc_min = 1;
  exp.inc_max = 4;
  return exp;
}

TEST(TriadExperiment, ProducesOneRowPerInc) {
  const auto rows = run_triad_experiment(small_experiment(), 2);
  ASSERT_EQ(rows.size(), 4u);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].inc, static_cast<i64>(i) + 1);
    EXPECT_GT(rows[i].cycles_dedicated, 0);
    EXPECT_GE(rows[i].cycles_contended, rows[i].cycles_dedicated);
    EXPECT_GE(rows[i].interference_factor(), 1.0);
  }
}

TEST(TriadExperiment, ParallelAndSequentialAgree) {
  const auto seq = run_triad_experiment(small_experiment(), 1);
  const auto par = run_triad_experiment(small_experiment(), 4);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].cycles_contended, par[i].cycles_contended);
    EXPECT_EQ(seq[i].cycles_dedicated, par[i].cycles_dedicated);
    EXPECT_EQ(seq[i].conflicts_contended.total(), par[i].conflicts_contended.total());
  }
}

TEST(TriadExperiment, RowsStayInIncOrderOnManyWorkers) {
  TriadExperiment exp = small_experiment();
  exp.setup.n = 64;
  exp.inc_max = 16;
  obs::SweepTelemetry telemetry;
  const auto rows = run_triad_experiment(exp, 4, &telemetry);
  ASSERT_EQ(rows.size(), 16u);
  i64 cycles = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].inc, static_cast<i64>(i) + 1);
    cycles += rows[i].cycles_contended + rows[i].cycles_dedicated;
  }
  EXPECT_EQ(telemetry.points(), 16);
  EXPECT_EQ(telemetry.simulated_cycles(), cycles);
}

TEST(TriadExperiment, WorkerErrorsReachTheCaller) {
  // run_triad rejects n = 0 on every worker; the typed error must surface
  // on the calling thread, code intact, instead of terminating the process.
  TriadExperiment exp = small_experiment();
  exp.setup.n = 0;
  for (const std::size_t workers : {4u, 1u}) {
    try {
      static_cast<void>(run_triad_experiment(exp, workers));
      FAIL() << "expected vpmem::Error on " << workers << " workers";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::config_invalid) << workers;
    }
  }
}

TEST(TriadExperiment, RejectsBadRange) {
  TriadExperiment exp = small_experiment();
  const auto expect_config_invalid = [](const TriadExperiment& bad) {
    try {
      static_cast<void>(run_triad_experiment(bad));
      FAIL() << "expected vpmem::Error for INC " << bad.inc_min << ".." << bad.inc_max;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::config_invalid) << e.what();
    }
  };
  exp.inc_min = 0;
  expect_config_invalid(exp);
  exp.inc_min = 5;
  exp.inc_max = 4;
  expect_config_invalid(exp);
}

TEST(TriadExperiment, TableHasExpectedColumns) {
  const auto rows = run_triad_experiment(small_experiment(), 2);
  const Table table = triad_table(rows);
  EXPECT_EQ(table.rows(), rows.size());
  std::ostringstream os;
  table.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("INC"), std::string::npos);
  EXPECT_NE(s.find("cycles(a)"), std::string::npos);
  EXPECT_NE(s.find("slowdown"), std::string::npos);
  std::ostringstream csv;
  table.print_csv(csv);
  EXPECT_NE(csv.str().find("INC,cycles(a)"), std::string::npos);
}

TEST(TriadRow, InterferenceFactorHandlesZero) {
  TriadRow row;
  EXPECT_DOUBLE_EQ(row.interference_factor(), 0.0);
}

}  // namespace
}  // namespace vpmem::core
