// The invariant checker must (a) fire the right oracles for each
// configuration shape and (b) pass on configurations the property suite
// has already verified.
#include <gtest/gtest.h>

#include "vpmem/check/invariants.hpp"
#include "vpmem/sim/memory_system.hpp"

namespace vpmem {
namespace {

using check::InvariantOptions;
using check::InvariantReport;

sim::MemoryConfig flat(i64 m, i64 nc) {
  return sim::MemoryConfig{.banks = m, .sections = m, .bank_cycle = nc};
}

TEST(Invariants, Theorem3CaseRunsSynchronizationSweepAndPasses) {
  // m=12, nc=3, d1=1, d2=7: eq. 12 holds (theorems_test PaperExampleFig2).
  const InvariantReport report = check::check_invariants(flat(12, 3), sim::two_streams(0, 1, 5, 7));
  EXPECT_TRUE(report.did_run("theorem3_synchronization"));
  EXPECT_TRUE(report.did_run("theorem1_return_number"));
  EXPECT_TRUE(report.did_run("single_stream_bandwidth"));
  EXPECT_TRUE(report.did_run("bandwidth_bounds"));
  EXPECT_TRUE(report.did_run("windowed_measurement"));
  EXPECT_TRUE(report.did_run("translation_invariance"));
  EXPECT_TRUE(report.did_run("time_shift_invariance"));
  for (const auto& f : report.failures) ADD_FAILURE() << f.name << ": " << f.detail;
}

TEST(Invariants, UniqueBarrierCaseRunsTheorem5AndEq29SweepsAndPasses) {
  // m=12, nc=2, d1=1, d2=2: eq. 17 barrier, eq. 22 no-double-conflict and
  // eq. 24 uniqueness all hold, so the sweep must see b_eff = 3/2 with no
  // mutual delays from every offset (PairGrid property m12nc2).
  const InvariantReport report = check::check_invariants(flat(12, 2), sim::two_streams(0, 1, 3, 2));
  EXPECT_TRUE(report.did_run("theorem5_no_double_conflict"));
  EXPECT_TRUE(report.did_run("unique_barrier_bandwidth"));
  EXPECT_FALSE(report.did_run("theorem3_synchronization"));
  for (const auto& f : report.failures) ADD_FAILURE() << f.name << ": " << f.detail;
}

TEST(Invariants, SelfConflictingSingleStreamPasses) {
  // m=16, d=8: r = 2 < nc = 7, so b_eff = 2/7 — the single-stream oracle
  // must agree with the detected steady state.
  const std::vector<sim::StreamConfig> streams = {
      sim::StreamConfig{.start_bank = 3, .distance = 8}};
  const InvariantReport report = check::check_invariants(flat(16, 7), streams);
  EXPECT_TRUE(report.did_run("single_stream_bandwidth"));
  EXPECT_TRUE(report.ok()) << report.failures.front().name << ": "
                           << report.failures.front().detail;
}

TEST(Invariants, SectionedConfigWithCyclicPriorityPasses) {
  sim::MemoryConfig cfg{.banks = 16,
                        .sections = 4,
                        .bank_cycle = 3,
                        .mapping = sim::SectionMapping::consecutive,
                        .priority = sim::PriorityRule::cyclic};
  std::vector<sim::StreamConfig> streams = {
      sim::StreamConfig{.start_bank = 0, .distance = 3},
      sim::StreamConfig{.start_bank = 5, .distance = 1, .cpu = 1},
      sim::StreamConfig{.start_bank = 9, .distance = 7, .cpu = 2}};
  const InvariantReport report = check::check_invariants(cfg, streams);
  // Consecutive mapping: translation shifts by whole sections (m/s = 4).
  EXPECT_TRUE(report.did_run("translation_invariance"));
  EXPECT_TRUE(report.did_run("time_shift_invariance"));
  // Three streams: the pair-theorem sweeps must not fire.
  EXPECT_FALSE(report.did_run("theorem5_no_double_conflict"));
  for (const auto& f : report.failures) ADD_FAILURE() << f.name << ": " << f.detail;
}

TEST(Invariants, PatternStreamsSkipAffineOracles) {
  const std::vector<sim::StreamConfig> streams = {
      sim::StreamConfig{.bank_pattern = {0, 1, 4, 1}},
      sim::StreamConfig{.cpu = 1, .bank_pattern = {2, 2}}};
  const InvariantReport report = check::check_invariants(flat(8, 2), streams);
  EXPECT_FALSE(report.did_run("theorem1_return_number"));
  EXPECT_FALSE(report.did_run("single_stream_bandwidth"));
  EXPECT_TRUE(report.did_run("steady_state_detection"));
  for (const auto& f : report.failures) ADD_FAILURE() << f.name << ": " << f.detail;
}

TEST(Invariants, FiniteStreamsSkipSteadyStateChecks) {
  const std::vector<sim::StreamConfig> streams = {
      sim::StreamConfig{.start_bank = 0, .distance = 1, .length = 20},
      sim::StreamConfig{.start_bank = 1, .distance = 2, .cpu = 1}};
  const InvariantReport report = check::check_invariants(flat(8, 2), streams);
  EXPECT_TRUE(report.did_run("theorem1_return_number"));
  EXPECT_FALSE(report.did_run("steady_state_detection"));
  EXPECT_FALSE(report.did_run("bandwidth_bounds"));
  EXPECT_TRUE(report.ok());
}

TEST(Invariants, EmptyStreamSetRunsNothing) {
  const InvariantReport report = check::check_invariants(flat(8, 2), {});
  EXPECT_TRUE(report.ran.empty());
  EXPECT_TRUE(report.ok());
}

TEST(Invariants, LargeBanksSkipTheoremSweeps) {
  InvariantOptions options;
  options.max_sweep_banks = 8;  // below m = 12
  const InvariantReport report =
      check::check_invariants(flat(12, 3), sim::two_streams(0, 1, 5, 7), options);
  EXPECT_FALSE(report.did_run("theorem3_synchronization"));
  EXPECT_TRUE(report.did_run("bandwidth_bounds"));
  EXPECT_TRUE(report.ok());
}

TEST(Invariants, DidRunMatchesRanList) {
  InvariantReport report;
  report.ran = {"alpha", "beta"};
  EXPECT_TRUE(report.did_run("alpha"));
  EXPECT_FALSE(report.did_run("gamma"));
}

}  // namespace
}  // namespace vpmem
