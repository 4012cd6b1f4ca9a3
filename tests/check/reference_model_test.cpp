// The naive reference model must agree event-for-event with the
// production simulator on hand-picked configurations covering every
// arbitration feature, and each FaultKind mutation must visibly diverge
// on a scenario crafted to trigger the rule it breaks.
#include <gtest/gtest.h>

#include "vpmem/check/differential.hpp"
#include "vpmem/check/reference_model.hpp"
#include "vpmem/sim/memory_system.hpp"
#include "vpmem/util/error.hpp"

namespace vpmem {
namespace {

using check::DiffResult;
using check::FaultKind;

sim::MemoryConfig flat(i64 m, i64 nc) {
  return sim::MemoryConfig{.banks = m, .sections = m, .bank_cycle = nc};
}

TEST(ReferenceModel, AgreesOnPaperFigureConfigurations) {
  // Fig. 2 conflict-free, Fig. 3 barrier, Fig. 4 double conflict shapes.
  for (auto [d1, d2] : {std::pair<i64, i64>{1, 7}, {1, 6}, {2, 3}}) {
    const DiffResult r = check::diff_run(flat(13, 4), sim::two_streams(0, d1, 4, d2), 300);
    EXPECT_TRUE(r.agreed) << "d1=" << d1 << " d2=" << d2 << ": " << r.message;
    EXPECT_GT(r.grants, 0);
  }
}

TEST(ReferenceModel, AgreesWithSectionsAndBothMappings) {
  for (const auto mapping : {sim::SectionMapping::cyclic, sim::SectionMapping::consecutive}) {
    sim::MemoryConfig cfg{.banks = 16, .sections = 4, .bank_cycle = 3, .mapping = mapping};
    // Three ports on one CPU plus one on a second CPU: exercises section,
    // simultaneous and bank conflicts together.
    std::vector<sim::StreamConfig> streams = {
        sim::StreamConfig{.start_bank = 0, .distance = 1},
        sim::StreamConfig{.start_bank = 4, .distance = 1},
        sim::StreamConfig{.start_bank = 8, .distance = 2},
        sim::StreamConfig{.start_bank = 1, .distance = 3, .cpu = 1}};
    const DiffResult r = check::diff_run(cfg, streams, 300);
    EXPECT_TRUE(r.agreed) << sim::to_string(mapping) << ": " << r.message;
  }
}

TEST(ReferenceModel, AgreesUnderCyclicPriority) {
  sim::MemoryConfig cfg = flat(8, 2);
  cfg.priority = sim::PriorityRule::cyclic;
  // The linked-conflict shape of Fig. 8(b): cyclic priority resolves it.
  const DiffResult r = check::diff_run(cfg, sim::two_streams(0, 1, 0, 1, /*same_cpu=*/true),
                                       250);
  EXPECT_TRUE(r.agreed) << r.message;
}

TEST(ReferenceModel, AgreesOnPatternFiniteAndDelayedStreams) {
  sim::MemoryConfig cfg{.banks = 12, .sections = 6, .bank_cycle = 4};
  std::vector<sim::StreamConfig> streams = {
      sim::StreamConfig{.start_bank = 0, .distance = -5, .length = 40},
      sim::StreamConfig{.cpu = 1, .start_cycle = 7, .bank_pattern = {0, 3, 3, 7}},
      sim::StreamConfig{.start_bank = 11, .distance = 0, .cpu = 2, .length = 9}};
  const DiffResult r = check::diff_run(cfg, streams, 300);
  EXPECT_TRUE(r.agreed) << r.message;
}

TEST(ReferenceModel, AgreesOnDegenerateShapes) {
  // m = 1: every request hits the single bank.
  EXPECT_TRUE(check::diff_run(flat(1, 3), sim::two_streams(0, 1, 0, 1), 100).agreed);
  // No ports at all.
  EXPECT_TRUE(check::diff_run(flat(4, 2), {}, 50).agreed);
  // Port that never starts inside the window.
  EXPECT_TRUE(
      check::diff_run(flat(4, 2), {sim::StreamConfig{.start_cycle = 1000}}, 100).agreed);
}

TEST(ReferenceModel, StatsMatchSimulatorFieldForField) {
  const auto cfg = flat(13, 6);
  const auto streams = sim::two_streams(0, 1, 7, 6);
  sim::MemorySystem mem{cfg, streams};
  mem.run(400, false);
  check::ReferenceModel ref{cfg, streams};
  ref.run(400);
  const auto expected = mem.all_stats();
  const auto actual = ref.stats();
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t p = 0; p < expected.size(); ++p) {
    EXPECT_EQ(actual[p].grants, expected[p].grants) << p;
    EXPECT_EQ(actual[p].bank_conflicts, expected[p].bank_conflicts) << p;
    EXPECT_EQ(actual[p].simultaneous_conflicts, expected[p].simultaneous_conflicts) << p;
    EXPECT_EQ(actual[p].section_conflicts, expected[p].section_conflicts) << p;
    EXPECT_EQ(actual[p].first_grant_cycle, expected[p].first_grant_cycle) << p;
    EXPECT_EQ(actual[p].last_grant_cycle, expected[p].last_grant_cycle) << p;
    EXPECT_EQ(actual[p].longest_stall, expected[p].longest_stall) << p;
  }
}

TEST(ReferenceModelFaults, EachMutationDivergesOnItsTriggerScenario) {
  // ignore_path_conflict: two same-CPU ports hit distinct inactive banks
  // of the same section in the same period.
  {
    sim::MemoryConfig cfg{.banks = 8, .sections = 2, .bank_cycle = 1};
    std::vector<sim::StreamConfig> streams = {
        sim::StreamConfig{.start_bank = 0, .distance = 2},
        sim::StreamConfig{.start_bank = 2, .distance = 2}};
    EXPECT_FALSE(check::diff_run(cfg, streams, 50, FaultKind::ignore_path_conflict).agreed);
    EXPECT_TRUE(check::diff_run(cfg, streams, 50).agreed);
  }
  // short_bank_busy: a self-conflicting stream is paced by nc.
  {
    const std::vector<sim::StreamConfig> streams = {sim::StreamConfig{.distance = 0}};
    EXPECT_FALSE(check::diff_run(flat(4, 2), streams, 50, FaultKind::short_bank_busy).agreed);
    EXPECT_TRUE(check::diff_run(flat(4, 2), streams, 50).agreed);
  }
  // priority_inversion / misclassify_simultaneous: two CPUs collide on
  // one bank in the same period.
  {
    const auto streams = sim::two_streams(0, 1, 0, 1);
    EXPECT_FALSE(check::diff_run(flat(8, 2), streams, 50, FaultKind::priority_inversion).agreed);
    EXPECT_FALSE(
        check::diff_run(flat(8, 2), streams, 50, FaultKind::misclassify_simultaneous).agreed);
    EXPECT_TRUE(check::diff_run(flat(8, 2), streams, 50).agreed);
  }
  // drop_rotation: under cyclic priority two ports fight for one bank;
  // the rotation decides who wins each period.
  {
    sim::MemoryConfig cfg = flat(4, 1);
    cfg.priority = sim::PriorityRule::cyclic;
    const auto streams = sim::two_streams(0, 0, 0, 0);
    EXPECT_FALSE(check::diff_run(cfg, streams, 50, FaultKind::drop_rotation).agreed);
    EXPECT_TRUE(check::diff_run(cfg, streams, 50).agreed);
  }
}

TEST(ReferenceModelFaults, NamesRoundTrip) {
  EXPECT_EQ(check::fault_from_string("none"), FaultKind::none);
  for (FaultKind f : check::all_faults()) {
    EXPECT_EQ(check::fault_from_string(check::to_string(f)), f);
  }
  try {
    static_cast<void>(check::fault_from_string("no-such-fault"));
    FAIL() << "expected vpmem::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::config_invalid);
  }
}

}  // namespace
}  // namespace vpmem
