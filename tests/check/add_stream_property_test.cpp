// Property: under fixed priority, injecting a port mid-run with
// add_stream is indistinguishable from declaring the same port upfront
// with the same start_cycle.  (Under cyclic priority the rotation modulus
// changes when the port count does, so the equivalence is deliberately
// restricted to the fixed rule.)
#include <gtest/gtest.h>

#include "vpmem/baseline/rng.hpp"
#include "vpmem/sim/memory_system.hpp"
#include "vpmem/util/error.hpp"

namespace vpmem {
namespace {

void expect_same_outcome(const sim::MemoryConfig& cfg,
                         const std::vector<sim::StreamConfig>& initial,
                         const sim::StreamConfig& late, i64 inject_at, i64 total_cycles,
                         const std::string& label) {
  // Upfront: all ports declared at construction.
  std::vector<sim::StreamConfig> upfront = initial;
  upfront.push_back(late);
  sim::MemorySystem reference{cfg, upfront};
  reference.run(total_cycles, /*stop_when_finished=*/false);

  // Injected: run to inject_at, then add the port and continue.
  sim::MemorySystem injected{cfg, initial};
  injected.run(inject_at, /*stop_when_finished=*/false);
  const std::size_t port = injected.add_stream(late);
  EXPECT_EQ(port, initial.size()) << label;
  injected.run(total_cycles - inject_at, /*stop_when_finished=*/false);

  const auto expected = reference.all_stats();
  const auto actual = injected.all_stats();
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (std::size_t p = 0; p < expected.size(); ++p) {
    EXPECT_EQ(actual[p].grants, expected[p].grants) << label << " port " << p;
    EXPECT_EQ(actual[p].bank_conflicts, expected[p].bank_conflicts) << label << " port " << p;
    EXPECT_EQ(actual[p].simultaneous_conflicts, expected[p].simultaneous_conflicts)
        << label << " port " << p;
    EXPECT_EQ(actual[p].section_conflicts, expected[p].section_conflicts)
        << label << " port " << p;
    EXPECT_EQ(actual[p].first_grant_cycle, expected[p].first_grant_cycle)
        << label << " port " << p;
    EXPECT_EQ(actual[p].last_grant_cycle, expected[p].last_grant_cycle)
        << label << " port " << p;
  }
  for (i64 bank = 0; bank < cfg.banks; ++bank) {
    EXPECT_EQ(injected.bank_grants(bank), reference.bank_grants(bank)) << label << " bank "
                                                                       << bank;
  }
}

TEST(AddStreamProperty, MidRunInjectionMatchesUpfrontDeclaration) {
  const sim::MemoryConfig cfg{.banks = 13, .sections = 13, .bank_cycle = 4};
  const std::vector<sim::StreamConfig> initial = {
      sim::StreamConfig{.start_bank = 0, .distance = 1}};
  const sim::StreamConfig late{.start_bank = 4, .distance = 6, .cpu = 1, .start_cycle = 50};
  expect_same_outcome(cfg, initial, late, 50, 300, "paper pair");
  // Injecting earlier than the port's own start is also equivalent.
  expect_same_outcome(cfg, initial, late, 20, 300, "early injection");
}

TEST(AddStreamProperty, RandomizedTrialsAgree) {
  baseline::SplitMix64 rng{0xadd5723u};
  const auto pick = [&rng](i64 bound) {
    return static_cast<i64>(rng.next_below(static_cast<std::uint64_t>(bound)));
  };
  for (int trial = 0; trial < 10; ++trial) {
    const i64 m = 4 + pick(13);  // 4..16
    sim::MemoryConfig cfg{.banks = m, .sections = m, .bank_cycle = 1 + pick(5)};
    std::vector<sim::StreamConfig> initial;
    const i64 ports = 1 + pick(2);
    for (i64 i = 0; i < ports; ++i) {
      initial.push_back(
          sim::StreamConfig{.start_bank = pick(m), .distance = 1 + pick(m - 1), .cpu = i});
    }
    const i64 inject_at = 10 + pick(40);
    const sim::StreamConfig late{.start_bank = pick(m),
                                 .distance = 1 + pick(m - 1),
                                 .cpu = 2,
                                 .start_cycle = inject_at + pick(8)};
    expect_same_outcome(cfg, initial, late, inject_at, 260,
                        "trial " + std::to_string(trial));
  }
}

TEST(AddStreamProperty, RejectsStartCycleInThePast) {
  sim::MemorySystem mem{sim::MemoryConfig{.banks = 8, .sections = 8, .bank_cycle = 2},
                        {sim::StreamConfig{.start_bank = 0, .distance = 1}}};
  mem.run(20, /*stop_when_finished=*/false);
  try {
    static_cast<void>(
        mem.add_stream(sim::StreamConfig{.start_bank = 1, .distance = 1, .start_cycle = 5}));
    FAIL() << "start_cycle in the past accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::config_invalid);
  }
}

}  // namespace
}  // namespace vpmem
