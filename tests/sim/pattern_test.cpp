// Periodic bank-pattern streams (the engine generalization that enables
// skewed storage, diagonals and synthetic random traffic).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "vpmem/sim/memory_system.hpp"
#include "vpmem/util/error.hpp"
#include "vpmem/sim/steady_state.hpp"

namespace vpmem::sim {
namespace {

MemoryConfig flat(i64 m, i64 nc) { return MemoryConfig{.banks = m, .sections = m, .bank_cycle = nc}; }

TEST(PatternStream, FollowsExplicitSequence) {
  StreamConfig s;
  s.bank_pattern = {3, 1, 4, 1, 5};
  s.length = 7;  // wraps around the period
  MemorySystem mem{flat(8, 1), {s}};
  EventLog log;
  mem.add_event_sink(log);
  mem.run(100);
  std::vector<i64> banks;
  for (const Event& e : log.events) {
    if (e.type == Event::Type::grant) banks.push_back(e.bank);
  }
  EXPECT_EQ(banks, (std::vector<i64>{3, 1, 4, 1, 5, 3, 1}));
}

TEST(PatternStream, ValidatesEntries) {
  StreamConfig s;
  s.bank_pattern = {0, 8};
  EXPECT_THROW(MemorySystem(flat(8, 2), {s}), vpmem::Error);
  s.bank_pattern = {-1};
  EXPECT_THROW(MemorySystem(flat(8, 2), {s}), vpmem::Error);
}

TEST(PatternStream, EquivalentToAffineStreamWhenPatternIsAffine) {
  // A pattern spelling out (b + k*d) mod m must behave identically to the
  // affine stream, including its exact steady state.
  const i64 m = 12;
  const i64 d = 5;
  StreamConfig affine;
  affine.start_bank = 2;
  affine.distance = d;
  StreamConfig pattern;
  for (i64 k = 0; k < 12; ++k) pattern.bank_pattern.push_back(mod_norm(2 + k * d, m));
  const auto a = find_steady_state(flat(m, 4), {affine});
  const auto b = find_steady_state(flat(m, 4), {pattern});
  EXPECT_EQ(a.bandwidth, b.bandwidth);
  EXPECT_EQ(a.period, b.period);
}

TEST(PatternStream, SelfConflictFromRepeatedBank) {
  StreamConfig s;
  s.bank_pattern = {0, 0};  // consecutive hits on one bank
  const auto ss = find_steady_state(flat(8, 3), {s});
  EXPECT_EQ(ss.bandwidth, (Rational{1, 3}));  // every access waits out nc
}

TEST(PatternStream, SteadyStateWithMixedStreams) {
  // One affine stream plus one pattern stream reach an exact cycle.
  StreamConfig affine;
  affine.distance = 1;
  StreamConfig pattern;
  pattern.cpu = 1;
  pattern.bank_pattern = {0, 2, 4, 6};
  const auto ss = find_steady_state(flat(8, 2), {affine, pattern});
  EXPECT_GT(ss.bandwidth, Rational{1});
  EXPECT_LE(ss.bandwidth, Rational{2});
  EXPECT_EQ(ss.per_port.size(), 2u);
}

TEST(PatternStream, NextBankReportsPatternTarget) {
  StreamConfig s;
  s.bank_pattern = {5, 2};
  MemorySystem mem{flat(8, 1), {s}};
  EXPECT_EQ(mem.next_bank(0), std::optional<i64>{5});
  mem.step();
  EXPECT_EQ(mem.next_bank(0), std::optional<i64>{2});
}

TEST(PatternStream, NextBankMatchesBankOfForShortAndOddPatterns) {
  // Before every step for >= 3m grants of each port, next_bank() is the
  // closed-form StreamConfig::bank_of(): a length-1 pattern (the cursor
  // wraps on every grant) beside a length-7 one and an affine port.
  for (const i64 m : {1, 8, 16}) {
    SCOPED_TRACE("m " + std::to_string(m));
    const MemoryConfig cfg{.banks = m, .sections = 1, .bank_cycle = 2,
                           .priority = PriorityRule::cyclic};
    std::vector<i64> seven;
    for (i64 k = 0; k < 7; ++k) seven.push_back((5 * k + 3) % m);
    MemorySystem mem{cfg,
                     {StreamConfig{.bank_pattern = {m - 1}},
                      StreamConfig{.cpu = 1, .bank_pattern = seven},
                      StreamConfig{.start_bank = m / 2, .distance = -(m + 1), .cpu = 2}}};
    const i64 grants = 3 * std::max<i64>(m, 7) + 1;
    for (i64 steps = 0; mem.elements_done(0) < grants || mem.elements_done(1) < grants ||
                        mem.elements_done(2) < grants;
         ++steps) {
      ASSERT_LT(steps, 8 * grants) << "ports starved";
      for (std::size_t p = 0; p < mem.port_count(); ++p) {
        ASSERT_EQ(mem.next_bank(p), mem.stream(p).bank_of(mem.elements_done(p), m))
            << "port " << p << " after " << mem.elements_done(p) << " grants";
      }
      mem.step();
    }
  }
}

}  // namespace
}  // namespace vpmem::sim
