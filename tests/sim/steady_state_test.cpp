#include "vpmem/sim/steady_state.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <tuple>

#include "vpmem/analytic/stream.hpp"
#include "vpmem/sim/memory_system.hpp"
#include "vpmem/sim/run.hpp"

namespace vpmem::sim {
namespace {

MemoryConfig flat(i64 m, i64 nc) { return MemoryConfig{.banks = m, .sections = m, .bank_cycle = nc}; }

TEST(SteadyState, RejectsFiniteStreams) {
  EXPECT_THROW(static_cast<void>(
      find_steady_state(flat(8, 2), {StreamConfig{.start_bank = 0, .distance = 1, .length = 5}})),
      std::invalid_argument);
}

TEST(SteadyState, SingleConflictFreeStream) {
  const SteadyState ss = find_steady_state(flat(8, 4), {StreamConfig{.distance = 1}});
  EXPECT_EQ(ss.bandwidth, Rational{1});
  EXPECT_TRUE(ss.conflict_free());
  EXPECT_EQ(ss.per_port.size(), 1u);
  EXPECT_EQ(ss.per_port[0], Rational{1});
}

TEST(SteadyState, SingleSelfConflictingStream) {
  // m = 8, d = 4 -> r = 2, nc = 5 -> b_eff = 2/5.
  const SteadyState ss = find_steady_state(flat(8, 5), {StreamConfig{.distance = 4}});
  EXPECT_EQ(ss.bandwidth, (Rational{2, 5}));
  EXPECT_FALSE(ss.conflict_free());
  EXPECT_GT(ss.conflicts_in_period.bank, 0);
}

TEST(SteadyState, PeriodOfConflictFreePairDividesLcmStructure) {
  // Fig. 2: m=12, nc=3, d1=1, d2=7, conflict-free.
  const SteadyState ss = find_steady_state(flat(12, 3), two_streams(0, 1, 3, 7));
  EXPECT_EQ(ss.bandwidth, Rational{2});
  EXPECT_TRUE(ss.conflict_free());
  EXPECT_EQ(ss.grants_in_period[0], ss.period);
  EXPECT_EQ(ss.grants_in_period[1], ss.period);
}

TEST(SteadyState, BarrierBandwidthFig3) {
  // Fig. 3: m=13, nc=6, d1=1, d2=6, b2=0 -> b_eff = 1 + 1/6.
  const SteadyState ss = find_steady_state(flat(13, 6), two_streams(0, 1, 0, 6));
  EXPECT_EQ(ss.bandwidth, (Rational{7, 6}));
  EXPECT_EQ(ss.per_port[0], Rational{1});     // barrier stream runs freely
  EXPECT_EQ(ss.per_port[1], (Rational{1, 6}));  // delayed stream
}

TEST(SteadyState, TransientBeforeCycleIsReported) {
  // Streams that synchronize first have a non-trivial transient.
  const SteadyState ss = find_steady_state(flat(12, 3), two_streams(0, 1, 0, 7));
  EXPECT_EQ(ss.bandwidth, Rational{2});  // synchronization (Theorem 3)
  EXPECT_GE(ss.transient_cycles, 0);
  EXPECT_GT(ss.period, 0);
}

TEST(SteadyState, MatchesWindowedMeasurement) {
  for (auto [d1, d2] : {std::pair<i64, i64>{1, 6}, {1, 7}, {2, 5}, {3, 3}}) {
    const MemoryConfig cfg = flat(12, 3);
    const auto streams = two_streams(0, d1, 5, d2);
    const SteadyState ss = find_steady_state(cfg, streams);
    const double measured = measure_bandwidth(cfg, streams, 2'000, 24'000);
    EXPECT_NEAR(ss.bandwidth.to_double(), measured, 0.01) << d1 << "," << d2;
  }
}

TEST(SteadyState, GuardTriggersOnTinyBudget) {
  EXPECT_THROW(static_cast<void>(find_steady_state(flat(12, 3), two_streams(0, 1, 0, 7), 2)), std::runtime_error);
}

TEST(SteadyState, BudgetBoundaryIsTransientPlusPeriod) {
  // max_cycles bounds mu + lambda, not the periods detection steps: the
  // budget mu + lambda succeeds and one period less throws.  Covers a
  // cycle through the initial state (nc = 1 leaves no bank busy across a
  // period, so t = 0 recurs) and Fig. 2 with b2 = 0, which synchronizes
  // after a transient.
  struct Case {
    MemoryConfig config;
    std::vector<StreamConfig> streams;
    bool starts_in_cycle;
  };
  const Case cases[] = {{flat(8, 1), {StreamConfig{.distance = 1}}, true},
                        {flat(12, 3), two_streams(0, 1, 0, 7), false}};
  for (const Case& c : cases) {
    const SteadyState ss = find_steady_state(c.config, c.streams);
    EXPECT_EQ(ss.transient_cycles == 0, c.starts_in_cycle);
    const i64 budget = ss.transient_cycles + ss.period;
    EXPECT_EQ(ss.cycles_simulated, budget);
    const SteadyState tight = find_steady_state(c.config, c.streams, budget);
    EXPECT_EQ(tight.transient_cycles, ss.transient_cycles);
    EXPECT_EQ(tight.period, ss.period);
    EXPECT_EQ(tight.bandwidth, ss.bandwidth);
    EXPECT_THROW(static_cast<void>(find_steady_state(c.config, c.streams, budget - 1)),
                 std::runtime_error);
  }
}

// ---- Brent's detector against a naive reference.

/// Random small configurations over every axis the detector's state
/// covers: 1-4 ports on 1-2 CPUs, both priority rules, both section
/// mappings, sectioned memories, bank patterns and delayed starts.
class ConfigSampler {
 public:
  explicit ConfigSampler(std::uint64_t seed) : rng_{seed} {}

  std::pair<MemoryConfig, std::vector<StreamConfig>> next() {
    MemoryConfig cfg;
    cfg.banks = pick(1, 12);
    do {
      cfg.sections = pick(1, cfg.banks);
    } while (cfg.banks % cfg.sections != 0);
    cfg.bank_cycle = pick(1, 6);
    cfg.mapping = pick(0, 1) == 0 ? SectionMapping::cyclic : SectionMapping::consecutive;
    cfg.priority = pick(0, 1) == 0 ? PriorityRule::fixed : PriorityRule::cyclic;
    std::vector<StreamConfig> streams(static_cast<std::size_t>(pick(1, 4)));
    for (StreamConfig& s : streams) {
      s.start_bank = pick(0, cfg.banks - 1);
      s.distance = pick(-cfg.banks, cfg.banks);
      s.cpu = pick(0, 1);
      s.start_cycle = pick(0, 3) == 0 ? pick(1, 6) : 0;
      if (pick(0, 4) == 0) {
        s.bank_pattern.resize(static_cast<std::size_t>(pick(1, 4)));
        for (i64& b : s.bank_pattern) b = pick(0, cfg.banks - 1);
      }
    }
    return {cfg, streams};
  }

 private:
  i64 pick(i64 lo, i64 hi) { return std::uniform_int_distribution<i64>{lo, hi}(rng_); }
  std::mt19937_64 rng_;
};

struct Reference {
  i64 transient = 0;
  i64 period = 0;
  std::vector<PortStats> deltas;
};

/// The definition of the cyclic state, checked the slow way: keep every
/// visited system and stop at the first one equal to an earlier one,
/// O(T^2) compares for T = mu + lambda.
Reference naive_cycle(const MemoryConfig& config, const std::vector<StreamConfig>& streams) {
  std::vector<MemorySystem> history;
  MemorySystem mem{config, streams};
  for (;;) {
    for (const MemorySystem& earlier : history) {
      if (!earlier.same_state(mem)) continue;
      Reference ref;
      ref.transient = earlier.now();
      ref.period = mem.now() - earlier.now();
      for (std::size_t i = 0; i < mem.port_count(); ++i) {
        const PortStats& a = earlier.port_stats(i);
        const PortStats& b = mem.port_stats(i);
        PortStats d;
        d.grants = b.grants - a.grants;
        d.bank_conflicts = b.bank_conflicts - a.bank_conflicts;
        d.simultaneous_conflicts = b.simultaneous_conflicts - a.simultaneous_conflicts;
        d.section_conflicts = b.section_conflicts - a.section_conflicts;
        d.fault_conflicts = b.fault_conflicts - a.fault_conflicts;
        d.first_grant_cycle = a.last_grant_cycle;
        d.last_grant_cycle = b.last_grant_cycle;
        ref.deltas.push_back(d);
      }
      return ref;
    }
    history.push_back(mem);
    mem.step();
  }
}

auto fields(const PortStats& s) {
  return std::tie(s.grants, s.bank_conflicts, s.simultaneous_conflicts, s.section_conflicts,
                  s.fault_conflicts, s.first_grant_cycle, s.last_grant_cycle);
}

std::string describe(const MemoryConfig& cfg, const std::vector<StreamConfig>& streams) {
  std::ostringstream out;
  out << "m=" << cfg.banks << " s=" << cfg.sections << " nc=" << cfg.bank_cycle << ' '
      << to_string(cfg.mapping) << ' ' << to_string(cfg.priority);
  for (const StreamConfig& s : streams) {
    out << " [b=" << s.start_bank << " d=" << s.distance << " cpu=" << s.cpu
        << " t0=" << s.start_cycle << " pattern=" << s.bank_pattern.size() << ']';
  }
  return out.str();
}

TEST(SteadyState, MatchesNaiveFirstRepeatReference) {
  ConfigSampler sampler{0x5eed'b7e7ULL};
  int with_transient = 0;
  int with_pattern = 0;
  for (int n = 0; n < 2000; ++n) {
    const auto [cfg, streams] = sampler.next();
    const SteadyState ss = find_steady_state(cfg, streams);
    const Reference ref = naive_cycle(cfg, streams);
    with_transient += ref.transient > 0 ? 1 : 0;
    with_pattern += std::any_of(streams.begin(), streams.end(),
                                [](const StreamConfig& s) { return s.has_pattern(); })
                        ? 1
                        : 0;
    SCOPED_TRACE(describe(cfg, streams));
    ASSERT_EQ(ss.transient_cycles, ref.transient);
    ASSERT_EQ(ss.period, ref.period);
    ASSERT_EQ(ss.cycles_simulated, ref.transient + ref.period);
    ASSERT_EQ(ss.per_port_delta.size(), ref.deltas.size());
    ConflictTotals totals;
    for (std::size_t i = 0; i < ref.deltas.size(); ++i) {
      const PortStats& d = ref.deltas[i];
      EXPECT_TRUE(fields(ss.per_port_delta[i]) == fields(d)) << "port " << i;
      EXPECT_EQ(ss.grants_in_period[i], d.grants);
      totals.bank += d.bank_conflicts;
      totals.simultaneous += d.simultaneous_conflicts;
      totals.section += d.section_conflicts;
      totals.fault += d.fault_conflicts;
    }
    EXPECT_EQ(ss.conflicts_in_period.bank, totals.bank);
    EXPECT_EQ(ss.conflicts_in_period.simultaneous, totals.simultaneous);
    EXPECT_EQ(ss.conflicts_in_period.section, totals.section);
    EXPECT_EQ(ss.conflicts_in_period.fault, totals.fault);
  }
  EXPECT_GT(with_transient, 200);
  EXPECT_GT(with_pattern, 200);
}

TEST(SteadyState, EqualStatesHaveEqualFutures) {
  // same_state() claims the compared fields fix the future.  Take the
  // detector's two equal systems, at mu and mu + lambda, and check that
  // they emit the same events for 2 * m * nc periods.
  using Trace = std::vector<std::tuple<std::size_t, i64, Event::Type, ConflictKind>>;
  const auto future = [](MemorySystem mem, i64 cycles) {
    Trace trace;
    mem.add_event_hook([&trace](const Event& e) {
      trace.emplace_back(e.port, e.bank, e.type, e.conflict);
    });
    mem.run(cycles, /*stop_when_finished=*/false);
    return trace;
  };
  ConfigSampler sampler{0xf0'7e5ULL};
  for (int n = 0; n < 300; ++n) {
    const auto [cfg, streams] = sampler.next();
    const SteadyState ss = find_steady_state(cfg, streams);
    MemorySystem early{cfg, streams};
    early.run(ss.transient_cycles, /*stop_when_finished=*/false);
    MemorySystem late = early;
    late.run(ss.period, /*stop_when_finished=*/false);
    SCOPED_TRACE(describe(cfg, streams));
    ASSERT_TRUE(early.same_state(late));
    const i64 horizon = 2 * cfg.banks * cfg.bank_cycle;
    const Trace a = future(early, horizon);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, future(late, horizon));
  }
}

// ---- Bounded memory at large m.

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

/// Peak resident set size of this process in kB (VmHWM), or -1.
i64 peak_rss_kb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoll(line.substr(6));
  }
  return -1;
}

TEST(SteadyState, LargeCasesRunInBoundedMemory) {
  if (kSanitized) GTEST_SKIP() << "sanitizer shadow memory skews RSS";
  if (peak_rss_kb() < 0) GTEST_SKIP() << "no VmHWM in /proc/self/status";
  // Both values were recorded with the earlier visited-state map
  // detector's state encoding, replayed with hashed keys: the map itself
  // needed 7.5 GB at m=16384 and more than 15 GB for the m=4096 case.
  struct Case {
    i64 banks;
    i64 d1, b2, d2;
    i64 transient, period;
    Rational bandwidth;
  };
  const Case cases[] = {{4096, 7, 0, 12, 7, 834'560, Rational{1627, 815}},
                        {16384, 1, 1, 3, 8191, 49'152, Rational{4, 3}}};
  for (const Case& c : cases) {
    SCOPED_TRACE("m=" + std::to_string(c.banks));
    {
      // Reset VmHWM to the current RSS (Linux >= 4.0); where that is not
      // permitted the growth is measured from the earlier peak instead.
      std::ofstream clear{"/proc/self/clear_refs"};
      clear << "5";
    }
    const i64 before = peak_rss_kb();
    const SteadyState ss =
        find_steady_state(flat(c.banks, 4), two_streams(0, c.d1, c.b2, c.d2));
    const i64 growth_kb = peak_rss_kb() - before;
    EXPECT_EQ(ss.transient_cycles, c.transient);
    EXPECT_EQ(ss.period, c.period);
    EXPECT_EQ(ss.bandwidth, c.bandwidth);
    EXPECT_LT(growth_kb, 64 * 1024);
  }
}

TEST(OffsetSweep, SynchronizedPairIsOffsetIndependent) {
  // Theorem 3 + synchronization: every offset reaches b_eff = 2.
  const OffsetSweep sweep = sweep_start_offsets(flat(12, 3), 1, 7);
  EXPECT_EQ(sweep.min_bandwidth, Rational{2});
  EXPECT_EQ(sweep.max_bandwidth, Rational{2});
  EXPECT_EQ(sweep.by_offset.size(), 12u);
}

TEST(OffsetSweep, StartDependentPairHasSpread) {
  // m=13, nc=6, d1=1, d2=6: Fig. 3 (barrier, 7/6) vs Fig. 4 (double
  // conflict) depending on b2.
  const OffsetSweep sweep = sweep_start_offsets(flat(13, 6), 1, 6);
  EXPECT_LT(sweep.min_bandwidth, sweep.max_bandwidth);
  EXPECT_EQ(sweep.by_offset[0], (Rational{7, 6}));
}

// ---- Parameterized: single-stream steady state equals the Section III-A
// formula for every (m, nc, d).
using SingleParams = std::tuple<i64, i64>;  // m, nc

class SingleStreamSweep : public ::testing::TestWithParam<SingleParams> {};

TEST_P(SingleStreamSweep, MatchesAnalyticFormula) {
  const auto [m, nc] = GetParam();
  for (i64 d = 0; d < m; ++d) {
    for (i64 b : {i64{0}, m / 2}) {
      const SteadyState ss = find_steady_state(
          flat(m, nc), {StreamConfig{.start_bank = b, .distance = d}});
      EXPECT_EQ(ss.bandwidth, analytic::single_stream_bandwidth(m, d, nc))
          << "m=" << m << " nc=" << nc << " d=" << d << " b=" << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, SingleStreamSweep,
                         ::testing::Values(SingleParams{4, 2}, SingleParams{8, 4},
                                           SingleParams{12, 3}, SingleParams{13, 6},
                                           SingleParams{16, 4}, SingleParams{16, 7},
                                           SingleParams{32, 4}, SingleParams{24, 5}));

}  // namespace
}  // namespace vpmem::sim
