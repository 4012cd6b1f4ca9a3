// ConflictAttribution: the lost-cycle matrices must reconcile exactly
// with the simulator's own counters, and barrier-episode detection must
// agree with the analytic theorems on the paper's figures.
#include "vpmem/obs/attribution.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <stdexcept>
#include <vector>

#include "vpmem/analytic/theorems.hpp"
#include "vpmem/sim/memory_system.hpp"
#include "vpmem/util/rational.hpp"

namespace vpmem::obs {
namespace {

/// Run `streams` for `cycles` with an attribution attached; returns the
/// finalized analyzer and leaves the simulator's stats in `stats`.
ConflictAttribution attribute_run(const sim::MemoryConfig& config,
                                  const std::vector<sim::StreamConfig>& streams, i64 cycles,
                                  std::vector<sim::PortStats>& stats,
                                  AttributionOptions options = {}) {
  sim::MemorySystem mem{config, streams};
  ConflictAttribution attribution{config, options};
  mem.add_event_sink(attribution);
  mem.run(cycles, /*stop_when_finished=*/false);
  mem.remove_event_sink(attribution);
  attribution.finalize(mem.now());
  stats = mem.all_stats();
  return attribution;
}

void expect_matches_stats(const sim::MemoryConfig& config, const ConflictAttribution& a,
                          const std::vector<sim::PortStats>& stats) {
  i64 expected_grants = 0;
  for (std::size_t p = 0; p < stats.size(); ++p) {
    expected_grants += stats[p].grants;
    // The per-kind totals equal the stream's delay counters field-for-field.
    const sim::ConflictTotals t = a.totals(p);
    EXPECT_EQ(t.bank, stats[p].bank_conflicts) << "port " << p;
    EXPECT_EQ(t.simultaneous, stats[p].simultaneous_conflicts) << "port " << p;
    EXPECT_EQ(t.section, stats[p].section_conflicts) << "port " << p;
    // Row sums over banks reproduce the per-kind totals: the matrix never
    // loses or double-counts a delayed period.
    sim::ConflictTotals rows;
    for (i64 bank = 0; bank < config.banks; ++bank) {
      rows.bank += a.lost_cycles(p, bank, sim::ConflictKind::bank);
      rows.simultaneous += a.lost_cycles(p, bank, sim::ConflictKind::simultaneous);
      rows.section += a.lost_cycles(p, bank, sim::ConflictKind::section);
    }
    EXPECT_EQ(rows.bank, t.bank) << "port " << p;
    EXPECT_EQ(rows.simultaneous, t.simultaneous) << "port " << p;
    EXPECT_EQ(rows.section, t.section) << "port " << p;
    // Blame decomposition: every lost period is charged to some blocker.
    i64 blamed = 0;
    for (std::size_t b = 0; b < stats.size(); ++b) blamed += a.blocked_by(p, b);
    EXPECT_EQ(blamed, t.total()) << "port " << p;
  }
  EXPECT_EQ(a.total_grants(), expected_grants);
}

TEST(ConflictAttribution, MatchesAllStatsOnFig2) {
  // Fig. 2: m = 12, nc = 3, streams (0,1) and (3,7) — conflict-free.
  const sim::MemoryConfig config{.banks = 12, .sections = 12, .bank_cycle = 3};
  std::vector<sim::PortStats> stats;
  const ConflictAttribution a =
      attribute_run(config, sim::two_streams(0, 1, 3, 7), 240, stats);
  expect_matches_stats(config, a, stats);
  EXPECT_TRUE(a.episodes().empty());
  EXPECT_EQ(a.totals(0).total(), 0);
  EXPECT_EQ(a.totals(1).total(), 0);
}

TEST(ConflictAttribution, MatchesAllStatsOnFig3) {
  // Fig. 3: m = 13, nc = 6, streams (0,1) and (0,6) — barrier-situation.
  const sim::MemoryConfig config{.banks = 13, .sections = 13, .bank_cycle = 6};
  std::vector<sim::PortStats> stats;
  const ConflictAttribution a =
      attribute_run(config, sim::two_streams(0, 1, 0, 6), 312, stats);
  expect_matches_stats(config, a, stats);
}

TEST(ConflictAttribution, MatchesAllStatsOnFig7) {
  // Fig. 7 setting: m = 12, s = 2, nc = 2, both streams on one CPU.  The
  // eq. 31 offset nc*d1 = 2 (the figure's counterexample to eq. 32's
  // conflict-free offset 3) alternates section conflicts on the shared
  // access path, so both kinds of lost cycle show up in the matrices.
  const sim::MemoryConfig config{.banks = 12, .sections = 2, .bank_cycle = 2};
  std::vector<sim::PortStats> stats;
  const ConflictAttribution a =
      attribute_run(config, sim::two_streams(0, 1, 2, 1, /*same_cpu=*/true), 240, stats);
  expect_matches_stats(config, a, stats);
  EXPECT_GT(a.totals(1).section, 0);
}

TEST(ConflictAttribution, Fig3YieldsOneEpisodeAtPredictedOnset) {
  const i64 m = 13;
  const i64 nc = 6;
  const i64 d1 = 1;
  const i64 d2 = 6;
  // Theorem 4 predicts the barrier-situation with b_eff = 1 + d1/d2.
  // (Theorems 6/7 do not certify uniqueness here — eq. 24 needs
  // (2nc-1)*d2 <= m and eq. 25 presumes eq. 22, both of which fail for
  // this figure — but the observed single episode below shows the
  // barrier is reached from the figure's start position regardless.)
  ASSERT_TRUE(analytic::barrier_possible(m, nc, d1, d2));
  EXPECT_FALSE(analytic::unique_barrier(m, nc, d1, d2));
  EXPECT_EQ(analytic::barrier_bandwidth(d1, d2), Rational(7, 6));

  const sim::MemoryConfig config{.banks = m, .sections = m, .bank_cycle = nc};
  std::vector<sim::PortStats> stats;
  const ConflictAttribution a =
      attribute_run(config, sim::two_streams(0, d1, 0, d2), 312, stats);

  // Both streams start at bank 0, so stream 2 is delayed from its very
  // first request, and in steady state it re-enters the barrier within nc
  // periods of every grant: one merged episode, onset 0, stream 2.
  ASSERT_EQ(a.episodes().size(), 1u);
  const BarrierEpisode& ep = a.episodes().front();
  EXPECT_EQ(ep.port, 1u);
  EXPECT_EQ(ep.onset, 0);
  EXPECT_EQ(ep.lost_cycles, stats[1].total_conflicts());
  EXPECT_EQ(ep.kinds.bank, stats[1].bank_conflicts);
  EXPECT_EQ(ep.kinds.simultaneous, stats[1].simultaneous_conflicts);

  // The window b_eff converges to the predicted 7/6 once past startup.
  const auto& series = a.bandwidth_series();
  ASSERT_FALSE(series.empty());
  const BandwidthSample& tail = series[series.size() - 2];  // last full window
  EXPECT_NEAR(tail.b_eff(), 7.0 / 6.0, 0.15);
}

TEST(ConflictAttribution, EpisodeGapSplitsDistantStalls) {
  // Two stalls farther apart than the merge gap (nc = 2) become two
  // episodes.
  const sim::MemoryConfig config{.banks = 4, .sections = 4, .bank_cycle = 2};
  ConflictAttribution a{config};
  sim::Event e;
  e.type = sim::Event::Type::conflict;
  e.port = 0;
  e.bank = 1;
  e.conflict = sim::ConflictKind::bank;
  e.cycle = 5;
  a.observe(e);
  e.cycle = 6;
  a.observe(e);
  e.cycle = 20;  // > gap away: new episode
  e.bank = 2;
  a.observe(e);
  a.finalize(30);
  ASSERT_EQ(a.episodes().size(), 2u);
  EXPECT_EQ(a.episodes()[0].onset, 5);
  EXPECT_EQ(a.episodes()[0].last, 6);
  EXPECT_EQ(a.episodes()[0].lost_cycles, 2);
  EXPECT_EQ(a.episodes()[0].banks, std::vector<i64>{1});
  EXPECT_EQ(a.episodes()[1].onset, 20);
  EXPECT_EQ(a.episodes()[1].banks, std::vector<i64>{2});
}

TEST(ConflictAttribution, BandwidthSeriesCoversTheWholeWindow) {
  const sim::MemoryConfig config{.banks = 8, .sections = 8, .bank_cycle = 4};
  sim::MemorySystem mem{config, sim::two_streams(0, 1, 0, 4)};
  ConflictAttribution a{config, AttributionOptions{.window = 10}};
  mem.add_event_sink(a);
  mem.run(95, /*stop_when_finished=*/false);
  mem.remove_event_sink(a);
  a.finalize(mem.now());

  const auto& series = a.bandwidth_series();
  ASSERT_EQ(series.size(), 10u);  // ceil(95 / 10)
  i64 cycles = 0;
  i64 grants = 0;
  for (const BandwidthSample& s : series) {
    EXPECT_GE(s.grants, 0);
    EXPECT_LE(s.b_eff(), static_cast<double>(mem.port_count()));
    cycles += s.cycles;
    grants += s.grants;
  }
  EXPECT_EQ(cycles, 95);
  EXPECT_EQ(series.back().cycles, 5);  // partial final window
  EXPECT_EQ(grants, a.total_grants());
}

TEST(ConflictAttribution, StallHistogramOnBarrierCountsOpenRuns) {
  // The Fig. 3 barrier produces real delay runs.  Stop the run while a
  // stream is stalled: that open run must be counted at finalize(), so
  // the histogram's mass is every lost cycle, and its longest run is the
  // simulator's longest_stall.
  const sim::MemoryConfig config{.banks = 13, .sections = 13, .bank_cycle = 6};
  sim::MemorySystem mem{config, sim::two_streams(0, 1, 0, 6)};
  ConflictAttribution a{config};
  mem.add_event_sink(a);
  mem.run(600, /*stop_when_finished=*/false);
  const auto stalled = [&mem] {
    for (const auto& p : mem.all_stats()) {
      if (p.current_stall > 0) return true;
    }
    return false;
  };
  while (!stalled()) mem.step();
  mem.remove_event_sink(a);
  a.finalize(mem.now());

  const Histogram& runs = a.stall_lengths();
  ASSERT_GT(runs.count(), 0);
  i64 lost = 0;
  i64 longest = 0;
  for (const auto& p : mem.all_stats()) {
    lost += p.total_conflicts();
    longest = std::max(longest, p.longest_stall);
  }
  EXPECT_EQ(runs.sum(), lost);
  EXPECT_EQ(runs.max(), longest);
}

TEST(ConflictAttribution, ObserveAfterFinalizeThrows) {
  const sim::MemoryConfig config{.banks = 4, .sections = 4, .bank_cycle = 2};
  ConflictAttribution a{config};
  a.finalize(10);
  sim::Event e;
  EXPECT_THROW(a.observe(e), std::logic_error);
  EXPECT_THROW((ConflictAttribution{config, AttributionOptions{.window = 0}}),
               std::invalid_argument);
}

TEST(ConflictAttribution, JsonSummaryReconcilesWithCounters) {
  const sim::MemoryConfig config{.banks = 13, .sections = 13, .bank_cycle = 6};
  std::vector<sim::PortStats> stats;
  const ConflictAttribution a =
      attribute_run(config, sim::two_streams(0, 1, 0, 6), 200, stats);
  const Json doc = a.to_json();
  EXPECT_EQ(doc.at("schema").as_string(), kAttributionSchema);
  EXPECT_EQ(doc.at("grants").as_int(), a.total_grants());
  i64 total_lost = 0;
  for (const auto& s : stats) total_lost += s.total_conflicts();
  EXPECT_EQ(doc.at("lost_cycles").at("total").as_int(), total_lost);
  // Per-port sparse matrix rows sum back to the port's counters.
  for (const Json& entry : doc.at("per_port").as_array()) {
    const auto p = static_cast<std::size_t>(entry.at("port").as_int());
    i64 bank_sum = 0;
    for (const Json& cell : entry.at("by_bank").as_array()) {
      bank_sum += cell.at("bank_conflicts").as_int();
    }
    EXPECT_EQ(bank_sum, stats[p].bank_conflicts);
  }
  // Round-trips through the strict parser.
  EXPECT_EQ(Json::parse(doc.dump()), doc);
}

TEST(ConflictAttribution, BatchedFoldMatchesPerEventObserve) {
  // Folding each clock period's events at once (the tracer's sink path)
  // must give the same summary as folding them one by one.
  const sim::MemoryConfig config{.banks = 16, .sections = 4, .bank_cycle = 4};
  std::vector<sim::StreamConfig> streams;
  for (i64 p = 0; p < 5; ++p) {
    streams.push_back(sim::StreamConfig{.start_bank = p * 3 % 16, .distance = 1 + p % 3,
                                        .cpu = p % 2, .length = 40 + 30 * p});
  }
  sim::MemorySystem mem{config, streams};
  sim::EventLog log;
  mem.add_event_sink(log);
  mem.run(300, /*stop_when_finished=*/false);
  const std::vector<sim::Event>& events = log.events;
  ConflictAttribution single{config, AttributionOptions{.window = 16}};
  ConflictAttribution batched{config, AttributionOptions{.window = 16}};
  for (const sim::Event& e : events) single.observe(e);
  for (std::size_t i = 0; i < events.size();) {
    std::size_t j = i;
    while (j < events.size() && events[j].cycle == events[i].cycle) ++j;
    batched.on_events(std::span<const sim::Event>{events}.subspan(i, j - i));
    i = j;
  }
  batched.on_events({});
  single.finalize(mem.now());
  batched.finalize(mem.now());
  EXPECT_GT(single.episodes().size(), 1u);
  EXPECT_EQ(batched.to_json(), single.to_json());
  EXPECT_GT(single.stall_lengths().count(), 0);
  EXPECT_EQ(batched.stall_lengths().to_json(), single.stall_lengths().to_json());
  EXPECT_THROW(batched.on_events(std::span<const sim::Event>{events}.first(1)),
               std::logic_error);
}

}  // namespace
}  // namespace vpmem::obs
