// The Collector recounts statistics from the event stream alone; these
// tests pit it against MemorySystem's own counters on the paper's
// configurations (Figs. 2, 3 and the Fig. 10 X-MP geometry).
#include "vpmem/obs/collector.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "vpmem/sim/config.hpp"
#include "vpmem/sim/memory_system.hpp"
#include "vpmem/trace/timeline.hpp"
#include "vpmem/xmp/machine.hpp"

namespace vpmem::obs {
namespace {

void expect_ports_equal(const std::vector<sim::PortStats>& collected,
                        const std::vector<sim::PortStats>& truth) {
  ASSERT_EQ(collected.size(), truth.size());
  for (std::size_t p = 0; p < truth.size(); ++p) {
    SCOPED_TRACE("port " + std::to_string(p));
    EXPECT_EQ(collected[p].grants, truth[p].grants);
    EXPECT_EQ(collected[p].bank_conflicts, truth[p].bank_conflicts);
    EXPECT_EQ(collected[p].simultaneous_conflicts, truth[p].simultaneous_conflicts);
    EXPECT_EQ(collected[p].section_conflicts, truth[p].section_conflicts);
    EXPECT_EQ(collected[p].first_grant_cycle, truth[p].first_grant_cycle);
    EXPECT_EQ(collected[p].last_grant_cycle, truth[p].last_grant_cycle);
    EXPECT_EQ(collected[p].longest_stall, truth[p].longest_stall);
    EXPECT_EQ(collected[p].current_stall, truth[p].current_stall);
  }
}

/// Run `cycles` periods with a Collector attached and check every
/// recounted statistic against the simulator's own.
void check_collector_matches(const sim::MemoryConfig& config,
                             const std::vector<sim::StreamConfig>& streams, i64 cycles) {
  sim::MemorySystem mem{config, streams};
  Collector collector{mem};
  for (i64 c = 0; c < cycles; ++c) mem.step();
  collector.finish();

  expect_ports_equal(collector.port_stats(), mem.all_stats());

  ASSERT_EQ(collector.bank_grants().size(), static_cast<std::size_t>(config.banks));
  for (i64 b = 0; b < config.banks; ++b) {
    EXPECT_EQ(collector.bank_grants()[static_cast<std::size_t>(b)], mem.bank_grants(b))
        << "bank " << b;
  }

  // Registry counters agree with the port totals.
  const sim::ConflictTotals totals = sim::totals(mem.all_stats());
  MetricsRegistry& reg = collector.registry();
  i64 grants = 0;
  for (const auto& p : mem.all_stats()) grants += p.grants;
  EXPECT_EQ(reg.counter("grants").value(), grants);
  EXPECT_EQ(reg.counter("conflicts.bank").value(), totals.bank);
  EXPECT_EQ(reg.counter("conflicts.simultaneous").value(), totals.simultaneous);
  EXPECT_EQ(reg.counter("conflicts.section").value(), totals.section);

  // Every delayed period belongs to exactly one stall run, so the
  // histogram's mass equals the total conflict count.
  EXPECT_EQ(collector.stall_lengths().sum(), totals.total());
}

TEST(Collector, MatchesAllStatsOnFig2ConflictFree) {
  // Fig. 2: m = 12, nc = 3, distances 1 and 7 from banks 0 and 3 —
  // the paper's conflict-free showcase.
  const sim::MemoryConfig config{.banks = 12, .sections = 12, .bank_cycle = 3};
  check_collector_matches(config, sim::two_streams(0, 1, 3, 7), 600);
}

TEST(Collector, MatchesAllStatsOnFig3Barrier) {
  // Fig. 3: m = 13, nc = 6, both streams from bank 0 with distances 1
  // and 6 — forms the barrier, so real stalls flow through the hook.
  const sim::MemoryConfig config{.banks = 13, .sections = 13, .bank_cycle = 6};
  check_collector_matches(config, sim::two_streams(0, 1, 0, 6), 600);
}

TEST(Collector, MatchesAllStatsOnFig10XmpGeometry) {
  // Fig. 10 machine: 16 banks, 4 sections, nc = 4 — exercises section
  // and simultaneous conflicts across two CPUs.
  const xmp::XmpConfig machine;
  std::vector<sim::StreamConfig> streams;
  // CPU 0: the triad's three operand streams at stride 5.
  for (i64 p = 0; p < 3; ++p) {
    streams.push_back(sim::StreamConfig{.start_bank = p * 4, .distance = 5, .cpu = 0});
  }
  // CPU 1: the competing stride-1 background streams.
  for (const i64 b : machine.background_start_banks) {
    streams.push_back(sim::StreamConfig{.start_bank = b, .distance = 1, .cpu = 1});
  }
  check_collector_matches(machine.memory, streams, 800);
}

TEST(Collector, MatchesFiniteStreams) {
  const sim::MemoryConfig config{.banks = 8, .sections = 4, .bank_cycle = 4};
  auto streams = sim::two_streams(0, 1, 0, 4, /*same_cpu=*/true);
  for (auto& s : streams) s.length = 37;
  check_collector_matches(config, streams, 400);
}

TEST(Collector, FinishIsIdempotentAndDetaches) {
  const sim::MemoryConfig config{.banks = 13, .sections = 13, .bank_cycle = 6};
  sim::MemorySystem mem{config, sim::two_streams(0, 1, 0, 6)};
  Collector collector{mem};
  for (i64 c = 0; c < 100; ++c) mem.step();
  collector.finish();
  const auto frozen = collector.port_stats();
  const i64 frozen_count = collector.stall_lengths().count();
  // Events after finish() must not be collected.
  for (i64 c = 0; c < 100; ++c) mem.step();
  collector.finish();
  expect_ports_equal(collector.port_stats(), frozen);
  EXPECT_EQ(collector.stall_lengths().count(), frozen_count);
  EXPECT_EQ(mem.event_hook_count(), 0u);
}

TEST(Collector, CoexistsWithTimeline) {
  // Both observers attach through the hook multiplexer; each must see
  // the full event stream.
  const sim::MemoryConfig config{.banks = 13, .sections = 13, .bank_cycle = 6};
  sim::MemorySystem mem{config, sim::two_streams(0, 1, 0, 6)};
  trace::Timeline timeline{mem};
  Collector collector{mem};
  EXPECT_EQ(mem.event_hook_count(), 2u);
  for (i64 c = 0; c < 200; ++c) mem.step();
  collector.finish();
  EXPECT_EQ(mem.event_hook_count(), 1u);  // Timeline still attached

  expect_ports_equal(collector.port_stats(), mem.all_stats());
  i64 timeline_grants = 0;
  i64 timeline_conflicts = 0;
  for (const auto& e : timeline.events()) {
    (e.type == sim::Event::Type::grant ? timeline_grants : timeline_conflicts)++;
  }
  const sim::ConflictTotals totals = sim::totals(mem.all_stats());
  i64 grants = 0;
  for (const auto& p : mem.all_stats()) grants += p.grants;
  EXPECT_EQ(timeline_grants, grants);
  EXPECT_EQ(timeline_conflicts, totals.total());
}

TEST(Collector, StallHistogramOnBarrier) {
  // The Fig. 3 barrier produces real delay runs; the longest recorded
  // run must agree with the simulator's longest_stall.
  const sim::MemoryConfig config{.banks = 13, .sections = 13, .bank_cycle = 6};
  sim::MemorySystem mem{config, sim::two_streams(0, 1, 0, 6)};
  Collector collector{mem};
  for (i64 c = 0; c < 600; ++c) mem.step();
  collector.finish();
  ASSERT_GT(collector.stall_lengths().count(), 0);
  i64 longest = 0;
  for (const auto& p : mem.all_stats()) longest = std::max(longest, p.longest_stall);
  EXPECT_EQ(collector.stall_lengths().max(), longest);
}

TEST(MemorySystem, HookMultiplexerAddRemove) {
  const sim::MemoryConfig config{.banks = 8, .sections = 8, .bank_cycle = 4};
  sim::MemorySystem mem{config, sim::two_streams(0, 1, 1, 1)};
  i64 a = 0;
  i64 b = 0;
  const std::size_t ha = mem.add_event_hook([&](const sim::Event&) { ++a; });
  const std::size_t hb = mem.add_event_hook([&](const sim::Event&) { ++b; });
  EXPECT_EQ(mem.event_hook_count(), 2u);
  for (i64 c = 0; c < 50; ++c) mem.step();
  EXPECT_GT(a, 0);
  EXPECT_EQ(a, b);
  mem.remove_event_hook(ha);
  EXPECT_EQ(mem.event_hook_count(), 1u);
  const i64 a_frozen = a;
  for (i64 c = 0; c < 50; ++c) mem.step();
  EXPECT_EQ(a, a_frozen);
  EXPECT_GT(b, a_frozen);
  mem.remove_event_hook(hb);
  EXPECT_EQ(mem.event_hook_count(), 0u);
}

}  // namespace
}  // namespace vpmem::obs
