#include "vpmem/sim/memory_system.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace vpmem::sim {
namespace {

MemoryConfig flat(i64 m, i64 nc) { return MemoryConfig{.banks = m, .sections = m, .bank_cycle = nc}; }

TEST(MemorySystem, EmptyConstructionAllowsLaterInjection) {
  MemorySystem mem{flat(8, 2), {}};
  EXPECT_TRUE(mem.finished());
  mem.step();  // clock advances even with no ports
  EXPECT_EQ(mem.now(), 1);
  mem.add_stream(StreamConfig{.start_bank = 0, .distance = 1, .length = 2, .start_cycle = 1});
  mem.run(100);
  EXPECT_EQ(mem.port_stats(0).grants, 2);
}

TEST(MemorySystem, SingleStreamStridesThroughBanks) {
  MemorySystem mem{flat(8, 2), {StreamConfig{.start_bank = 3, .distance = 2, .length = 6}}};
  std::vector<i64> banks;
  mem.add_event_hook([&](const Event& e) {
    if (e.type == Event::Type::grant) banks.push_back(e.bank);
  });
  mem.run(100);
  EXPECT_TRUE(mem.finished());
  EXPECT_EQ(banks, (std::vector<i64>{3, 5, 7, 1, 3, 5}));
}

TEST(MemorySystem, GrantsOnePerCycleWhenConflictFree) {
  // r = 8 >= nc = 4: no self conflict, one grant per clock period.
  MemorySystem mem{flat(8, 4), {StreamConfig{.start_bank = 0, .distance = 1, .length = 20}}};
  mem.run(1000);
  const PortStats& st = mem.port_stats(0);
  EXPECT_EQ(st.grants, 20);
  EXPECT_EQ(st.first_grant_cycle, 0);
  EXPECT_EQ(st.last_grant_cycle, 19);
  EXPECT_EQ(st.total_conflicts(), 0);
}

TEST(MemorySystem, SelfBankConflictDelaysAtStartBank) {
  // m = 4, d = 2 -> r = 2 < nc = 4: returns to the start bank too early.
  MemorySystem mem{flat(4, 4), {StreamConfig{.start_bank = 0, .distance = 2, .length = 4}}};
  std::vector<Event> conflicts;
  mem.add_event_hook([&](const Event& e) {
    if (e.type == Event::Type::conflict) conflicts.push_back(e);
  });
  mem.run(1000);
  EXPECT_TRUE(mem.finished());
  ASSERT_FALSE(conflicts.empty());
  for (const auto& c : conflicts) {
    EXPECT_EQ(c.conflict, ConflictKind::bank);
    // Section III-A: the conflict always occurs at the start bank.
    EXPECT_EQ(c.bank, 0);
  }
  // Elements visit banks 0,2,0,2: only the return to bank 0 (element 2)
  // is early, by nc - r = 2 periods; the final return to bank 2 arrives
  // exactly as it frees.
  EXPECT_EQ(mem.port_stats(0).bank_conflicts, 2);
}

TEST(MemorySystem, BankBusyCountsDown) {
  MemorySystem mem{flat(8, 3), {StreamConfig{.start_bank = 2, .distance = 1, .length = 1}}};
  EXPECT_EQ(mem.bank_busy(2), 0);
  mem.step();
  EXPECT_EQ(mem.bank_busy(2), 2);  // granted at t=0, busy until t=3; now()==1
  mem.step();
  EXPECT_EQ(mem.bank_busy(2), 1);
  mem.step();
  EXPECT_EQ(mem.bank_busy(2), 0);
  EXPECT_THROW(static_cast<void>(mem.bank_busy(8)), std::out_of_range);
  EXPECT_THROW(static_cast<void>(mem.bank_busy(-1)), std::out_of_range);
}

TEST(MemorySystem, SimultaneousBankConflictAcrossCpus) {
  // Two ports on different CPUs request the same inactive bank in the same
  // period; fixed priority: port 0 wins, port 1 records a simultaneous
  // bank conflict.
  MemorySystem mem{flat(8, 2), two_streams(0, 1, 0, 1, /*same_cpu=*/false)};
  std::vector<Event> events;
  mem.add_event_hook([&](const Event& e) { events.push_back(e); });
  mem.step();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, Event::Type::grant);
  EXPECT_EQ(events[0].port, 0u);
  EXPECT_EQ(events[1].type, Event::Type::conflict);
  EXPECT_EQ(events[1].port, 1u);
  EXPECT_EQ(events[1].conflict, ConflictKind::simultaneous);
  EXPECT_EQ(events[1].blocker, 0u);
}

TEST(MemorySystem, SameBankSameCpuIsSectionConflict) {
  // Within one CPU the two ports share the access path: classified as a
  // section conflict (the paper's Fig. 1 discussion).
  MemorySystem mem{flat(8, 2), two_streams(0, 1, 0, 1, /*same_cpu=*/true)};
  mem.step();
  EXPECT_EQ(mem.port_stats(1).section_conflicts, 1);
  EXPECT_EQ(mem.port_stats(1).simultaneous_conflicts, 0);
}

TEST(MemorySystem, SectionConflictOnSharedPath) {
  // s = 2 < m = 8: banks 0 and 2 share section 0.  Two ports of one CPU
  // request them in the same period -> section conflict for the loser.
  MemoryConfig cfg{.banks = 8, .sections = 2, .bank_cycle = 2};
  MemorySystem mem{cfg, two_streams(0, 1, 2, 1, /*same_cpu=*/true)};
  mem.step();
  EXPECT_EQ(mem.port_stats(0).grants, 1);
  EXPECT_EQ(mem.port_stats(1).grants, 0);
  EXPECT_EQ(mem.port_stats(1).section_conflicts, 1);
}

TEST(MemorySystem, DifferentCpusDoNotShareAccessPaths) {
  // Same banks, but ports on different CPUs have their own paths into the
  // section: both proceed.
  MemoryConfig cfg{.banks = 8, .sections = 2, .bank_cycle = 2};
  MemorySystem mem{cfg, two_streams(0, 1, 2, 1, /*same_cpu=*/false)};
  mem.step();
  EXPECT_EQ(mem.port_stats(0).grants, 1);
  EXPECT_EQ(mem.port_stats(1).grants, 1);
}

TEST(MemorySystem, BankConflictAgainstActiveBank) {
  // Port 1 starts one period later and requests the bank port 0 holds.
  MemoryConfig cfg = flat(8, 4);
  std::vector<StreamConfig> streams{
      StreamConfig{.start_bank = 0, .distance = 1, .cpu = 0, .length = 1},
      StreamConfig{.start_bank = 0, .distance = 1, .cpu = 1, .length = 1, .start_cycle = 1}};
  MemorySystem mem{cfg, streams};
  mem.run(100);
  EXPECT_EQ(mem.port_stats(1).bank_conflicts, 3);  // waits t=1,2,3; granted t=4
  EXPECT_EQ(mem.port_stats(1).first_grant_cycle, 4);
}

TEST(MemorySystem, DelayedPortRetainsElementOrder) {
  // Dynamic conflict resolution: a delayed request delays all subsequent
  // requests of that port; elements are still transferred in order.
  MemoryConfig cfg = flat(4, 4);
  MemorySystem mem{cfg, {StreamConfig{.start_bank = 0, .distance = 2, .length = 8}}};
  std::vector<i64> elements;
  mem.add_event_hook([&](const Event& e) {
    if (e.type == Event::Type::grant) elements.push_back(e.element);
  });
  mem.run(1000);
  for (std::size_t i = 0; i < elements.size(); ++i) {
    EXPECT_EQ(elements[i], static_cast<i64>(i));
  }
}

TEST(MemorySystem, StartCycleDefersFirstRequest) {
  MemorySystem mem{flat(8, 2),
                   {StreamConfig{.start_bank = 0, .distance = 1, .length = 2, .start_cycle = 5}}};
  mem.run(100);
  EXPECT_EQ(mem.port_stats(0).first_grant_cycle, 5);
}

TEST(MemorySystem, AddStreamMidRun) {
  MemorySystem mem{flat(8, 2), {StreamConfig{.start_bank = 0, .distance = 1, .length = 4}}};
  mem.run(2, /*stop_when_finished=*/false);
  const std::size_t port = mem.add_stream(
      StreamConfig{.start_bank = 4, .distance = 1, .cpu = 1, .length = 3, .start_cycle = 2});
  EXPECT_EQ(port, 1u);
  mem.run(100);
  EXPECT_TRUE(mem.finished());
  EXPECT_EQ(mem.port_stats(1).grants, 3);
  EXPECT_EQ(mem.port_stats(1).first_grant_cycle, 2);
}

TEST(MemorySystem, AddStreamRejectsPastStart) {
  MemorySystem mem{flat(8, 2), {StreamConfig{.length = 1}}};
  mem.run(3, /*stop_when_finished=*/false);
  EXPECT_THROW(static_cast<void>(
      mem.add_stream(StreamConfig{.start_bank = 1, .length = 1, .start_cycle = 1})),
      std::invalid_argument);
}

TEST(MemorySystem, CyclicPriorityRotates) {
  // Both ports on different CPUs contend for bank 0 forever (d = 0,
  // nc = 1 so the bank is always free again).  Fixed priority starves
  // port 1; cyclic priority alternates.
  MemoryConfig cfg = flat(8, 1);
  auto streams = two_streams(0, 0, 0, 0, /*same_cpu=*/false);
  {
    MemorySystem mem{cfg, streams};
    mem.run(10, false);
    EXPECT_EQ(mem.port_stats(0).grants, 10);
    EXPECT_EQ(mem.port_stats(1).grants, 0);
  }
  {
    cfg.priority = PriorityRule::cyclic;
    MemorySystem mem{cfg, streams};
    mem.run(10, false);
    EXPECT_EQ(mem.port_stats(0).grants, 5);
    EXPECT_EQ(mem.port_stats(1).grants, 5);
  }
}

TEST(MemorySystem, NextBankAndElementsDone) {
  MemorySystem mem{flat(8, 2), {StreamConfig{.start_bank = 1, .distance = 3, .length = 3}}};
  EXPECT_EQ(mem.next_bank(0), std::optional<i64>{1});
  mem.step();
  EXPECT_EQ(mem.elements_done(0), 1);
  EXPECT_EQ(mem.next_bank(0), std::optional<i64>{4});
  mem.run(100);
  EXPECT_EQ(mem.next_bank(0), std::nullopt);
  EXPECT_TRUE(mem.port_done(0));
}

TEST(MemorySystem, SameStateRepeatsWithCyclicBehaviour) {
  // A single conflict-free infinite stream has period r = m once past the
  // cold start (the t = 0 state has no residually busy banks, so it never
  // recurs).
  MemorySystem mem{flat(8, 2), {StreamConfig{.start_bank = 0, .distance = 1}}};
  const MemorySystem cold = mem;
  for (int i = 0; i < 8; ++i) mem.step();
  const MemorySystem warm = mem;
  EXPECT_TRUE(warm.same_state(mem));
  EXPECT_FALSE(warm.same_state(cold));
  for (int i = 0; i < 8; ++i) mem.step();
  EXPECT_TRUE(mem.same_state(warm));
  EXPECT_TRUE(warm.same_state(mem));
  EXPECT_NE(mem.now(), warm.now());  // absolute time is not part of the state
  mem.step();
  EXPECT_FALSE(mem.same_state(warm));
}

TEST(MemorySystem, DistanceLargerThanBanksWrap) {
  // distance is taken mod m for bank addressing.
  MemorySystem mem{flat(8, 2), {StreamConfig{.start_bank = 0, .distance = 9, .length = 3}}};
  std::vector<i64> banks;
  mem.add_event_hook([&](const Event& e) {
    if (e.type == Event::Type::grant) banks.push_back(e.bank);
  });
  mem.run(100);
  EXPECT_EQ(banks, (std::vector<i64>{0, 1, 2}));
}

TEST(MemorySystem, BankGrantStatistics) {
  // Stream over banks 0,2,0,2 on m=4.
  MemorySystem mem{flat(4, 1), {StreamConfig{.start_bank = 0, .distance = 2, .length = 4}}};
  mem.run(100);
  EXPECT_EQ(mem.bank_grants(0), 2);
  EXPECT_EQ(mem.bank_grants(2), 2);
  EXPECT_EQ(mem.bank_grants(1), 0);
  EXPECT_EQ(mem.hottest_bank(), 0);  // tie between 0 and 2: lowest wins
  EXPECT_THROW(static_cast<void>(mem.bank_grants(4)), std::out_of_range);
}

TEST(MemorySystem, BankUtilizationBounds) {
  // A saturating schedule: 4 nc-spaced stride-1 streams on m=16, nc=4
  // keep every bank busy every period -> utilization -> 1.
  std::vector<StreamConfig> streams;
  for (i64 p = 0; p < 4; ++p) {
    StreamConfig s;
    s.start_bank = p * 4;
    s.distance = 1;
    s.cpu = p;
    streams.push_back(s);
  }
  MemorySystem mem{flat(16, 4), streams};
  EXPECT_DOUBLE_EQ(mem.bank_utilization(), 0.0);  // before the first step
  mem.run(160, false);
  EXPECT_GT(mem.bank_utilization(), 0.95);
  EXPECT_LE(mem.bank_utilization(), 1.0);
  // A lone self-conflicting stream (d=0): only one bank ever active,
  // utilization ~ 1/m.
  MemorySystem lone{flat(16, 4), {StreamConfig{.distance = 0}}};
  lone.run(160, false);
  EXPECT_NEAR(lone.bank_utilization(), 1.0 / 16.0, 0.01);
}

TEST(MemorySystem, ZeroLengthStreamIsImmediatelyDone) {
  MemorySystem mem{flat(8, 2), {StreamConfig{.start_bank = 0, .distance = 1, .length = 0}}};
  EXPECT_TRUE(mem.finished());
  EXPECT_EQ(mem.run(10), 0);
}

}  // namespace
}  // namespace vpmem::sim
