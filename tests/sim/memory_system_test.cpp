#include "vpmem/sim/memory_system.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "vpmem/check/reference_model.hpp"
#include "vpmem/util/error.hpp"

namespace vpmem::sim {
namespace {

MemoryConfig flat(i64 m, i64 nc) { return MemoryConfig{.banks = m, .sections = m, .bank_cycle = nc}; }

/// Banks of the logged grants, in order.
std::vector<i64> granted_banks(const EventLog& log) {
  std::vector<i64> banks;
  for (const Event& e : log.events) {
    if (e.type == Event::Type::grant) banks.push_back(e.bank);
  }
  return banks;
}

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
  EventLog log;
  mem.add_event_sink(log);
  mem.run(100);
  EXPECT_TRUE(mem.finished());
  EXPECT_EQ(granted_banks(log), (std::vector<i64>{3, 5, 7, 1, 3, 5}));
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
  EventLog log;
  mem.add_event_sink(log);
  mem.run(1000);
  EXPECT_TRUE(mem.finished());
  i64 conflicts = 0;
  for (const auto& c : log.events) {
    if (c.type != Event::Type::conflict) continue;
    ++conflicts;
    EXPECT_EQ(c.conflict, ConflictKind::bank);
    // Section III-A: the conflict always occurs at the start bank.
    EXPECT_EQ(c.bank, 0);
  }
  // Elements visit banks 0,2,0,2: only the return to bank 0 (element 2)
  // is early, by nc - r = 2 periods; the final return to bank 2 arrives
  // exactly as it frees.
  EXPECT_EQ(conflicts, 2);
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
  EventLog log;
  mem.add_event_sink(log);
  mem.step();
  const std::vector<Event>& events = log.events;
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
  EventLog log;
  mem.add_event_sink(log);
  mem.run(1000);
  i64 next = 0;
  for (const Event& e : log.events) {
    if (e.type == Event::Type::grant) {
      EXPECT_EQ(e.element, next++);
    }
  }
  EXPECT_EQ(next, 8);
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
  try {
    static_cast<void>(mem.add_stream(StreamConfig{.start_bank = 1, .length = 1, .start_cycle = 1}));
    FAIL() << "start_cycle in the past accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::config_invalid);
    EXPECT_STREQ(e.what(), "add_stream: start_cycle must not lie in the past");
  }
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
  EventLog log;
  mem.add_event_sink(log);
  mem.run(100);
  EXPECT_EQ(granted_banks(log), (std::vector<i64>{0, 1, 2}));
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

// ---- live-port list ---------------------------------------------------------
// step() visits only the ports that are not done.  These cases pin that
// the visit order, the cyclic rotation and every event stay exactly what
// a scan over all ports produces (check::ReferenceModel, which keeps no
// live list, or an uninterrupted run of the same system).

std::vector<Event> record(MemorySystem& mem, i64 cycles) {
  EventLog log;
  mem.add_event_sink(log);
  mem.run(cycles, /*stop_when_finished=*/false);
  mem.remove_event_sink(log);
  return std::move(log.events);
}

void expect_same_events(const std::vector<Event>& got, const std::vector<Event>& want,
                        const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const Event& a = got[i];
    const Event& b = want[i];
    ASSERT_TRUE(a.type == b.type && a.cycle == b.cycle && a.port == b.port && a.bank == b.bank &&
                a.element == b.element && a.conflict == b.conflict && a.blocker == b.blocker)
        << label << ": event " << i << " differs (cycle " << a.cycle << " port " << a.port
        << " vs cycle " << b.cycle << " port " << b.port << ")";
  }
}

/// Small deterministic generator for the seeded configurations below.
class Lcg {
 public:
  explicit Lcg(std::uint64_t seed) : state_{seed * 0x9E3779B97F4A7C15ULL + 1} {}
  i64 below(i64 n) {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<i64>((state_ >> 33) % static_cast<std::uint64_t>(n));
  }

 private:
  std::uint64_t state_;
};

TEST(MemorySystemLiveList, FinitePortsFinishingMidRunMatchTheReference) {
  // Ports of different lengths (including 0) and start cycles leave the
  // live list at different times; under cyclic priority the rotation
  // keeps running over all port indices.
  i64 finished_mid_run = 0;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    Lcg rng{seed};
    const i64 m = 4 + rng.below(29);
    const std::vector<i64> divisors = [m] {
      std::vector<i64> out;
      for (i64 s = 1; s <= m; ++s) {
        if (m % s == 0) out.push_back(s);
      }
      return out;
    }();
    MemoryConfig config{.banks = m,
                        .sections = divisors[static_cast<std::size_t>(
                            rng.below(static_cast<i64>(divisors.size())))],
                        .bank_cycle = 1 + rng.below(6),
                        .mapping = rng.below(2) == 0 ? SectionMapping::cyclic
                                                     : SectionMapping::consecutive,
                        .priority = seed % 3 == 0 ? PriorityRule::fixed : PriorityRule::cyclic};
    std::vector<StreamConfig> streams;
    const i64 ports = 2 + rng.below(7);
    for (i64 p = 0; p < ports; ++p) {
      streams.push_back(StreamConfig{.start_bank = rng.below(m),
                                     .distance = 1 + rng.below(m),
                                     .cpu = rng.below(3),
                                     .length = rng.below(5) == 0 ? kInfiniteLength : rng.below(40),
                                     .start_cycle = rng.below(20)});
    }
    MemorySystem mem{config, streams};
    check::ReferenceModel ref{config, streams};
    const std::vector<Event> got = record(mem, 150);
    ref.run(150);
    expect_same_events(got, ref.events(), "seed " + std::to_string(seed));
    if (HasFatalFailure()) return;
    i64 done = 0;
    for (std::size_t p = 0; p < mem.port_count(); ++p) done += mem.port_done(p) ? 1 : 0;
    if (done > 0 && done < ports) ++finished_mid_run;
    EXPECT_EQ(mem.finished(), done == ports) << "seed " << seed;
  }
  EXPECT_GT(finished_mid_run, 50);
}

TEST(MemorySystemLiveList, AddStreamAfterOtherPortsFinished) {
  const MemoryConfig config{.banks = 12, .sections = 3, .bank_cycle = 3,
                            .priority = PriorityRule::cyclic};
  const std::vector<StreamConfig> streams{
      StreamConfig{.start_bank = 0, .distance = 1, .length = 5},
      StreamConfig{.start_bank = 4, .distance = 2, .cpu = 1, .length = 30},
      StreamConfig{.start_bank = 7, .distance = 5, .length = 8, .start_cycle = 2}};
  MemorySystem mem{config, streams};
  check::ReferenceModel ref{config, streams};
  std::vector<Event> got = record(mem, 25);
  ref.run(25);
  ASSERT_TRUE(mem.port_done(0));
  ASSERT_TRUE(mem.port_done(2));
  ASSERT_FALSE(mem.port_done(1));
  // New ports land behind finished ones: one starting now, one later, one
  // empty, and one after every earlier port has finished.
  const std::vector<StreamConfig> late{
      StreamConfig{.start_bank = 1, .distance = 1, .cpu = 1, .length = 12, .start_cycle = 25},
      StreamConfig{.start_bank = 9, .distance = 3, .length = 6, .start_cycle = 31},
      StreamConfig{.start_bank = 2, .distance = 1, .length = 0, .start_cycle = 26}};
  for (const StreamConfig& s : late) EXPECT_EQ(mem.add_stream(s), ref.add_stream(s));
  const std::vector<Event> middle = record(mem, 60);
  got.insert(got.end(), middle.begin(), middle.end());
  ref.run(60);
  ASSERT_TRUE(mem.finished());
  const StreamConfig last{.start_bank = 5, .distance = 7, .length = 9, .start_cycle = 90};
  EXPECT_EQ(mem.add_stream(last), ref.add_stream(last));
  EXPECT_FALSE(mem.finished());
  const std::vector<Event> tail = record(mem, 30);
  got.insert(got.end(), tail.begin(), tail.end());
  ref.run(30);
  EXPECT_TRUE(mem.finished());
  expect_same_events(got, ref.events(), "add_stream");
  EXPECT_EQ(mem.all_stats().size(), ref.stats().size());
}

TEST(MemorySystemLiveList, CheckpointRestoreWithFinishedPorts) {
  const MemoryConfig config{.banks = 16, .sections = 4, .bank_cycle = 4,
                            .priority = PriorityRule::cyclic};
  const std::vector<StreamConfig> streams{
      StreamConfig{.start_bank = 0, .distance = 1, .length = 6},
      StreamConfig{.start_bank = 3, .distance = 3, .cpu = 1},
      StreamConfig{.start_bank = 8, .distance = 2, .length = 10, .start_cycle = 3},
      StreamConfig{.start_bank = 5, .distance = 1, .cpu = 1, .length = 40},
      StreamConfig{.start_bank = 2, .distance = 4, .length = 0}};
  MemorySystem uninterrupted{config, streams};
  MemorySystem first_half{config, streams};
  const std::vector<Event> want = record(uninterrupted, 120);
  std::vector<Event> got = record(first_half, 37);
  ASSERT_TRUE(first_half.port_done(0));
  ASSERT_TRUE(first_half.port_done(4));
  ASSERT_FALSE(first_half.port_done(3));
  // Through JSON, as a resumed sweep would restore it.
  MemorySystem restored{SystemState::from_json(first_half.checkpoint().to_json())};
  const std::vector<Event> second = record(restored, 120 - 37);
  got.insert(got.end(), second.begin(), second.end());
  expect_same_events(got, want, "checkpoint");
  EXPECT_TRUE(restored.same_state(uninterrupted));
  check::ReferenceModel ref{config, streams};
  ref.run(120);
  expect_same_events(want, ref.events(), "reference");
}

// ---- typed event sinks ------------------------------------------------------

/// Records each step's batch as a sink sees it.
class BatchSink : public EventSink {
 public:
  void on_events(std::span<const Event> events) override {
    batches.emplace_back(events.begin(), events.end());
  }
  std::vector<std::vector<Event>> batches;
};

TEST(MemorySystemSinks, ReceiveEachStepsEventsInOneBatch) {
  const MemoryConfig config{.banks = 12, .sections = 3, .bank_cycle = 3,
                            .priority = PriorityRule::cyclic};
  const std::vector<StreamConfig> streams{
      StreamConfig{.start_bank = 0, .distance = 1, .length = 20},
      StreamConfig{.start_bank = 4, .distance = 2, .cpu = 1},
      StreamConfig{.start_bank = 6, .distance = 3, .length = 7, .start_cycle = 5}};
  MemorySystem mem{config, streams};
  BatchSink sink;
  EventLog log;  // a second sink on the same run sees every event too
  mem.add_event_sink(sink);
  mem.add_event_sink(log);
  EXPECT_EQ(mem.event_sink_count(), 2u);
  EXPECT_THROW(mem.add_event_sink(sink), std::invalid_argument);
  mem.run(40, /*stop_when_finished=*/false);
  std::vector<Event> flat;
  for (const std::vector<Event>& batch : sink.batches) {
    ASSERT_FALSE(batch.empty());
    for (const Event& e : batch) EXPECT_EQ(e.cycle, batch.front().cycle);
    if (!flat.empty()) {
      EXPECT_GT(batch.front().cycle, flat.back().cycle);
    }
    flat.insert(flat.end(), batch.begin(), batch.end());
  }
  expect_same_events(flat, log.events, "sink");
  // Detaching one sink leaves the other attached.
  mem.remove_event_sink(log);
  EXPECT_EQ(mem.event_sink_count(), 1u);
  const std::size_t logged = log.events.size();
  const std::size_t batches = sink.batches.size();
  mem.run(10, /*stop_when_finished=*/false);
  EXPECT_EQ(log.events.size(), logged);
  EXPECT_GT(sink.batches.size(), batches);
  mem.remove_event_sink(sink);
  EXPECT_EQ(mem.event_sink_count(), 0u);
  mem.run(10, /*stop_when_finished=*/false);
  EXPECT_EQ(sink.batches.size(), batches + 10);
  mem.remove_event_sink(sink);  // detaching twice is a no-op
}

TEST(MemorySystemSinks, CopiesStartWithNoSinks) {
  // A sink observes the system it was attached to.  A copy that kept the
  // sink would go on calling it after it was detached from the original,
  // and into freed memory once it is destroyed.
  MemorySystem mem{flat(8, 4), two_streams(0, 1, 1, 1)};
  EventLog log;
  mem.add_event_sink(log);
  MemorySystem copy{mem};
  EXPECT_EQ(copy.event_sink_count(), 0u);
  MemorySystem assigned{flat(4, 1), {}};
  EventLog own;
  assigned.add_event_sink(own);
  assigned = mem;
  EXPECT_EQ(assigned.event_sink_count(), 0u);
  EXPECT_EQ(mem.event_sink_count(), 1u);  // the original keeps its sink
  mem.remove_event_sink(log);
  copy.run(10, /*stop_when_finished=*/false);
  assigned.run(10, /*stop_when_finished=*/false);
  EXPECT_TRUE(log.events.empty());
  EXPECT_TRUE(own.events.empty());
  // Sinks attach to a copy on their own terms.
  copy.add_event_sink(log);
  copy.run(1, /*stop_when_finished=*/false);
  EXPECT_EQ(log.events.size(), 2u);
}

}  // namespace
}  // namespace vpmem::sim
