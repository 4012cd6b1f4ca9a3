// Fault model: FaultPlan validation/serialization and the MemorySystem
// semantics of every event kind under both degradation policies.
#include "vpmem/sim/fault.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "vpmem/sim/memory_system.hpp"
#include "vpmem/sim/run.hpp"
#include "vpmem/util/error.hpp"

namespace vpmem::sim {
namespace {

MemoryConfig flat(i64 m, i64 nc) { return MemoryConfig{.banks = m, .sections = m, .bank_cycle = nc}; }

FaultEvent boff(i64 cycle, i64 bank) {
  return FaultEvent{.kind = FaultEvent::Kind::bank_offline, .cycle = cycle, .bank = bank};
}
FaultEvent bon(i64 cycle, i64 bank) {
  return FaultEvent{.kind = FaultEvent::Kind::bank_online, .cycle = cycle, .bank = bank};
}

// ---- plan validation and serialization ------------------------------------

TEST(FaultPlan, EmptyPlanIsValidAnywhere) {
  const FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_NO_THROW(plan.validate(flat(4, 2)));
}

TEST(FaultPlan, ValidateRejectsOutOfRangeFields) {
  const MemoryConfig cfg = flat(4, 2);
  const auto expect_invalid = [&cfg](FaultPlan plan) {
    try {
      plan.validate(cfg);
      FAIL() << "expected vpmem::Error";
    } catch (const vpmem::Error& e) {
      EXPECT_EQ(e.code(), vpmem::ErrorCode::fault_plan_invalid);
    }
  };
  FaultPlan plan;
  plan.events = {boff(0, 4)};  // bank out of range
  expect_invalid(plan);
  plan.events = {boff(-1, 0)};  // negative cycle
  expect_invalid(plan);
  plan.events = {boff(8, 0), boff(4, 1)};  // cycles must be non-decreasing
  expect_invalid(plan);
  plan.events = {FaultEvent{.kind = FaultEvent::Kind::bank_slow, .cycle = 0, .bank = 0,
                            .value = 0}};  // nc must be >= 1
  expect_invalid(plan);
  plan.events = {FaultEvent{.kind = FaultEvent::Kind::bank_stall, .cycle = 0, .bank = 0,
                            .value = 0}};  // window length must be >= 1
  expect_invalid(plan);
  plan.events = {FaultEvent{.kind = FaultEvent::Kind::path_offline, .cycle = 0, .cpu = 0,
                            .section = 4}};  // section out of range
  expect_invalid(plan);
}

TEST(FaultPlan, JsonAndCompactEncodingsRoundTrip) {
  FaultPlan plan;
  plan.policy = FaultPolicy::remap_spare;
  plan.events = {
      boff(4, 1),
      FaultEvent{.kind = FaultEvent::Kind::bank_slow, .cycle = 6, .bank = 2, .value = 5},
      FaultEvent{.kind = FaultEvent::Kind::bank_stall, .cycle = 8, .bank = 0, .value = 12},
      FaultEvent{.kind = FaultEvent::Kind::path_offline, .cycle = 9, .cpu = 1, .section = 3},
      FaultEvent{.kind = FaultEvent::Kind::path_online, .cycle = 11, .cpu = 1, .section = 3},
      bon(16, 1)};
  const Json json = plan.to_json();
  EXPECT_EQ(json.at("schema").as_string(), kFaultPlanSchema);
  const FaultPlan from_json = FaultPlan::from_json(json);
  EXPECT_EQ(from_json.to_json(), json);

  const std::string spec = plan.encode();
  EXPECT_EQ(spec.find(' '), std::string::npos) << spec;  // single token
  const FaultPlan parsed = FaultPlan::parse(spec);
  EXPECT_EQ(parsed.encode(), spec);
  EXPECT_EQ(parsed.to_json(), json);
}

TEST(FaultPlan, ParseRejectsMalformedSpecs) {
  for (const char* spec :
       {"", "bogus_policy", "stall;", "stall;xyz@0:b1", "stall;boff@x:b1", "stall;boff@0",
        "stall;boff@0:b1:v9", "stall;slow@0:b1", "stall;poff@0:b1", "stall;boff@0:b1;extra@"}) {
    try {
      static_cast<void>(FaultPlan::parse(spec));
      FAIL() << "expected vpmem::Error for: '" << spec << "'";
    } catch (const vpmem::Error& e) {
      EXPECT_EQ(e.code(), vpmem::ErrorCode::fault_plan_invalid) << spec;
    }
  }
}

TEST(FaultPolicy, ToStringRoundTrip) {
  EXPECT_EQ(fault_policy_from_string(to_string(FaultPolicy::stall)), FaultPolicy::stall);
  EXPECT_EQ(fault_policy_from_string(to_string(FaultPolicy::remap_spare)),
            FaultPolicy::remap_spare);
  EXPECT_THROW(static_cast<void>(fault_policy_from_string("bogus")), vpmem::Error);
}

// ---- MemorySystem semantics ----------------------------------------------

TEST(FaultModel, OfflineBankUnderStallBlocksAndRecovers) {
  // One stream walking d=1 over m=4: with bank 2 down in [4, 12), the
  // stream parks on bank 2 and accrues fault conflicts until recovery.
  FaultPlan plan;
  plan.events = {boff(4, 2), bon(12, 2)};
  MemorySystem mem{flat(4, 1), {StreamConfig{.start_bank = 0, .distance = 1, .length = 16}},
                   plan};
  mem.run(40);
  const auto stats = mem.all_stats();
  EXPECT_EQ(stats.at(0).grants, 16);
  EXPECT_GT(stats.at(0).fault_conflicts, 0);
  EXPECT_EQ(mem.surviving_banks(), 4);  // back online at the end
}

TEST(FaultModel, OfflineBankCountsAsFaultNotBankConflict) {
  FaultPlan plan;
  plan.events = {boff(0, 0)};
  MemorySystem mem{flat(4, 1), {StreamConfig{.start_bank = 0, .distance = 0}}, plan};
  mem.run(10);
  const auto stats = mem.all_stats();
  EXPECT_EQ(stats.at(0).grants, 0);
  EXPECT_EQ(stats.at(0).fault_conflicts, 10);
  EXPECT_EQ(stats.at(0).bank_conflicts, 0);
  EXPECT_FALSE(mem.bank_online(0));
  EXPECT_EQ(mem.surviving_banks(), 3);
}

TEST(FaultModel, RemapSpareRoutesAroundDeadBank) {
  // Under remap_spare the d=1 stream re-addresses over the m'=3
  // survivors and keeps granting every cycle — no fault conflicts.
  FaultPlan plan;
  plan.policy = FaultPolicy::remap_spare;
  plan.events = {boff(0, 2)};
  MemorySystem mem{flat(4, 1), {StreamConfig{.start_bank = 0, .distance = 1, .length = 9}},
                   plan};
  EventLog log;
  mem.add_event_sink(log);
  mem.run(20);
  std::vector<i64> banks;
  for (const Event& e : log.events) {
    if (e.type == Event::Type::grant) banks.push_back(e.bank);
  }
  // Survivors ascending = {0, 1, 3}; slot k = (0 + k) mod 3.
  EXPECT_EQ(banks, (std::vector<i64>{0, 1, 3, 0, 1, 3, 0, 1, 3}));
  EXPECT_EQ(mem.all_stats().at(0).fault_conflicts, 0);
}

/// fault.hpp's remap_spare contract, evaluated from scratch: request k of
/// `s` targets surviving[(b + k*d) mod m'] (affine) or
/// surviving[pattern[k] mod m'] (pattern) while 0 < m' < m, and its
/// interleave bank otherwise.
i64 remapped_bank(const MemorySystem& mem, const StreamConfig& s, i64 k) {
  const i64 m = mem.config().banks;
  std::vector<i64> surviving;
  for (i64 j = 0; j < m; ++j) {
    if (mem.bank_online(j)) surviving.push_back(j);
  }
  const auto alive = static_cast<i64>(surviving.size());
  if (alive == 0 || alive == m) return s.bank_of(k, m);
  const i64 slot = s.has_pattern() ? s.bank_of(k, m) % alive
                                   : mod_norm(s.start_bank + k * s.distance, alive);
  return surviving[static_cast<std::size_t>(slot)];
}

TEST(FaultModel, NextBankIsTheRemappedBankStepRequests) {
  // Under remap_spare, next_bank(p) must name the surviving bank that p's
  // next request (grant or conflict) targets, not the raw interleave
  // bank, across repeated topology changes: banks 2 and 5 go offline, 2
  // comes back, then 2 and 6 go offline.  Each change re-derives every
  // cursor, including a negative-stride port's and a pattern port's.
  FaultPlan plan;
  plan.policy = FaultPolicy::remap_spare;
  plan.events = {boff(0, 2), boff(0, 5), bon(25, 2), boff(50, 2), boff(50, 6)};
  MemorySystem mem{MemoryConfig{.banks = 8, .sections = 4, .bank_cycle = 2},
                   {StreamConfig{.start_bank = 0, .distance = 1, .length = 60},
                    StreamConfig{.start_bank = 3, .distance = 3, .cpu = 1, .length = 60},
                    StreamConfig{.length = 50, .bank_pattern = {1, 2, 5, 7}},
                    StreamConfig{.start_bank = 6, .distance = -3, .cpu = 1, .length = 60}},
                   plan};
  mem.step();  // applies the cycle-0 outages
  i64 granted_before = 0;
  for (const PortStats& p : mem.all_stats()) granted_before += p.grants;
  std::vector<std::optional<i64>> predicted;
  i64 grants_checked = 0;
  EventLog log;
  mem.add_event_sink(log);
  i64 remapped = 0;
  std::vector<i64> survivors_seen;
  while (!mem.finished()) {
    ASSERT_LT(mem.now(), 1000) << "ports starved";
    predicted.clear();
    for (std::size_t p = 0; p < mem.port_count(); ++p) {
      predicted.push_back(mem.next_bank(p));
      if (!predicted.back()) continue;
      ASSERT_TRUE(mem.bank_online(*predicted.back()));
      const StreamConfig& s = mem.stream(p);
      const i64 k = mem.elements_done(p);
      ASSERT_EQ(*predicted.back(), remapped_bank(mem, s, k))
          << "port " << p << " element " << k << " cycle " << mem.now();
      if (*predicted.back() != s.bank_of(k, 8)) ++remapped;
    }
    if (survivors_seen.empty() || survivors_seen.back() != mem.surviving_banks()) {
      survivors_seen.push_back(mem.surviving_banks());
    }
    // A plan event due this cycle changes the topology before the
    // requests, so the predictions made above are checked from the next
    // cycle on.
    const bool topology_due = mem.now() == 25 || mem.now() == 50;
    log.events.clear();
    mem.step();
    for (const Event& e : log.events) {
      ASSERT_TRUE(predicted.at(e.port).has_value());
      if (!topology_due) {
        EXPECT_EQ(e.bank, *predicted[e.port]) << "port " << e.port << " cycle " << e.cycle;
      }
      if (e.type == Event::Type::grant) ++grants_checked;
    }
  }
  EXPECT_EQ(grants_checked + granted_before, 60 + 60 + 50 + 60);
  EXPECT_EQ(survivors_seen, (std::vector<i64>{6, 7, 5}));
  EXPECT_GT(remapped, 20);
  for (std::size_t p = 0; p < mem.port_count(); ++p) EXPECT_FALSE(mem.next_bank(p));
}

TEST(FaultModel, SlowBankStretchesItsServiceTime) {
  // d=0 hammers bank 0; nc=2 gives a grant every 2nd cycle, but after
  // slow@8 sets nc=4 the cadence drops to every 4th cycle.
  FaultPlan plan;
  plan.events = {
      FaultEvent{.kind = FaultEvent::Kind::bank_slow, .cycle = 8, .bank = 0, .value = 4}};
  MemorySystem mem{flat(4, 2), {StreamConfig{.start_bank = 0, .distance = 0}}, plan};
  mem.run(8);
  const i64 before = mem.all_stats().at(0).grants;
  EXPECT_EQ(before, 4);  // one grant per nc=2
  mem.run(16);
  EXPECT_EQ(mem.all_stats().at(0).grants, before + 4);  // one per nc=4 now
}

TEST(FaultModel, TransientStallWindowBlocksExactly) {
  // bstall@5 for 3 cycles: grants at t=0..4 and t>=8, faults at t=5..7.
  FaultPlan plan;
  plan.events = {
      FaultEvent{.kind = FaultEvent::Kind::bank_stall, .cycle = 5, .bank = 0, .value = 3}};
  MemorySystem mem{flat(4, 1), {StreamConfig{.start_bank = 0, .distance = 0}}, plan};
  mem.run(12);
  const auto stats = mem.all_stats();
  EXPECT_EQ(stats.at(0).fault_conflicts, 3);
  EXPECT_EQ(stats.at(0).grants, 9);
}

TEST(FaultModel, PathOutageBlocksOnlyTheAffectedCpu) {
  // Two CPUs on disjoint banks; CPU 0 loses its path to section 0 (bank
  // 0 at s=m) while CPU 1 is untouched.
  FaultPlan plan;
  plan.events = {
      FaultEvent{.kind = FaultEvent::Kind::path_offline, .cycle = 0, .cpu = 0, .section = 0},
      FaultEvent{.kind = FaultEvent::Kind::path_online, .cycle = 6, .cpu = 0, .section = 0}};
  MemorySystem mem{flat(4, 1),
                   {StreamConfig{.start_bank = 0, .distance = 0, .cpu = 0},
                    StreamConfig{.start_bank = 1, .distance = 0, .cpu = 1}},
                   plan};
  mem.run(10);
  const auto stats = mem.all_stats();
  EXPECT_EQ(stats.at(0).fault_conflicts, 6);
  EXPECT_EQ(stats.at(0).grants, 4);
  EXPECT_EQ(stats.at(1).fault_conflicts, 0);
  EXPECT_EQ(stats.at(1).grants, 10);
}

TEST(FaultModel, FaultEventsReachSinksWithKindFault) {
  FaultPlan plan;
  plan.events = {boff(0, 0)};
  MemorySystem mem{flat(4, 1), {StreamConfig{.start_bank = 0, .distance = 0}}, plan};
  EventLog log;
  mem.add_event_sink(log);
  mem.run(5);
  i64 fault_events = 0;
  for (const Event& e : log.events) {
    if (e.type == Event::Type::conflict && e.conflict == ConflictKind::fault) ++fault_events;
  }
  EXPECT_EQ(fault_events, 5);
}

TEST(FaultModel, ConstructorValidatesPlanAgainstConfig) {
  FaultPlan plan;
  plan.events = {boff(0, 99)};
  try {
    MemorySystem mem{flat(4, 1), {StreamConfig{.distance = 1}}, plan};
    FAIL() << "expected vpmem::Error";
  } catch (const vpmem::Error& e) {
    EXPECT_EQ(e.code(), vpmem::ErrorCode::fault_plan_invalid);
  }
}

TEST(FaultModel, AllBanksOfflineGrantsNothing) {
  const MemoryConfig cfg = flat(4, 1);
  for (const FaultPolicy policy : {FaultPolicy::stall, FaultPolicy::remap_spare}) {
    FaultPlan plan;
    plan.policy = policy;
    for (i64 b = 0; b < cfg.banks; ++b) plan.events.push_back(boff(0, b));
    MemorySystem mem{cfg, {StreamConfig{.start_bank = 0, .distance = 1}}, plan};
    mem.run(8);
    EXPECT_EQ(mem.all_stats().at(0).grants, 0) << to_string(policy);
    EXPECT_EQ(mem.surviving_banks(), 0) << to_string(policy);
  }
}

/// Grant/conflict trail of `mem` over the next `cycles` periods.
std::vector<Event> trail(MemorySystem& mem, i64 cycles) {
  EventLog log;
  mem.add_event_sink(log);
  mem.run(cycles, /*stop_when_finished=*/false);
  mem.remove_event_sink(log);
  return std::move(log.events);
}

TEST(FaultModel, CopyTakenMidFaultWindowContinuesIdentically) {
  // A copy is the engine's snapshot: taken while a bank is offline, a slow
  // bank, a stall window and a path outage are all in force and one plan
  // event is still pending, it must carry the whole dynamic fault state.
  const MemoryConfig cfg{.banks = 8, .sections = 4, .bank_cycle = 3,
                         .priority = PriorityRule::cyclic};
  FaultPlan plan;
  plan.policy = FaultPolicy::remap_spare;
  plan.events = {
      boff(6, 2),
      FaultEvent{.kind = FaultEvent::Kind::bank_slow, .cycle = 10, .bank = 0, .value = 4},
      FaultEvent{.kind = FaultEvent::Kind::bank_stall, .cycle = 14, .bank = 1, .value = 6},
      FaultEvent{.kind = FaultEvent::Kind::path_offline, .cycle = 18, .cpu = 1, .section = 3},
      bon(30, 2)};
  const std::vector<StreamConfig> streams{
      StreamConfig{.start_bank = 0, .distance = 3, .cpu = 0, .length = 48},
      StreamConfig{.start_bank = 1, .distance = 5, .cpu = 1, .length = 48, .start_cycle = 2},
      StreamConfig{.cpu = 1, .length = 40, .bank_pattern = {7, 2, 2, 4, 0}}};

  MemorySystem whole{cfg, streams, plan};
  whole.run(19, /*stop_when_finished=*/false);
  const std::vector<Event> expected = trail(whole, 21);

  std::optional<MemorySystem> first_half{std::in_place, cfg, streams, plan};
  first_half->run(19, /*stop_when_finished=*/false);
  ASSERT_FALSE(first_half->bank_online(2));
  ASSERT_EQ(first_half->surviving_banks(), 7);
  MemorySystem copy = *first_half;
  // The original moves on and is destroyed before the copy continues
  // (under ASan, a copy reading its source's storage fails here).
  first_half->run(7, /*stop_when_finished=*/false);
  first_half.reset();
  EXPECT_EQ(copy.now(), 19);
  const std::vector<Event> got = trail(copy, 21);

  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("event " + std::to_string(i));
    EXPECT_EQ(got[i].type, expected[i].type);
    EXPECT_EQ(got[i].cycle, expected[i].cycle);
    EXPECT_EQ(got[i].port, expected[i].port);
    EXPECT_EQ(got[i].bank, expected[i].bank);
    EXPECT_EQ(got[i].conflict, expected[i].conflict);
    EXPECT_EQ(got[i].blocker, expected[i].blocker);
  }
  EXPECT_TRUE(copy.same_state(whole));
  EXPECT_EQ(copy.surviving_banks(), 8);
  const std::vector<PortStats> a = whole.all_stats();
  const std::vector<PortStats> b = copy.all_stats();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t p = 0; p < a.size(); ++p) {
    EXPECT_EQ(a[p].grants, b[p].grants) << p;
    EXPECT_EQ(a[p].bank_conflicts, b[p].bank_conflicts) << p;
    EXPECT_EQ(a[p].fault_conflicts, b[p].fault_conflicts) << p;
  }
}

}  // namespace
}  // namespace vpmem::sim
