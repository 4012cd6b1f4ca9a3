// SystemState checkpoint/restore: a restored machine must continue
// cycle-for-cycle identically, including mid-flight fault state.
#include "vpmem/sim/memory_system.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "vpmem/sim/fault.hpp"
#include "vpmem/util/error.hpp"

namespace vpmem::sim {
namespace {

MemoryConfig flat(i64 m, i64 nc) { return MemoryConfig{.banks = m, .sections = m, .bank_cycle = nc}; }

FaultPlan sample_plan() {
  FaultPlan plan;
  plan.policy = FaultPolicy::remap_spare;
  plan.events = {
      FaultEvent{.kind = FaultEvent::Kind::bank_offline, .cycle = 6, .bank = 2},
      FaultEvent{.kind = FaultEvent::Kind::bank_slow, .cycle = 10, .bank = 0, .value = 4},
      FaultEvent{.kind = FaultEvent::Kind::bank_stall, .cycle = 14, .bank = 1, .value = 6},
      FaultEvent{.kind = FaultEvent::Kind::path_offline, .cycle = 18, .cpu = 1, .section = 3},
      FaultEvent{.kind = FaultEvent::Kind::bank_online, .cycle = 30, .bank = 2}};
  return plan;
}

std::vector<StreamConfig> sample_streams() {
  return {StreamConfig{.start_bank = 0, .distance = 3, .cpu = 0, .length = 48},
          StreamConfig{.start_bank = 1, .distance = 5, .cpu = 1, .length = 48,
                       .start_cycle = 2}};
}

/// Grant/conflict trail of `mem` over the next `cycles` periods.
std::vector<Event> trail(MemorySystem& mem, i64 cycles) {
  EventLog log;
  mem.add_event_sink(log);
  mem.run(cycles, /*stop_when_finished=*/false);
  mem.remove_event_sink(log);
  return std::move(log.events);
}

void expect_same_trail(const std::vector<Event>& a, const std::vector<Event>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("event " + std::to_string(i));
    EXPECT_EQ(a[i].type, b[i].type);
    EXPECT_EQ(a[i].cycle, b[i].cycle);
    EXPECT_EQ(a[i].port, b[i].port);
    EXPECT_EQ(a[i].bank, b[i].bank);
    EXPECT_EQ(a[i].conflict, b[i].conflict);
    EXPECT_EQ(a[i].blocker, b[i].blocker);
  }
}

TEST(Checkpoint, RestoredRunContinuesIdentically) {
  const MemoryConfig cfg{.banks = 8, .sections = 4, .bank_cycle = 3,
                         .priority = PriorityRule::cyclic};
  // Uninterrupted reference run.
  MemorySystem whole{cfg, sample_streams(), sample_plan()};
  whole.run(12, /*stop_when_finished=*/false);
  const auto expected = trail(whole, 28);

  // Same run, checkpointed in the middle of the fault window.
  MemorySystem first_half{cfg, sample_streams(), sample_plan()};
  first_half.run(12, /*stop_when_finished=*/false);
  const SystemState state = first_half.checkpoint();
  EXPECT_EQ(state.now, 12);
  MemorySystem second_half{state};
  EXPECT_EQ(second_half.now(), 12);
  expect_same_trail(expected, trail(second_half, 28));

  // And final counters agree with the uninterrupted machine.
  const auto a = whole.all_stats();
  const auto b = second_half.all_stats();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t p = 0; p < a.size(); ++p) {
    EXPECT_EQ(a[p].grants, b[p].grants) << p;
    EXPECT_EQ(a[p].bank_conflicts, b[p].bank_conflicts) << p;
    EXPECT_EQ(a[p].fault_conflicts, b[p].fault_conflicts) << p;
  }
}

TEST(Checkpoint, JsonRoundTripPreservesTheMachine) {
  const MemoryConfig cfg{.banks = 8, .sections = 4, .bank_cycle = 3};
  MemorySystem mem{cfg, sample_streams(), sample_plan()};
  mem.run(16, /*stop_when_finished=*/false);
  const SystemState state = mem.checkpoint();
  const Json json = state.to_json();
  EXPECT_EQ(json.at("schema").as_string(), kCheckpointSchema);
  const SystemState back = SystemState::from_json(json);
  EXPECT_EQ(back.to_json(), json);

  // The deserialized machine continues exactly like the original.
  MemorySystem original{state};
  MemorySystem restored{back};
  expect_same_trail(trail(original, 24), trail(restored, 24));
}

TEST(Checkpoint, FromJsonRejectsWrongSchema) {
  Json doc = Json::object();
  doc["schema"] = "vpmem.checkpoint/999";
  EXPECT_THROW((void)SystemState::from_json(doc), vpmem::Error);
  EXPECT_THROW((void)SystemState::from_json(Json::object()), vpmem::Error);
}

TEST(Checkpoint, HealthyMachineStateHasEmptyFaultVectors) {
  MemorySystem mem{flat(4, 2), {StreamConfig{.distance = 1}}};
  mem.run(8, /*stop_when_finished=*/false);
  const SystemState state = mem.checkpoint();
  EXPECT_TRUE(state.plan.empty());
  EXPECT_TRUE(state.bank_online.empty());
  EXPECT_TRUE(state.bank_nc.empty());
  EXPECT_TRUE(state.paths_down.empty());
  MemorySystem restored{state};
  EXPECT_EQ(restored.surviving_banks(), 4);
}

}  // namespace
}  // namespace vpmem::sim
