#include "vpmem/sim/run.hpp"

#include <gtest/gtest.h>

#include "vpmem/sim/fault.hpp"
#include "vpmem/sim/memory_system.hpp"
#include "vpmem/util/error.hpp"

namespace vpmem::sim {
namespace {

MemoryConfig flat(i64 m, i64 nc) { return MemoryConfig{.banks = m, .sections = m, .bank_cycle = nc}; }

TEST(RunToCompletion, RejectsInfiniteStreams) {
  try {
    static_cast<void>(run_to_completion(flat(8, 2), {StreamConfig{.distance = 1}}));
    FAIL() << "expected vpmem::Error";
  } catch (const vpmem::Error& e) {
    EXPECT_EQ(e.code(), vpmem::ErrorCode::config_invalid);
  }
}

TEST(RunToCompletion, SingleStreamTakesExactlyLengthCycles) {
  const RunResult r = run_to_completion(
      flat(8, 4), {StreamConfig{.start_bank = 0, .distance = 1, .length = 64}});
  EXPECT_EQ(r.cycles, 64);
  EXPECT_EQ(r.total_grants(), 64);
  EXPECT_DOUBLE_EQ(r.bandwidth(), 1.0);
  EXPECT_EQ(r.conflicts.total(), 0);
}

TEST(RunToCompletion, SelfConflictingStreamIsSlower) {
  // m=8, d=4, nc=4: r=2 < nc -> b_eff = 1/2 in steady state.
  const RunResult r = run_to_completion(
      flat(8, 4), {StreamConfig{.start_bank = 0, .distance = 4, .length = 64}});
  EXPECT_GT(r.cycles, 120);  // ~2 cycles per element
  EXPECT_EQ(r.total_grants(), 64);
  EXPECT_GT(r.conflicts.bank, 0);
}

TEST(RunToCompletion, TwoDisjointStreamsFullBandwidth) {
  // Theorem 2: m=8, d1=d2=2, b1=0, b2=1 -> disjoint sets, b_eff = 2.
  auto streams = two_streams(0, 2, 1, 2);
  streams[0].length = 32;
  streams[1].length = 32;
  const RunResult r = run_to_completion(flat(8, 4), streams);
  EXPECT_EQ(r.cycles, 32);
  EXPECT_EQ(r.total_grants(), 64);
  EXPECT_EQ(r.conflicts.total(), 0);
}

TEST(RunToCompletion, GuardThrowsDeadlineExceeded) {
  try {
    static_cast<void>(run_to_completion(
        flat(8, 4), {StreamConfig{.start_bank = 0, .distance = 1, .length = 100}},
        /*max_cycles=*/10));
    FAIL() << "expected vpmem::Error";
  } catch (const vpmem::Error& e) {
    EXPECT_EQ(e.code(), vpmem::ErrorCode::deadline_exceeded);
  }
}

TEST(MeasureBandwidth, ValidatesArguments) {
  EXPECT_THROW(
      static_cast<void>(measure_bandwidth(flat(8, 2), {StreamConfig{.distance = 1}}, -1, 10)),
      vpmem::Error);
  EXPECT_THROW(
      static_cast<void>(measure_bandwidth(flat(8, 2), {StreamConfig{.distance = 1}}, 0, 0)),
      vpmem::Error);
  try {
    static_cast<void>(measure_bandwidth(flat(8, 2), {StreamConfig{.distance = 1}}, 0, 0));
    FAIL() << "expected vpmem::Error";
  } catch (const vpmem::Error& e) {
    EXPECT_EQ(e.code(), vpmem::ErrorCode::config_invalid);
  }
}

TEST(MeasureBandwidth, ConflictFreeSingleStreamIsOne) {
  const double bw = measure_bandwidth(flat(8, 2), {StreamConfig{.distance = 1}}, 100, 1000);
  EXPECT_DOUBLE_EQ(bw, 1.0);
}

TEST(RunResult, EmptyBandwidthIsZero) {
  RunResult r;
  EXPECT_DOUBLE_EQ(r.bandwidth(), 0.0);
}

// ---- guarded driver -------------------------------------------------------

TEST(RunGuarded, CompletesLikeRunToCompletion) {
  const std::vector<StreamConfig> streams{
      StreamConfig{.start_bank = 0, .distance = 4, .length = 64}};
  const RunResult plain = run_to_completion(flat(8, 4), streams);
  const GuardedRun guarded = run_guarded(flat(8, 4), streams);
  EXPECT_TRUE(guarded.ok());
  EXPECT_EQ(guarded.status, RunStatus::completed);
  EXPECT_EQ(guarded.result.cycles, plain.cycles);
  EXPECT_EQ(guarded.result.total_grants(), plain.total_grants());
  EXPECT_EQ(guarded.result.conflicts.bank, plain.conflicts.bank);
  EXPECT_EQ(guarded.last_grant_cycle, plain.cycles - 1);
}

TEST(RunGuarded, DeadlineReturnsPartialResultInsteadOfThrowing) {
  const Watchdog dog{.max_cycles = 10};
  const GuardedRun run = run_guarded(
      flat(8, 4), {StreamConfig{.start_bank = 0, .distance = 1, .length = 100}}, {}, dog);
  EXPECT_FALSE(run.ok());
  EXPECT_EQ(run.status, RunStatus::deadline_exceeded);
  EXPECT_EQ(run.result.cycles, 10);
  EXPECT_EQ(run.result.total_grants(), 10);  // partial progress is reported
  EXPECT_FALSE(run.detail.empty());
}

TEST(RunGuarded, PermanentBankOutageUnderStallIsLivelock) {
  // The stream parks on the dead bank forever; no grant can ever happen
  // again, so the watchdog must flag livelock within its documented
  // window (factor * nc * m cycles past the last grant).
  FaultPlan plan;
  plan.policy = FaultPolicy::stall;
  plan.events.push_back(FaultEvent{.kind = FaultEvent::Kind::bank_offline, .cycle = 4, .bank = 4});
  const MemoryConfig cfg = flat(8, 2);
  const Watchdog dog{.max_cycles = 100'000, .livelock_factor = 4};
  const GuardedRun run =
      run_guarded(cfg, {StreamConfig{.start_bank = 0, .distance = 1, .length = 64}}, plan, dog);
  EXPECT_EQ(run.status, RunStatus::livelock);
  EXPECT_EQ(run.last_grant_cycle, 3);  // banks 0..3 granted, then stuck on bank 4
  // Detected within the documented bound, well before the cycle budget.
  EXPECT_LE(run.result.cycles, run.last_grant_cycle + 1 + dog.livelock_window(cfg) + 1);
  EXPECT_FALSE(run.detail.empty());
}

TEST(RunGuarded, RejectsInfiniteStreams) {
  try {
    static_cast<void>(run_guarded(flat(8, 2), {StreamConfig{.distance = 1}}));
    FAIL() << "expected vpmem::Error";
  } catch (const vpmem::Error& e) {
    EXPECT_EQ(e.code(), vpmem::ErrorCode::config_invalid);
  }
}

TEST(RunGuardedOn, DelayedStartDoesNotTriggerLivelock) {
  // A stream that starts late must not be mistaken for a livelock even
  // though no grant happens before its start cycle.
  const MemoryConfig cfg = flat(4, 2);
  const i64 late = 4 * Watchdog{}.livelock_window(cfg);
  MemorySystem mem{cfg,
                   {StreamConfig{.start_bank = 0, .distance = 1, .length = 8, .start_cycle = late}}};
  const GuardedRun run = run_guarded_on(mem);
  EXPECT_EQ(run.status, RunStatus::completed);
  EXPECT_EQ(run.result.total_grants(), 8);
}

TEST(RunStatus, ToString) {
  EXPECT_EQ(to_string(RunStatus::completed), "completed");
  EXPECT_EQ(to_string(RunStatus::deadline_exceeded), "deadline_exceeded");
  EXPECT_EQ(to_string(RunStatus::livelock), "livelock");
}

}  // namespace
}  // namespace vpmem::sim
