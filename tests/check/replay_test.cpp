// Deterministic replay: a failure's one-line repro must encode the whole
// case, survive a parse round trip, reject malformed input loudly, and
// shrink to a smaller case that still fails the same check.
#include <gtest/gtest.h>

#include "vpmem/check/fuzzer.hpp"
#include "vpmem/check/replay.hpp"
#include "vpmem/sim/fault.hpp"
#include "vpmem/util/error.hpp"

namespace vpmem {
namespace {

using check::FaultKind;
using check::FuzzCase;

FuzzCase sample_mixed_case() {
  FuzzCase fuzz_case;
  fuzz_case.config = sim::MemoryConfig{.banks = 16,
                                       .sections = 4,
                                       .bank_cycle = 3,
                                       .mapping = sim::SectionMapping::consecutive,
                                       .priority = sim::PriorityRule::cyclic};
  fuzz_case.streams = {
      sim::StreamConfig{.start_bank = 3, .distance = -5, .cpu = 1, .length = 40,
                        .start_cycle = 2},
      sim::StreamConfig{.cpu = 2, .bank_pattern = {0, 7, 7, 12}},
      sim::StreamConfig{.start_bank = 0, .distance = 0}};
  fuzz_case.cycles = 96;
  fuzz_case.fault = FaultKind::misclassify_simultaneous;
  return fuzz_case;
}

TEST(Replay, EncodeParseRoundTripPreservesEveryField) {
  const FuzzCase original = sample_mixed_case();
  const std::string line = check::encode_repro(original);
  EXPECT_EQ(line.rfind(check::kReproSchema, 0), 0u) << line;
  const FuzzCase parsed = check::parse_repro(line);
  EXPECT_EQ(parsed.config.banks, original.config.banks);
  EXPECT_EQ(parsed.config.sections, original.config.sections);
  EXPECT_EQ(parsed.config.bank_cycle, original.config.bank_cycle);
  EXPECT_EQ(parsed.config.mapping, original.config.mapping);
  EXPECT_EQ(parsed.config.priority, original.config.priority);
  EXPECT_EQ(parsed.cycles, original.cycles);
  EXPECT_EQ(parsed.fault, original.fault);
  ASSERT_EQ(parsed.streams.size(), original.streams.size());
  for (std::size_t i = 0; i < original.streams.size(); ++i) {
    EXPECT_EQ(parsed.streams[i].start_bank, original.streams[i].start_bank) << i;
    EXPECT_EQ(parsed.streams[i].distance, original.streams[i].distance) << i;
    EXPECT_EQ(parsed.streams[i].cpu, original.streams[i].cpu) << i;
    EXPECT_EQ(parsed.streams[i].length, original.streams[i].length) << i;
    EXPECT_EQ(parsed.streams[i].start_cycle, original.streams[i].start_cycle) << i;
    EXPECT_EQ(parsed.streams[i].bank_pattern, original.streams[i].bank_pattern) << i;
  }
  // And re-encoding the parsed case is byte-identical.
  EXPECT_EQ(check::encode_repro(parsed), line);
}

TEST(Replay, EncodingIsHumanReadable) {
  FuzzCase fuzz_case;
  fuzz_case.config = sim::MemoryConfig{.banks = 13, .sections = 13, .bank_cycle = 4};
  fuzz_case.streams = sim::two_streams(0, 1, 4, 6);
  fuzz_case.cycles = 224;
  EXPECT_EQ(check::encode_repro(fuzz_case),
            "vpmem.fuzz/1 m=13 s=13 nc=4 map=cyclic prio=fixed cycles=224 fault=none "
            "stream=b0,d1,c0,linf,t0 stream=b4,d6,c1,linf,t0");
}

TEST(Replay, ParseRejectsMalformedLines) {
  // Every rejection is a typed vpmem::Error: malformed syntax and invalid
  // configs are config_invalid, a bad fplan token is fault_plan_invalid.
  const auto reject_typed = [](const std::string& line, vpmem::ErrorCode code) {
    try {
      static_cast<void>(check::parse_repro(line));
      FAIL() << "expected vpmem::Error for: " << line;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), code) << line;
    }
  };
  const auto reject = [&](const std::string& line) {
    reject_typed(line, ErrorCode::config_invalid);
  };
  reject("");
  reject("not-the-schema m=4 s=4 nc=1");
  reject("vpmem.fuzz/1 m=4 s=4 nc=1 bogus");                    // token without '='
  reject("vpmem.fuzz/1 m=4 s=4 nc=1 color=red");                // unknown key
  reject("vpmem.fuzz/1 m=4x s=4 nc=1");                         // trailing garbage
  reject("vpmem.fuzz/1 m=4 s=4 nc=1 map=diagonal");             // unknown mapping
  reject("vpmem.fuzz/1 m=4 s=4 nc=1 prio=random");              // unknown priority
  reject("vpmem.fuzz/1 m=4 s=4 nc=1 fault=no-such-fault");
  reject("vpmem.fuzz/1 m=4 s=4 nc=1 stream=c0,linf,t0");        // no banks
  reject("vpmem.fuzz/1 m=4 s=4 nc=1 stream=b0,d1,q9");          // unknown field
  reject("vpmem.fuzz/1 m=4 s=4 nc=1 stream=p,c0");              // empty pattern
  reject("vpmem.fuzz/1 m=4 s=3 nc=1 stream=b0,d1");             // s does not divide m
  reject("vpmem.fuzz/1 m=4 s=4 nc=1 stream=b7,d1");             // bank out of range
  reject_typed("vpmem.fuzz/1 m=4 s=4 nc=1 stream=b0,d1 fplan=nonsense",
               ErrorCode::fault_plan_invalid);
  reject_typed("vpmem.fuzz/1 m=4 s=4 nc=1 stream=b0,d1 fplan=stall;boff@0:b9",
               ErrorCode::fault_plan_invalid);  // bank 9 out of range for m=4
}

TEST(Replay, FaultPlanRoundTripsThroughRepro) {
  FuzzCase fuzz_case;
  fuzz_case.config = sim::MemoryConfig{.banks = 8, .sections = 4, .bank_cycle = 3};
  fuzz_case.streams = {sim::StreamConfig{.start_bank = 1, .distance = 3, .length = 32}};
  fuzz_case.cycles = 64;
  fuzz_case.plan.policy = sim::FaultPolicy::remap_spare;
  fuzz_case.plan.events = {
      sim::FaultEvent{.kind = sim::FaultEvent::Kind::bank_offline, .cycle = 8, .bank = 3},
      sim::FaultEvent{.kind = sim::FaultEvent::Kind::bank_slow, .cycle = 10, .bank = 5,
                      .value = 6},
      sim::FaultEvent{.kind = sim::FaultEvent::Kind::path_offline, .cycle = 12, .cpu = 0,
                      .section = 2},
      sim::FaultEvent{.kind = sim::FaultEvent::Kind::bank_online, .cycle = 20, .bank = 3}};
  const std::string line = check::encode_repro(fuzz_case);
  const std::size_t at = line.find(" fplan=");
  ASSERT_NE(at, std::string::npos) << line;
  // The plan encodes as ONE whitespace-free token so the line still
  // splits on spaces; re-parsing just that token must give the plan back.
  const std::size_t value_begin = at + 7;
  const std::size_t value_end = line.find(' ', value_begin);
  const std::string token = line.substr(value_begin, value_end - value_begin);
  EXPECT_EQ(sim::FaultPlan::parse(token).encode(), fuzz_case.plan.encode());
  const FuzzCase parsed = check::parse_repro(line);
  EXPECT_EQ(parsed.plan.policy, fuzz_case.plan.policy);
  ASSERT_EQ(parsed.plan.events.size(), fuzz_case.plan.events.size());
  for (std::size_t i = 0; i < fuzz_case.plan.events.size(); ++i) {
    EXPECT_EQ(parsed.plan.events[i].kind, fuzz_case.plan.events[i].kind) << i;
    EXPECT_EQ(parsed.plan.events[i].cycle, fuzz_case.plan.events[i].cycle) << i;
    EXPECT_EQ(parsed.plan.events[i].bank, fuzz_case.plan.events[i].bank) << i;
    EXPECT_EQ(parsed.plan.events[i].value, fuzz_case.plan.events[i].value) << i;
    EXPECT_EQ(parsed.plan.events[i].cpu, fuzz_case.plan.events[i].cpu) << i;
    EXPECT_EQ(parsed.plan.events[i].section, fuzz_case.plan.events[i].section) << i;
  }
  EXPECT_EQ(check::encode_repro(parsed), line);
  // A plan-free case must not grow an fplan token.
  fuzz_case.plan = {};
  EXPECT_EQ(check::encode_repro(fuzz_case).find("fplan"), std::string::npos);
}

TEST(Replay, ShrinkDropsIrrelevantFaultPlan) {
  // The reference-model fault (short_bank_busy) fails with or without the
  // sim-side plan, so the shrinker's plan stage must remove it whole.
  FuzzCase fuzz_case;
  fuzz_case.config = sim::MemoryConfig{.banks = 4, .sections = 4, .bank_cycle = 2};
  fuzz_case.streams = {sim::StreamConfig{.start_bank = 2, .distance = 0}};
  fuzz_case.cycles = 32;
  fuzz_case.fault = FaultKind::short_bank_busy;
  fuzz_case.plan.policy = sim::FaultPolicy::stall;
  fuzz_case.plan.events = {
      sim::FaultEvent{.kind = sim::FaultEvent::Kind::bank_stall, .cycle = 4, .bank = 1,
                      .value = 3}};
  const auto still_fails = [](const FuzzCase& candidate) {
    return !check::check_case(candidate, {}, /*run_invariants=*/false).ok();
  };
  ASSERT_TRUE(still_fails(fuzz_case));
  const FuzzCase shrunk = check::shrink_case(fuzz_case, still_fails);
  EXPECT_TRUE(shrunk.plan.empty());
  EXPECT_TRUE(still_fails(shrunk));
}

TEST(Replay, ShrinkDropsRedundantStreamsAndCycles) {
  // short_bank_busy diverges with any single self-conflicting stream, so
  // the two extra streams and most of the cycle budget are removable.
  FuzzCase fuzz_case;
  fuzz_case.config = sim::MemoryConfig{.banks = 8, .sections = 8, .bank_cycle = 3};
  fuzz_case.streams = {sim::StreamConfig{.start_bank = 0, .distance = 0, .start_cycle = 4},
                       sim::StreamConfig{.start_bank = 1, .distance = 2, .cpu = 1},
                       sim::StreamConfig{.start_bank = 5, .distance = 4, .cpu = 2}};
  fuzz_case.cycles = 224;
  fuzz_case.fault = FaultKind::short_bank_busy;
  const auto still_fails = [](const FuzzCase& candidate) {
    return !check::check_case(candidate, {}, /*run_invariants=*/false).ok();
  };
  ASSERT_TRUE(still_fails(fuzz_case));
  const FuzzCase shrunk = check::shrink_case(fuzz_case, still_fails);
  EXPECT_TRUE(still_fails(shrunk));
  // A single self-conflicting stream suffices (d=0 and d=4 both are, at
  // m=8, nc=3); which one survives depends on removal order.
  EXPECT_EQ(shrunk.streams.size(), 1u);
  EXPECT_LE(shrunk.cycles, 14);  // 224 halves down until the fault needs the window
  EXPECT_EQ(shrunk.streams[0].start_cycle, 0);
}

TEST(Replay, ShrinkKeepsLoadBearingStreams) {
  // misclassify_simultaneous needs two ports on *different* CPUs hitting
  // the same bank; shrinking must not drop below that pair.
  FuzzCase fuzz_case;
  fuzz_case.config = sim::MemoryConfig{.banks = 8, .sections = 8, .bank_cycle = 2};
  fuzz_case.streams = sim::two_streams(0, 1, 0, 1);
  fuzz_case.cycles = 100;
  fuzz_case.fault = FaultKind::misclassify_simultaneous;
  const auto still_fails = [](const FuzzCase& candidate) {
    return !check::check_case(candidate, {}, /*run_invariants=*/false).ok();
  };
  ASSERT_TRUE(still_fails(fuzz_case));
  const FuzzCase shrunk = check::shrink_case(fuzz_case, still_fails);
  EXPECT_EQ(shrunk.streams.size(), 2u);
  EXPECT_TRUE(still_fails(shrunk));
}

TEST(Replay, ShrunkReproReplaysIdentically) {
  FuzzCase fuzz_case;
  fuzz_case.config = sim::MemoryConfig{.banks = 4, .sections = 4, .bank_cycle = 2};
  fuzz_case.streams = {sim::StreamConfig{.start_bank = 2, .distance = 0}};
  fuzz_case.cycles = 32;
  fuzz_case.fault = FaultKind::short_bank_busy;
  const auto still_fails = [](const FuzzCase& candidate) {
    return !check::check_case(candidate, {}, /*run_invariants=*/false).ok();
  };
  const FuzzCase shrunk = check::shrink_case(fuzz_case, still_fails);
  const FuzzCase replayed = check::parse_repro(check::encode_repro(shrunk));
  EXPECT_EQ(check::encode_repro(replayed), check::encode_repro(shrunk));
  EXPECT_TRUE(still_fails(replayed));
}

}  // namespace
}  // namespace vpmem
