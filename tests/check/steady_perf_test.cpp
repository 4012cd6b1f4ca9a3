// Coverage for the perf telemetry (the deterministic cycle counts of
// detection and offset sweeps, PerfReport's cycles_per_second guard, the
// tracer's overhead bound) and for carrying fuzz results through the
// RunReport machinery.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>

#include "vpmem/check/fuzzer.hpp"
#include "vpmem/check/replay.hpp"
#include "vpmem/obs/report.hpp"
#include "vpmem/obs/timer.hpp"
#include "vpmem/obs/tracer.hpp"
#include "vpmem/sim/steady_state.hpp"

namespace vpmem {
namespace {

sim::MemoryConfig flat(i64 m, i64 nc) {
  return sim::MemoryConfig{.banks = m, .sections = m, .bank_cycle = nc};
}

TEST(PerfTelemetry, CyclesPerSecondGuardsAgainstZeroWallTime) {
  obs::PerfReport perf;
  perf.cycles_simulated = 300;
  EXPECT_EQ(perf.cycles_per_second(), 0.0);
  perf.wall_seconds = 3.0;
  EXPECT_DOUBLE_EQ(perf.cycles_per_second(), 100.0);
  perf.wall_seconds = -1.0;  // clock went backwards: still guarded
  EXPECT_EQ(perf.cycles_per_second(), 0.0);
}

TEST(PerfTelemetry, DetectionAndSweepReportPositiveCycleCounts) {
  const sim::SteadyState ss = sim::find_steady_state(flat(13, 4), sim::two_streams(0, 1, 4, 6));
  EXPECT_GT(ss.cycles_simulated, 0);
  const sim::OffsetSweep sweep = sim::sweep_start_offsets(flat(8, 2), 1, 3);
  EXPECT_GT(sweep.cycles_simulated, 0);
}

TEST(PerfTelemetry, TracerOverheadStaysUnderTwoX) {
  // The tracing v2 budget: a fully instrumented run (bounded event buffer
  // + attribution fold in one typed sink) must cost less than 2x the plain
  // engine.  Best-of-5 minimum timing on a mid-size workload keeps the
  // comparison stable against scheduler noise.
  const sim::MemoryConfig config{.banks = 64, .sections = 16, .bank_cycle = 4};
  std::vector<sim::StreamConfig> streams;
  for (i64 p = 0; p < 8; ++p) {
    streams.push_back(sim::StreamConfig{
        .start_bank = (p * 3) % 64, .distance = 1 + p % 3, .cpu = p % 2});
  }
  const i64 cycles = 100'000;
  const auto timed_run = [&](bool traced) {
    sim::MemorySystem mem{config, streams};
    std::optional<obs::Tracer> tracer;
    if (traced) tracer.emplace(mem);
    const obs::Stopwatch wall;
    mem.run(cycles, /*stop_when_finished=*/false);
    return wall.seconds();
  };
  // Paired back-to-back runs: a machine-wide slowdown hits both halves of
  // a pair alike, so the minimum per-pair ratio is stable against
  // scheduler noise where min(traced)/min(plain) is not.
  double best_ratio = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    const double plain = timed_run(false);
    const double traced = timed_run(true);
    ASSERT_GT(plain, 0.0);
    best_ratio = std::min(best_ratio, traced / plain);
  }
  EXPECT_LT(best_ratio, 2.0) << "tracing overhead " << best_ratio << "x (best of 5 pairs)";
}

TEST(FuzzReporting, FailingCaseRoundTripsThroughRunReport) {
  // A fuzz failure's configuration must be expressible as a RunReport so
  // `vpmem_cli fuzz --json` can attach full run context to each repro.
  check::FuzzOptions options;
  options.iterations = 30;
  options.fault = check::FaultKind::ignore_path_conflict;
  options.run_invariants = false;
  const check::FuzzSummary summary = check::fuzz(options);
  ASSERT_FALSE(summary.ok());
  const check::FuzzCase failing = check::parse_repro(summary.failures.front().repro);

  const obs::RunReport report = obs::report_run(failing.config, failing.streams,
                                                {.cycles = failing.cycles});
  const Json doc = report.to_json();
  EXPECT_EQ(doc.at("schema").as_string(), obs::kRunReportSchema);
  const obs::RunReport back = obs::RunReport::from_json(doc);
  EXPECT_EQ(back.kind, report.kind);
  EXPECT_EQ(back.cycles, report.cycles);
  EXPECT_EQ(back.config.banks, failing.config.banks);
  EXPECT_EQ(back.streams.size(), failing.streams.size());
  EXPECT_EQ(back.to_json(), doc);
}

TEST(FuzzReporting, SummaryJsonCarriesReprosVerbatim) {
  check::FuzzOptions options;
  options.iterations = 40;
  options.fault = check::FaultKind::short_bank_busy;
  options.run_invariants = false;
  const check::FuzzSummary summary = check::fuzz(options);
  ASSERT_FALSE(summary.ok());
  const Json doc = summary.to_json();
  const Json reparsed = Json::parse(doc.dump());
  const auto& failures = reparsed.at("failures");
  ASSERT_EQ(failures.size(), summary.failures.size());
  for (std::size_t i = 0; i < summary.failures.size(); ++i) {
    EXPECT_EQ(failures.at(i).at("repro").as_string(), summary.failures[i].repro);
    // Each repro must parse back into a runnable case.
    EXPECT_NO_THROW(static_cast<void>(
        check::parse_repro(failures.at(i).at("repro").as_string())));
  }
}

}  // namespace
}  // namespace vpmem
