#include "vpmem/obs/timer.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "vpmem/core/diagnose.hpp"
#include "vpmem/core/triad_experiment.hpp"

namespace vpmem::obs {
namespace {

TEST(Stopwatch, MeasuresElapsedTime) {
  const Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds{5});
  const double first = watch.seconds();
  EXPECT_GT(first, 0.0);
  EXPECT_GE(watch.seconds(), first);  // monotone
}

TEST(SweepTelemetry, Accumulates) {
  SweepTelemetry telemetry;
  telemetry.record_point(0.5, 100);
  telemetry.record_point(1.5, 300);
  telemetry.add_cycles(600);
  EXPECT_EQ(telemetry.points(), 2);
  EXPECT_DOUBLE_EQ(telemetry.total_seconds(), 2.0);
  EXPECT_EQ(telemetry.simulated_cycles(), 1000);
  EXPECT_DOUBLE_EQ(telemetry.mean_point_seconds(), 1.0);
  EXPECT_DOUBLE_EQ(telemetry.max_point_seconds(), 1.5);
  EXPECT_DOUBLE_EQ(telemetry.cycles_per_second(), 500.0);
  const Json j = telemetry.to_json();
  EXPECT_EQ(j.at("points").as_int(), 2);
  EXPECT_EQ(j.at("simulated_cycles").as_int(), 1000);
  EXPECT_FALSE(telemetry.summary().empty());
}

TEST(SweepTelemetry, EmptyIsSafe) {
  const SweepTelemetry telemetry;
  EXPECT_EQ(telemetry.points(), 0);
  EXPECT_DOUBLE_EQ(telemetry.mean_point_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(telemetry.cycles_per_second(), 0.0);
}

TEST(SweepTelemetry, ThreadSafeRecording) {
  SweepTelemetry telemetry;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 250; ++i) telemetry.record_point(0.001, 10);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(telemetry.points(), 1000);
  EXPECT_EQ(telemetry.simulated_cycles(), 10000);
}

TEST(SweepTelemetry, DoesNotChangeSweepResults) {
  // Acceptance: telemetry is purely observational — the sweep's results
  // must be identical with and without it.
  const sim::MemoryConfig config{.banks = 13, .sections = 13, .bank_cycle = 6};
  const core::RegimeSweep plain = core::sweep_regimes(config, 1, 6);
  SweepTelemetry telemetry;
  const core::RegimeSweep timed = core::sweep_regimes(config, 1, 6, false, &telemetry);
  ASSERT_EQ(timed.by_offset.size(), plain.by_offset.size());
  for (std::size_t b2 = 0; b2 < plain.by_offset.size(); ++b2) {
    EXPECT_EQ(timed.by_offset[b2].regime, plain.by_offset[b2].regime) << "offset " << b2;
    EXPECT_EQ(timed.by_offset[b2].bandwidth, plain.by_offset[b2].bandwidth) << "offset " << b2;
    EXPECT_EQ(timed.by_offset[b2].period, plain.by_offset[b2].period) << "offset " << b2;
  }
  EXPECT_EQ(telemetry.points(), static_cast<i64>(config.banks));
  EXPECT_GT(telemetry.simulated_cycles(), 0);
}

TEST(SweepTelemetry, TriadExperimentRecordsCycles) {
  core::TriadExperiment experiment;
  experiment.setup.n = 64;  // keep the test quick
  experiment.inc_min = 1;
  experiment.inc_max = 4;
  SweepTelemetry telemetry;
  const auto timed = core::run_triad_experiment(experiment, 2, &telemetry);
  const auto plain = core::run_triad_experiment(experiment, 2);
  ASSERT_EQ(timed.size(), plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(timed[i].cycles_contended, plain[i].cycles_contended) << "row " << i;
    EXPECT_EQ(timed[i].cycles_dedicated, plain[i].cycles_dedicated) << "row " << i;
  }
  EXPECT_EQ(telemetry.points(), 4);
  i64 expected_cycles = 0;
  for (const auto& row : plain) expected_cycles += row.cycles_contended + row.cycles_dedicated;
  EXPECT_EQ(telemetry.simulated_cycles(), expected_cycles);
}

}  // namespace
}  // namespace vpmem::obs
