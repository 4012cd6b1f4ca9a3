// Wall-clock instrumentation: a monotonic stopwatch and a thread-safe
// telemetry accumulator for parallel sweeps.  These are the "how fast is
// the simulator itself" half of vpmem::obs — they report
// simulated-cycles-per-second and per-point latency for sweeps without
// perturbing what the sweeps compute.
#pragma once

#include <chrono>
#include <mutex>
#include <string>

#include "vpmem/util/json.hpp"
#include "vpmem/util/numeric.hpp"

namespace vpmem::obs {

/// Monotonic wall-clock stopwatch, running from construction.
class Stopwatch {
 public:
  Stopwatch() noexcept : start_{std::chrono::steady_clock::now()} {}

  /// Seconds elapsed since construction.
  [[nodiscard]] double seconds() const noexcept {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Thread-safe accumulator for a parameter sweep: one record_point() per
/// sweep point (from any worker thread) with the simulated clock periods
/// it stepped.  Reports total/mean/max per-point latency and the
/// aggregate simulated-cycles-per-second of the sweep.
class SweepTelemetry {
 public:
  /// Record one completed sweep point.
  void record_point(double wall_seconds, i64 simulated_cycles);

  [[nodiscard]] i64 points() const;
  [[nodiscard]] double total_seconds() const;
  [[nodiscard]] i64 simulated_cycles() const;
  /// Simulated clock periods per wall-clock second, summed over points
  /// (0 when nothing was recorded or the sweep was too fast to time).
  [[nodiscard]] double cycles_per_second() const;

  /// {"points":N,"wall_seconds":..,"simulated_cycles":..,
  ///  "cycles_per_second":..,"mean_point_seconds":..,"max_point_seconds":..}
  [[nodiscard]] Json to_json() const;

  /// One-line human summary, e.g. for stderr logging after a sweep.
  [[nodiscard]] std::string summary() const;

 private:
  mutable std::mutex mutex_;
  i64 points_ = 0;
  i64 cycles_ = 0;
  double total_seconds_ = 0.0;
  double max_point_seconds_ = 0.0;
};

}  // namespace vpmem::obs
