// Measurement loops of the benchmark: the untraced run that yields the
// end-to-end metrics, and the traced run that yields the per-layer ones.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Set-ups before each round; setup_s is the median of all of a run's.
inline constexpr int kSetupsPerRound = 3;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Failure accounting shared by both runs.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> first_errors;  ///< up to a few, "item N: what"

  void add(const RoundResult& round);
};

/// Host seconds of one untraced round.
struct RoundTiming {
  double valid = 0.0;       ///< valid items
  double timed_s = 0.0;     ///< host seconds of item execution (wall)
  double latency_ms = 0.0;  ///< sum over the items timed one by one
};

/// An untraced run.  Host noise on a shared machine only ever adds time,
/// so each item keeps its fastest latency over all rounds; the latency
/// percentiles are taken over those, and each round's throughput is
/// rescaled to the speed at which its items ran at their fastest.
struct Measurement {
  std::vector<double> setup_s;      ///< every set-up
  std::vector<RoundTiming> rounds;  ///< every round
  std::vector<double> best_ms;      ///< per timed item: its minimum over rounds
  std::int64_t samples = 0;         ///< items timed one by one, all rounds
  double timed_s = 0.0;             ///< host seconds of item execution
  Tally tally;
};

/// Run whole rounds while the next one, as long as the last, still ends
/// within `seconds` (at least one round), setting up `setups_per_round`
/// times before each.  Set-up is outside every timed item.  When `golden`
/// is non-null each round is also checked against it.
/// Throws std::logic_error when rounds time different numbers of items.
[[nodiscard]] Measurement measure(Workload& workload, double seconds, int setups_per_round,
                                  const std::vector<std::string>* golden);

/// Valid items per host second: the median over rounds of valid items /
/// (timed seconds x sum of best_ms / the round's latency sum).  That keeps
/// a round's wall time, parallel efficiency and time between items, at
/// the speed its items reached at their fastest.
[[nodiscard]] double items_per_s(const Measurement& m);

/// The end-to-end metrics of an untraced measurement.  Throws
/// std::invalid_argument when a latency percentile lacks samples beyond it.
[[nodiscard]] std::vector<Metric> end_to_end_metrics(const Measurement& m);

struct TracedMeasurement {
  SpanTotals totals;                       ///< over every traced pass
  std::map<std::string, double> counters;  ///< over every traced pass
  std::int64_t passes = 0;    ///< traced (set-up + round) passes
  double untraced_s = 0.0;    ///< wall of the paired untraced passes
  double traced_s = 0.0;      ///< wall of the traced passes
  Tally tally;
};

/// Alternate untraced and traced passes (set-up + one round each) while
/// the next pair, as long as the last, still ends within `seconds` (at
/// least one pair).  Spans of the traced passes accumulate in
/// `recorder`, which must be enabled.
[[nodiscard]] TracedMeasurement measure_traced(Workload& workload, double seconds,
                                               const std::vector<std::string>* golden,
                                               SpanRecorder& recorder);

/// Every per-layer metric, per traced pass, plus bench.unattributed_frac
/// and bench.tracing_overhead_frac.
[[nodiscard]] std::vector<Metric> layer_metrics(const TracedMeasurement& m);

/// Peak resident set of this process image, MB (VmHWM).
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
