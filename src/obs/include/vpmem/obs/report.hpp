// Structured run reports: every simulation becomes a machine-readable,
// schema-versioned JSON artifact that later PRs (and external tooling)
// can diff, trend and regress against.  The schema is documented in
// README.md ("Observability") and exercised by a golden round-trip test.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "vpmem/sim/config.hpp"
#include "vpmem/sim/event.hpp"
#include "vpmem/sim/fault.hpp"
#include "vpmem/sim/run.hpp"
#include "vpmem/sim/steady_state.hpp"
#include "vpmem/util/json.hpp"
#include "vpmem/util/rational.hpp"

namespace vpmem::obs {

/// Current value of the "schema" member emitted by RunReport::to_json().
inline constexpr const char* kRunReportSchema = "vpmem.run_report/1";

/// Exact steady-state portion of a report (infinite streams only).
struct SteadyStateReport {
  Rational b_eff;                           ///< total grants per clock period
  std::vector<Rational> per_port;           ///< per-port share of b_eff
  i64 transient_cycles = 0;
  i64 period = 0;
  std::vector<i64> grants_in_period;
  sim::ConflictTotals conflicts_in_period;
};

/// Wall-clock telemetry of the producing run.
struct PerfReport {
  double wall_seconds = 0.0;    ///< time spent simulating
  i64 cycles_simulated = 0;     ///< clock periods stepped (all phases)
  [[nodiscard]] double cycles_per_second() const noexcept {
    return wall_seconds > 0.0 ? static_cast<double>(cycles_simulated) / wall_seconds : 0.0;
  }
};

/// One complete, self-describing record of a simulation.
struct RunReport {
  std::string kind;  ///< "steady_state" (infinite streams), "finite_run"
                     ///< or "guarded_run" (watchdogged, possibly partial)
  sim::MemoryConfig config;
  std::vector<sim::StreamConfig> streams;
  sim::FaultPlan fault_plan;  ///< empty unless the run degraded the machine

  /// How the run ended: "completed", or for guarded runs possibly
  /// "deadline_exceeded" / "livelock" — the counters below then cover the
  /// partial window up to the stop.  Reports written before the fault
  /// model read back as "completed".
  std::string status = "completed";
  std::string status_detail;  ///< human-readable stop reason (may be empty)

  // Observed window (the whole run for finite streams; a transient +
  // whole-period window for infinite ones).
  i64 cycles = 0;                     ///< clock periods observed
  std::vector<sim::PortStats> ports;  ///< counters over the window;
                                      ///< equals MemorySystem::all_stats()
  sim::ConflictTotals conflicts;      ///< totals over the window
  double window_bandwidth = 0.0;      ///< grants / cycles (includes startup)

  // Bank-level view over the window.
  std::vector<i64> bank_grants;  ///< grants per bank
  double bank_utilization = 0.0;
  i64 hottest_bank = 0;

  std::optional<SteadyStateReport> steady_state;  ///< infinite streams only
  /// Run totals, the stall-run-length and per-bank grant histograms, bank
  /// utilization, the hottest bank, and per-port / per-bank breakdowns.
  Json metrics;
  /// ConflictAttribution summary over the observed window (schema
  /// vpmem.attribution/1); null when ReportOptions::attribution is off.
  /// Carried verbatim through a JSON round-trip, like `metrics`.
  Json attribution;
  PerfReport perf;

  [[nodiscard]] Json to_json() const;

  /// Inverse of to_json(); throws std::runtime_error on schema mismatch
  /// or malformed input.  `metrics` is carried through verbatim.
  [[nodiscard]] static RunReport from_json(const Json& json);

  /// Serialize to `os` (pretty-printed) / append as one JSONL line.
  void write_json(std::ostream& os, int indent = 2) const;
  void append_jsonl(std::ostream& os) const;

  /// Write to `path`, replacing any existing file.  Throws
  /// std::runtime_error if the file cannot be opened.
  void save(const std::string& path, int indent = 2) const;
};

/// Options for report_run().
struct ReportOptions {
  /// Clock periods to observe.  0 = automatic: finite workloads run to
  /// completion; infinite ones observe the transient plus one full
  /// steady-state period (so per-port counters cover startup + cycle).
  i64 cycles = 0;
  /// Guard for finite runs / steady-state detection.
  i64 max_cycles = 1'000'000;
  /// Embed the summary block (RunReport::attribution) of the
  /// ConflictAttribution that every report folds over its observed window
  /// (it also supplies the stall-run histogram of `metrics`).
  bool attribution = true;
  /// b_eff(t) window for the embedded attribution.
  i64 attribution_window = 64;
};

/// Run `streams` on `config` with a ConflictAttribution attached as its
/// one event sink and produce the full report.  For all-infinite streams
/// this also performs exact steady-state detection (kind =
/// "steady_state"); otherwise the workload runs to completion (kind =
/// "finite_run").  Mixed finite/infinite workloads are rejected
/// (std::invalid_argument).
[[nodiscard]] RunReport report_run(const sim::MemoryConfig& config,
                                   const std::vector<sim::StreamConfig>& streams,
                                   const ReportOptions& options = {});

/// Hardened report_run: drive the workload under `plan` with a watchdog
/// and report even when it cannot finish — RunReport::status records how
/// the run ended and the counters cover the observed (possibly partial)
/// window.  kind = "guarded_run"; no steady-state section is computed
/// (cycle detection is unsound while a fault plan is active), so infinite
/// streams require an explicit options.cycles horizon.  The watchdog's
/// max_cycles is the cycle budget (ReportOptions::max_cycles is ignored
/// here).  Throws vpmem::Error{config_invalid} for mixed finite/infinite
/// workloads or a missing horizon, and
/// vpmem::Error{fault_plan_invalid} if `plan` does not fit `config`.
[[nodiscard]] RunReport report_run_guarded(const sim::MemoryConfig& config,
                                           const std::vector<sim::StreamConfig>& streams,
                                           const sim::FaultPlan& plan = {},
                                           const ReportOptions& options = {},
                                           const sim::Watchdog& watchdog = {});

/// JSON shapes shared with the CLI: serialize one PortStats / the totals.
[[nodiscard]] Json json_of(const sim::PortStats& stats);
[[nodiscard]] Json json_of(const sim::ConflictTotals& totals);
[[nodiscard]] Json json_of(const Rational& r);
[[nodiscard]] Json json_of(const sim::MemoryConfig& config);
[[nodiscard]] Json json_of(const sim::StreamConfig& stream);

}  // namespace vpmem::obs
