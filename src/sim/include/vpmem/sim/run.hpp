// Finite-run drivers: execute streams to completion (vector instructions
// of length n) or measure long-run average bandwidth over a window —
// plus guarded variants that return partial results under a cycle-budget
// watchdog instead of throwing (degraded-mode workloads can hang forever,
// e.g. a stream pinned on an offline bank under FaultPolicy::stall).
#pragma once

#include <atomic>
#include <string>
#include <vector>

#include "vpmem/sim/config.hpp"
#include "vpmem/sim/event.hpp"
#include "vpmem/sim/fault.hpp"
#include "vpmem/util/numeric.hpp"

namespace vpmem::sim {

class MemorySystem;

/// Outcome of running a finite workload to completion.
struct RunResult {
  i64 cycles = 0;  ///< clock periods until the last element was granted
  std::vector<PortStats> ports;
  ConflictTotals conflicts;

  [[nodiscard]] i64 total_grants() const noexcept {
    i64 g = 0;
    for (const auto& p : ports) g += p.grants;
    return g;
  }
  /// Average data per clock period over the whole run (includes startup).
  [[nodiscard]] double bandwidth() const noexcept {
    return cycles == 0 ? 0.0
                       : static_cast<double>(total_grants()) / static_cast<double>(cycles);
  }
};

/// Simulate until every finite stream has transferred all its elements.
/// Throws vpmem::Error{config_invalid} if any stream is infinite and
/// vpmem::Error{deadline_exceeded} if completion takes more than
/// `max_cycles` periods.
[[nodiscard]] RunResult run_to_completion(const MemoryConfig& config,
                                          const std::vector<StreamConfig>& streams,
                                          i64 max_cycles = 100'000'000);

/// Long-run average bandwidth of infinite streams measured over
/// [warmup, warmup + window).  A floating-point cross-check for
/// find_steady_state(); agrees with it as window -> infinity.  Throws
/// vpmem::Error{config_invalid} on warmup < 0 or window <= 0.
[[nodiscard]] double measure_bandwidth(const MemoryConfig& config,
                                       const std::vector<StreamConfig>& streams, i64 warmup,
                                       i64 window);

/// How a guarded run ended.
enum class RunStatus {
  completed,          ///< workload finished (or the requested window closed)
  deadline_exceeded,  ///< the cycle budget ran out first
  livelock,           ///< no grant for the livelock window while requests pend
  interrupted,        ///< the caller's cancel flag tripped (SIGINT, campaign
                      ///< shutdown); counters cover the cycles observed so far
};

[[nodiscard]] std::string to_string(RunStatus status);

/// Budget limits for a guarded run.
struct Watchdog {
  /// Hard cycle budget: the run stops (status deadline_exceeded) once
  /// this many periods have been simulated without finishing.
  i64 max_cycles = 100'000'000;
  /// Livelock window factor k: the run stops (status livelock) when no
  /// port was granted for more than k * nc * m consecutive periods while
  /// at least one started, unfinished stream is requesting.  That window
  /// is the documented detection bound — any healthy arbitration grants
  /// within nc * m periods of a request, so k adds slack for fault
  /// recovery without masking true livelock.  <= 0 disables detection.
  i64 livelock_factor = 4;
  /// Optional cooperative cancellation: when non-null, guarded runs poll
  /// this flag (every kCancelPollCycles periods) and stop with status
  /// RunStatus::interrupted once it is set.  Wired to the process-wide
  /// SIGINT/SIGTERM token by long-running CLI subcommands and to the
  /// campaign executor's shutdown path, so a guarded run is re-entrant
  /// *and* abandonable without killing its thread.
  const std::atomic<bool>* cancel = nullptr;

  /// How often (in simulated periods) the cancel flag is polled.
  static constexpr i64 kCancelPollCycles = 512;

  [[nodiscard]] bool cancelled() const noexcept {
    return cancel != nullptr && cancel->load(std::memory_order_relaxed);
  }

  /// The livelock window in clock periods for `config`.
  [[nodiscard]] i64 livelock_window(const MemoryConfig& config) const noexcept {
    return livelock_factor <= 0 ? 0 : livelock_factor * config.bank_cycle * config.banks;
  }
};

/// Outcome of a guarded run: always a usable (possibly partial) result —
/// expiry is reported in `status`, never thrown.
struct GuardedRun {
  RunStatus status = RunStatus::completed;
  RunResult result;          ///< counters up to the cycle the run stopped
  i64 last_grant_cycle = -1; ///< most recent grant; -1 if none at all
  std::string detail;        ///< human-readable stop reason (empty if completed)

  [[nodiscard]] bool ok() const noexcept { return status == RunStatus::completed; }
};

/// Deadline-aware run_to_completion: simulate the finite `streams` under
/// `plan` until they finish, the watchdog budget expires, or livelock is
/// detected.  On expiry the partial counters are returned, not thrown
/// away; `result.cycles` is then the cycle the run stopped.  Still throws
/// vpmem::Error{config_invalid} for infinite streams (a workload that
/// *cannot* finish is a caller bug, not a runtime condition).
[[nodiscard]] GuardedRun run_guarded(const MemoryConfig& config,
                                     const std::vector<StreamConfig>& streams,
                                     const FaultPlan& plan = {}, const Watchdog& watchdog = {});

/// Drive an existing MemorySystem under the watchdog until its workload
/// finishes — or, when `horizon` >= 0, until `horizon` total cycles have
/// elapsed (for infinite workloads, which never finish).  Event sinks
/// already attached to `mem` keep firing, so observers (obs::Tracer,
/// trace::Timeline) can watch a guarded run; obs::report_run_guarded is
/// built on this.  Unlike run_guarded this never throws: the caller
/// already built the system, so all inputs were validated.
GuardedRun run_guarded_on(MemorySystem& mem, const Watchdog& watchdog = {}, i64 horizon = -1);

}  // namespace vpmem::sim
