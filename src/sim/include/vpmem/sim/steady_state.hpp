// Exact steady-state (cyclic state) detection.
//
// Section III assumes infinitely long streams: "the possible memory states
// are finite, and some cyclic state will be reached.  Neglecting startup
// times, we compute the effective bandwidth for the cyclic state."  This
// module detects that cyclic state exactly and reports b_eff as an exact
// rational (grants per period over the detected cycle).  One walker steps
// from t = 0 and keeps a 64-bit fingerprint of each state's
// MemorySystem::same_state() fields, updated in O(p) per step, in a table:
// every state before t = 2^15, then only those at t = 2^15 * 2^j.  A
// fingerprint hit is confirmed with same_state() on a second system
// stepped to the earlier time, so the walk stops at the first repeated
// state, t = mu + lambda, and detection steps about mu + lambda + mu clock
// periods.  When mu >= 2^15 a hit only brackets mu between two kept times
// and a lockstep walk pins it.  Memory is O(m + p) plus a table capped
// near 384 KiB per thread, whatever the transient and period.
#pragma once

#include <vector>

#include "vpmem/sim/config.hpp"
#include "vpmem/sim/event.hpp"
#include "vpmem/util/rational.hpp"

namespace vpmem::sim {

/// Result of cycle detection over infinite streams.
struct SteadyState {
  Rational bandwidth;                  ///< b_eff: total grants per clock period
  std::vector<Rational> per_port;      ///< per-port share of b_eff
  i64 transient_cycles = 0;            ///< periods before the cyclic state is entered
  i64 period = 0;                      ///< length of the cyclic state
  /// mu + lambda: the clock periods up to the first repeated state.
  /// Detection steps about mu more than this (mu + lambda + mu).
  i64 cycles_simulated = 0;
  double wall_seconds = 0.0;           ///< wall-clock cost of the detection
  /// Detection throughput (cycles_simulated per wall-clock second); 0
  /// when the run was too fast to time.
  [[nodiscard]] double cycles_per_second() const noexcept {
    return wall_seconds > 0.0 ? static_cast<double>(cycles_simulated) / wall_seconds : 0.0;
  }
  std::vector<i64> grants_in_period;   ///< per-port grants within one period
  ConflictTotals conflicts_in_period;  ///< conflicts within one period
  std::vector<PortStats> per_port_delta;  ///< per-port stats within one period

  /// True if `port` is never delayed inside the cycle.
  [[nodiscard]] bool port_conflict_free(std::size_t port) const {
    return per_port_delta.at(port).total_conflicts() == 0;
  }

  /// True if no port is ever delayed inside the cycle.
  [[nodiscard]] bool conflict_free() const noexcept { return conflicts_in_period.total() == 0; }
};

/// Detect the cyclic state for a set of *infinite* streams: the minimal
/// transient mu and period lambda with state(mu) == state(mu + lambda).
/// Throws vpmem::Error{config_invalid} if any stream is finite and
/// std::runtime_error exactly when mu + lambda > `max_cycles` (for valid
/// fault-free configurations a cycle always exists; the bound is a
/// defensive cap).
[[nodiscard]] SteadyState find_steady_state(const MemoryConfig& config,
                                            const std::vector<StreamConfig>& streams,
                                            i64 max_cycles = 1'000'000);

/// Worst/best-case steady-state bandwidth of two streams over *all* pairs
/// of relative start banks (b1 fixed at 0, b2 swept over [0, m)).  Used to
/// validate "synchronization" (Theorem 3: any offset converges) and
/// "unique barrier" claims (Theorems 6/7: b_eff = 1 + d1/d2 regardless of
/// offsets).
struct OffsetSweep {
  Rational min_bandwidth;
  Rational max_bandwidth;
  std::vector<Rational> by_offset;  ///< index = b2
  // Perf telemetry of the sweep itself (summed over offsets); purely
  // observational — the bandwidths above are unaffected.
  i64 cycles_simulated = 0;   ///< SteadyState::cycles_simulated summed over all points
  double wall_seconds = 0.0;  ///< wall-clock cost of the whole sweep
  [[nodiscard]] double cycles_per_second() const noexcept {
    return wall_seconds > 0.0 ? static_cast<double>(cycles_simulated) / wall_seconds : 0.0;
  }
};

[[nodiscard]] OffsetSweep sweep_start_offsets(const MemoryConfig& config, i64 d1, i64 d2,
                                              bool same_cpu = false, i64 max_cycles = 1'000'000);

}  // namespace vpmem::sim
