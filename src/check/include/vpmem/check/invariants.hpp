// Per-run invariant checking: every configuration the fuzzer produces is
// held against the *analytic* oracles of the paper, independent of the
// reference-model comparison.  Each check guards its own applicability
// (e.g. the theorem sweeps only fire for the canonical two-stream flat
// configuration they are stated for) and reports a named failure with a
// human-readable detail when the simulator contradicts the oracle.
//
// Oracles (see DESIGN.md §7 for the full table):
//   * Theorem 1 return numbers r = m / gcd(m, d) vs the stream's actual
//     bank revisit period and access-set size.
//   * Single-stream b_eff = min(1, r/nc) vs exact steady-state detection.
//   * Theorem 3 synchronization: eq. 12 => every start offset converges
//     to a conflict-free cycle at b_eff = 2.
//   * Theorem 5: within the eq. 17 barrier context, no start offset may
//     produce mutual delays in the steady cycle.
//   * Theorems 6/7 + eq. 29: a unique barrier means b_eff = 1 + d1/d2
//     from every start offset.
//   * Start-bank translation and global start-cycle shifts leave the
//     steady-state bandwidth unchanged (bank/time relabelings).
//   * Capacity bounds: b_eff <= p and b_eff * nc <= m, per-port shares
//     sum to the total.
//   * Windowed measurement over whole periods equals the exact rational.
#pragma once

#include <string>
#include <vector>

#include "vpmem/sim/config.hpp"

namespace vpmem::check {

struct InvariantOptions {
  i64 max_sweep_banks = 16;  ///< run full offset sweeps only when m <= this
  i64 max_cycles = 500'000;  ///< steady-state detection guard
};

/// One failed check.
struct InvariantFailure {
  std::string name;    ///< e.g. "theorem3_synchronization"
  std::string detail;  ///< what disagreed, with the offending values
};

struct InvariantReport {
  std::vector<std::string> ran;  ///< names of checks that were applicable
  std::vector<InvariantFailure> failures;
  [[nodiscard]] bool ok() const noexcept { return failures.empty(); }
  [[nodiscard]] bool did_run(const std::string& name) const;
};

/// Run every applicable invariant for the given configuration.
[[nodiscard]] InvariantReport check_invariants(const sim::MemoryConfig& config,
                                               const std::vector<sim::StreamConfig>& streams,
                                               const InvariantOptions& options = {});

}  // namespace vpmem::check
