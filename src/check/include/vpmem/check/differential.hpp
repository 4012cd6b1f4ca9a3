// Grant-for-grant comparison of sim::MemorySystem against the naive
// ReferenceModel: both implementations run the same configuration for the
// same number of clock periods, and every emitted event (grants *and*
// per-period conflict classifications) plus the final per-port statistics
// must match exactly, and the simulator's per-bank grant counters must
// match the grants in its own event log.
#pragma once

#include <string>
#include <vector>

#include "vpmem/check/reference_model.hpp"
#include "vpmem/sim/config.hpp"

namespace vpmem::check {

/// Outcome of one differential run.
struct DiffResult {
  bool agreed = true;
  i64 events_compared = 0;  ///< events matched before divergence (or total)
  i64 grants = 0;           ///< grants the simulator issued in the window
  std::string message;      ///< first divergence, human-readable; empty if agreed
};

/// Run both implementations for exactly `cycles` periods and compare.
/// `fault` mutates the *reference* side only — a non-none fault models an
/// arbitration bug that the comparison is expected to expose.
[[nodiscard]] DiffResult diff_run(const sim::MemoryConfig& config,
                                  const std::vector<sim::StreamConfig>& streams, i64 cycles,
                                  FaultKind fault = FaultKind::none);

/// diff_run under a sim::FaultPlan: *both* sides degrade the machine per
/// `plan` (the simulator incrementally, the reference by naive re-
/// derivation), and every fault-pinned delay must match event-for-event
/// on top of the usual grant/conflict agreement.
[[nodiscard]] DiffResult diff_run(const sim::MemoryConfig& config,
                                  const std::vector<sim::StreamConfig>& streams, i64 cycles,
                                  const sim::FaultPlan& plan, FaultKind fault = FaultKind::none);

}  // namespace vpmem::check
