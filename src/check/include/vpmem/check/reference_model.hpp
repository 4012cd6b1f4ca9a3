// Deliberately naive reference implementation of the Section II
// arbitration rules — the differential-testing oracle for
// sim::MemorySystem.
//
// Where the production simulator keeps incremental machine state
// (bank_free_at_, per-step claim scratch, running stall counters), the
// reference model derives all *arbitration* state from the event log it
// has produced so far: a bank is active at clock period t iff the log
// holds a grant to it within the last nc periods; same-period bank and
// access-path claims are found by scanning the log tail; per-port
// statistics are recomputed from scratch on demand.  The two
// implementations share no state and no code path beyond the public
// config types, so event-for-event agreement is a meaningful check.
//
// The model can also *mutate* its arbitration via FaultKind: small,
// deliberate rule violations used to prove that the differential harness
// detects arbitration bugs (tests/check/differential_fuzz_test.cpp).
#pragma once

#include <string>
#include <vector>

#include "vpmem/sim/config.hpp"
#include "vpmem/sim/event.hpp"
#include "vpmem/sim/fault.hpp"

namespace vpmem::check {

/// Arbitration mutations for harness-sensitivity testing.  `none` is the
/// faithful reference; every other value breaks exactly one Section II
/// rule.
enum class FaultKind {
  none,
  ignore_path_conflict,      ///< skip the (CPU, section) access-path check
  short_bank_busy,           ///< banks stay active nc - 1 periods, not nc
  priority_inversion,        ///< visit ports in reverse priority order
  misclassify_simultaneous,  ///< log simultaneous bank conflicts as section
  drop_rotation,             ///< cyclic priority never rotates
};

[[nodiscard]] std::string to_string(FaultKind fault);

/// Inverse of to_string; throws std::invalid_argument on unknown names.
[[nodiscard]] FaultKind fault_from_string(const std::string& name);

/// The five mutations (everything except `none`), for sweep tests.
[[nodiscard]] const std::vector<FaultKind>& all_faults();

/// Event-queue-style re-implementation of the per-clock arbitration:
/// requesting ports are visited in priority order; a port is granted iff
/// no higher-priority port claimed its bank this period, the bank is
/// inactive, and its access path is unclaimed this period; otherwise the
/// delay is classified as a bank / simultaneous-bank / section conflict.
class ReferenceModel {
 public:
  /// An optional sim::FaultPlan degrades the modelled machine exactly as
  /// it degrades MemorySystem (fault.hpp documents the contract).  The
  /// model derives the fault state naively — by folding the plan's due
  /// events on every query instead of keeping cursors — so agreement with
  /// the simulator's incremental bookkeeping is a meaningful check.
  ReferenceModel(sim::MemoryConfig config, std::vector<sim::StreamConfig> streams,
                 FaultKind fault = FaultKind::none, sim::FaultPlan plan = {});

  /// Append a port mid-run, like MemorySystem::add_stream: it takes the
  /// next port index (the lowest fixed priority).  Throws
  /// std::invalid_argument when `start_cycle` lies in the past.
  std::size_t add_stream(const sim::StreamConfig& stream);

  /// Advance the clock by one period.
  void step();

  /// Run exactly `cycles` periods.
  void run(i64 cycles);

  [[nodiscard]] i64 now() const noexcept { return now_; }
  [[nodiscard]] std::size_t port_count() const noexcept { return streams_.size(); }

  /// Every grant and per-period conflict, in arbitration order — directly
  /// comparable with the events MemorySystem hands its sinks.
  [[nodiscard]] const std::vector<sim::Event>& events() const noexcept { return log_; }

  /// Per-port statistics recomputed from the event log alone (grants,
  /// conflict kinds, first/last grant cycle, stall runs).
  [[nodiscard]] std::vector<sim::PortStats> stats() const;

 private:
  /// Port whose earlier grant keeps `bank` active at t (the bank-conflict
  /// blocker payload), or kNobody when inactive.  A grant at period g
  /// occupies its bank for the bank's effective cycle time *at g* (slow-
  /// bank faults lengthen it; the short_bank_busy mutation shortens it).
  [[nodiscard]] std::size_t bank_active_from_earlier(i64 bank, i64 t) const;
  /// Port granted `bank` in period t, if any (scans the log tail).
  [[nodiscard]] std::size_t same_period_bank_winner(i64 bank, i64 t) const;
  /// Port granted any bank on access path (cpu, section) in period t.
  [[nodiscard]] std::size_t same_period_path_winner(i64 cpu, i64 section, i64 t) const;

  // Naive fault-state queries: each folds the plan's events with
  // cycle <= t from the start, sharing nothing with the simulator's
  // incremental cursor/vector bookkeeping.
  [[nodiscard]] bool ref_bank_online(i64 bank, i64 t) const;
  [[nodiscard]] i64 ref_bank_nc(i64 bank, i64 t) const;
  [[nodiscard]] bool ref_bank_stalled(i64 bank, i64 t) const;
  [[nodiscard]] bool ref_path_down(i64 cpu, i64 section, i64 t) const;
  /// Bank port `idx` requests at t: the raw stream bank, or its image on
  /// the surviving banks under FaultPolicy::remap_spare.
  [[nodiscard]] i64 ref_effective_bank(std::size_t idx, i64 t) const;
  /// Periods a grant to `bank` issued at `grant_cycle` occupies it.
  [[nodiscard]] i64 service_length(i64 bank, i64 grant_cycle) const;

  sim::MemoryConfig config_;
  std::vector<sim::StreamConfig> streams_;
  FaultKind fault_;
  sim::FaultPlan plan_;
  i64 max_service_length_ = 0;  ///< backward-scan cutoff for bank activity
  std::vector<sim::Event> log_;
  std::vector<i64> issued_;  ///< per-port element cursor (the port's own
                             ///< progress, not derived arbitration state)
  i64 now_ = 0;
  std::size_t rr_ = 0;  ///< cyclic-priority rotation counter
};

}  // namespace vpmem::check
