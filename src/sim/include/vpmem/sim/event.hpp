// Per-cycle events and per-port statistics emitted by the simulator.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "vpmem/util/numeric.hpp"

namespace vpmem::sim {

/// The three access-conflict types of Section II, plus the fault kind of
/// the degraded-mode model (a delay caused by injected hardware faults
/// rather than by contention between healthy resources).
enum class ConflictKind {
  /// Access requested to an active (busy) bank; request postponed.
  bank,
  /// Two or more ports on *different* access paths request the same
  /// inactive bank; priority decides, losers wait.
  simultaneous,
  /// Two or more ports of the same CPU request inactive banks within the
  /// same section (same access path); priority decides, losers wait.
  section,
  /// Request pinned by an injected fault: target bank offline or inside a
  /// transient stall window, or the access path down (FaultPlan).
  fault,
};

/// Number of ConflictKind values (lost-cycle matrix stride).
inline constexpr std::size_t kConflictKinds = 4;

[[nodiscard]] std::string to_string(ConflictKind kind);

/// One observable simulator event.  `grant` events mark the clock period
/// in which a request was accepted (the bank then stays active for nc
/// periods); conflict events mark each clock period a port spent delayed,
/// tagged with the cause in that period.
struct Event {
  enum class Type { grant, conflict };
  Type type = Type::grant;
  i64 cycle = 0;
  std::size_t port = 0;
  i64 bank = 0;             ///< requested bank
  i64 element = 0;          ///< index k of the stream element involved
  ConflictKind conflict = ConflictKind::bank;  ///< valid when type == conflict
  std::size_t blocker = 0;  ///< port that won the resource: the same-period
                            ///< winner for simultaneous/section conflicts,
                            ///< the port holding the bank for bank conflicts
                            ///< (the requester itself for a self conflict)
};

/// Typed consumer of the simulator's event stream
/// (MemorySystem::add_event_sink).  The engine hands a sink each clock
/// period's events in one call, after the period's arbitration: one
/// virtual call per cycle rather than one call per event, and a sink can
/// fold what every event of the period shares (the cycle) once.
class EventSink {
 public:
  virtual ~EventSink() = default;
  /// The events of one clock period, in emission (priority) order.  All
  /// share one cycle; the span is never empty and is only valid during
  /// the call.  Must not mutate the system.
  virtual void on_events(std::span<const Event> events) = 0;
};

/// The plain collecting sink: keeps every event it is handed, in emission
/// order.  check::diff_run and the tests record a run's stream with it.
class EventLog final : public EventSink {
 public:
  void on_events(std::span<const Event> batch) override {
    events.insert(events.end(), batch.begin(), batch.end());
  }
  std::vector<Event> events;
};

/// Aggregate counters for one port.  A "conflict" is counted once per
/// clock period of delay, classified by the cause during that period —
/// this matches what the paper's Fortran simulator reports in Fig. 10(c-e)
/// (counts grow linearly with delay time).
struct PortStats {
  i64 grants = 0;
  i64 bank_conflicts = 0;
  i64 simultaneous_conflicts = 0;
  i64 section_conflicts = 0;
  i64 fault_conflicts = 0;  ///< periods lost to injected faults
  i64 first_grant_cycle = -1;
  i64 last_grant_cycle = -1;
  i64 longest_stall = 0;   ///< longest run of consecutive delayed periods
  i64 current_stall = 0;   ///< internal: ongoing delay run

  [[nodiscard]] i64 total_conflicts() const noexcept {
    return bank_conflicts + simultaneous_conflicts + section_conflicts + fault_conflicts;
  }
};

/// Totals across ports.
struct ConflictTotals {
  i64 bank = 0;
  i64 simultaneous = 0;
  i64 section = 0;
  i64 fault = 0;

  [[nodiscard]] i64 total() const noexcept { return bank + simultaneous + section + fault; }
};

[[nodiscard]] ConflictTotals totals(const std::vector<PortStats>& ports);

}  // namespace vpmem::sim
