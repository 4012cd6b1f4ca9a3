// The cycle-level engine: banks, sections, paths, ports and the per-clock
// arbitration implementing dynamic conflict resolution (Section II).
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "vpmem/sim/config.hpp"
#include "vpmem/sim/event.hpp"
#include "vpmem/sim/fault.hpp"
#include "vpmem/util/json.hpp"
#include "vpmem/util/numeric.hpp"

namespace vpmem::sim {

/// Current value of the "schema" member emitted by SystemState::to_json().
inline constexpr const char* kCheckpointSchema = "vpmem.checkpoint/1";

/// A complete snapshot of a MemorySystem mid-run: configuration, fault
/// plan (with its application cursor and the dynamic fault state), every
/// port's stream + progress + statistics, bank occupancy and the priority
/// rotation.  Restoring it into a fresh MemorySystem (the SystemState
/// constructor) continues the run cycle-for-cycle identically — long
/// sweeps checkpoint to JSON and resume after interruption.  Event sinks
/// are not part of the state; reattach them after restoring.  For the
/// same reason a copied (or moved) MemorySystem, whether constructed or
/// assigned, starts with no sinks: a sink observes the one system it was
/// attached to, and is never called by a copy that outlives its detach.
struct SystemState {
  MemoryConfig config;
  FaultPlan plan;
  std::vector<StreamConfig> streams;
  std::vector<i64> issued;       ///< per-port elements granted
  std::vector<PortStats> stats;  ///< per-port counters (incl. current_stall)
  std::vector<i64> bank_free_at;
  std::vector<i64> bank_grants;
  std::vector<i64> bank_owner;  ///< -1 = no grant yet
  i64 now = 0;
  i64 rr = 0;
  // Dynamic fault state (all empty/zero when the plan is empty).
  i64 plan_cursor = 0;                        ///< plan events already applied
  std::vector<std::uint8_t> bank_online;      ///< empty == all online
  std::vector<i64> bank_nc;                   ///< empty == config.bank_cycle
  std::vector<i64> bank_stall_until;          ///< empty == no windows
  std::vector<std::pair<i64, i64>> paths_down;  ///< active (cpu, section) outages

  /// Schema vpmem.checkpoint/1.
  [[nodiscard]] Json to_json() const;

  /// Inverse of to_json(); throws vpmem::Error{config_invalid} on schema
  /// mismatch or malformed input.
  [[nodiscard]] static SystemState from_json(const Json& json);
};

/// Cycle-accurate simulator of an m-way interleaved, sectioned memory
/// accessed by constant-stride ports.
///
/// Per clock period, requesting ports are visited in priority order; a
/// port is granted iff (a) no higher-priority port claimed its target bank
/// this period, (b) the bank is inactive, and (c) its access path — the
/// (CPU, section) pair — is unclaimed this period.  Otherwise the port is
/// delayed one period (together with all its subsequent requests) and the
/// delay is classified as a bank, simultaneous-bank or section conflict
/// exactly as in Section II.
///
/// Ports may be added while the simulation runs (add_stream); the Cray
/// X-MP driver uses this to issue chained vector instructions whose start
/// times depend on earlier instructions' progress.
class MemorySystem {
 public:
  /// `streams` may be empty; ports can be injected later via add_stream
  /// (the X-MP drivers issue vector instructions as dependencies clear).
  /// An optional FaultPlan degrades the machine over time (see fault.hpp
  /// for the exact semantics); it is validated against `config`.
  MemorySystem(MemoryConfig config, std::vector<StreamConfig> streams, FaultPlan plan = {});

  /// Restore a checkpoint()ed state; the run continues cycle-for-cycle
  /// identically.  Sinks are not restored.
  explicit MemorySystem(const SystemState& state);

  /// Append a port mid-run.  `start_cycle` must be >= now(), else
  /// vpmem::Error{config_invalid} is thrown.  Under fixed priority the new
  /// port ranks below all existing ones.  Returns its port index.
  std::size_t add_stream(const StreamConfig& stream);

  /// Advance the clock by one period.
  void step();

  /// Run `cycles` periods (or until finished() for finite streams when
  /// `stop_when_finished`).  Returns periods actually simulated.
  i64 run(i64 cycles, bool stop_when_finished = true);

  /// All finite-length streams have transferred all their elements.
  [[nodiscard]] bool finished() const noexcept;

  [[nodiscard]] i64 now() const noexcept { return now_; }
  [[nodiscard]] const MemoryConfig& config() const noexcept { return config_; }
  [[nodiscard]] const FaultPlan& fault_plan() const noexcept { return plan_; }

  /// Bank currently accepts requests (not taken offline by a fault).
  [[nodiscard]] bool bank_online(i64 bank) const;

  /// Number of online banks, m' (== banks when no fault plan is active).
  [[nodiscard]] i64 surviving_banks() const noexcept {
    return static_cast<i64>(surviving_.size());
  }

  /// Snapshot the complete machine state (see SystemState).
  [[nodiscard]] SystemState checkpoint() const;
  [[nodiscard]] std::size_t port_count() const noexcept { return ports_.size(); }
  [[nodiscard]] const StreamConfig& stream(std::size_t port) const;
  [[nodiscard]] const PortStats& port_stats(std::size_t port) const {
    return ports_.at(port).stats;
  }
  [[nodiscard]] std::vector<PortStats> all_stats() const;

  /// Elements granted so far on `port`.
  [[nodiscard]] i64 elements_done(std::size_t port) const;

  /// True once `port` has transferred all its elements.
  [[nodiscard]] bool port_done(std::size_t port) const { return ports_.at(port).done(); }

  /// Bank the port will request next (nullopt once the stream finished).
  /// Under FaultPolicy::remap_spare this is the remapped bank, exactly
  /// the one step() will request.
  [[nodiscard]] std::optional<i64> next_bank(std::size_t port) const;

  /// Remaining active periods of `bank` (0 == inactive).
  [[nodiscard]] i64 bank_busy(i64 bank) const;

  /// Grants served by `bank` so far.
  [[nodiscard]] i64 bank_grants(i64 bank) const;

  /// Fraction of elapsed bank-periods spent active, over all banks
  /// (grants * nc, clipped at now()): 1.0 means every bank was busy every
  /// period.  0 before the first step.
  [[nodiscard]] double bank_utilization() const;

  /// The bank with the most grants so far (ties: lowest address).
  [[nodiscard]] i64 hottest_bank() const;

  /// Attach a typed sink, the one way to observe the engine: it receives
  /// each step's events in one call at the end of that step.  Several
  /// sinks may watch one run (a Tracer and a trace::Timeline, say); they
  /// fire in attachment order and must not mutate the system.  The sink
  /// is not owned and must outlive its attachment.  Attaching the same
  /// sink twice is an error.
  void add_event_sink(EventSink& sink);

  /// Detach `sink` (no-op if it is not attached).
  void remove_event_sink(const EventSink& sink);

  /// Number of sinks currently attached.
  [[nodiscard]] std::size_t event_sink_count() const noexcept { return sinks_.list.size(); }

  /// True when this system and `other` are in the same machine state: the
  /// state that determines all future behaviour of *infinite* streams.  It
  /// consists of each port's phase (next bank, or pattern position, and
  /// the remaining wait before its start cycle), the rotation of the
  /// cyclic priority, and every bank's remaining busy time, all relative
  /// to each system's own now().  Absolute time, statistics and event
  /// sinks are not part of it.  Equal states => identical futures: from
  /// here on both systems emit the same (port, bank, type, conflict kind)
  /// sequence.  Exact cycle detection in find_steady_state() rests on it.
  ///
  /// Meaningful for systems built from the same configuration, streams and
  /// fault plan (typically copies of one system); systems whose port or
  /// bank counts differ never compare equal.  Under a non-empty fault plan
  /// the future also depends on the pending events and the dynamic fault
  /// state, so those are compared as well, together with each port's raw
  /// progress counter (under remap the phase alone does not fix the
  /// effective bank).  While a plan is active, states therefore never
  /// repeat across an interval in which any port was granted, which
  /// soundly disables cycle detection rather than corrupting it.
  ///
  /// Allocates nothing.  Port phases and the priority rotation are
  /// compared first, so unequal states usually differ after O(p) work.
  [[nodiscard]] bool same_state(const MemorySystem& other) const;

 private:
  struct PortState {
    StreamConfig cfg;
    i64 issued = 0;  ///< elements granted so far
    PortStats stats;
    [[nodiscard]] bool done() const noexcept { return issued >= cfg.length; }
  };

  /// A port's phase as same_state() compares it: (next bank, or m plus
  /// the pattern position, or -2 once done; remaining start wait).
  [[nodiscard]] std::pair<i64, i64> phase_of(const PortState& port) const;
  void init_fault_state();
  void apply_due_faults();
  void rebuild_surviving();
  [[nodiscard]] i64 effective_bank(const PortState& port) const;
  [[nodiscard]] bool path_down(i64 cpu, i64 section) const;

  MemoryConfig config_;
  FaultPlan plan_;
  std::vector<PortState> ports_;
  std::vector<i64> bank_free_at_;  ///< absolute cycle the bank becomes inactive
  std::vector<i64> bank_grants_;   ///< grants served per bank
  std::vector<std::size_t> bank_owner_;  ///< port of the latest grant per bank
                                         ///< (bank-conflict blocker payload)
  i64 now_ = 0;
  i64 max_cpu_ = 0;
  std::size_t rr_ = 0;  ///< highest-priority port under PriorityRule::cyclic
  /// Indices of the ports that are not done, ascending.  step() visits
  /// only these, so a run whose finished ports are never retired (the
  /// X-MP driver adds one port per vector instruction) costs O(live
  /// ports) per cycle.  rr_ still rotates over all port indices.
  std::vector<std::size_t> live_;
  /// Attached sinks, in attachment order.  Copying or moving one yields
  /// an empty list (see SystemState), so the implicit copy and move
  /// operations of MemorySystem never share a sink.
  struct SinkList {
    SinkList() = default;
    SinkList(const SinkList& /*other*/) noexcept {}
    SinkList& operator=(const SinkList& other) noexcept {
      if (this != &other) list.clear();
      return *this;
    }
    std::vector<EventSink*> list;
  };
  SinkList sinks_;
  std::vector<Event> step_events_;  ///< this step's events (scratch, >= live ports)
  // Per-step scratch (members to avoid per-cycle allocation).  Claims are
  // made only by grants, and step() frees just the entries listed in
  // claimed_ (the previous step's grants), so a step costs O(p), not O(m).
  std::vector<std::size_t> bank_claim_;
  std::vector<std::size_t> path_claim_;
  std::vector<std::pair<std::size_t, std::size_t>> claimed_;  ///< (bank, path)
  // Dynamic fault state, advanced by apply_due_faults() at the start of
  // every step.  All-healthy when the plan is empty (the hot path then
  // only pays one cursor comparison).
  std::size_t plan_cursor_ = 0;               ///< next plan event to apply
  std::vector<std::uint8_t> bank_online_;     ///< 1 = accepts requests
  std::vector<i64> bank_nc_;                  ///< per-bank effective cycle time
  std::vector<i64> bank_stall_until_;         ///< exclusive end of stall window
  std::vector<std::pair<i64, i64>> paths_down_;  ///< active (cpu, section) outages
  std::vector<i64> surviving_;                ///< online banks, ascending
};

}  // namespace vpmem::sim
