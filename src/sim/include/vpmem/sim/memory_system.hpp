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
#include "vpmem/util/numeric.hpp"

namespace vpmem::sim {

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
  [[nodiscard]] i64 surviving_banks() const noexcept { return surviving_; }

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

  /// Bank the port will request next (nullopt once the stream finished),
  /// read through the port's bank cursor exactly as step() reads it.
  /// Under FaultPolicy::remap_spare this is the remapped bank: the
  /// cursors are re-derived whenever a bank goes offline or comes back.
  [[nodiscard]] std::optional<i64> next_bank(std::size_t port) const;

  /// The port's bank cursor: its position in the bank table that step()
  /// and next_bank() read.  It moves by a fixed step per grant and wraps
  /// by one subtraction, so it repeats exactly when the port's bank
  /// sequence does.  same_state() compares it; find_steady_state()
  /// fingerprints it.
  [[nodiscard]] i64 phase(std::size_t port) const { return ports_.at(port).cursor; }

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
  /// consists of each port's phase (its bank cursor, see phase(), and the
  /// remaining wait before its start cycle), the rotation of the
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
  /// progress counter (under remap a topology change re-derives every
  /// cursor from that counter, so the cursor alone does not fix the
  /// future).  While a plan is active, states therefore never
  /// repeat across an interval in which any port was granted, which
  /// soundly disables cycle detection rather than corrupting it.
  ///
  /// Allocates nothing.  Port phases and the priority rotation are
  /// compared first, so unequal states usually differ after O(p) work.
  [[nodiscard]] bool same_state(const MemorySystem& other) const;

 private:
  /// The bank cursor indexes bank_table_, the one address->bank mapping:
  /// the port's next request targets bank_table_[cursor].  A grant moves
  /// the cursor by `step` and wraps it into [end - span, end) by one
  /// subtraction.  An affine stream walks the lane table at the front
  /// (cursor = (b + issued*d) mod span, step = d mod span); a pattern
  /// stream walks its own mapped copy of the pattern (step 1).  Cursors
  /// are indices, not pointers, so a copy of the system is self-contained.
  struct PortState {
    StreamConfig cfg;
    i64 issued = 0;  ///< elements granted so far
    i64 cursor = 0;  ///< bank_table_ index of the next request's bank
    i64 step = 0;
    i64 end = 0;
    i64 span = 0;
    PortStats stats;
    [[nodiscard]] bool done() const noexcept { return issued >= cfg.length; }
  };

  /// A port's phase as same_state() compares it: (cursor, or -2 once
  /// done; remaining start wait).
  [[nodiscard]] std::pair<i64, i64> phase_of(const PortState& port) const;
  void apply_due_faults();
  void rebuild_surviving();
  void aim(PortState& port);
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
  /// Attached sinks, in attachment order.  A copy of a MemorySystem is
  /// the engine's one snapshot: it carries the whole machine state and
  /// continues the run cycle-for-cycle identically, but starts unobserved.
  /// Copying or moving a SinkList yields an empty list, so a sink observes
  /// the one system it was attached to and is never called by a copy that
  /// outlives its detach.
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
  i64 surviving_ = 0;                         ///< online banks, m'
  /// Banks the cursors index.  The first `lanes_` entries are the lane
  /// table every affine port walks: the banks in ascending order, which
  /// under remap_spare with 0 < m' < m are the m' survivors.  Each pattern
  /// port owns a later slice holding lane[pattern[k] mod lanes_].  Only
  /// add_stream() and a remap topology change (rebuild_surviving) write it.
  std::vector<i64> bank_table_;
  i64 lanes_ = 0;
};

}  // namespace vpmem::sim
