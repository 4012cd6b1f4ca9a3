// Conflict attribution: folds the simulator's event stream into
// per-(stream, bank, conflict-kind) lost-cycle matrices, stream-vs-stream
// blame counts, barrier-episode detection and a windowed b_eff(t) time
// series.  This is the "which stream loses which cycle to which conflict"
// instrumentation behind Theorems 3-7: every delayed clock period is
// charged to the bank it stalled on, the conflict kind of that period,
// and the stream that held the contended resource.
//
// The analyzer folds *online* — O(1) per event, with state O(ports x
// banks) independent of run length — so it can watch a run as a typed
// sim::EventSink next to a bounded trace buffer without ever dropping
// attribution precision, even when the buffer evicts old events.  It also
// folds the stall-run-length histogram that run reports carry in their
// `metrics` block.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "vpmem/obs/metrics.hpp"
#include "vpmem/sim/config.hpp"
#include "vpmem/sim/event.hpp"
#include "vpmem/util/json.hpp"

namespace vpmem::obs {

/// Current value of the "schema" member emitted by
/// ConflictAttribution::to_json().
inline constexpr const char* kAttributionSchema = "vpmem.attribution/1";

/// One detected barrier episode: a maximal run of delayed periods of one
/// stream in which consecutive stalls are separated by at most the bank
/// cycle time nc (one service period: merges the recurring stalls of a
/// barrier-situation, splits unrelated transients).  In a paper
/// barrier-situation (Fig. 3, Theorems 4/6/7) the delayed stream
/// re-enters the barrier every return, so the whole steady-state loss
/// pattern folds into a single episode whose onset is the first contended
/// period.
struct BarrierEpisode {
  std::size_t port = 0;        ///< the delayed stream
  i64 onset = 0;               ///< first delayed clock period
  i64 last = 0;                ///< last delayed clock period
  i64 lost_cycles = 0;         ///< delayed periods inside the episode
  std::vector<i64> banks;      ///< participating banks, ascending
  sim::ConflictTotals kinds;   ///< lost cycles by conflict kind

  /// Clock periods spanned (first to last delay, inclusive).
  [[nodiscard]] i64 length() const noexcept { return last - onset + 1; }
};

/// One sample of the windowed effective-bandwidth time series.
struct BandwidthSample {
  i64 start = 0;     ///< first clock period of the window
  i64 cycles = 0;    ///< periods covered (the final window may be partial)
  i64 grants = 0;    ///< grants inside the window
  [[nodiscard]] double b_eff() const noexcept {
    return cycles > 0 ? static_cast<double>(grants) / static_cast<double>(cycles) : 0.0;
  }
};

struct AttributionOptions {
  /// Width of the b_eff(t) window in clock periods.
  i64 window = 64;
};

/// Online event-stream analyzer.  Attach it to a run as a sink
/// (MemorySystem::add_event_sink) or replay a recorded buffer through
/// observe(), in emission order; then finalize(end_cycle) once the run's
/// observation window closes.
class ConflictAttribution final : public sim::EventSink {
 public:
  /// Safety cap on recorded episodes; further ones are counted but not
  /// stored (episodes_truncated() reports how many).
  static constexpr std::size_t kMaxEpisodes = 4096;

  explicit ConflictAttribution(const sim::MemoryConfig& config, AttributionOptions options = {});

  /// Fold one event.  Events must arrive in non-decreasing cycle order.
  /// Inline, with the rare steps (new port, new blocker, episode
  /// boundaries, a bank joining the open episode) out of line: this is
  /// the per-event cost of tracing.
  void observe(const sim::Event& e) {
    if (finalized_) reject_after_finalize();
    last_cycle_ = std::max(last_cycle_, e.cycle);
    if (e.type != sim::Event::Type::grant) {
      observe_conflict(e);
      return;
    }
    add_grants(e.cycle, 1);
  }

  /// Fold one clock period's events (all of one cycle, as the engine
  /// hands them to a sink).  Same result as observe() on each in order,
  /// but the grants are counted once for the period.
  void on_events(std::span<const sim::Event> events) override {
    if (finalized_) reject_after_finalize();
    if (events.empty()) return;
    const i64 cycle = events.front().cycle;
    last_cycle_ = std::max(last_cycle_, cycle);
    i64 grants = 0;
    for (const sim::Event& e : events) {
      if (e.type == sim::Event::Type::grant) {
        ++grants;
      } else {
        observe_conflict(e);
      }
    }
    if (grants > 0) add_grants(cycle, grants);
  }

  /// Close open episodes, stall runs and the final (possibly partial)
  /// b_eff window.  `end_cycle` is the exclusive end of the observed
  /// window.  Idempotent in the sense that no event may be folded
  /// afterwards.
  void finalize(i64 end_cycle);

  [[nodiscard]] std::size_t port_count() const noexcept { return ports_.size(); }

  /// Lost cycles of `port` at `bank` due to conflicts of kind `k`.
  [[nodiscard]] i64 lost_cycles(std::size_t port, i64 bank, sim::ConflictKind kind) const;
  /// Row sum over banks: must equal the stream's PortStats delay counter
  /// of the same kind (a cross-check invariant).
  [[nodiscard]] i64 lost_cycles(std::size_t port, sim::ConflictKind kind) const;
  /// All three row sums of one stream; equals the stream's PortStats
  /// {bank,simultaneous,section}_conflicts field-for-field.
  [[nodiscard]] sim::ConflictTotals totals(std::size_t port) const;
  /// Lost cycles of `port` charged to `blocker` (the stream that held the
  /// contended bank or path; the port itself for self conflicts).  Sums
  /// over blockers to totals(port).total().
  [[nodiscard]] i64 blocked_by(std::size_t port, std::size_t blocker) const;

  /// Detected episodes, in onset order (valid after finalize()).
  [[nodiscard]] const std::vector<BarrierEpisode>& episodes() const noexcept { return episodes_; }
  /// Episodes dropped by the kMaxEpisodes cap.
  [[nodiscard]] i64 episodes_truncated() const noexcept { return episodes_truncated_; }

  /// The b_eff(t) series (valid after finalize()).
  [[nodiscard]] const std::vector<BandwidthSample>& bandwidth_series() const noexcept {
    return series_;
  }

  /// Lengths of the stall runs (maximal runs of consecutive delayed
  /// periods of one stream), in clock periods.  A run counts when the
  /// stream's next delay comes after a gap, or at finalize() if it is
  /// the stream's last, so after finalize() the histogram's sum is the
  /// total of lost cycles.
  [[nodiscard]] const Histogram& stall_lengths() const noexcept { return stall_lengths_; }

  [[nodiscard]] i64 window() const noexcept { return options_.window; }
  [[nodiscard]] i64 end_cycle() const noexcept { return end_cycle_; }
  [[nodiscard]] i64 total_grants() const noexcept { return total_grants_; }

  /// The attribution summary block (schema vpmem.attribution/1): grand
  /// totals, per-port lost-cycle matrices (non-zero banks only),
  /// stream-vs-stream blame, episodes and the b_eff(t) series.
  [[nodiscard]] Json to_json() const;

 private:
  struct PortFold {
    /// banks * kConflictKinds lost-cycle cells, indexed
    /// bank * kConflictKinds + kind.  Per-kind and grand totals are row
    /// sums over this — the observe() hot path keeps exactly one counter
    /// per (bank, kind).
    std::vector<i64> by_bank_kind;
    std::vector<i64> by_blocker;  ///< grown to the highest blocker seen
    i64 stall = 0;                ///< open stall run, in periods
    // Open-episode state.
    bool episode_open = false;
    BarrierEpisode open;
    /// open.kinds folded kind-indexed (no switch on the hot path);
    /// close_episode() copies it into open.kinds.
    std::array<i64, sim::kConflictKinds> open_kinds{};
    /// Per-bank "already in the open episode" flags — keeps the banks list
    /// deduplicated in O(1) per conflict (sorted only on close).
    std::vector<std::uint8_t> bank_in_episode;
  };

  void add_grants(i64 cycle, i64 grants) {
    // Events arrive in (mostly) non-decreasing cycle order, so the
    // current window is cached and the division only runs when the cycle
    // leaves it.
    if (cycle >= window_end_ || cycle < window_end_ - options_.window) enter_window(cycle);
    window_grants_[cur_window_] += grants;
    total_grants_ += grants;
  }

  void end_stall(PortFold& fold) {
    if (fold.stall == 0) return;
    stall_lengths_.record(fold.stall);
    fold.stall = 0;
  }

  void observe_conflict(const sim::Event& e) {
    if (e.port >= ports_.size()) add_ports(e.port);
    PortFold& fold = ports_[e.port];
    // A live stream emits one event every period, so a gap since its last
    // delay (the open episode's last period) means it was granted in
    // between: the stall run ended there.  Folding runs here keeps the
    // grant path free of per-port work.
    if (!fold.episode_open || e.cycle != fold.open.last + 1) end_stall(fold);
    ++fold.stall;
    const auto bank = static_cast<std::size_t>(e.bank);
    const auto kind = static_cast<std::size_t>(e.conflict);
    // The (bank, kind) matrix is the only per-kind store on the hot path;
    // by-kind and grand totals are row sums computed at query time.
    ++fold.by_bank_kind[bank * sim::kConflictKinds + kind];
    if (e.blocker >= fold.by_blocker.size()) fold.by_blocker.resize(e.blocker + 1, 0);
    ++fold.by_blocker[e.blocker];
    // Episode tracking: merge stalls separated by at most nc periods.
    if (!fold.episode_open || e.cycle - fold.open.last > config_.bank_cycle) {
      open_episode(fold, e);
    }
    fold.open.last = e.cycle;
    ++fold.open.lost_cycles;
    ++fold.open_kinds[kind];  // indexed, not switched: the mix is unpredictable
    if (fold.bank_in_episode[bank] == 0) join_episode(fold, e.bank);
  }

  void add_ports(std::size_t port);
  [[noreturn]] static void reject_after_finalize();
  void enter_window(i64 cycle);
  /// Close the port's open episode, if any, and open one at `e`.
  void open_episode(PortFold& fold, const sim::Event& e);
  void join_episode(PortFold& fold, i64 bank);
  void close_episode(PortFold& fold);

  sim::MemoryConfig config_;
  AttributionOptions options_;
  std::vector<PortFold> ports_;
  std::vector<BarrierEpisode> episodes_;
  std::vector<BandwidthSample> series_;  ///< built by finalize()
  Histogram stall_lengths_;
  i64 episodes_truncated_ = 0;
  // b_eff(t) fold: grants per window, advanced as cycles pass.  The
  // cursor caches the window holding the last grant so the hot path
  // avoids a division per event.
  std::vector<i64> window_grants_;
  std::size_t cur_window_ = 0;
  i64 window_end_ = 0;  ///< exclusive end of the cached window
  i64 total_grants_ = 0;
  i64 last_cycle_ = -1;  ///< highest cycle observed
  i64 end_cycle_ = -1;   ///< set by finalize()
  bool finalized_ = false;
};

}  // namespace vpmem::obs
