// Conflict attribution: folds the simulator's event stream into
// per-(stream, bank, conflict-kind) lost-cycle matrices, stream-vs-stream
// blame counts, barrier-episode detection and a windowed b_eff(t) time
// series.  This is the "which stream loses which cycle to which conflict"
// instrumentation behind Theorems 3-7: every delayed clock period is
// charged to the bank it stalled on, the conflict kind of that period,
// and the stream that held the contended resource.
//
// The analyzer folds *online* — observe() is O(1) per event and the state
// is O(ports x banks), independent of run length — so it can ride the
// event-hook multiplexer next to a bounded trace buffer without ever
// dropping attribution precision, even when the buffer evicts old events.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "vpmem/sim/config.hpp"
#include "vpmem/sim/event.hpp"
#include "vpmem/util/json.hpp"

namespace vpmem::obs {

/// Current value of the "schema" member emitted by
/// ConflictAttribution::to_json().
inline constexpr const char* kAttributionSchema = "vpmem.attribution/1";

/// One detected barrier episode: a maximal run of delayed periods of one
/// stream in which consecutive stalls are separated by at most the merge
/// gap.  In a paper barrier-situation (Fig. 3, Theorems 4/6/7) the
/// delayed stream re-enters the barrier every return, so the whole
/// steady-state loss pattern folds into a single episode whose onset is
/// the first contended period.
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
  /// Two stalls of one stream separated by more than this many periods
  /// start a new episode; <= 0 means the bank cycle time nc (one service
  /// period — merges the recurring stalls of a barrier-situation, splits
  /// unrelated transients).
  i64 episode_gap = 0;
  /// Safety cap on recorded episodes; further ones are counted but not
  /// stored (episodes_truncated() reports how many).
  std::size_t max_episodes = 4096;
};

/// Online event-stream analyzer.  Feed events in emission order (attach
/// via MemorySystem::add_event_hook or replay a recorded buffer), then
/// finalize(end_cycle) once the run's observation window closes.
class ConflictAttribution {
 public:
  explicit ConflictAttribution(const sim::MemoryConfig& config, AttributionOptions options = {});

  /// Fold one event.  Events must arrive in non-decreasing cycle order.
  /// The grant path is inline: it is the per-event cost of tracing.
  void observe(const sim::Event& e) {
    if (finalized_) reject_after_finalize();
    last_cycle_ = std::max(last_cycle_, e.cycle);
    if (e.type != sim::Event::Type::grant) {
      observe_conflict(e);
      return;
    }
    // Events arrive in (mostly) non-decreasing cycle order, so the
    // current window is cached and the division only runs when the cycle
    // leaves it.
    if (e.cycle >= window_end_ || e.cycle < window_end_ - options_.window) enter_window(e.cycle);
    ++window_grants_[cur_window_];
    ++total_grants_;
  }

  /// Close open episodes and the final (possibly partial) b_eff window.
  /// `end_cycle` is the exclusive end of the observed window.  Idempotent
  /// in the sense that observe() must not be called afterwards.
  void finalize(i64 end_cycle);

  [[nodiscard]] std::size_t port_count() const noexcept { return ports_.size(); }

  /// Lost cycles of `port` at `bank` due to conflicts of kind `k`.
  [[nodiscard]] i64 lost_cycles(std::size_t port, i64 bank, sim::ConflictKind kind) const;
  /// Row sum over banks: must equal the stream's PortStats delay counter
  /// of the same kind (the Collector-style cross-check invariant).
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
  /// Episodes dropped by the max_episodes cap.
  [[nodiscard]] i64 episodes_truncated() const noexcept { return episodes_truncated_; }

  /// The b_eff(t) series (valid after finalize()).
  [[nodiscard]] const std::vector<BandwidthSample>& bandwidth_series() const noexcept {
    return series_;
  }

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

  PortFold& fold_for(std::size_t port);
  [[noreturn]] static void reject_after_finalize();
  void enter_window(i64 cycle);
  void observe_conflict(const sim::Event& e);
  void close_episode(PortFold& fold);

  sim::MemoryConfig config_;
  AttributionOptions options_;
  i64 gap_;
  std::vector<PortFold> ports_;
  std::vector<BarrierEpisode> episodes_;
  std::vector<BandwidthSample> series_;  ///< built by finalize()
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
