// In-memory span recorder for the benchmark's traced run.
//
// A span is one call into a vpmem layer (or a stretch of the benchmark's
// own work), recorded from outside the library: name, host start/end,
// the span that caused it and the benchmark item it belongs to.  Spans
// stay in memory while the workload runs and are written out (Chrome
// trace-event JSON) when the benchmark ends.
//
// The layer of a span is its name up to the first '.': "sim", "xmp",
// "core", "exec", "obs", "util", "check" — or "bench" for the
// benchmark's own work (generation, validation, dispatch).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Host seconds since the first call in this process (steady_clock).
[[nodiscard]] double now_s();

struct Span {
  std::string name;
  double start = 0.0;       ///< host seconds (now_s)
  double end = 0.0;         ///< host seconds; == start while open
  std::int64_t parent = -1; ///< index of the causing span; -1 for a root
  std::int64_t item = -1;   ///< benchmark item id; -1 outside items
  int thread = 0;           ///< small per-thread number (trace export)
};

/// Layer of a span name: the text before the first '.'.
[[nodiscard]] std::string_view layer_of(std::string_view name);

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (children may run on
/// other threads and overlap each other).
[[nodiscard]] std::vector<double> self_times(const std::vector<Span>& spans);

/// Per-name totals over a set of spans, and the layer accounts.
struct SpanTotals {
  std::map<std::string, double> self_s;        ///< by span name
  std::map<std::string, double> duration_s;    ///< by span name
  std::map<std::string, std::int64_t> calls;   ///< by span name
  double layer_self_s = 0.0;  ///< self time of every non-"bench" span
  double bench_self_s = 0.0;  ///< self time of the benchmark's own spans

  /// Traced thread time: every span's self time, the benchmark's own
  /// included.  Equals the root spans' wall time plus the time worker
  /// threads spent inside spans.
  [[nodiscard]] double thread_s() const noexcept { return layer_self_s + bench_self_s; }
  /// 1 - (sum of layer self time) / (traced thread time).
  [[nodiscard]] double unattributed_frac() const noexcept {
    return thread_s() > 0.0 ? 1.0 - layer_self_s / thread_s() : 0.0;
  }
};

[[nodiscard]] SpanTotals totals(const std::vector<Span>& spans);

/// Thread-safe span store.  When disabled every call is a no-op, so the
/// untraced run pays one branch per boundary.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_{enabled} {}

  /// Open a span; returns its id (-1 when disabled).
  std::int64_t open(std::string_view name, std::int64_t parent, std::int64_t item);
  void close(std::int64_t id);

  /// Add to a named counter recorded at a layer boundary.
  void count(std::string_view name, double value);

  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] std::map<std::string, double> counters() const;

  /// Chrome trace-event JSON ("X" events, one track per thread).
  void write_chrome_trace(std::ostream& os) const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::string, double, std::less<>> counters_;
};

/// RAII span.  The parent is the innermost open span on this thread
/// unless given explicitly (work dispatched to another thread names the
/// span that dispatched it).
class Scope {
 public:
  static constexpr std::int64_t kInnermost = -2;

  Scope(SpanRecorder& recorder, std::string_view name, std::int64_t item = -1,
        std::int64_t parent = kInnermost);
  ~Scope();

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  Scope(Scope&&) = delete;
  Scope& operator=(Scope&&) = delete;

  [[nodiscard]] std::int64_t id() const noexcept { return id_; }

 private:
  SpanRecorder& recorder_;
  std::int64_t id_;
  std::int64_t saved_;
};

}  // namespace perfbench
