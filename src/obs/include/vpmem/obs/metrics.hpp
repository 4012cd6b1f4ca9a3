// Metric primitives and a named registry — the in-memory representation
// behind every structured report.
//
// All metric types are plain single-threaded accumulators (the simulator
// itself is single-threaded per instance); cross-thread aggregation for
// parallel sweeps lives in vpmem::obs::SweepTelemetry (timer.hpp).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "vpmem/util/json.hpp"
#include "vpmem/util/numeric.hpp"

namespace vpmem::obs {

/// Monotonically increasing integer metric (grant counts, conflicts).
class Counter {
 public:
  void inc(i64 by = 1) noexcept { value_ += by; }
  [[nodiscard]] i64 value() const noexcept { return value_; }
  [[nodiscard]] Json to_json() const { return Json{value_}; }

 private:
  i64 value_ = 0;
};

/// Last-value metric (bank utilization, hottest bank).
class Gauge {
 public:
  void set(double value) noexcept { value_ = value; }
  [[nodiscard]] double value() const noexcept { return value_; }
  [[nodiscard]] Json to_json() const { return Json{value_}; }

 private:
  double value_ = 0.0;
};

/// Power-of-two-bucketed histogram over non-negative integer samples
/// (stall lengths, per-bank grant counts).  Bucket 0 holds the value 0;
/// bucket b >= 1 holds values in [2^(b-1), 2^b - 1], so short stalls keep
/// single-cycle resolution while pathological ones stay bounded: 64
/// buckets cover the whole i64 range.
class Histogram {
 public:
  /// Record one sample; negative values clamp to 0.
  void record(i64 value);

  [[nodiscard]] i64 count() const noexcept { return count_; }
  [[nodiscard]] i64 sum() const noexcept { return sum_; }
  /// Extremes of the recorded samples (0 when empty).
  [[nodiscard]] i64 min() const noexcept { return count_ == 0 ? 0 : min_; }
  [[nodiscard]] i64 max() const noexcept { return count_ == 0 ? 0 : max_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  /// Bucket index a sample falls into.
  [[nodiscard]] static std::size_t bucket_of(i64 value) noexcept;
  /// Smallest / largest value belonging to bucket `b`.
  [[nodiscard]] static i64 bucket_floor(std::size_t b) noexcept;
  [[nodiscard]] static i64 bucket_ceil(std::size_t b) noexcept;

  /// Per-bucket sample counts, trimmed after the last non-empty bucket.
  [[nodiscard]] const std::vector<i64>& buckets() const noexcept { return buckets_; }

  /// Smallest value v such that at least `q` (in [0, 1]) of the samples
  /// are <= v, resolved to bucket upper bounds (0 when empty).
  [[nodiscard]] i64 quantile_ceil(double q) const;

  /// Fold `other`'s samples into this histogram (bucket-wise; min/max/
  /// sum/count combine exactly).  The basis of per-worker wall-time
  /// aggregation in parallel campaigns.
  void merge(const Histogram& other);

  /// {"count":N,"sum":S,"min":..,"max":..,"mean":..,
  ///  "buckets":[{"le":ceil,"count":n}, ...]} — empty buckets omitted.
  [[nodiscard]] Json to_json() const;

 private:
  std::vector<i64> buckets_;
  i64 count_ = 0;
  i64 sum_ = 0;
  i64 min_ = 0;
  i64 max_ = 0;
};

/// Insertion-ordered collection of named metrics.  Names are free-form;
/// the convention is dotted paths such as "conflicts.bank" or
/// "port.0.grants".  Re-requesting a name returns the
/// existing metric; requesting an existing name as a different kind
/// throws std::invalid_argument.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  [[nodiscard]] bool contains(std::string_view name) const noexcept;
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  /// Fold `other` into this registry: counters add, gauges take the
  /// other's last value, histograms merge sample-exactly.  Used to
  /// aggregate per-worker partial results after a parallel campaign —
  /// workers each own a private registry (no locking on the hot path)
  /// and the executor merges once at the end.  Throws
  /// std::invalid_argument if a shared name has a different metric kind.
  void merge(const MetricsRegistry& other);

  /// One object member per metric, in registration order.
  [[nodiscard]] Json to_json() const;

 private:
  using Metric = std::variant<Counter, Gauge, Histogram>;
  template <typename T>
  T& get_or_create(std::string_view name);

  // unique_ptr gives metric references stability across registrations.
  std::vector<std::pair<std::string, std::unique_ptr<Metric>>> entries_;
};

}  // namespace vpmem::obs
