// The power-of-two histogram behind the distributions in structured
// reports (stall lengths in the conflict attribution, job wall times in
// a campaign summary).
//
// A Histogram is a plain single-threaded accumulator; parallel callers
// keep one per worker and merge() once at the end.
#pragma once

#include <cstddef>
#include <vector>

#include "vpmem/util/json.hpp"
#include "vpmem/util/numeric.hpp"

namespace vpmem::obs {

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

}  // namespace vpmem::obs
