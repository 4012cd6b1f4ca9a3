#include "vpmem/obs/metrics.hpp"

#include <algorithm>
#include <bit>

namespace vpmem::obs {

void Histogram::record(i64 value) {
  if (value < 0) value = 0;
  const std::size_t b = bucket_of(value);
  if (b >= buckets_.size()) buckets_.resize(b + 1, 0);
  ++buckets_[b];
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

std::size_t Histogram::bucket_of(i64 value) noexcept {
  if (value <= 0) return 0;
  return static_cast<std::size_t>(std::bit_width(static_cast<std::uint64_t>(value)));
}

i64 Histogram::bucket_floor(std::size_t b) noexcept {
  return b == 0 ? 0 : static_cast<i64>(std::uint64_t{1} << (b - 1));
}

i64 Histogram::bucket_ceil(std::size_t b) noexcept {
  return b == 0 ? 0 : static_cast<i64>((std::uint64_t{1} << b) - 1);
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (other.buckets_.size() > buckets_.size()) buckets_.resize(other.buckets_.size(), 0);
  for (std::size_t b = 0; b < other.buckets_.size(); ++b) buckets_[b] += other.buckets_[b];
  min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
  max_ = count_ == 0 ? other.max_ : std::max(max_, other.max_);
  count_ += other.count_;
  sum_ += other.sum_;
}

Json Histogram::to_json() const {
  Json out = Json::object();
  out["count"] = count_;
  out["sum"] = sum_;
  out["min"] = min();
  out["max"] = max();
  out["mean"] = mean();
  Json buckets = Json::array();
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    if (buckets_[b] == 0) continue;
    Json entry = Json::object();
    entry["le"] = bucket_ceil(b);
    entry["count"] = buckets_[b];
    buckets.push_back(std::move(entry));
  }
  out["buckets"] = std::move(buckets);
  return out;
}

}  // namespace vpmem::obs
