// Order statistics for the benchmark's latency and set-up samples.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Samples a percentile must have beyond it before it is reported.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank q-quantile (0 < q < 1): the ceil(q*n)-th smallest sample.
/// Throws std::invalid_argument when fewer than `min_beyond` samples lie
/// beyond it (n - ceil(q*n) < min_beyond), so a tail figure is never
/// quoted from a handful of points.
[[nodiscard]] double percentile(std::vector<double> samples, double q,
                                std::size_t min_beyond = kMinBeyond);

/// Median (mean of the two middle samples for even n); throws
/// std::invalid_argument on an empty vector.
[[nodiscard]] double median(std::vector<double> samples);

}  // namespace perfbench
