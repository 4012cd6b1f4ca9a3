#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace perfbench {

double percentile(std::vector<double> samples, double q, std::size_t min_beyond) {
  if (!(q > 0.0 && q < 1.0)) throw std::invalid_argument{"percentile: q must be in (0, 1)"};
  const std::size_t n = samples.size();
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  if (n == 0 || n - rank < min_beyond) {
    throw std::invalid_argument{"percentile: " + std::to_string(n) + " samples leave " +
                                std::to_string(n == 0 ? 0 : n - rank) + " beyond q=" +
                                std::to_string(q) + ", need " + std::to_string(min_beyond)};
  }
  const auto kth = samples.begin() + static_cast<std::ptrdiff_t>(std::max<std::size_t>(rank, 1) - 1);
  std::nth_element(samples.begin(), kth, samples.end());
  return *kth;
}

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument{"median: no samples"};
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

}  // namespace perfbench
