#include "vpmem/core/layout.hpp"

#include "vpmem/core/group.hpp"
#include "vpmem/util/error.hpp"

namespace vpmem::core {

SpacingReport sweep_array_spacing(const sim::MemoryConfig& config, i64 distance, i64 arrays,
                                  bool same_cpu) {
  config.validate();
  if (arrays < 1) {
    throw Error{ErrorCode::config_invalid, "sweep_array_spacing: arrays must be >= 1"};
  }
  SpacingReport report;
  report.by_spacing.reserve(static_cast<std::size_t>(config.banks));
  for (i64 spacing = 0; spacing < config.banks; ++spacing) {
    const GroupReport group = analyze_group(
        config, uniform_streams(arrays, distance, spacing, config.banks, same_cpu));
    report.by_spacing.push_back(SpacingChoice{spacing, group.bandwidth});
    if (spacing == 0 || group.bandwidth > report.best_bandwidth) {
      report.best_spacing = spacing;
      report.best_bandwidth = group.bandwidth;
    }
    if (spacing == 0 || group.bandwidth < report.worst_bandwidth) {
      report.worst_spacing = spacing;
      report.worst_bandwidth = group.bandwidth;
    }
  }
  return report;
}

i64 recommend_idim(const sim::MemoryConfig& config, i64 distance, i64 arrays, i64 min_elements,
                   bool same_cpu) {
  if (min_elements < 1) {
    throw Error{ErrorCode::config_invalid, "recommend_idim: min_elements must be >= 1"};
  }
  const SpacingReport report = sweep_array_spacing(config, distance, arrays, same_cpu);
  const i64 m = config.banks;
  // Smallest idim >= min_elements with idim mod m == best_spacing.
  const i64 rem = mod_norm(min_elements, m);
  return min_elements + mod_norm(report.best_spacing - rem, m);
}

}  // namespace vpmem::core
