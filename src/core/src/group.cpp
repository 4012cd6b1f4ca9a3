#include "vpmem/core/group.hpp"

#include <algorithm>

#include "vpmem/sim/steady_state.hpp"
#include "vpmem/util/error.hpp"

namespace vpmem::core {

double GroupReport::utilization(i64 m, i64 nc) const {
  if (m < 1 || nc < 1) throw Error{ErrorCode::config_invalid, "utilization: m, nc must be >= 1"};
  const double bound = std::min(static_cast<double>(per_port.size()),
                                static_cast<double>(m) / static_cast<double>(nc));
  return bound == 0.0 ? 0.0 : bandwidth.to_double() / bound;
}

GroupReport analyze_group(const sim::MemoryConfig& config,
                          const std::vector<sim::StreamConfig>& streams) {
  const sim::SteadyState ss = sim::find_steady_state(config, streams);
  GroupReport out;
  out.bandwidth = ss.bandwidth;
  out.per_port = ss.per_port;
  out.conflicts_in_period = ss.conflicts_in_period;
  out.period = ss.period;
  out.transient_cycles = ss.transient_cycles;
  return out;
}

std::vector<sim::StreamConfig> uniform_streams(i64 ports, i64 distance, i64 stagger, i64 m,
                                               bool same_cpu) {
  if (ports < 1) throw Error{ErrorCode::config_invalid, "uniform_streams: ports must be >= 1"};
  if (m < 1) throw Error{ErrorCode::config_invalid, "uniform_streams: m must be >= 1"};
  std::vector<sim::StreamConfig> streams;
  streams.reserve(static_cast<std::size_t>(ports));
  for (i64 p = 0; p < ports; ++p) {
    sim::StreamConfig s;
    s.start_bank = mod_norm(p * stagger, m);
    s.distance = distance;
    s.cpu = same_cpu ? 0 : p;
    streams.push_back(s);
  }
  return streams;
}

}  // namespace vpmem::core
