#include "vpmem/core/bandwidth.hpp"

#include <sstream>

#include "vpmem/analytic/stream.hpp"

namespace vpmem::core {

SingleStreamReport analyze_single(const sim::MemoryConfig& config, i64 distance) {
  SingleStreamReport r;
  r.m = config.banks;
  r.nc = config.bank_cycle;
  r.distance = distance;
  r.return_number = analytic::return_number(config.banks, distance);
  r.predicted = analytic::single_stream_bandwidth(config.banks, distance, config.bank_cycle);
  const sim::SteadyState ss = sim::find_steady_state(
      config, {sim::StreamConfig{.start_bank = 0, .distance = distance}});
  r.simulated = ss.bandwidth;
  return r;
}

PairReport analyze_pair(const sim::MemoryConfig& config, i64 d1, i64 d2, bool same_cpu) {
  PairReport r;
  r.m = config.banks;
  r.nc = config.bank_cycle;
  r.d1 = d1;
  r.d2 = d2;
  r.prediction = analytic::classify_pair(config.banks, config.bank_cycle, d1, d2,
                                         config.priority == sim::PriorityRule::fixed);
  r.sweep = sim::sweep_start_offsets(config, d1, d2, same_cpu);
  return r;
}

std::string PairReport::summary() const {
  std::ostringstream out;
  out << "m=" << m << " nc=" << nc << " d1=" << d1 << " d2=" << d2 << ": "
      << analytic::to_string(prediction.cls);
  if (prediction.bandwidth) out << " (predicted b_eff " << prediction.bandwidth->str() << ")";
  out << ", simulated b_eff in [" << sweep.min_bandwidth.str() << ", "
      << sweep.max_bandwidth.str() << "]";
  return out.str();
}

}  // namespace vpmem::core
