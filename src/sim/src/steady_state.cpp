#include "vpmem/sim/steady_state.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>

#include "vpmem/sim/memory_system.hpp"

namespace vpmem::sim {

namespace {

PortStats delta(const PortStats& later, const PortStats& earlier) {
  PortStats d;
  d.grants = later.grants - earlier.grants;
  d.bank_conflicts = later.bank_conflicts - earlier.bank_conflicts;
  d.simultaneous_conflicts = later.simultaneous_conflicts - earlier.simultaneous_conflicts;
  d.section_conflicts = later.section_conflicts - earlier.section_conflicts;
  d.fault_conflicts = later.fault_conflicts - earlier.fault_conflicts;
  d.first_grant_cycle = earlier.last_grant_cycle;
  d.last_grant_cycle = later.last_grant_cycle;
  return d;
}

[[noreturn]] void no_cycle() {
  throw std::runtime_error{"find_steady_state: no cyclic state within max_cycles"};
}

}  // namespace

SteadyState find_steady_state(const MemoryConfig& config,
                              const std::vector<StreamConfig>& streams, i64 max_cycles) {
  for (const auto& s : streams) {
    if (s.length != kInfiniteLength) {
      throw std::invalid_argument{"find_steady_state: all streams must be infinite"};
    }
  }
  const auto wall_start = std::chrono::steady_clock::now();
  // Brent's cycle detection (R. P. Brent, BIT 20, 1980) over three
  // systems reused by copy-assignment: the initial state and two cursors.
  const MemorySystem start{config, streams};
  MemorySystem tortoise = start;
  MemorySystem hare = start;

  // Phase 1: the period lambda.  The tortoise waits at t = 2^k - 1 while
  // the hare walks up to 2^k periods past it, so a repeat with
  // mu + lambda <= max_cycles is seen before the hare passes
  // 3 * (mu + lambda) periods; hare_cap stops the search well beyond that.
  const i64 hare_cap =
      4 * (std::clamp<i64>(max_cycles, 0, std::numeric_limits<i64>::max() / 4 - 1) + 1);
  hare.step();
  i64 power = 1;
  i64 period = 1;
  while (!tortoise.same_state(hare)) {
    if (hare.now() >= hare_cap) no_cycle();
    if (power == period) {
      tortoise = hare;
      power *= 2;
      period = 0;
    }
    hare.step();
    ++period;
  }

  // Phase 2: the transient mu, the first state that recurs lambda periods
  // later.  The stats snapshots are then taken at mu and mu + lambda.
  tortoise = start;
  hare = start;
  for (i64 t = 0; t < period; ++t) hare.step();
  while (!tortoise.same_state(hare)) {
    tortoise.step();
    hare.step();
  }
  if (hare.now() > max_cycles) no_cycle();

  SteadyState out;
  out.transient_cycles = tortoise.now();
  out.period = period;
  const std::size_t ports = hare.port_count();
  out.grants_in_period.reserve(ports);
  i64 total_grants = 0;
  for (std::size_t i = 0; i < ports; ++i) {
    const PortStats d = delta(hare.port_stats(i), tortoise.port_stats(i));
    out.grants_in_period.push_back(d.grants);
    total_grants += d.grants;
    out.per_port.push_back(Rational{d.grants, out.period});
    out.conflicts_in_period.bank += d.bank_conflicts;
    out.conflicts_in_period.simultaneous += d.simultaneous_conflicts;
    out.conflicts_in_period.section += d.section_conflicts;
    out.conflicts_in_period.fault += d.fault_conflicts;
    out.per_port_delta.push_back(d);
  }
  out.bandwidth = Rational{total_grants, out.period};
  out.cycles_simulated = hare.now();
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  return out;
}

OffsetSweep sweep_start_offsets(const MemoryConfig& config, i64 d1, i64 d2, bool same_cpu,
                                i64 max_cycles) {
  OffsetSweep sweep;
  sweep.by_offset.reserve(static_cast<std::size_t>(config.banks));
  for (i64 b2 = 0; b2 < config.banks; ++b2) {
    const SteadyState ss =
        find_steady_state(config, two_streams(0, d1, b2, d2, same_cpu), max_cycles);
    sweep.cycles_simulated += ss.cycles_simulated;
    sweep.wall_seconds += ss.wall_seconds;
    sweep.by_offset.push_back(ss.bandwidth);
    if (b2 == 0) {
      sweep.min_bandwidth = ss.bandwidth;
      sweep.max_bandwidth = ss.bandwidth;
    } else {
      sweep.min_bandwidth = std::min(sweep.min_bandwidth, ss.bandwidth);
      sweep.max_bandwidth = std::max(sweep.max_bandwidth, ss.bandwidth);
    }
  }
  return sweep;
}

}  // namespace vpmem::sim
