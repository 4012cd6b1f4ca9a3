#include "vpmem/sim/run.hpp"

#include <algorithm>

#include "vpmem/sim/memory_system.hpp"
#include "vpmem/util/error.hpp"

namespace vpmem::sim {

namespace {

i64 total_grants(const MemorySystem& mem) {
  i64 g = 0;
  for (std::size_t i = 0; i < mem.port_count(); ++i) g += mem.port_stats(i).grants;
  return g;
}

void fill_counters(RunResult& out, const MemorySystem& mem) {
  out.ports = mem.all_stats();
  out.conflicts = totals(out.ports);
}

}  // namespace

RunResult run_to_completion(const MemoryConfig& config, const std::vector<StreamConfig>& streams,
                            i64 max_cycles) {
  for (const auto& s : streams) {
    if (s.length == kInfiniteLength) {
      throw Error{ErrorCode::config_invalid, "run_to_completion: all streams must be finite"};
    }
  }
  MemorySystem mem{config, streams};
  mem.run(max_cycles, /*stop_when_finished=*/true);
  if (!mem.finished()) {
    throw Error{ErrorCode::deadline_exceeded,
                "run_to_completion: workload did not finish within max_cycles"};
  }
  RunResult out;
  fill_counters(out, mem);
  for (const auto& p : out.ports) {
    out.cycles = std::max(out.cycles, p.last_grant_cycle + 1);
  }
  return out;
}

double measure_bandwidth(const MemoryConfig& config, const std::vector<StreamConfig>& streams,
                         i64 warmup, i64 window) {
  if (warmup < 0 || window <= 0) {
    throw Error{ErrorCode::config_invalid,
                "measure_bandwidth: warmup >= 0 and window > 0 required"};
  }
  MemorySystem mem{config, streams};
  mem.run(warmup, /*stop_when_finished=*/false);
  const i64 before = total_grants(mem);
  mem.run(window, /*stop_when_finished=*/false);
  const i64 after = total_grants(mem);
  return static_cast<double>(after - before) / static_cast<double>(window);
}

std::string to_string(RunStatus status) {
  switch (status) {
    case RunStatus::completed: return "completed";
    case RunStatus::deadline_exceeded: return "deadline_exceeded";
    case RunStatus::livelock: return "livelock";
    case RunStatus::interrupted: return "interrupted";
  }
  return "?";
}

GuardedRun run_guarded_on(MemorySystem& mem, const Watchdog& watchdog, i64 horizon) {
  const i64 window = watchdog.livelock_window(mem.config());
  const i64 begun = mem.now();
  i64 latest_start = 0;
  for (std::size_t i = 0; i < mem.port_count(); ++i) {
    latest_start = std::max(latest_start, mem.stream(i).start_cycle);
  }
  GuardedRun out;
  i64 grants = total_grants(mem);
  while ((horizon < 0 || mem.now() < horizon) && !mem.finished()) {
    if (mem.now() >= watchdog.max_cycles) {
      out.status = RunStatus::deadline_exceeded;
      out.detail = "cycle budget of " + std::to_string(watchdog.max_cycles) +
                   " exhausted before completion";
      break;
    }
    if (mem.now() % Watchdog::kCancelPollCycles == 0 && watchdog.cancelled()) {
      out.status = RunStatus::interrupted;
      out.detail = "cancelled by caller at cycle " + std::to_string(mem.now());
      break;
    }
    mem.step();
    const i64 g = total_grants(mem);
    if (g > grants) {
      grants = g;
      out.last_grant_cycle = mem.now() - 1;
    } else if (window > 0 &&
               mem.now() - std::max({out.last_grant_cycle, latest_start, begun}) > window) {
      out.status = RunStatus::livelock;
      out.detail = "no grant in the last " + std::to_string(window) +
                   " cycles (last grant at cycle " + std::to_string(out.last_grant_cycle) + ")";
      break;
    }
  }
  fill_counters(out.result, mem);
  if (out.status == RunStatus::completed && horizon < 0) {
    for (const auto& p : out.result.ports) {
      out.result.cycles = std::max(out.result.cycles, p.last_grant_cycle + 1);
    }
  } else {
    out.result.cycles = mem.now() - begun;
  }
  return out;
}

GuardedRun run_guarded(const MemoryConfig& config, const std::vector<StreamConfig>& streams,
                       const FaultPlan& plan, const Watchdog& watchdog) {
  for (const auto& s : streams) {
    if (s.length == kInfiniteLength) {
      throw Error{ErrorCode::config_invalid, "run_guarded: all streams must be finite"};
    }
  }
  MemorySystem mem{config, streams, plan};
  return run_guarded_on(mem, watchdog);
}

}  // namespace vpmem::sim
