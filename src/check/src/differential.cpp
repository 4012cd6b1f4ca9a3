#include "vpmem/check/differential.hpp"

#include <sstream>

#include "vpmem/sim/memory_system.hpp"

namespace vpmem::check {

namespace {

std::string describe(const sim::Event& e) {
  std::ostringstream os;
  os << (e.type == sim::Event::Type::grant ? "grant" : "conflict") << " cycle=" << e.cycle
     << " port=" << e.port << " bank=" << e.bank << " element=" << e.element;
  if (e.type == sim::Event::Type::conflict) {
    os << " kind=" << sim::to_string(e.conflict) << " blocker=" << e.blocker;
  }
  return os.str();
}

bool same_event(const sim::Event& a, const sim::Event& b) {
  if (a.type != b.type || a.cycle != b.cycle || a.port != b.port || a.bank != b.bank ||
      a.element != b.element) {
    return false;
  }
  // Classification and blocker only carry meaning for conflicts.
  return a.type == sim::Event::Type::grant ||
         (a.conflict == b.conflict && a.blocker == b.blocker);
}

std::string describe_stats(const sim::PortStats& s) {
  std::ostringstream os;
  os << "grants=" << s.grants << " bank=" << s.bank_conflicts
     << " simultaneous=" << s.simultaneous_conflicts << " section=" << s.section_conflicts
     << " fault=" << s.fault_conflicts << " first=" << s.first_grant_cycle
     << " last=" << s.last_grant_cycle << " longest_stall=" << s.longest_stall;
  return os.str();
}

bool same_stats(const sim::PortStats& a, const sim::PortStats& b) {
  return a.grants == b.grants && a.bank_conflicts == b.bank_conflicts &&
         a.simultaneous_conflicts == b.simultaneous_conflicts &&
         a.section_conflicts == b.section_conflicts &&
         a.fault_conflicts == b.fault_conflicts &&
         a.first_grant_cycle == b.first_grant_cycle &&
         a.last_grant_cycle == b.last_grant_cycle && a.longest_stall == b.longest_stall;
}

}  // namespace

DiffResult diff_run(const sim::MemoryConfig& config,
                    const std::vector<sim::StreamConfig>& streams, i64 cycles,
                    FaultKind fault) {
  return diff_run(config, streams, cycles, sim::FaultPlan{}, fault);
}

DiffResult diff_run(const sim::MemoryConfig& config,
                    const std::vector<sim::StreamConfig>& streams, i64 cycles,
                    const sim::FaultPlan& plan, FaultKind fault) {
  DiffResult out;

  sim::MemorySystem mem{config, streams, plan};
  sim::EventLog log;
  mem.add_event_sink(log);
  mem.run(cycles, /*stop_when_finished=*/false);
  mem.remove_event_sink(log);
  const std::vector<sim::Event>& sim_events = log.events;

  ReferenceModel ref{config, streams, fault, plan};
  ref.run(cycles);

  const std::vector<sim::Event>& ref_events = ref.events();
  const std::size_t n = std::min(sim_events.size(), ref_events.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!same_event(sim_events[i], ref_events[i])) {
      out.agreed = false;
      out.message = "event " + std::to_string(i) + " diverges: sim {" +
                    describe(sim_events[i]) + "} vs reference {" + describe(ref_events[i]) +
                    "}";
      out.events_compared = static_cast<i64>(i);
      return out;
    }
  }
  if (sim_events.size() != ref_events.size()) {
    out.agreed = false;
    const bool sim_longer = sim_events.size() > ref_events.size();
    const sim::Event& extra = sim_longer ? sim_events[n] : ref_events[n];
    out.message = std::string{sim_longer ? "simulator" : "reference"} +
                  " produced extra event " + std::to_string(n) + ": {" + describe(extra) + "}";
    out.events_compared = static_cast<i64>(n);
    return out;
  }
  out.events_compared = static_cast<i64>(n);

  const std::vector<sim::PortStats> sim_stats = mem.all_stats();
  const std::vector<sim::PortStats> ref_stats = ref.stats();
  for (std::size_t p = 0; p < sim_stats.size(); ++p) {
    out.grants += sim_stats[p].grants;
    if (!same_stats(sim_stats[p], ref_stats[p])) {
      out.agreed = false;
      out.message = "port " + std::to_string(p) + " stats diverge: sim {" +
                    describe_stats(sim_stats[p]) + "} vs reference {" +
                    describe_stats(ref_stats[p]) + "}";
      return out;
    }
  }

  // The per-bank grant counters against the simulator's own event log
  // (the reference model keeps no bank counters).
  std::vector<i64> bank_grants(static_cast<std::size_t>(config.banks), 0);
  for (const sim::Event& e : sim_events) {
    if (e.type == sim::Event::Type::grant) ++bank_grants[static_cast<std::size_t>(e.bank)];
  }
  for (i64 bank = 0; bank < config.banks; ++bank) {
    const i64 logged = bank_grants[static_cast<std::size_t>(bank)];
    if (logged != mem.bank_grants(bank)) {
      out.agreed = false;
      out.message = "bank " + std::to_string(bank) + " grants: simulator counter " +
                    std::to_string(mem.bank_grants(bank)) + " vs event log " +
                    std::to_string(logged);
      return out;
    }
  }
  return out;
}

}  // namespace vpmem::check
