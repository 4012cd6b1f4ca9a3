#include "measure.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <string>

#include "stats.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kMaxReportedErrors = 5;

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

template <typename Map>
double get(const Map& map, const std::string& key) {
  const auto it = map.find(key);
  return it == map.end() ? 0.0 : static_cast<double>(it->second);
}

RoundResult checked_round(Workload& workload, SpanRecorder& spans,
                          const std::vector<std::string>* golden) {
  RoundResult round = workload.round(spans);
  if (golden != nullptr) apply_golden(*golden, round);
  return round;
}

}  // namespace

void Tally::add(const RoundResult& round) {
  attempted += round.attempted();
  failed += round.failed();
  for (std::size_t i = 0; i < round.errors.size() && first_errors.size() < kMaxReportedErrors;
       ++i) {
    if (!round.errors[i].empty()) {
      first_errors.push_back("item " + std::to_string(i) + ": " + round.errors[i] + " in " +
                             round.records[i].dump());
    }
  }
}

Measurement measure(Workload& workload, double seconds, int setups_per_round,
                    const std::vector<std::string>* golden) {
  SpanRecorder off{false};
  Measurement m;
  const double deadline = now_s() + seconds;
  double pass_s = 0.0;
  do {
    const double pass_start = now_s();
    // Set-ups spread over the run, so their median does not hang on the
    // machine's state in one instant; the round uses the last one.
    for (int k = 0; k < setups_per_round; ++k) {
      const double t0 = now_s();
      workload.setup(off);
      m.setup_s.push_back(now_s() - t0);
    }
    const RoundResult round = checked_round(workload, off, golden);
    RoundTiming timing{static_cast<double>(round.attempted() - round.failed()), round.timed_s};
    for (const double ms : round.latency_ms) timing.latency_ms += ms;
    m.rounds.push_back(timing);
    if (m.best_ms.empty()) {
      m.best_ms = round.latency_ms;
    } else if (m.best_ms.size() == round.latency_ms.size()) {
      for (std::size_t i = 0; i < m.best_ms.size(); ++i) {
        m.best_ms[i] = std::min(m.best_ms[i], round.latency_ms[i]);
      }
    } else {
      throw std::logic_error{"measure: rounds timed different numbers of items"};
    }
    m.samples += static_cast<std::int64_t>(round.latency_ms.size());
    m.timed_s += round.timed_s;
    m.tally.add(round);
    pass_s = now_s() - pass_start;
  } while (now_s() + pass_s < deadline);
  return m;
}

double items_per_s(const Measurement& m) {
  double fastest_ms = 0.0;
  for (const double ms : m.best_ms) fastest_ms += ms;
  std::vector<double> per_round;
  for (const RoundTiming& r : m.rounds) {
    const double at_fastest_s =
        r.latency_ms > 0.0 ? r.timed_s * fastest_ms / r.latency_ms : r.timed_s;
    per_round.push_back(ratio(r.valid, at_fastest_s));
  }
  return median(per_round);
}

std::vector<Metric> end_to_end_metrics(const Measurement& m) {
  return {
      {"items_per_s", items_per_s(m), "items/s"},
      {"item_ms_p50", percentile(m.best_ms, 0.50), "ms"},
      {"item_ms_p99", percentile(m.best_ms, 0.99), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"setup_s", median(m.setup_s), "s"},
  };
}

TracedMeasurement measure_traced(Workload& workload, double seconds,
                                 const std::vector<std::string>* golden,
                                 SpanRecorder& recorder) {
  SpanRecorder off{false};
  TracedMeasurement m;
  const double deadline = now_s() + seconds;
  double pair_s = 0.0;
  do {
    const double pair_start = now_s();
    double t0 = pair_start;
    workload.setup(off);
    m.tally.add(checked_round(workload, off, golden));
    m.untraced_s += now_s() - t0;

    t0 = now_s();
    {
      const Scope pass{recorder, "bench.pass"};
      {
        const Scope setup{recorder, "bench.setup"};
        workload.setup(recorder);
      }
      const Scope round{recorder, "bench.round"};
      m.tally.add(checked_round(workload, recorder, golden));
    }
    m.traced_s += now_s() - t0;
    ++m.passes;
    pair_s = now_s() - pair_start;
  } while (now_s() + pair_s < deadline);
  m.totals = totals(recorder.spans());
  m.counters = recorder.counters();
  return m;
}

std::vector<Metric> layer_metrics(const TracedMeasurement& m) {
  const auto passes = static_cast<double>(m.passes);
  const auto self = [&](const std::string& span) { return get(m.totals.self_s, span) / passes; };
  const auto calls = [&](const std::string& span) { return get(m.totals.calls, span) / passes; };
  const auto duration = [&](const std::string& span) {
    return get(m.totals.duration_s, span) / passes;
  };
  const auto count = [&](const std::string& name) { return get(m.counters, name) / passes; };
  const auto ns_per = [](double seconds, double n) { return ratio(seconds * 1e9, n); };

  const double steady_cycles = count("sim.find_steady_state.cycles_stepped");
  const double bare_cycles = count("sim.run.bare.cycles");
  const double kernel_cycles = count("xmp.run_kernel.sim_cycles");
  const double recorded = count("obs.tracer.events_recorded");
  const double dump_bytes = count("util.json.dump.bytes");
  const double events_compared = count("check.check_case.events_compared");
  const double bare_ns = ns_per(self("sim.run.bare"), bare_cycles);
  const double traced_ns = ns_per(self("obs.tracer.run"), count("obs.tracer.sim_cycles"));
  const double campaign_s = duration("exec.run_campaign");

  return {
      {"sim.find_steady_state.self_s", self("sim.find_steady_state"), "s"},
      {"sim.find_steady_state.calls", calls("sim.find_steady_state"), "calls"},
      {"sim.find_steady_state.cycles_stepped", steady_cycles, "sim_cycles"},
      {"sim.find_steady_state.ns_per_cycle", ns_per(self("sim.find_steady_state"), steady_cycles),
       "ns/sim_cycle"},
      {"sim.run.bare.self_s", self("sim.run.bare"), "s"},
      {"sim.run.bare.ns_per_cycle", bare_ns, "ns/sim_cycle"},
      {"sim.events", count("sim.events"), "sim_events"},
      {"xmp.run_kernel.self_s", self("xmp.run_kernel"), "s"},
      {"xmp.run_kernel.calls", calls("xmp.run_kernel"), "calls"},
      {"xmp.run_kernel.sim_cycles", kernel_cycles, "sim_cycles"},
      {"xmp.run_kernel.ns_per_cycle", ns_per(self("xmp.run_kernel"), kernel_cycles),
       "ns/sim_cycle"},
      {"xmp.run_kernel.ports", count("xmp.run_kernel.ports"), "sim_ports"},
      {"xmp.run_kernel_multitasked.self_s", self("xmp.run_kernel_multitasked"), "s"},
      {"xmp.run_kernel_multitasked.ns_per_cycle",
       ns_per(self("xmp.run_kernel_multitasked"), count("xmp.run_kernel_multitasked.sim_cycles")),
       "ns/sim_cycle"},
      {"core.run_triad_experiment.self_s", self("core.run_triad_experiment"), "s"},
      {"core.run_triad_experiment.busy_frac",
       ratio(count("core.run_triad_experiment.busy_s"),
             count("core.run_triad_experiment.wall_s") * kWorkers),
       "ratio"},
      {"exec.run_campaign.self_s", self("exec.run_campaign"), "s"},
      {"exec.parallel_for.self_s", self("exec.parallel_for"), "s"},
      {"exec.jobs.completed", count("exec.jobs.completed"), "jobs"},
      {"exec.jobs.failed", count("exec.jobs.failed"), "jobs"},
      {"exec.jobs.retried", count("exec.jobs.retried"), "jobs"},
      {"exec.overhead_frac",
       campaign_s > 0.0 ? 1.0 - ratio(duration("bench.job"), campaign_s * kWorkers) : 0.0,
       "ratio"},
      {"exec.journal.bytes", count("exec.journal.bytes"), "bytes"},
      {"obs.report_run.self_s", self("obs.report_run"), "s"},
      {"obs.report_run.ns_per_cycle", ns_per(self("obs.report_run"), count("obs.report_run.sim_cycles")),
       "ns/sim_cycle"},
      {"obs.report.to_json.self_s", self("obs.report.to_json"), "s"},
      {"obs.tracer.attach.self_s", self("obs.tracer.attach"), "s"},
      {"obs.tracer.events_recorded", recorded, "sim_events"},
      {"obs.tracer.overhead_ratio", ratio(traced_ns, bare_ns), "ratio"},
      {"obs.tracer.chrome_trace.self_s", self("obs.tracer.chrome_trace"), "s"},
      {"obs.tracer.chrome_trace.ns_per_event", ns_per(self("obs.tracer.chrome_trace"), recorded),
       "ns/sim_event"},
      {"util.json.dump.self_s", self("util.json.dump"), "s"},
      {"util.json.dump.bytes", dump_bytes, "bytes"},
      {"util.json.dump.mb_per_s", ratio(dump_bytes / 1e6, self("util.json.dump")), "MB/s"},
      {"check.sample_case.self_s", self("check.sample_case"), "s"},
      {"check.check_case.self_s", self("check.check_case"), "s"},
      {"check.check_case.events_compared", events_compared, "sim_events"},
      {"check.check_case.checks_run", count("check.check_case.checks_run"), "checks"},
      {"check.check_case.ns_per_event", ns_per(self("check.check_case"), events_compared),
       "ns/sim_event"},
      {"bench.unattributed_frac", m.totals.unattributed_frac(), "ratio"},
      {"bench.tracing_overhead_frac", ratio(m.traced_s, m.untraced_s) - 1.0, "ratio"},
  };
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the peak of the
  // image that exec'd this process (e.g. a Python wrapper).
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error{"peak_rss_mb: no VmHWM in /proc/self/status"};
}

}  // namespace perfbench
