// vpmem_cli — command-line front end to the library: the Section II
// analyses (single, pair, render, report, diagnose, idim), the Section IV
// X-MP kernels (triad, kernel), Perfetto traces, degraded-mode fault runs,
// differential fuzzing and journaled sweep campaigns.  Run it with no
// arguments for the synopsis, printed from the command table at the end
// of this file.  Each subcommand accepts only the flags it reads.
//
// --json <file> also writes a machine-readable record ('-' = stdout; the
// human summary then moves to stderr): the vpmem.run_report/1 document for
// `report`, a vpmem.cli/1 envelope {schema, command, ...} otherwise.  A
// failed run still writes the envelope, with an "error" member carrying
// {code, message}.
//
// fuzz, sweep and faults install SIGINT/SIGTERM handlers: the first signal
// cancels at the next case/job/poll boundary, flushes the journal and
// still writes the --json envelope with "status": "interrupted"; the
// second restores the default disposition (hard kill).
//
// Exit codes: 0 success; 1 runtime or I/O failure, or a fuzz
// disagreement; 2 usage; 3 config_invalid; 4 fault_plan_invalid;
// 5 deadline_exceeded and 6 livelock (a guarded run stopped early);
// 7 interrupted by SIGINT/SIGTERM (partial results were flushed); 8 sweep
// campaign degraded (some point failed or was quarantined).
#include <algorithm>
#include <cctype>
#include <charconv>
#include <chrono>
#include <csignal>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "vpmem/vpmem.hpp"

namespace {

using namespace vpmem;

/// Bad command line: exit code 2 plus the subcommand's synopsis.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Strict integer argument: all of `text` must be one number in T's range
/// (decimal; with `hex`, a 0x/0X prefix selects base 16).  Empty input,
/// a sign on an unsigned T, trailing text and overflow are all rejected,
/// so `--jobs abc` is a usage error rather than a silent 0.
template <class T>
bool parse_number(std::string_view text, T& out, bool hex = false) {
  int base = 10;
  if (hex && text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
    text.remove_prefix(2);
    base = 16;
  }
  const char* const last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, out, base);
  return !text.empty() && ec == std::errc{} && ptr == last;
}

/// Everything a command line can set; the command table maps each flag to
/// one field.  Zero counts and empty strings mean "not given".
struct Args {
  std::vector<i64> positional;
  std::string word;  // non-numeric positional (kernel name)
  bool same_cpu = false;
  bool dedicated = false;
  bool cyclic_priority = false;
  bool consecutive = false;
  i64 sections = 0;  // 0 = same as banks
  i64 length = 0;    // 0 = infinite streams
  i64 cycles = 0;    // 0 = automatic window
  std::string json_path;
  std::string out;
  i64 window = 0;  // 0 = attribution default (64)
  bool no_attribution = false;
  std::uint64_t seed = 0x0ed1a25;  // matches check::FuzzOptions default
  std::string fault;
  std::string replay_line;
  bool no_shrink = false;
  bool fault_plans = false;
  std::string plan_path;
  std::string plan_inline;
  std::string policy;
  i64 max_cycles = 0;
  int jobs = 1;
  std::string journal;
  bool resume = false;
  bool sandbox = false;
  i64 retries = 0;
  std::string test_crash;
  std::string d1_range;
  std::string d2_range;
  i64 throttle_ms = 0;
};

sim::MemoryConfig config_from(const Args& args, i64 m, i64 nc) {
  const sim::MemoryConfig config{
      .banks = m,
      .sections = args.sections > 0 ? args.sections : m,
      .bank_cycle = nc,
      .mapping = args.consecutive ? sim::SectionMapping::consecutive
                                  : sim::SectionMapping::cyclic,
      .priority = args.cyclic_priority ? sim::PriorityRule::cyclic : sim::PriorityRule::fixed};
  config.validate();
  return config;
}

/// Human-readable output stream.  With `--json -` the JSON document owns
/// stdout, so the human summary moves to stderr and stdout stays parseable.
std::ostream& human(const Args& args) {
  return args.json_path == "-" ? std::cerr : std::cout;
}

/// Write `doc` to args.json_path when set ('-' = stdout).  Returns false
/// (and reports) on I/O failure.
bool maybe_write_json(const Args& args, const Json& doc) {
  if (args.json_path.empty()) return true;
  if (args.json_path == "-") {
    doc.dump(std::cout, 2);
    std::cout << '\n';
    return true;
  }
  std::ofstream out{args.json_path};
  if (!out) {
    std::cerr << "error: cannot open '" << args.json_path << "' for writing\n";
    return false;
  }
  doc.dump(out, 2);
  out << '\n';
  return true;
}

/// Envelope shared by the non-`report` subcommands: the command name plus
/// its result payload, under the "vpmem.cli/1" schema.
Json cli_envelope(const std::string& command) {
  Json doc = Json::object();
  doc["schema"] = "vpmem.cli/1";
  doc["command"] = command;
  return doc;
}

Json json_of_ports(const std::vector<sim::PortStats>& ports) {
  Json out = Json::array();
  for (const auto& p : ports) out.push_back(obs::json_of(p));
  return out;
}

Json json_of_triad(const xmp::TriadResult& r, const xmp::TriadSetup& setup, bool dedicated) {
  Json out = Json::object();
  out["n"] = setup.n;
  out["inc"] = setup.inc;
  out["idim"] = setup.idim;
  out["dedicated"] = dedicated;
  out["cycles"] = r.cycles;
  out["cycles_per_element"] = r.cycles_per_element(setup.n);
  out["conflicts"] = obs::json_of(r.conflicts);
  out["background_goodput"] = r.background_goodput();
  out["ports"] = json_of_ports(r.triad_ports);
  out["background_ports"] = json_of_ports(r.background_ports);
  return out;
}

int cmd_single(const Args& args) {
  const auto [m, nc, d] = std::tuple{args.positional[0], args.positional[1], args.positional[2]};
  const core::SingleStreamReport r = core::analyze_single(config_from(args, m, nc), d);
  human(args) << "m=" << m << " nc=" << nc << " d=" << d << ": return number "
            << r.return_number << ", predicted b_eff " << r.predicted.str() << ", simulated "
            << r.simulated.str() << (r.consistent() ? "" : "  [MISMATCH]") << '\n';
  if (!args.json_path.empty()) {
    Json doc = cli_envelope("single");
    doc["m"] = m;
    doc["nc"] = nc;
    doc["d"] = d;
    doc["return_number"] = r.return_number;
    doc["predicted_b_eff"] = obs::json_of(r.predicted);
    doc["simulated_b_eff"] = obs::json_of(r.simulated);
    doc["consistent"] = r.consistent();
    doc["report"] = obs::report_run(config_from(args, m, nc),
                                    {sim::StreamConfig{.start_bank = 0, .distance = d}})
                        .to_json();
    if (!maybe_write_json(args, doc)) return 1;
  }
  return 0;
}

int cmd_pair(const Args& args) {
  const auto cfg = config_from(args, args.positional[0], args.positional[1]);
  const obs::Stopwatch wall;
  const core::PairReport r =
      core::analyze_pair(cfg, args.positional[2], args.positional[3], args.same_cpu);
  const sim::OffsetSweep& sweep = r.sweep;
  // The offset sweep's perf telemetry (purely observational).
  const obs::PerfReport perf{.wall_seconds = wall.seconds(),
                             .cycles_simulated = sweep.cycles_simulated};
  human(args) << r.summary() << "\nby offset:";
  for (std::size_t b2 = 0; b2 < sweep.by_offset.size(); ++b2) {
    human(args) << ' ' << b2 << ':' << sweep.by_offset[b2].str();
  }
  human(args) << '\n';
  std::cerr << "sweep telemetry: " << sweep.by_offset.size() << " offsets, "
            << sweep.cycles_simulated << " simulated cycles in " << perf.wall_seconds
            << " s (" << perf.cycles_per_second() << " cycles/s)\n";
  if (!args.json_path.empty()) {
    Json doc = cli_envelope("pair");
    doc["m"] = r.m;
    doc["nc"] = r.nc;
    doc["d1"] = r.d1;
    doc["d2"] = r.d2;
    doc["same_cpu"] = args.same_cpu;
    doc["classification"] = analytic::to_string(r.prediction.cls);
    doc["predicted_b_eff"] =
        r.prediction.bandwidth ? obs::json_of(*r.prediction.bandwidth) : Json{nullptr};
    doc["sim_min"] = obs::json_of(sweep.min_bandwidth);
    doc["sim_max"] = obs::json_of(sweep.max_bandwidth);
    Json by_offset = Json::array();
    for (const auto& bw : sweep.by_offset) by_offset.push_back(obs::json_of(bw));
    doc["by_offset"] = std::move(by_offset);
    Json sweep_perf = Json::object();
    sweep_perf["points"] = sweep.by_offset.size();
    sweep_perf["wall_seconds"] = perf.wall_seconds;
    sweep_perf["simulated_cycles"] = sweep.cycles_simulated;
    sweep_perf["cycles_per_second"] = perf.cycles_per_second();
    doc["sweep_perf"] = std::move(sweep_perf);
    if (!maybe_write_json(args, doc)) return 1;
  }
  return 0;
}

int cmd_render(const Args& args) {
  const i64 m = args.positional[0];
  const i64 nc = args.positional[1];
  const i64 cycles = args.positional.size() > 6 ? args.positional[6] : 3 * m;
  const auto streams = sim::two_streams(args.positional[4], args.positional[2],
                                        args.positional[5], args.positional[3], args.same_cpu);
  const auto cfg = config_from(args, m, nc);
  const std::string diagram = trace::render_run(cfg, streams, cycles, cfg.sections != m);
  human(args) << diagram;
  const auto ss = sim::find_steady_state(cfg, streams);
  human(args) << "steady-state b_eff = " << ss.bandwidth.str() << '\n';
  if (!args.json_path.empty()) {
    Json doc = cli_envelope("render");
    doc["diagram"] = diagram;
    doc["report"] = obs::report_run(cfg, streams).to_json();
    if (!maybe_write_json(args, doc)) return 1;
  }
  return 0;
}

/// The report/trace positional convention: <m> <nc> <d1> [d2 [b1 b2]],
/// one stream or two, with --length making the streams finite.
std::vector<sim::StreamConfig> report_streams(const Args& args) {
  std::vector<sim::StreamConfig> streams;
  if (args.positional.size() == 3) {
    streams.push_back(sim::StreamConfig{.start_bank = 0, .distance = args.positional[2]});
  } else {
    const i64 b1 = args.positional.size() == 6 ? args.positional[4] : 0;
    const i64 b2 = args.positional.size() == 6 ? args.positional[5] : 0;
    streams = sim::two_streams(b1, args.positional[2], b2, args.positional[3], args.same_cpu);
  }
  if (args.length > 0) {
    for (auto& s : streams) s.length = args.length;
  }
  return streams;
}

int cmd_report(const Args& args) {
  const auto cfg = config_from(args, args.positional[0], args.positional[1]);
  const std::vector<sim::StreamConfig> streams = report_streams(args);
  obs::ReportOptions options;
  options.cycles = args.cycles;
  options.attribution = !args.no_attribution;
  if (args.window > 0) options.attribution_window = args.window;
  const obs::RunReport report = obs::report_run(cfg, streams, options);
  std::cerr << "report: " << report.kind << ", " << report.perf.cycles_simulated
            << " simulated cycles in " << report.perf.wall_seconds << " s ("
            << report.perf.cycles_per_second() << " cycles/s)\n";
  if (args.json_path.empty()) {
    report.write_json(std::cout);
    return 0;
  }
  return maybe_write_json(args, report.to_json()) ? 0 : 1;
}

int cmd_diagnose(const Args& args) {
  const auto cfg = config_from(args, args.positional[0], args.positional[1]);
  obs::SweepTelemetry telemetry;
  const core::RegimeSweep sweep = core::sweep_regimes(cfg, args.positional[2],
                                                      args.positional[3], args.same_cpu,
                                                      &telemetry);
  for (std::size_t b2 = 0; b2 < sweep.by_offset.size(); ++b2) {
    human(args) << "b2=" << b2 << ": " << sweep.by_offset[b2].summary() << '\n';
  }
  std::cerr << "sweep telemetry: " << telemetry.summary() << '\n';
  if (!args.json_path.empty()) {
    Json doc = cli_envelope("diagnose");
    Json by_offset = Json::array();
    for (const auto& d : sweep.by_offset) {
      Json entry = Json::object();
      entry["regime"] = core::to_string(d.regime);
      entry["b_eff"] = obs::json_of(d.bandwidth);
      entry["conflicts_in_period"] = obs::json_of(d.conflicts_in_period);
      entry["period"] = d.period;
      entry["transient_cycles"] = d.transient_cycles;
      by_offset.push_back(std::move(entry));
    }
    doc["by_offset"] = std::move(by_offset);
    doc["sweep_perf"] = telemetry.to_json();
    if (!maybe_write_json(args, doc)) return 1;
  }
  return 0;
}

/// `triad` and `kernel`: one Section IV kernel on the X-MP model, with the
/// other CPU's stride-1 background traffic unless --dedicated.
int run_xmp(const Args& args, const std::string& command, const xmp::KernelSpec& spec) {
  xmp::TriadSetup setup;
  setup.n = args.positional[0];
  setup.inc = args.positional[1];
  const xmp::TriadResult r = xmp::run_kernel(xmp::XmpConfig{}, spec, setup, !args.dedicated);
  human(args) << spec.name << " n=" << setup.n << " inc=" << setup.inc
              << (args.dedicated ? " (dedicated)" : " (contended)") << ": " << r.cycles
              << " cycles, conflicts bank=" << r.conflicts.bank
              << " section=" << r.conflicts.section << " simult=" << r.conflicts.simultaneous;
  if (command == "triad" && !args.dedicated) {
    human(args) << ", other CPU b_eff " << cell(r.background_goodput(), 3);
  }
  human(args) << '\n';
  if (!args.json_path.empty()) {
    Json doc = cli_envelope(command);
    if (command == "kernel") doc["kernel"] = spec.name;
    doc["result"] = json_of_triad(r, setup, args.dedicated);
    if (!maybe_write_json(args, doc)) return 1;
  }
  return 0;
}

int cmd_triad(const Args& args) { return run_xmp(args, "triad", xmp::triad_kernel()); }

int cmd_kernel(const Args& args) {
  std::string names;
  for (const auto& k : xmp::all_kernels()) {
    if (k.name == args.word) return run_xmp(args, "kernel", k);
    names += ' ' + k.name;
  }
  throw UsageError{"unknown kernel '" + args.word + "'; choose from:" + names};
}

int cmd_idim(const Args& args) {
  const auto cfg = config_from(args, args.positional[0], args.positional[1]);
  const i64 idim = core::recommend_idim(cfg, args.positional[2], args.positional[3],
                                        args.positional[4], args.same_cpu);
  const auto sweep = core::sweep_array_spacing(cfg, args.positional[2], args.positional[3],
                                               args.same_cpu);
  human(args) << "recommended IDIM " << idim << " (spacing " << mod_norm(idim, cfg.banks)
            << " mod " << cfg.banks << ", group b_eff " << sweep.best_bandwidth.str()
            << "; worst spacing " << sweep.worst_spacing << " -> "
            << sweep.worst_bandwidth.str() << ")\n";
  if (!args.json_path.empty()) {
    Json doc = cli_envelope("idim");
    doc["recommended_idim"] = idim;
    doc["spacing"] = mod_norm(idim, cfg.banks);
    doc["best_b_eff"] = obs::json_of(sweep.best_bandwidth);
    doc["worst_spacing"] = sweep.worst_spacing;
    doc["worst_b_eff"] = obs::json_of(sweep.worst_bandwidth);
    if (!maybe_write_json(args, doc)) return 1;
  }
  return 0;
}

/// Full run context of a failing fuzz case, attached to the JSON record
/// so the repro line comes with the complete RunReport of the offending
/// configuration.  Mixed finite/infinite workloads have no report shape;
/// those carry an "error" member instead.
Json failure_report(const check::FuzzFailure& failure) {
  Json entry = Json::object();
  entry["iteration"] = failure.iteration;
  entry["check"] = failure.check;
  entry["message"] = failure.message;
  entry["repro"] = failure.repro;
  entry["shrunk_repro"] = failure.shrunk_repro;
  try {
    const check::FuzzCase c =
        check::parse_repro(failure.shrunk_repro.empty() ? failure.repro : failure.shrunk_repro);
    entry["report"] = obs::report_run(c.config, c.streams, {.cycles = c.cycles}).to_json();
  } catch (const std::exception& e) {
    entry["report_error"] = std::string{e.what()};
  }
  return entry;
}

int replay_one(const Args& args) {
  const check::FuzzCase c = check::parse_repro(args.replay_line);
  const check::CaseResult result =
      check::check_case(c, {}, /*run_invariants=*/c.fault == check::FaultKind::none);
  human(args) << "replay: " << check::encode_repro(c) << '\n';
  for (const auto& f : result.failures) {
    human(args) << "  FAIL [" << f.check << "] " << f.message << '\n';
  }
  if (result.ok()) {
    human(args) << "  all " << result.checks_run << " checks passed ("
                << result.events_compared << " events compared)\n";
  }
  if (!args.json_path.empty()) {
    Json doc = cli_envelope("fuzz");
    doc["replay"] = args.replay_line;
    doc["ok"] = result.ok();
    doc["checks_run"] = result.checks_run;
    doc["events_compared"] = result.events_compared;
    Json failures = Json::array();
    for (const auto& f : result.failures) {
      Json entry = Json::object();
      entry["check"] = f.check;
      entry["message"] = f.message;
      failures.push_back(std::move(entry));
    }
    doc["failures"] = std::move(failures);
    if (!maybe_write_json(args, doc)) return 1;
  }
  return result.ok() ? 0 : 1;
}

int cmd_fuzz(const Args& args) {
  if (!args.replay_line.empty()) return replay_one(args);

  check::FuzzOptions options;
  options.seed = args.seed;
  if (!args.positional.empty()) options.iterations = args.positional[0];
  if (args.cycles > 0) options.cycles = args.cycles;
  if (!args.fault.empty()) options.fault = check::fault_from_string(args.fault);
  options.fault_plans = args.fault_plans;
  options.shrink_failures = !args.no_shrink;
  options.jobs = args.jobs;
  exec::install_signal_handlers();
  options.cancel = &exec::process_cancel_token();

  const check::FuzzSummary summary = check::fuzz(options);
  human(args) << "fuzz: " << summary.iterations << " cases, " << summary.checks_run
              << " checks, " << summary.events_compared << " events compared (seed 0x"
              << std::hex << summary.seed << std::dec;
  if (options.fault != check::FaultKind::none) {
    human(args) << ", fault " << check::to_string(options.fault);
  }
  if (options.jobs > 1) human(args) << ", jobs " << options.jobs;
  human(args) << ")\n";
  if (summary.interrupted) {
    human(args) << "interrupted after " << summary.iterations << " of "
                << options.iterations << " cases; partial results follow\n";
  }
  for (const auto& f : summary.failures) {
    human(args) << "FAIL iteration " << f.iteration << " [" << f.check << "] " << f.message
                << "\n  replay:  " << f.repro << '\n';
    if (!f.shrunk_repro.empty()) human(args) << "  shrunk:  " << f.shrunk_repro << '\n';
  }
  if (summary.ok()) {
    human(args) << "no disagreements\n";
  } else {
    human(args) << summary.failures.size() << " failing case(s); re-run one with\n"
                << "  vpmem_cli fuzz --replay '<line>'\n";
  }
  if (!args.json_path.empty()) {
    Json doc = cli_envelope("fuzz");
    doc["status"] = summary.interrupted ? "interrupted"
                    : summary.failures.empty() ? "ok" : "failed";
    doc["summary"] = summary.to_json();
    Json reports = Json::array();
    for (const auto& f : summary.failures) reports.push_back(failure_report(f));
    doc["failure_reports"] = std::move(reports);
    if (!maybe_write_json(args, doc)) return 1;
  }
  if (summary.interrupted) return 7;
  return summary.failures.empty() ? 0 : 1;
}

/// The `faults` plan source: --plan (vpmem.fault_plan/1 JSON file) or
/// --inline (the compact FaultPlan::parse spec); --policy overrides.
sim::FaultPlan load_plan(const Args& args) {
  if (!args.plan_path.empty() && !args.plan_inline.empty()) {
    throw Error{ErrorCode::fault_plan_invalid, "pass either --plan or --inline, not both"};
  }
  sim::FaultPlan plan;
  if (!args.plan_path.empty()) {
    std::ifstream in{args.plan_path};
    if (!in) {
      throw Error{ErrorCode::fault_plan_invalid,
                  "cannot open fault plan '" + args.plan_path + "'"};
    }
    std::ostringstream text;
    text << in.rdbuf();
    plan = sim::FaultPlan::from_json(Json::parse(text.str()));
  } else if (!args.plan_inline.empty()) {
    plan = sim::FaultPlan::parse(args.plan_inline);
  }
  if (!args.policy.empty()) plan.policy = sim::fault_policy_from_string(args.policy);
  return plan;
}

/// One bandwidth phase of a degraded run: the half-open cycle range
/// between consecutive fault events.
struct FaultPhase {
  i64 begin = 0;
  i64 end = 0;
  i64 grants = 0;
  i64 online_banks = 0;  ///< surviving banks while the phase ran
  [[nodiscard]] double bandwidth() const noexcept {
    return end == begin ? 0.0 : static_cast<double>(grants) / static_cast<double>(end - begin);
  }
};

/// Re-simulate the guarded window and split it at fault-event cycles (the
/// aggregate RunReport has no time axis).
std::vector<FaultPhase> fault_phases(const sim::MemoryConfig& cfg,
                                     const std::vector<sim::StreamConfig>& streams,
                                     const sim::FaultPlan& plan, i64 cycles) {
  std::vector<i64> bounds{0};
  for (const auto& e : plan.events) {
    if (e.cycle > 0 && e.cycle < cycles && e.cycle != bounds.back()) bounds.push_back(e.cycle);
  }
  if (cycles > bounds.back()) bounds.push_back(cycles);
  std::vector<FaultPhase> phases;
  if (bounds.size() < 2) return phases;
  sim::MemorySystem mem{cfg, streams, plan};
  i64 prev_grants = 0;
  for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
    FaultPhase phase;
    phase.begin = bounds[i];
    phase.end = bounds[i + 1];
    // Step the first period so the events due at the boundary are applied,
    // then read the surviving-bank count the phase runs with.
    mem.run(1, /*stop_when_finished=*/false);
    phase.online_banks = mem.surviving_banks();
    mem.run(phase.end - phase.begin - 1, /*stop_when_finished=*/false);
    i64 grants = 0;
    for (const auto& p : mem.all_stats()) grants += p.grants;
    phase.grants = grants - prev_grants;
    prev_grants = grants;
    phases.push_back(phase);
  }
  return phases;
}

int cmd_faults(const Args& args) {
  if (args.plan_path.empty() && args.plan_inline.empty()) {
    throw UsageError{"faults needs --plan or --inline"};
  }
  const auto cfg = config_from(args, args.positional[0], args.positional[1]);
  const std::vector<sim::StreamConfig> streams = report_streams(args);
  const sim::FaultPlan plan = load_plan(args);
  const bool infinite = streams.front().length == sim::kInfiniteLength;

  obs::ReportOptions options;
  options.cycles = args.cycles;
  if (infinite && options.cycles <= 0) {
    // Automatic horizon: cover every fault event plus a healthy tail so
    // before/during/after phases are all visible.
    const i64 last = plan.events.empty() ? 0 : plan.events.back().cycle;
    options.cycles = last + 8 * cfg.banks * cfg.bank_cycle;
  }
  sim::Watchdog watchdog;
  if (args.max_cycles > 0) watchdog.max_cycles = args.max_cycles;
  exec::install_signal_handlers();
  watchdog.cancel = exec::process_cancel_token().flag();

  const obs::RunReport report = obs::report_run_guarded(cfg, streams, plan, options, watchdog);
  const std::vector<FaultPhase> phases = fault_phases(cfg, streams, plan, report.cycles);

  human(args) << "faults: policy " << sim::to_string(plan.policy) << ", "
              << plan.events.size() << " event(s), status " << report.status;
  if (!report.status_detail.empty()) human(args) << " (" << report.status_detail << ")";
  human(args) << "\nwindow: " << report.cycles << " cycles, b_eff "
              << report.window_bandwidth << ", conflicts bank=" << report.conflicts.bank
              << " simult=" << report.conflicts.simultaneous
              << " section=" << report.conflicts.section
              << " fault=" << report.conflicts.fault << '\n';
  for (const auto& phase : phases) {
    human(args) << "  cycles [" << phase.begin << ", " << phase.end << "): b_eff "
                << phase.bandwidth() << " (" << phase.online_banks << "/" << cfg.banks
                << " banks online)\n";
  }

  if (!args.json_path.empty()) {
    Json doc = cli_envelope("faults");
    doc["plan"] = plan.to_json();
    doc["status"] = report.status;
    Json phase_list = Json::array();
    for (const auto& phase : phases) {
      Json entry = Json::object();
      entry["begin"] = phase.begin;
      entry["end"] = phase.end;
      entry["grants"] = phase.grants;
      entry["online_banks"] = phase.online_banks;
      entry["bandwidth"] = phase.bandwidth();
      phase_list.push_back(std::move(entry));
    }
    doc["phases"] = std::move(phase_list);
    doc["report"] = report.to_json();
    if (!maybe_write_json(args, doc)) return 1;
  }
  if (report.status == "deadline_exceeded") return 5;
  if (report.status == "livelock") return 6;
  if (report.status == "interrupted") return 7;
  return 0;
}

/// Inclusive "A:B" stride range ("A" alone = the single value A).
bool parse_range(std::string_view text, i64& lo, i64& hi) {
  const std::size_t colon = text.find(':');
  const std::string_view head = text.substr(0, colon);
  return parse_number(head, lo) &&
         parse_number(colon == std::string_view::npos ? head : text.substr(colon + 1), hi) &&
         lo <= hi;
}

/// The canonical config-hash preimage of one sweep point.  This string —
/// not the hash — is the contract: every field that changes the result
/// appears, in fixed order, so the same point hashes identically across
/// runs, machines and resumes.
std::string sweep_point_key(const sim::MemoryConfig& cfg, bool same_cpu, i64 d1, i64 d2) {
  std::ostringstream key;
  key << "vpmem.sweep/1 m=" << cfg.banks << " nc=" << cfg.bank_cycle << " s=" << cfg.sections
      << " map=" << (cfg.mapping == sim::SectionMapping::consecutive ? "consecutive" : "cyclic")
      << " pri=" << (cfg.priority == sim::PriorityRule::cyclic ? "cyclic" : "fixed")
      << " same_cpu=" << (same_cpu ? 1 : 0) << " d1=" << d1 << " d2=" << d2;
  return key.str();
}

/// Replay token for one sweep point: a complete single-point `sweep`
/// invocation, recorded on crash/quarantine.
std::string sweep_point_repro(const Args& args, i64 m, i64 nc, i64 d1, i64 d2) {
  std::ostringstream r;
  r << "sweep " << m << ' ' << nc << " --d1 " << d1 << ':' << d1 << " --d2 " << d2 << ':'
    << d2;
  if (args.same_cpu) r << " --same-cpu";
  if (args.sections > 0) r << " --sections " << args.sections;
  if (args.cyclic_priority) r << " --cyclic-priority";
  if (args.consecutive) r << " --consecutive";
  return r.str();
}

/// One sweep point: exact steady-state analysis of the (d1, d2) pair.
/// Deliberately free of wall-clock data — the payload must be a pure
/// function of the configuration so resumed campaigns reproduce the
/// uninterrupted results byte for byte (timing lives in the journal and
/// the campaign metrics instead).
Json sweep_point(const sim::MemoryConfig& cfg, bool same_cpu, i64 d1, i64 d2, bool crash,
                 i64 throttle_ms) {
  if (crash) std::raise(SIGSEGV);  // --test-crash: prove sandbox isolation
  if (throttle_ms > 0) {
    // Pacing knob for the kill-and-resume tests: real points finish in
    // microseconds, far too fast to SIGKILL a campaign mid-flight.
    std::this_thread::sleep_for(std::chrono::milliseconds(throttle_ms));
  }
  const auto streams = sim::two_streams(0, d1, 0, d2, same_cpu);
  const sim::SteadyState ss = sim::find_steady_state(cfg, streams);
  Json out = Json::object();
  out["d1"] = d1;
  out["d2"] = d2;
  out["b_eff"] = obs::json_of(ss.bandwidth);
  out["transient_cycles"] = ss.transient_cycles;
  out["period"] = ss.period;
  Json grants = Json::array();
  for (const i64 g : ss.grants_in_period) grants.push_back(g);
  out["grants_in_period"] = std::move(grants);
  out["conflicts_in_period"] = obs::json_of(ss.conflicts_in_period);
  return out;
}

/// The deterministic results document (schema vpmem.sweep_results/1)
/// written to --out: grid parameters plus one entry per point in input
/// order.  Free-text error detail and all timing stay out of it so the
/// kill-and-resume test can compare files byte for byte.
Json sweep_results_doc(const Args& args, const sim::MemoryConfig& cfg,
                       const exec::CampaignSummary& summary) {
  Json doc = Json::object();
  doc["schema"] = "vpmem.sweep_results/1";
  doc["config"] = obs::json_of(cfg);
  doc["same_cpu"] = args.same_cpu;
  Json points = Json::array();
  for (const auto& r : summary.results) {
    Json p = Json::object();
    p["id"] = r.id;
    p["status"] = exec::to_string(r.status);
    if (r.status == exec::JobStatus::ok) {
      p["result"] = r.result;
    } else {
      p["error_code"] = r.error_code;
      if (!r.repro.empty()) p["repro"] = r.repro;
    }
    points.push_back(std::move(p));
  }
  doc["points"] = std::move(points);
  return doc;
}

int cmd_sweep(const Args& args) {
  i64 d1_lo = 0, d1_hi = 0, d2_lo = 0, d2_hi = 0;
  if (!parse_range(args.d1_range, d1_lo, d1_hi) || !parse_range(args.d2_range, d2_lo, d2_hi)) {
    throw UsageError{"--d1 and --d2 take an inclusive range A:B"};
  }
  if (args.resume && args.journal.empty()) throw UsageError{"--resume needs --journal"};
  const auto cfg = config_from(args, args.positional[0], args.positional[1]);
  const i64 m = args.positional[0];
  const i64 nc = args.positional[1];

  std::vector<exec::JobSpec> jobs;
  jobs.reserve(static_cast<std::size_t>((d1_hi - d1_lo + 1) * (d2_hi - d2_lo + 1)));
  for (i64 d1 = d1_lo; d1 <= d1_hi; ++d1) {
    for (i64 d2 = d2_lo; d2 <= d2_hi; ++d2) {
      exec::JobSpec job;
      job.id = "d1=" + std::to_string(d1) + "/d2=" + std::to_string(d2);
      job.hash = stable_hash(sweep_point_key(cfg, args.same_cpu, d1, d2));
      job.repro = sweep_point_repro(args, m, nc, d1, d2);
      const bool crash = job.id == args.test_crash;
      const bool same_cpu = args.same_cpu;
      const i64 throttle_ms = args.throttle_ms;
      job.run = [cfg, same_cpu, d1, d2, crash, throttle_ms] {
        return sweep_point(cfg, same_cpu, d1, d2, crash, throttle_ms);
      };
      jobs.push_back(std::move(job));
    }
  }

  exec::install_signal_handlers();
  exec::ExecutorOptions options;
  options.jobs = args.jobs;
  options.sandbox = args.sandbox;
  if (args.retries > 0) options.retry.max_attempts = static_cast<int>(args.retries);
  options.journal_path = args.journal;
  options.resume = args.resume;
  options.cancel = &exec::process_cancel_token();

  const exec::CampaignSummary summary = exec::run_campaign(jobs, options);

  human(args) << "sweep: " << jobs.size() << " points (d1 " << d1_lo << ".." << d1_hi
              << " x d2 " << d2_lo << ".." << d2_hi << ", m=" << m << " nc=" << nc << ")";
  if (args.jobs > 1) human(args) << ", jobs " << args.jobs;
  if (args.sandbox) human(args) << ", sandboxed";
  human(args) << "\n  completed " << summary.completed << " (resumed " << summary.resumed
              << "), failed " << summary.failed << ", quarantined " << summary.quarantined
              << ", cancelled " << summary.cancelled << ", retries " << summary.retries
              << "\n  status " << summary.status
              << (summary.interrupted ? " (interrupted)" : "") << '\n';
  for (const auto& r : summary.results) {
    if (r.status != exec::JobStatus::failed && r.status != exec::JobStatus::quarantined) {
      continue;
    }
    human(args) << "  " << exec::to_string(r.status) << ' ' << r.id << " [" << r.error_code
                << "] " << r.error << "\n    repro: vpmem_cli " << r.repro << '\n';
  }

  if (!args.out.empty()) {
    std::ofstream out{args.out};
    if (!out) {
      std::cerr << "error: cannot open '" << args.out << "' for writing\n";
      return 1;
    }
    sweep_results_doc(args, cfg, summary).dump(out, 2);
    out << '\n';
  }
  if (!args.json_path.empty()) {
    Json doc = cli_envelope("sweep");
    doc["status"] = summary.interrupted ? "interrupted" : summary.status;
    doc["m"] = m;
    doc["nc"] = nc;
    Json grid = Json::object();
    grid["d1_lo"] = d1_lo;
    grid["d1_hi"] = d1_hi;
    grid["d2_lo"] = d2_lo;
    grid["d2_hi"] = d2_hi;
    doc["grid"] = std::move(grid);
    doc["campaign"] = summary.to_json();
    if (!args.journal.empty()) doc["journal"] = args.journal;
    if (!maybe_write_json(args, doc)) return 1;
  }
  if (summary.interrupted) return 7;
  return summary.ok() ? 0 : 8;
}

int cmd_trace(const Args& args) {
  const auto cfg = config_from(args, args.positional[0], args.positional[1]);
  const std::vector<sim::StreamConfig> streams = report_streams(args);
  const bool infinite = streams.front().length == sim::kInfiniteLength;

  i64 window = args.cycles;
  if (infinite && window <= 0) {
    // Same automatic window as `report`: the transient plus one full
    // steady-state period, so the trace shows startup and the cycle.
    const sim::SteadyState ss = sim::find_steady_state(cfg, streams);
    window = ss.transient_cycles + ss.period;
  }

  sim::MemorySystem mem{cfg, streams};
  obs::TracerOptions options;
  options.attribution = !args.no_attribution;
  if (args.window > 0) options.window = args.window;
  obs::Tracer tracer{mem, options};
  if (window > 0) {
    mem.run(window, /*stop_when_finished=*/!infinite);
  } else {
    mem.run(1'000'000, /*stop_when_finished=*/true);
    if (!mem.finished()) {
      throw Error{ErrorCode::deadline_exceeded,
                  "trace: finite workload did not finish within 1000000 cycles; pass --cycles"};
    }
  }
  tracer.finish();

  const std::string path = args.out.empty() ? "trace.json" : args.out;
  tracer.save_chrome_trace(path);

  const sim::EventBuffer& buf = tracer.buffer();
  human(args) << "trace: " << mem.now() << " cycles, " << buf.recorded() << " events ("
              << buf.dropped() << " evicted) -> " << path
              << "\nload it at ui.perfetto.dev or chrome://tracing\n";
  if (const obs::ConflictAttribution* a = tracer.attribution()) {
    sim::ConflictTotals lost;
    for (std::size_t p = 0; p < a->port_count(); ++p) {
      const sim::ConflictTotals t = a->totals(p);
      lost.bank += t.bank;
      lost.simultaneous += t.simultaneous;
      lost.section += t.section;
    }
    human(args) << "attribution: " << a->total_grants() << " grants, lost cycles bank="
                << lost.bank << " simult=" << lost.simultaneous << " section=" << lost.section
                << "; " << a->episodes().size() << " barrier episode(s)";
    if (!a->episodes().empty()) {
      const obs::BarrierEpisode& ep = a->episodes().front();
      human(args) << ", first: port " << (ep.port + 1) << " onset " << ep.onset << " length "
                  << ep.length();
    }
    human(args) << '\n';
  }

  if (!args.json_path.empty()) {
    Json doc = cli_envelope("trace");
    doc["trace_path"] = path;
    doc["trace_schema"] = obs::kTraceSchema;
    doc["cycles"] = mem.now();
    Json ev = Json::object();
    ev["recorded"] = buf.recorded();
    ev["retained"] = buf.size();
    ev["dropped"] = buf.dropped();
    doc["events"] = std::move(ev);
    doc["ports"] = json_of_ports(mem.all_stats());
    doc["attribution"] =
        tracer.attribution() != nullptr ? tracer.attribution()->to_json() : Json{nullptr};
    if (!maybe_write_json(args, doc)) return 1;
  }
  return 0;
}

// ---- The command table -----------------------------------------------------

/// One flag: its name, the Args field it fills (a bool field makes it a
/// switch, any other field takes one value), the value's name in the
/// synopsis, for numbers the smallest accepted value, and whether usage()
/// shows it as mandatory (the handler checks that).  `min_positionals`
/// and `alone` say when the command reads it: only with at least that
/// many positional arguments (--same-cpu needs a second stream), and, when
/// alone, only with no positional argument and no flag but --json (a fuzz
/// replay runs one recorded case).
struct Flag {
  std::string_view name;
  std::variant<bool Args::*, int Args::*, i64 Args::*, std::uint64_t Args::*,
               std::string Args::*>
      field;
  std::string_view meta = {};
  i64 floor = 0;
  bool required = false;
  std::size_t min_positionals = 0;
  bool alone = false;
};

/// One subcommand: its positional synopsis, the numeric positional counts
/// it accepts (plus one word when `word`), every flag it reads, and its
/// handler.
struct Command {
  std::string_view name;
  std::string_view shape;
  std::vector<std::size_t> arities;
  std::vector<Flag> flags;
  int (*run)(const Args&);
  bool word = false;
};

std::vector<Flag> flags(std::initializer_list<std::vector<Flag>> groups) {
  std::vector<Flag> out;
  for (const auto& group : groups) out.insert(out.end(), group.begin(), group.end());
  return out;
}

// Shared flag groups: the machine parameters config_from() reads, the
// two-stream CPU assignment, the run window, the conflict attribution and
// the --json record.
const std::vector<Flag> kMachine = {{"--sections", &Args::sections, "s"},
                                    {"--cyclic-priority", &Args::cyclic_priority},
                                    {"--consecutive", &Args::consecutive}};
const std::vector<Flag> kSameCpu = {{"--same-cpu", &Args::same_cpu}};
/// --same-cpu where the positional shape may name one stream or two.
const std::vector<Flag> kSecondStreamCpu = {
    {.name = "--same-cpu", .field = &Args::same_cpu, .min_positionals = 4}};
const std::vector<Flag> kWindow = {{"--length", &Args::length, "n"},
                                   {"--cycles", &Args::cycles, "N"}};
const std::vector<Flag> kAttribution = {{"--window", &Args::window, "N"},
                                        {"--no-attribution", &Args::no_attribution}};
const std::vector<Flag> kJson = {{"--json", &Args::json_path, "file"}};
const std::vector<Flag> kDedicated = {{"--dedicated", &Args::dedicated}};

const std::vector<Command> kCommands = {
    {"single", "<m> <nc> <d>", {3}, flags({kMachine, kJson}), cmd_single},
    {"pair", "<m> <nc> <d1> <d2>", {4}, flags({kSameCpu, kMachine, kJson}), cmd_pair},
    {"render", "<m> <nc> <d1> <d2> <b1> <b2> [cycles]", {6, 7},
     flags({kSameCpu, kMachine, kJson}), cmd_render},
    {"report", "<m> <nc> <d1> [d2 [b1 b2]]", {3, 4, 6},
     flags({kWindow, kAttribution, kSecondStreamCpu, kMachine, kJson}), cmd_report},
    {"triad", "<n> <inc>", {2}, flags({kDedicated, kJson}), cmd_triad},
    {"idim", "<m> <nc> <stride> <arrays> <min_elements>", {5},
     flags({kSameCpu, kMachine, kJson}), cmd_idim},
    {"diagnose", "<m> <nc> <d1> <d2>", {4}, flags({kSameCpu, kMachine, kJson}), cmd_diagnose},
    {"kernel", "<name> <n> <inc>", {2}, flags({kDedicated, kJson}), cmd_kernel, true},
    {"fuzz", "[iterations]", {0, 1},
     flags({{{"--seed", &Args::seed, "S"},
             {"--cycles", &Args::cycles, "T"},
             {"--fault", &Args::fault, "name"},
             {"--fault-plans", &Args::fault_plans},
             {"--no-shrink", &Args::no_shrink},
             {.name = "--replay", .field = &Args::replay_line, .meta = "LINE", .alone = true},
             {"--jobs", &Args::jobs, "N", 1}},
            kJson}),
     cmd_fuzz},
    {"sweep", "<m> <nc>", {2},
     flags({{{.name = "--d1", .field = &Args::d1_range, .meta = "A:B", .required = true},
             {.name = "--d2", .field = &Args::d2_range, .meta = "A:B", .required = true},
             {"--jobs", &Args::jobs, "N", 1},
             {"--journal", &Args::journal, "f"},
             {"--resume", &Args::resume},
             {"--sandbox", &Args::sandbox},
             {"--retries", &Args::retries, "N"},
             {"--out", &Args::out, "results.json"},
             {"--test-crash", &Args::test_crash, "ID"},
             {"--throttle-ms", &Args::throttle_ms, "N"}},
            kSameCpu, kMachine, kJson}),
     cmd_sweep},
    {"faults", "<m> <nc> <d1> [d2 [b1 b2]]", {3, 4, 6},
     flags({{{"--plan", &Args::plan_path, "file.json"},
             {"--inline", &Args::plan_inline, "SPEC"},
             {"--policy", &Args::policy, "stall|remap_spare"},
             {"--max-cycles", &Args::max_cycles, "N"}},
            kWindow, kSecondStreamCpu, kMachine, kJson}),
     cmd_faults},
    {"trace", "<m> <nc> <d1> [d2 [b1 b2]]", {3, 4, 6},
     flags({{{"--out", &Args::out, "trace.json"}}, kAttribution, kWindow, kSecondStreamCpu,
            kMachine, kJson}),
     cmd_trace},
};

/// The synopsis of `only` (every subcommand when null), from the table.
int usage(const Command* only = nullptr) {
  std::cerr << "usage:\n";
  for (const Command& c : kCommands) {
    if (only != nullptr && only != &c) continue;
    std::string line = "  vpmem_cli " + std::string{c.name} + ' ' + std::string{c.shape};
    for (const Flag& f : c.flags) {
      std::string item{f.name};
      if (!f.meta.empty()) item += ' ' + std::string{f.meta};
      if (!f.required) item = '[' + item + ']';
      if (line.size() + 1 + item.size() > 79) {
        std::cerr << line << '\n';
        line = "          ";
      }
      line += ' ' + item;
    }
    std::cerr << line << '\n';
  }
  std::cerr << "--json file also writes a machine-readable record ('-' = stdout): schema\n"
               "vpmem.run_report/1 for report, vpmem.cli/1 envelopes otherwise\n";
  return 2;
}

/// Store `value` into the field `flag` names (a switch ignores it).
bool assign(const Flag& flag, const char* value, Args& args) {
  return std::visit(
      [&](auto field) {
        auto& slot = args.*field;
        using T = std::remove_reference_t<decltype(slot)>;
        if constexpr (std::is_same_v<T, bool>) {
          slot = true;
          return true;
        } else if constexpr (std::is_same_v<T, std::string>) {
          slot = value;
          return true;
        } else {
          // The one unsigned field, --seed, also takes 0x hex.
          return parse_number(value, slot, std::is_unsigned_v<T>) &&
                 std::cmp_greater_equal(slot, flag.floor);
        }
      },
      flag.field);
}

/// Fill `args` from argv[2..] by `command`'s entry of the table.
void parse(const Command& command, int argc, char** argv, Args& args) {
  std::vector<const Flag*> given;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const auto flag = std::ranges::find(command.flags, std::string_view{a}, &Flag::name);
    if (flag != command.flags.end()) {
      given.push_back(&*flag);
      const bool value = !std::holds_alternative<bool Args::*>(flag->field);
      if (value && ++i >= argc) throw UsageError{a + " needs a value"};
      if (!assign(*flag, value ? argv[i] : nullptr, args)) {
        throw UsageError{"bad value '" + std::string{argv[i]} + "' for " + a};
      }
    } else if (a.starts_with("--")) {
      throw UsageError{std::string{command.name} + " does not read " + a};
    } else if (!a.empty() && std::isdigit(static_cast<unsigned char>(a[0])) != 0) {
      i64 number = 0;
      if (!parse_number(a, number)) throw UsageError{"bad number '" + a + "'"};
      args.positional.push_back(number);
    } else if (command.word && args.word.empty() && !a.empty() && a[0] != '-') {
      args.word = a;
    } else {
      throw UsageError{"unexpected argument '" + a + "'"};
    }
  }
  if (std::ranges::find(command.arities, args.positional.size()) == command.arities.end() ||
      (command.word && args.word.empty())) {
    throw UsageError{"wrong number of arguments"};
  }
  for (const Flag* flag : given) {
    const std::string name{flag->name};
    if (args.positional.size() < flag->min_positionals) {
      throw UsageError{std::string{command.name} + " reads " + name + " only with " +
                       std::to_string(flag->min_positionals) + " or more positional arguments"};
    }
    const auto other = [&](const Flag* f) { return f != flag && f->name != "--json"; };
    if (flag->alone && (!args.positional.empty() || std::ranges::any_of(given, other))) {
      throw UsageError{name + " takes no other argument but --json"};
    }
  }
}

/// Distinct exit codes for typed failures (see the header comment).
int exit_code_of(vpmem::ErrorCode code) {
  switch (code) {
    case vpmem::ErrorCode::config_invalid: return 3;
    case vpmem::ErrorCode::fault_plan_invalid: return 4;
    case vpmem::ErrorCode::deadline_exceeded: return 5;
    case vpmem::ErrorCode::livelock: return 6;
  }
  return 1;
}

/// --json error envelope: even failed invocations leave a parseable record.
void write_error_json(const Args& args, const std::string& command, const std::string& code,
                      const std::string& message) {
  if (args.json_path.empty()) return;
  Json doc = cli_envelope(command);
  Json error = Json::object();
  error["code"] = code;
  error["message"] = message;
  doc["error"] = std::move(error);
  (void)maybe_write_json(args, doc);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const auto command = std::ranges::find(kCommands, std::string_view{argv[1]}, &Command::name);
  if (command == kCommands.end()) {
    std::cerr << "vpmem_cli: unknown subcommand '" << argv[1] << "'\n";
    return usage();
  }
  const std::string cmd{command->name};
  Args args;
  try {
    parse(*command, argc, argv, args);
    return command->run(args);
  } catch (const UsageError& e) {
    std::cerr << "vpmem_cli " << cmd << ": " << e.what() << '\n';
    return usage(&*command);
  } catch (const vpmem::Error& e) {
    std::cerr << "error (" << to_string(e.code()) << "): " << e.what() << '\n';
    write_error_json(args, cmd, to_string(e.code()), e.what());
    return exit_code_of(e.code());
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    write_error_json(args, cmd, "error", e.what());
    return 1;
  }
}
