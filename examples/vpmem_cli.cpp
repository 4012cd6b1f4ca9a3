// vpmem_cli — command-line front end to the library.
//
//   vpmem_cli single <m> <nc> <d>
//       One-stream analysis: return number, predicted and simulated b_eff.
//   vpmem_cli pair <m> <nc> <d1> <d2> [--same-cpu] [--sections s]
//       Two-stream classification plus the exact offset sweep.
//   vpmem_cli render <m> <nc> <d1> <d2> <b1> <b2> [cycles] [--same-cpu]
//            [--sections s] [--cyclic-priority] [--consecutive]
//       Draw the clock diagram in the paper's notation.
//   vpmem_cli report <m> <nc> <d1> [d2 [b1 b2]] [--length n] [--cycles N]
//            [--same-cpu] [--sections s] [--cyclic-priority] [--consecutive]
//       Run the configuration and emit the full structured RunReport
//       (schema vpmem.run_report/1) as JSON — to stdout, or to the --json
//       file when given.
//   vpmem_cli triad <n> <inc> [--dedicated]
//       Run the Section IV triad on the X-MP model.
//   vpmem_cli idim <m> <nc> <stride> <arrays> <min_elements>
//       Recommend a COMMON array extent (the IDIM question).
//   vpmem_cli diagnose <m> <nc> <d1> <d2> [--same-cpu] [--sections s]
//            [--cyclic-priority] [--consecutive]
//       Conflict-regime map over every relative start position.
//   vpmem_cli kernel <name> <n> <inc> [--dedicated]
//       Run copy/scale/sum/daxpy/triad/gather/scatter on the X-MP model.
//   vpmem_cli fuzz [iterations] [--seed S] [--cycles T] [--fault name]
//            [--fault-plans] [--no-shrink] [--replay LINE] [--jobs N]
//       Differential fuzzing: random configurations cross-checked against
//       the naive reference model and the analytic theorems.  With
//       --fault-plans every case also carries a randomized timed
//       degradation plan (both sides must still agree event-for-event).
//       Failures print one-line repros; --replay re-executes one.  With
//       --jobs N cases are checked on N worker threads; the campaign is
//       pre-sampled from the seed so the summary is byte-identical to the
//       sequential run.  Exits 1 on any disagreement.
//   vpmem_cli sweep <m> <nc> --d1 A:B --d2 A:B [--jobs N] [--journal f]
//            [--resume] [--sandbox] [--retries N] [--out results.json]
//            [--same-cpu] [--sections s] [--cyclic-priority]
//            [--consecutive] [--test-crash ID]
//       Campaign sweep over the (d1, d2) stride grid via the journaled
//       executor (exec::run_campaign).  Every point is one job: steady-
//       state b_eff, period, transient, conflicts — fully deterministic,
//       so --out files from interrupted-then-resumed campaigns are byte-
//       identical to uninterrupted ones.  --journal appends every attempt
//       to an append-only vpmem.journal/1 file; --resume skips jobs the
//       journal already settled (matched by config hash).  --sandbox
//       fork-isolates each point so a crashing job is quarantined with a
//       repro token instead of killing the campaign (--test-crash ID
//       deliberately crashes that job to prove it).  Exits 8 when any
//       job failed or was quarantined.
//   vpmem_cli faults <m> <nc> <d1> [d2 [b1 b2]] (--plan file.json | --inline SPEC)
//            [--policy stall|remap_spare] [--length n] [--cycles N]
//            [--max-cycles N] [--same-cpu] [--sections s]
//            [--cyclic-priority] [--consecutive]
//       Degraded-mode run: apply a timed fault plan (schema
//       vpmem.fault_plan/1 from --plan, or the compact --inline form,
//       e.g. 'stall;boff@40:b3;bon@160:b3') under a watchdog and report
//       the guarded RunReport plus the per-phase bandwidth between fault
//       events.  Exits 5 if the cycle budget expired, 6 on livelock.
//   vpmem_cli trace <m> <nc> <d1> [d2 [b1 b2]] [--out trace.json]
//            [--length n] [--cycles N] [--window N] [--no-attribution]
//            [--same-cpu] [--sections s] [--cyclic-priority] [--consecutive]
//       Run the configuration with the tracer attached and write a Chrome
//       trace-event / Perfetto JSON file (schema vpmem.trace/1) — load it
//       at ui.perfetto.dev.  Infinite streams default to a transient +
//       one-period window; the attribution summary also lands in the
//       --json envelope.
//
// Every subcommand accepts `--json <file>` and then also writes a
// machine-readable record of its result ("-" writes the JSON to stdout
// instead of a file); sweep-shaped subcommands log their perf telemetry
// (simulated cycles/second, per-point latency) to stderr.
//
// The long-running subcommands (fuzz, sweep, faults) install SIGINT/
// SIGTERM handlers: the first signal cancels cooperatively — the run
// stops at the next case/job/poll boundary, flushes its journal and
// still writes a valid --json envelope with "status": "interrupted" —
// and the second restores the default disposition (hard kill).
//
// Exit codes: 0 success, 1 generic failure (including fuzz
// disagreements), 2 usage, and for typed vpmem::Error conditions
// 3 = config_invalid, 4 = fault_plan_invalid, 5 = deadline_exceeded,
// 6 = livelock (the last two also report a guarded run that stopped
// early).  7 = interrupted by SIGINT/SIGTERM (partial results were
// still flushed); 8 = sweep campaign degraded (some jobs failed or
// were quarantined).  With --json, errors still write a vpmem.cli/1
// envelope whose "error" member carries {code, message}.
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
#include <vector>

#include "vpmem/vpmem.hpp"

namespace {

using namespace vpmem;

int usage() {
  std::cerr << "usage:\n"
               "  vpmem_cli single <m> <nc> <d>\n"
               "  vpmem_cli pair <m> <nc> <d1> <d2> [--same-cpu] [--sections s]\n"
               "  vpmem_cli render <m> <nc> <d1> <d2> <b1> <b2> [cycles] [--same-cpu]\n"
               "           [--sections s] [--cyclic-priority] [--consecutive]\n"
               "  vpmem_cli report <m> <nc> <d1> [d2 [b1 b2]] [--length n] [--cycles N]\n"
               "           [--same-cpu] [--sections s] [--cyclic-priority] [--consecutive]\n"
               "  vpmem_cli triad <n> <inc> [--dedicated]\n"
               "  vpmem_cli idim <m> <nc> <stride> <arrays> <min_elements>\n"
               "  vpmem_cli diagnose <m> <nc> <d1> <d2> [--same-cpu] [--sections s]\n"
               "  vpmem_cli kernel <name> <n> <inc> [--dedicated]\n"
               "  vpmem_cli fuzz [iterations] [--seed S] [--cycles T] [--fault name]\n"
               "           [--fault-plans] [--no-shrink] [--replay LINE] [--jobs N]\n"
               "  vpmem_cli sweep <m> <nc> --d1 A:B --d2 A:B [--jobs N] [--journal f]\n"
               "           [--resume] [--sandbox] [--retries N] [--out results.json]\n"
               "           [--same-cpu] [--sections s] [--cyclic-priority]\n"
               "           [--consecutive] [--test-crash ID]\n"
               "  vpmem_cli faults <m> <nc> <d1> [d2 [b1 b2]]\n"
               "           (--plan file.json | --inline SPEC) [--policy stall|remap_spare]\n"
               "           [--length n] [--cycles N] [--max-cycles N] [--same-cpu]\n"
               "           [--sections s] [--cyclic-priority] [--consecutive]\n"
               "  vpmem_cli trace <m> <nc> <d1> [d2 [b1 b2]] [--out trace.json]\n"
               "           [--length n] [--cycles N] [--window N] [--no-attribution]\n"
               "           [--same-cpu] [--sections s] [--cyclic-priority] [--consecutive]\n"
               "options accepted by every subcommand:\n"
               "  --json <file>   also write a machine-readable JSON record\n"
               "                  ('-' = stdout); schema: vpmem.run_report/1 for\n"
               "                  report, vpmem.cli/1 envelopes otherwise\n";
  return 2;
}

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

struct Args {
  std::vector<i64> positional;
  std::string word;  // non-numeric positional (kernel name)
  bool same_cpu = false;
  bool dedicated = false;
  bool cyclic_priority = false;
  bool consecutive = false;
  i64 sections = 0;  // 0 = same as banks
  i64 length = 0;    // 0 = infinite streams (report subcommand)
  i64 cycles = 0;    // 0 = automatic window (report subcommand)
  std::string json_path;  // empty = no JSON output
  // trace subcommand:
  std::string out;           // trace file path (empty = "trace.json")
  i64 window = 0;            // 0 = attribution default (64)
  bool no_attribution = false;
  // fuzz subcommand:
  std::uint64_t seed = 0x0ed1a25;  // matches check::FuzzOptions default
  bool seed_given = false;
  std::string fault;        // reference-model mutation name
  std::string replay_line;  // one-line repro to re-execute
  bool no_shrink = false;
  bool fault_plans = false;  // fuzz: attach randomized fault plans
  // faults subcommand:
  std::string plan_path;    // --plan: vpmem.fault_plan/1 JSON file
  std::string plan_inline;  // --inline: compact FaultPlan::parse() spec
  std::string policy;       // --policy: override the plan's policy
  i64 max_cycles = 0;       // --max-cycles: watchdog budget (0 = default)
  // campaign execution (fuzz --jobs; sweep subcommand):
  int jobs = 1;             // --jobs: worker threads
  std::string journal;      // --journal: vpmem.journal/1 path
  bool resume = false;      // --resume: skip jobs the journal settled
  bool sandbox = false;     // --sandbox: fork-isolate every sweep job
  i64 retries = 0;          // --retries: max attempts per job (0 = default)
  std::string test_crash;   // --test-crash: job id to SIGSEGV on purpose
  std::string d1_range;     // --d1: inclusive "A:B" stride range
  std::string d2_range;     // --d2: inclusive "A:B" stride range
  i64 throttle_ms = 0;      // --throttle-ms: pace each sweep job (tests)
};

bool parse(int argc, char** argv, Args& args) {
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--same-cpu") {
      args.same_cpu = true;
    } else if (a == "--dedicated") {
      args.dedicated = true;
    } else if (a == "--cyclic-priority") {
      args.cyclic_priority = true;
    } else if (a == "--consecutive") {
      args.consecutive = true;
    } else if (a == "--sections") {
      if (++i >= argc || !parse_number(argv[i], args.sections)) return false;
    } else if (a == "--length") {
      if (++i >= argc || !parse_number(argv[i], args.length)) return false;
    } else if (a == "--cycles") {
      if (++i >= argc || !parse_number(argv[i], args.cycles)) return false;
    } else if (a == "--json") {
      if (++i >= argc) return false;
      args.json_path = argv[i];
    } else if (a == "--out") {
      if (++i >= argc) return false;
      args.out = argv[i];
    } else if (a == "--window") {
      if (++i >= argc || !parse_number(argv[i], args.window)) return false;
    } else if (a == "--attribution") {
      args.no_attribution = false;  // the default; accepted for symmetry
    } else if (a == "--no-attribution") {
      args.no_attribution = true;
    } else if (a == "--seed") {
      if (++i >= argc || !parse_number(argv[i], args.seed, /*hex=*/true)) return false;
      args.seed_given = true;
    } else if (a == "--fault") {
      if (++i >= argc) return false;
      args.fault = argv[i];
    } else if (a == "--replay") {
      if (++i >= argc) return false;
      args.replay_line = argv[i];
    } else if (a == "--no-shrink") {
      args.no_shrink = true;
    } else if (a == "--fault-plans") {
      args.fault_plans = true;
    } else if (a == "--plan") {
      if (++i >= argc) return false;
      args.plan_path = argv[i];
    } else if (a == "--inline") {
      if (++i >= argc) return false;
      args.plan_inline = argv[i];
    } else if (a == "--policy") {
      if (++i >= argc) return false;
      args.policy = argv[i];
    } else if (a == "--max-cycles") {
      if (++i >= argc || !parse_number(argv[i], args.max_cycles)) return false;
    } else if (a == "--jobs") {
      if (++i >= argc || !parse_number(argv[i], args.jobs)) return false;
    } else if (a == "--journal") {
      if (++i >= argc) return false;
      args.journal = argv[i];
    } else if (a == "--resume") {
      args.resume = true;
    } else if (a == "--sandbox") {
      args.sandbox = true;
    } else if (a == "--retries") {
      if (++i >= argc || !parse_number(argv[i], args.retries)) return false;
    } else if (a == "--test-crash") {
      if (++i >= argc) return false;
      args.test_crash = argv[i];
    } else if (a == "--d1") {
      if (++i >= argc) return false;
      args.d1_range = argv[i];
    } else if (a == "--d2") {
      if (++i >= argc) return false;
      args.d2_range = argv[i];
    } else if (a == "--throttle-ms") {
      if (++i >= argc || !parse_number(argv[i], args.throttle_ms)) return false;
    } else if (!a.empty() && (std::isdigit(static_cast<unsigned char>(a[0])) != 0)) {
      i64 value = 0;
      if (!parse_number(a, value)) return false;
      args.positional.push_back(value);
    } else if (!a.empty() && a[0] != '-' && args.word.empty()) {
      args.word = a;
    } else {
      return false;
    }
  }
  return true;
}

sim::MemoryConfig config_from(const Args& args, i64 m, i64 nc) {
  return sim::MemoryConfig{
      .banks = m,
      .sections = args.sections > 0 ? args.sections : m,
      .bank_cycle = nc,
      .mapping = args.consecutive ? sim::SectionMapping::consecutive
                                  : sim::SectionMapping::cyclic,
      .priority = args.cyclic_priority ? sim::PriorityRule::cyclic : sim::PriorityRule::fixed};
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
  if (args.positional.size() != 3) return usage();
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
  if (args.positional.size() != 4) return usage();
  const auto cfg = config_from(args, args.positional[0], args.positional[1]);
  const core::PairReport r =
      core::analyze_pair(cfg, args.positional[2], args.positional[3], args.same_cpu);
  human(args) << r.summary() << "\nby offset:";
  for (std::size_t b2 = 0; b2 < r.by_offset.size(); ++b2) {
    human(args) << ' ' << b2 << ':' << r.by_offset[b2].str();
  }
  human(args) << '\n';
  // The offset sweep's perf telemetry (purely observational).
  const sim::OffsetSweep sweep =
      sim::sweep_start_offsets(cfg, args.positional[2], args.positional[3], args.same_cpu);
  std::cerr << "sweep telemetry: " << sweep.by_offset.size() << " offsets, "
            << sweep.cycles_simulated << " simulated cycles in " << sweep.wall_seconds
            << " s (" << sweep.cycles_per_second() << " cycles/s)\n";
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
    doc["sim_min"] = obs::json_of(r.sim_min);
    doc["sim_max"] = obs::json_of(r.sim_max);
    Json by_offset = Json::array();
    for (const auto& bw : r.by_offset) by_offset.push_back(obs::json_of(bw));
    doc["by_offset"] = std::move(by_offset);
    Json perf = Json::object();
    perf["points"] = sweep.by_offset.size();
    perf["wall_seconds"] = sweep.wall_seconds;
    perf["simulated_cycles"] = sweep.cycles_simulated;
    perf["cycles_per_second"] = sweep.cycles_per_second();
    doc["sweep_perf"] = std::move(perf);
    if (!maybe_write_json(args, doc)) return 1;
  }
  return 0;
}

int cmd_render(const Args& args) {
  if (args.positional.size() < 6) return usage();
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
  if (args.positional.size() != 3 && args.positional.size() != 4 &&
      args.positional.size() != 6) {
    return usage();
  }
  const auto cfg = config_from(args, args.positional[0], args.positional[1]);
  const std::vector<sim::StreamConfig> streams = report_streams(args);
  obs::ReportOptions options;
  options.cycles = args.cycles;
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

int cmd_triad(const Args& args) {
  if (args.positional.size() != 2) return usage();
  xmp::XmpConfig machine;
  xmp::TriadSetup setup;
  setup.n = args.positional[0];
  setup.inc = args.positional[1];
  const xmp::TriadResult r = xmp::run_triad(machine, setup, !args.dedicated);
  human(args) << "triad n=" << setup.n << " inc=" << setup.inc
            << (args.dedicated ? " (dedicated)" : " (contended)") << ": " << r.cycles
            << " cycles, conflicts bank=" << r.conflicts.bank
            << " section=" << r.conflicts.section << " simult=" << r.conflicts.simultaneous;
  if (!args.dedicated) human(args) << ", other CPU b_eff " << cell(r.background_goodput(), 3);
  human(args) << '\n';
  if (!args.json_path.empty()) {
    Json doc = cli_envelope("triad");
    doc["result"] = json_of_triad(r, setup, args.dedicated);
    if (!maybe_write_json(args, doc)) return 1;
  }
  return 0;
}

int cmd_diagnose(const Args& args) {
  if (args.positional.size() != 4) return usage();
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

int cmd_kernel(const Args& args) {
  if (args.positional.size() != 2 || args.word.empty()) return usage();
  const xmp::KernelSpec* spec = nullptr;
  for (const auto& k : xmp::all_kernels()) {
    if (k.name == args.word) spec = &k;
  }
  if (spec == nullptr) {
    std::cerr << "unknown kernel '" << args.word << "'; choose from:";
    for (const auto& k : xmp::all_kernels()) std::cerr << ' ' << k.name;
    std::cerr << '\n';
    return 2;
  }
  xmp::XmpConfig machine;
  xmp::TriadSetup setup;
  setup.n = args.positional[0];
  setup.inc = args.positional[1];
  const xmp::TriadResult r = xmp::run_kernel(machine, *spec, setup, !args.dedicated);
  human(args) << spec->name << " n=" << setup.n << " inc=" << setup.inc
            << (args.dedicated ? " (dedicated)" : " (contended)") << ": " << r.cycles
            << " cycles, conflicts bank=" << r.conflicts.bank
            << " section=" << r.conflicts.section << " simult=" << r.conflicts.simultaneous
            << '\n';
  if (!args.json_path.empty()) {
    Json doc = cli_envelope("kernel");
    doc["kernel"] = spec->name;
    doc["result"] = json_of_triad(r, setup, args.dedicated);
    if (!maybe_write_json(args, doc)) return 1;
  }
  return 0;
}

int cmd_idim(const Args& args) {
  if (args.positional.size() != 5) return usage();
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
  if (args.positional.size() > 1) return usage();

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
  if (args.positional.size() != 3 && args.positional.size() != 4 &&
      args.positional.size() != 6) {
    return usage();
  }
  if (args.plan_path.empty() && args.plan_inline.empty()) return usage();
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
bool parse_range(const std::string& text, i64& lo, i64& hi) {
  const std::size_t colon = text.find(':');
  if (colon == std::string::npos) {
    if (!parse_number(text, lo)) return false;
    hi = lo;
    return true;
  }
  const std::string_view view{text};
  return parse_number(view.substr(0, colon), lo) && parse_number(view.substr(colon + 1), hi) &&
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
  if (args.positional.size() != 2) return usage();
  i64 d1_lo = 0, d1_hi = 0, d2_lo = 0, d2_hi = 0;
  if (!parse_range(args.d1_range, d1_lo, d1_hi) || !parse_range(args.d2_range, d2_lo, d2_hi)) {
    std::cerr << "sweep: --d1 and --d2 take an inclusive range A:B\n";
    return usage();
  }
  if (args.resume && args.journal.empty()) {
    std::cerr << "sweep: --resume needs --journal\n";
    return usage();
  }
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
  if (args.positional.size() != 3 && args.positional.size() != 4 &&
      args.positional.size() != 6) {
    return usage();
  }
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
      std::cerr << "error: finite workload did not finish within 1000000 cycles; "
                   "pass --cycles\n";
      return 1;
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

}  // namespace

namespace {

/// Distinct exit codes for typed failures (documented in usage()).
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
  Args args;
  if (!parse(argc, argv, args)) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "single") return cmd_single(args);
    if (cmd == "pair") return cmd_pair(args);
    if (cmd == "render") return cmd_render(args);
    if (cmd == "report") return cmd_report(args);
    if (cmd == "triad") return cmd_triad(args);
    if (cmd == "idim") return cmd_idim(args);
    if (cmd == "diagnose") return cmd_diagnose(args);
    if (cmd == "kernel") return cmd_kernel(args);
    if (cmd == "fuzz") return cmd_fuzz(args);
    if (cmd == "sweep") return cmd_sweep(args);
    if (cmd == "faults") return cmd_faults(args);
    if (cmd == "trace") return cmd_trace(args);
  } catch (const vpmem::Error& e) {
    std::cerr << "error (" << to_string(e.code()) << "): " << e.what() << '\n';
    write_error_json(args, cmd, to_string(e.code()), e.what());
    return exit_code_of(e.code());
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    write_error_json(args, cmd, "error", e.what());
    return 1;
  }
  return usage();
}
