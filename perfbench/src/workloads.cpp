#include "workloads.hpp"

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "vpmem/analytic/stream.hpp"
#include "vpmem/analytic/theorems.hpp"
#include "vpmem/baseline/rng.hpp"
#include "vpmem/check/fuzzer.hpp"
#include "vpmem/check/replay.hpp"
#include "vpmem/core/triad_experiment.hpp"
#include "vpmem/exec/executor.hpp"
#include "vpmem/exec/pool.hpp"
#include "vpmem/obs/report.hpp"
#include "vpmem/obs/timer.hpp"
#include "vpmem/obs/tracer.hpp"
#include "vpmem/sim/memory_system.hpp"
#include "vpmem/sim/run.hpp"
#include "vpmem/sim/steady_state.hpp"
#include "vpmem/util/hash.hpp"
#include "vpmem/xmp/kernels.hpp"

namespace perfbench {

using vpmem::i64;
using vpmem::Json;
using vpmem::Rational;
namespace sim = vpmem::sim;

namespace {

i64 pick(vpmem::baseline::SplitMix64& rng, i64 bound) {
  return static_cast<i64>(rng.next_below(static_cast<std::uint64_t>(bound)));
}

Json conflicts_json(const sim::ConflictTotals& c) { return vpmem::obs::json_of(c); }

i64 conflicts_total(const Json& c) {
  return c.at("bank").as_int() + c.at("simultaneous").as_int() + c.at("section").as_int() +
         c.at("fault").as_int();
}

i64 grants_of(const std::vector<sim::PortStats>& ports) {
  i64 g = 0;
  for (const auto& p : ports) g += p.grants;
  return g;
}

// ------------------------------------------------------------------------
// steady_sweep: the `vpmem_cli sweep` campaign — exact steady-state b_eff
// of (d1, d2, b2) points on 2 journaled workers.
// ------------------------------------------------------------------------

struct SweepPoint {
  i64 m = 0;
  i64 nc = 4;
  i64 d1 = 1;
  i64 d2 = 1;
  i64 b2 = 0;
};

/// A `vpmem_cli sweep 256 4 --d1 1:32 --d2 1:32` grid whose start offsets
/// b2 come from the seed, plus a fixed large-m tail (d1=1, d2=3 at
/// m=4096, about 430 MB of visited states each) whose state map dominates
/// peak memory (ROADMAP item 1).  The tail does not depend on the seed,
/// so neither does peak memory.  It has 3 points, not more: each takes
/// 100x a grid point, and with 10 or more of them item_ms_p99 would read
/// the slowest grid point instead of a percentile.
constexpr i64 kSweepStrides = 32;  ///< d1, d2 in 1..32
constexpr i64 kSweepGridBanks = 256;
constexpr std::size_t kSweepTail = 3;
constexpr i64 kSweepTailBanks = 4096;
constexpr i64 kSweepTailStep = 1365;  ///< tail offsets b2 = 0, 1365, 2730

class SteadySweep final : public Workload {
 public:
  using Workload::Workload;

  void setup(SpanRecorder& spans) override {
    const Scope scope{spans, "bench.generate"};
    vpmem::baseline::SplitMix64 rng{options_.seed ^ 0x5157eed5ULL};
    points_.clear();
    const auto strides = static_cast<i64>(scaled(static_cast<std::size_t>(kSweepStrides)));
    for (i64 d1 = 1; d1 <= strides; ++d1) {
      for (i64 d2 = 1; d2 <= kSweepStrides; ++d2) {
        points_.push_back({kSweepGridBanks, 4, d1, d2, pick(rng, kSweepGridBanks)});
      }
    }
    // The tail is all or nothing: a scaled-down run (self-tests) skips it.
    const std::size_t tail = options_.scale < 1.0 ? 0 : kSweepTail;
    for (std::size_t i = 0; i < tail; ++i) {
      points_.push_back({kSweepTailBanks, 4, 1, 3, static_cast<i64>(i) * kSweepTailStep});
    }
    latency_ms_.assign(points_.size(), 0.0);
    jobs_.clear();
    jobs_.reserve(points_.size());
    for (std::size_t i = 0; i < points_.size(); ++i) {
      const SweepPoint& p = points_[i];
      vpmem::exec::JobSpec job;
      job.id = "m=" + std::to_string(p.m) + "/d1=" + std::to_string(p.d1) +
               "/d2=" + std::to_string(p.d2) + "/b2=" + std::to_string(p.b2);
      job.hash = vpmem::stable_hash("perfbench.sweep/1 " + job.id + " nc=" +
                                    std::to_string(p.nc) + " #" + std::to_string(i));
      job.repro = "sweep " + std::to_string(p.m) + " " + std::to_string(p.nc) + " --d1 " +
                  std::to_string(p.d1) + ":" + std::to_string(p.d1) + " --d2 " +
                  std::to_string(p.d2) + ":" + std::to_string(p.d2);
      job.run = [this, i] { return run_point(static_cast<i64>(i)); };
      jobs_.push_back(std::move(job));
    }
    // Journal open: a fresh append-only file per set-up.
    std::filesystem::create_directories(options_.scratch_dir);
    journal_ = (std::filesystem::path{options_.scratch_dir} /
                ("steady_sweep-" + std::to_string(options_.seed) + ".journal.jsonl"))
                   .string();
    std::filesystem::remove(journal_);
  }

  ~SteadySweep() override {
    std::error_code ignored;
    if (!journal_.empty()) std::filesystem::remove(journal_, ignored);
  }

 protected:
  void execute(SpanRecorder& spans, RoundResult& out) override {
    spans_ = &spans;
    vpmem::exec::ExecutorOptions options;
    options.jobs = kWorkers;
    options.journal_path = journal_;
    const auto journal_before = journal_size();
    const double t0 = now_s();
    vpmem::exec::CampaignSummary summary;
    {
      const Scope campaign{spans, "exec.run_campaign"};
      campaign_span_ = campaign.id();
      summary = vpmem::exec::run_campaign(jobs_, options);
    }
    out.timed_s = now_s() - t0;
    spans.count("exec.jobs.completed", static_cast<double>(summary.completed));
    spans.count("exec.jobs.failed", static_cast<double>(summary.failed + summary.quarantined));
    spans.count("exec.jobs.retried", static_cast<double>(summary.retries));
    spans.count("exec.journal.bytes", static_cast<double>(journal_size() - journal_before));
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      const auto& r = summary.results[i];
      Json record = r.status == vpmem::exec::JobStatus::ok ? r.result : Json::object();
      if (r.status != vpmem::exec::JobStatus::ok) {
        record["job_status"] = vpmem::exec::to_string(r.status);
        record["job_error"] = r.error;
      }
      out.records.push_back(std::move(record));
      out.latency_ms.push_back(latency_ms_[i]);
    }
  }

  std::string check(i64 item, const Json& record) const override {
    if (record.contains("job_status")) {
      return "job " + record.at("job_status").as_string() + ": " +
             record.at("job_error").as_string();
    }
    const SweepPoint& p = points_[static_cast<std::size_t>(item)];
    const Rational b_eff{record.at("b_eff").at("num").as_int(),
                         record.at("b_eff").at("den").as_int()};
    const i64 period = record.at("period").as_int();
    i64 grants = 0;
    for (const Json& g : record.at("grants_in_period").as_array()) grants += g.as_int();
    const i64 conflicts = conflicts_total(record.at("conflicts_in_period"));
    if (period <= 0 || record.at("transient_cycles").as_int() < 0) return "bad transient/period";
    if (b_eff != Rational{grants, period}) return "b_eff != grants/period";
    // Each port is granted or delayed in every period of the cycle.
    if (grants + conflicts != 2 * period) return "grants + conflicts != ports * period";
    if (b_eff > Rational{2}) return "b_eff above the port count";
    // Theorem 1 (with Theorem 2's disjoint access sets): the streams never
    // meet, so each runs at its single-stream bandwidth.
    if (vpmem::analytic::access_sets_disjoint(p.m, 0, p.d1, p.b2, p.d2)) {
      const Rational expect = vpmem::analytic::single_stream_bandwidth(p.m, p.d1, p.nc) +
                              vpmem::analytic::single_stream_bandwidth(p.m, p.d2, p.nc);
      if (b_eff != expect) return "Theorem 1: expected b_eff " + expect.str();
    }
    // Theorem 3 synchronization: every offset converges to conflict-free.
    if (vpmem::analytic::self_conflict_free(p.m, p.d1, p.nc) &&
        vpmem::analytic::self_conflict_free(p.m, p.d2, p.nc) &&
        vpmem::analytic::conflict_free_achievable(p.m, p.nc, p.d1, p.d2) && b_eff != Rational{2}) {
      return "Theorem 3: expected b_eff 2, got " + b_eff.str();
    }
    return {};
  }

 private:
  Json run_point(i64 i) {
    const Scope job{*spans_, "bench.job", i, campaign_span_};
    const double t0 = now_s();
    const SweepPoint& p = points_[static_cast<std::size_t>(i)];
    const sim::MemoryConfig cfg{.banks = p.m, .sections = p.m, .bank_cycle = p.nc};
    sim::SteadyState ss;
    {
      const Scope call{*spans_, "sim.find_steady_state", i};
      ss = sim::find_steady_state(cfg, sim::two_streams(0, p.d1, p.b2, p.d2));
    }
    spans_->count("sim.find_steady_state.cycles_stepped", static_cast<double>(ss.cycles_simulated));
    // The `vpmem_cli sweep` point payload, plus the point's m and b2.
    Json out = Json::object();
    out["m"] = p.m;
    out["d1"] = p.d1;
    out["d2"] = p.d2;
    out["b2"] = p.b2;
    out["b_eff"] = vpmem::obs::json_of(ss.bandwidth);
    out["transient_cycles"] = ss.transient_cycles;
    out["period"] = ss.period;
    Json grants = Json::array();
    for (const i64 g : ss.grants_in_period) grants.push_back(g);
    out["grants_in_period"] = std::move(grants);
    out["conflicts_in_period"] = conflicts_json(ss.conflicts_in_period);
    latency_ms_[static_cast<std::size_t>(i)] = (now_s() - t0) * 1e3;
    return out;
  }

  [[nodiscard]] std::uintmax_t journal_size() const {
    std::error_code ec;
    const auto size = std::filesystem::file_size(journal_, ec);
    return ec ? 0 : size;
  }

  std::vector<SweepPoint> points_;
  std::vector<vpmem::exec::JobSpec> jobs_;
  std::vector<double> latency_ms_;  ///< one slot per job, written by its worker
  std::string journal_;
  SpanRecorder* spans_ = nullptr;
  std::int64_t campaign_span_ = -1;
};

// ------------------------------------------------------------------------
// xmp_kernels: Fig. 10 and the kernel family — the triad experiment on
// 2 workers, then every other kernel contended/dedicated and every kernel
// multitasked, INC 1..64, n = 1024.
// ------------------------------------------------------------------------

constexpr i64 kIncMax = 64;
constexpr i64 kKernelN = 1024;

enum class KernelMode { contended, dedicated, multitasked };

struct KernelRun {
  std::size_t kernel = 0;  ///< index into xmp::all_kernels()
  i64 inc = 1;
  i64 base_bank = 0;
  KernelMode mode = KernelMode::contended;
};

/// What one kernel execution produced (CPU 0, or both CPUs multitasked).
struct KernelOutput {
  i64 cycles = 0;
  i64 grants = 0;
  i64 background_grants = 0;
  sim::ConflictTotals conflicts;
  sim::ConflictTotals port_conflicts;  ///< re-summed from the port stats
};

i64 kernel_arrays(const vpmem::xmp::KernelSpec& spec) { return spec.loads + (spec.store ? 1 : 0); }

class XmpKernels final : public Workload {
 public:
  using Workload::Workload;

  void setup(SpanRecorder& spans) override {
    const Scope scope{spans, "bench.generate"};
    vpmem::baseline::SplitMix64 rng{options_.seed ^ 0x00c0ffeeULL};
    const auto& kernels = vpmem::xmp::all_kernels();
    inc_max_ = std::max<i64>(16, static_cast<i64>(scaled(static_cast<std::size_t>(kIncMax))));
    runs_.clear();
    for (std::size_t k = 0; k < kernels.size(); ++k) {
      for (i64 inc = 1; inc <= inc_max_; ++inc) {
        const i64 base = pick(rng, 16);
        if (kernels[k].name != "triad") {  // the triad's runs are the Fig. 10 sweep
          runs_.push_back({k, inc, base, KernelMode::contended});
          runs_.push_back({k, inc, base, KernelMode::dedicated});
        }
        runs_.push_back({k, inc, base, KernelMode::multitasked});
      }
    }
    for (std::size_t i = runs_.size(); i > 1; --i) {  // seeded dispatch order
      std::swap(runs_[i - 1], runs_[static_cast<std::size_t>(pick(rng, static_cast<i64>(i)))]);
    }
    outputs_.assign(runs_.size(), KernelOutput{});
    latency_ms_.assign(runs_.size(), 0.0);
  }

 protected:
  void execute(SpanRecorder& spans, RoundResult& out) override {
    const vpmem::xmp::XmpConfig machine;
    const double t0 = now_s();
    std::vector<vpmem::core::TriadRow> rows;
    vpmem::obs::SweepTelemetry telemetry;
    {
      const Scope call{spans, "core.run_triad_experiment"};
      vpmem::core::TriadExperiment experiment;
      experiment.setup.n = kKernelN;
      experiment.inc_min = 1;
      experiment.inc_max = inc_max_;
      rows = vpmem::core::run_triad_experiment(experiment, kWorkers, &telemetry);
    }
    const double t1 = now_s();
    spans.count("core.run_triad_experiment.busy_s", telemetry.total_seconds());
    spans.count("core.run_triad_experiment.wall_s", t1 - t0);
    {
      const Scope region{spans, "exec.parallel_for"};
      const std::int64_t parent = region.id();
      vpmem::exec::parallel_for(static_cast<i64>(runs_.size()), kWorkers,
                                [&](i64 i, int /*worker*/) { run_kernel(spans, machine, i, parent); });
    }
    out.timed_s = now_s() - t0;

    for (const auto& row : rows) {
      for (const bool contended : {true, false}) {
        Json r = Json::object();
        r["kernel"] = "triad";
        r["mode"] = contended ? "contended" : "dedicated";
        r["inc"] = row.inc;
        r["cycles"] = contended ? row.cycles_contended : row.cycles_dedicated;
        r["conflicts"] = conflicts_json(contended ? row.conflicts_contended : row.conflicts_dedicated);
        r["background_goodput"] = contended ? row.background_goodput : 0.0;
        out.records.push_back(std::move(r));
      }
    }
    const auto& kernels = vpmem::xmp::all_kernels();
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      const KernelRun& run = runs_[i];
      const KernelOutput& o = outputs_[i];
      Json r = Json::object();
      r["kernel"] = kernels[run.kernel].name;
      r["mode"] = run.mode == KernelMode::contended   ? "contended"
                  : run.mode == KernelMode::dedicated ? "dedicated"
                                                      : "multitasked";
      r["inc"] = run.inc;
      r["base_bank"] = run.base_bank;
      r["cycles"] = o.cycles;
      r["grants"] = o.grants;
      r["background_grants"] = o.background_grants;
      r["conflicts"] = conflicts_json(o.conflicts);
      r["port_conflicts"] = conflicts_json(o.port_conflicts);
      out.records.push_back(std::move(r));
      out.latency_ms.push_back(latency_ms_[i]);
    }
  }

  std::string check(i64 /*item*/, const Json& r) const override {
    // One element per port per period: a CPU needs at least n periods,
    // two cooperating CPUs at least n/2.
    const i64 min_cycles = r.at("mode").as_string() == "multitasked" ? kKernelN / 2 : kKernelN;
    if (r.at("cycles").as_int() < min_cycles) return "fewer periods than one port needs";
    if (!r.contains("grants")) return {};  // a Fig. 10 row; shape checked per round
    const auto& kernels = vpmem::xmp::all_kernels();
    const auto spec = std::find_if(kernels.begin(), kernels.end(), [&](const auto& k) {
      return k.name == r.at("kernel").as_string();
    });
    if (spec == kernels.end()) return "unknown kernel";
    // A kernel without a store transfers every load element exactly once.
    // With a store the run ends at the last store grant, and the chained
    // store waits only for its operands' first elements, so an operand
    // load may still be in flight (seen with gather and scatter): every
    // store element, and no more than every element, is transferred.
    const i64 grants = r.at("grants").as_int();
    const i64 all = kKernelN * kernel_arrays(*spec);
    if (spec->store ? grants < kKernelN || grants > all : grants != all) {
      return "grants outside [n, n * arrays] (" + std::to_string(grants) + ")";
    }
    if (r.at("conflicts") != r.at("port_conflicts")) return "conflict totals != port stats";
    return {};
  }

  void check_round(RoundResult& out) const override {
    // Fig. 10 shape (EXPERIMENTS.md): with the other CPU streaming, the
    // three fastest strides among INC 1..16 are 1, 6 and 11.
    std::vector<std::pair<i64, i64>> contended;  // (cycles, inc)
    std::vector<std::size_t> items;
    for (std::size_t i = 0; i < out.records.size(); ++i) {
      const Json& r = out.records[i];
      if (r.contains("grants") || r.at("inc").as_int() > 16) continue;
      items.push_back(i);
      if (r.at("mode").as_string() == "contended") {
        contended.emplace_back(r.at("cycles").as_int(), r.at("inc").as_int());
      }
    }
    std::sort(contended.begin(), contended.end());
    std::vector<i64> best;
    for (std::size_t i = 0; i < std::min<std::size_t>(3, contended.size()); ++i) {
      best.push_back(contended[i].second);
    }
    std::sort(best.begin(), best.end());
    if (best == std::vector<i64>{1, 6, 11}) return;
    for (const std::size_t i : items) {
      if (out.errors[i].empty()) out.errors[i] = "Fig. 10 shape: best INCs are not {1, 6, 11}";
    }
  }

 private:
  void run_kernel(SpanRecorder& spans, const vpmem::xmp::XmpConfig& machine, i64 i,
                  std::int64_t parent) {
    const KernelRun& run = runs_[static_cast<std::size_t>(i)];
    const auto& spec = vpmem::xmp::all_kernels()[run.kernel];
    vpmem::xmp::TriadSetup setup;
    setup.n = kKernelN;
    setup.inc = run.inc;
    setup.base_bank = run.base_bank;
    KernelOutput o;
    const double t0 = now_s();
    if (run.mode == KernelMode::multitasked) {
      vpmem::xmp::MultitaskResult result;
      {
        const Scope call{spans, "xmp.run_kernel_multitasked", i, parent};
        result = vpmem::xmp::run_kernel_multitasked(machine, spec, setup);
      }
      latency_ms_[static_cast<std::size_t>(i)] = (now_s() - t0) * 1e3;
      o.cycles = result.cycles;
      o.grants = grants_of(result.cpu0_ports) + grants_of(result.cpu1_ports);
      o.conflicts = result.conflicts;
      auto all = result.cpu0_ports;
      all.insert(all.end(), result.cpu1_ports.begin(), result.cpu1_ports.end());
      o.port_conflicts = sim::totals(all);
      spans.count("xmp.run_kernel_multitasked.sim_cycles", static_cast<double>(result.cycles));
    } else {
      vpmem::xmp::TriadResult result;
      {
        const Scope call{spans, "xmp.run_kernel", i, parent};
        result = vpmem::xmp::run_kernel(machine, spec, setup,
                                        run.mode == KernelMode::contended);
      }
      latency_ms_[static_cast<std::size_t>(i)] = (now_s() - t0) * 1e3;
      o.cycles = result.cycles;
      o.grants = grants_of(result.triad_ports);
      o.background_grants = grants_of(result.background_ports);
      o.conflicts = result.conflicts;
      o.port_conflicts = sim::totals(result.triad_ports);
      spans.count("xmp.run_kernel.sim_cycles", static_cast<double>(result.cycles));
      spans.count("xmp.run_kernel.ports",
                  static_cast<double>(result.triad_ports.size() + result.background_ports.size()));
      const sim::ConflictTotals bg = sim::totals(result.background_ports);
      spans.count("sim.events", static_cast<double>(o.background_grants + bg.total()));
    }
    spans.count("sim.events", static_cast<double>(o.grants + o.port_conflicts.total()));
    outputs_[static_cast<std::size_t>(i)] = o;
  }

  i64 inc_max_ = kIncMax;
  std::vector<KernelRun> runs_;
  std::vector<KernelOutput> outputs_;  ///< one slot per run, written by its worker
  std::vector<double> latency_ms_;
};

// ------------------------------------------------------------------------
// trace_export: the `report` and `trace --out` paths on finite two-stream
// configurations (m = 64, s = 16): bare run, report + JSON, traced run +
// Chrome trace + JSON.
// ------------------------------------------------------------------------

constexpr std::size_t kTraceConfigs = 1024;
constexpr i64 kTraceLengthMin = 112;  ///< elements per stream: 112..144
constexpr i64 kTraceLengthSpan = 33;
/// Tracer buffer: 16k events (512 KB), well above an item's ~600 events;
/// the check that nothing was dropped keeps it honest.  The 8 MB default
/// would be pre-faulted once per item, which made the workload bound by
/// memory bandwidth and swing by 20% on a shared host.
constexpr std::size_t kTraceCapacity = std::size_t{1} << 14;

struct TraceConfig {
  sim::MemoryConfig memory;
  std::vector<sim::StreamConfig> streams;
};

/// The report without its host-timing block: what the digest covers.
Json without_perf(const Json& report) {
  Json out = Json::object();
  for (const auto& [key, value] : report.as_object()) {
    if (key != "perf") out[key] = value;
  }
  return out;
}

/// Trace events drawn from recorded simulator events: one "grant" slice
/// per grant (its bank "service" slice is the pair's other half) and one
/// instant per conflict.
i64 trace_events_from_buffer(const Json& trace) {
  i64 n = 0;
  for (const Json& e : trace.at("traceEvents").as_array()) {
    const std::string& ph = e.at("ph").as_string();
    if (ph == "i" || (ph == "X" && e.at("cat").as_string() == "grant")) ++n;
  }
  return n;
}

class TraceExport final : public Workload {
 public:
  using Workload::Workload;

  void setup(SpanRecorder& spans) override {
    const Scope scope{spans, "bench.generate"};
    vpmem::baseline::SplitMix64 rng{options_.seed ^ 0x7ace7aceULL};
    configs_.clear();
    configs_.reserve(scaled(kTraceConfigs));
    for (std::size_t i = 0; i < scaled(kTraceConfigs); ++i) {
      TraceConfig c;
      c.memory = sim::MemoryConfig{.banks = 64, .sections = 16, .bank_cycle = 4};
      for (i64 port = 0; port < 2; ++port) {
        sim::StreamConfig s;
        s.start_bank = pick(rng, 64);
        s.distance = 1 + 2 * pick(rng, 32);  // odd: no stream conflicts with itself
        s.cpu = port == 0 ? 0 : pick(rng, 2);
        s.length = kTraceLengthMin + pick(rng, kTraceLengthSpan);
        c.streams.push_back(s);
      }
      configs_.push_back(std::move(c));
    }
  }

 protected:
  void execute(SpanRecorder& spans, RoundResult& out) override {
    for (std::size_t i = 0; i < configs_.size(); ++i) {
      const auto item = static_cast<i64>(i);
      const TraceConfig& c = configs_[i];
      const double t0 = now_s();
      // 1. Bare run.
      sim::RunResult bare;
      {
        const Scope call{spans, "sim.run.bare", item};
        bare = sim::run_to_completion(c.memory, c.streams);
      }
      // 2. `vpmem_cli report`: report, JSON document, serialization.
      vpmem::obs::RunReport report;
      {
        const Scope call{spans, "obs.report_run", item};
        report = vpmem::obs::report_run(c.memory, c.streams);
      }
      Json report_json;
      {
        const Scope call{spans, "obs.report.to_json", item};
        report_json = report.to_json();
      }
      std::string report_text;
      {
        const Scope call{spans, "util.json.dump", item};
        report_text = report_json.dump(2);
      }
      // 3. `vpmem_cli trace --out`: traced run, Chrome trace, serialization.
      std::unique_ptr<sim::MemorySystem> mem;
      std::unique_ptr<vpmem::obs::Tracer> tracer;
      {
        const Scope call{spans, "obs.tracer.attach", item};
        mem = std::make_unique<sim::MemorySystem>(c.memory, c.streams);
        tracer = std::make_unique<vpmem::obs::Tracer>(
            *mem, vpmem::obs::TracerOptions{.capacity = kTraceCapacity});
      }
      {
        const Scope call{spans, "obs.tracer.run", item};
        mem->run(1'000'000, /*stop_when_finished=*/true);
        tracer->finish();
      }
      Json trace;
      {
        const Scope call{spans, "obs.tracer.chrome_trace", item};
        trace = tracer->chrome_trace();
      }
      std::string trace_text;
      {
        const Scope call{spans, "util.json.dump", item};
        trace_text = trace.dump(1);
      }
      const double t1 = now_s();
      out.latency_ms.push_back((t1 - t0) * 1e3);
      out.timed_s += t1 - t0;

      const Scope validate{spans, "bench.validate", item};
      const i64 recorded = tracer->buffer().recorded();
      spans.count("sim.run.bare.cycles", static_cast<double>(bare.cycles));
      spans.count("sim.events", static_cast<double>(bare.total_grants() + bare.conflicts.total()));
      spans.count("obs.report_run.sim_cycles", static_cast<double>(report.perf.cycles_simulated));
      spans.count("obs.tracer.sim_cycles", static_cast<double>(mem->now()));
      spans.count("obs.tracer.events_recorded", static_cast<double>(recorded));
      spans.count("util.json.dump.bytes",
                  static_cast<double>(report_text.size() + trace_text.size()));

      Json r = Json::object();
      r["cycles"] = bare.cycles;
      r["grants"] = bare.total_grants();
      r["conflicts"] = conflicts_json(bare.conflicts);
      r["elements"] = c.streams[0].length + c.streams[1].length;
      r["report_cycles"] = report.cycles;
      r["report_grants"] = grants_of(report.ports);
      r["tracer_cycles"] = mem->now();
      r["report_digest"] = vpmem::hex64(vpmem::fnv1a64(without_perf(report_json).dump()));
      r["report_roundtrip"] =
          vpmem::obs::RunReport::from_json(Json::parse(report_text)).to_json().dump(2) ==
          report_text;
      r["trace_events"] = trace_events_from_buffer(trace);
      r["trace_recorded"] = recorded;
      r["trace_dropped"] = tracer->buffer().dropped();
      out.records.push_back(std::move(r));
    }
  }

  std::string check(i64 /*item*/, const Json& r) const override {
    const i64 grants = r.at("grants").as_int();
    if (grants != r.at("elements").as_int()) return "bare run lost elements";
    if (r.at("report_cycles") != r.at("cycles") || r.at("report_grants").as_int() != grants) {
      return "report disagrees with the bare run";
    }
    if (r.at("tracer_cycles") != r.at("cycles")) return "traced run disagrees with the bare run";
    if (!r.at("report_roundtrip").as_bool()) return "RunReport JSON round-trip changed the report";
    if (r.at("trace_recorded").as_int() != grants + conflicts_total(r.at("conflicts"))) {
      return "tracer recorded != grants + conflicts";
    }
    if (r.at("trace_dropped").as_int() != 0 ||
        r.at("trace_events") != r.at("trace_recorded")) {
      return "trace event count != Tracer::buffer().recorded()";
    }
    return {};
  }

 private:
  std::vector<TraceConfig> configs_;
};

// ------------------------------------------------------------------------
// diff_fuzz: the differential gate — simulator vs ReferenceModel plus the
// analytic invariants on healthy cases, differential only on cases with a
// fault plan.
// ------------------------------------------------------------------------

constexpr std::size_t kFuzzCases = 10'000;
constexpr std::size_t kFaultPlanEvery = 4;  ///< every 4th case carries a fault plan

/// Memory-heavy cases that earlier seeds drew (m=32, nc=1, four infinite
/// streams; the invariants' steady-state searches hold ~17 MB of visited
/// states).  About one seed in ten draws such a case.  Every round replays
/// these first, one per worker, so peak memory does not hinge on whether
/// the seed happens to draw one.
constexpr const char* kHeavyRepros[] = {
    "vpmem.fuzz/1 m=32 s=32 nc=1 map=cyclic prio=fixed cycles=224 fault=none "
    "stream=b22,d14,c2,linf,t0 stream=b16,d29,c2,linf,t0 stream=b19,d-26,c2,linf,t0 "
    "stream=b4,d-21,c2,linf,t2",
    "vpmem.fuzz/1 m=32 s=1 nc=1 map=cyclic prio=cyclic cycles=224 fault=none "
    "stream=b6,d47,c2,linf,t0 stream=b10,d22,c1,linf,t0 stream=b14,d47,c1,linf,t0 "
    "stream=b30,d-27,c1,linf,t0",
};

class DiffFuzz final : public Workload {
 public:
  using Workload::Workload;

  void setup(SpanRecorder& spans) override {
    // Pre-sampled from the seed, as `vpmem_cli fuzz --jobs N` does.
    const Scope scope{spans, "bench.generate"};
    vpmem::check::FuzzOptions healthy;
    healthy.seed = options_.seed;
    vpmem::check::FuzzOptions degraded = healthy;
    degraded.fault_plans = true;
    vpmem::baseline::SplitMix64 rng{options_.seed};
    cases_.clear();
    cases_.reserve(std::size(kHeavyRepros) + scaled(kFuzzCases));
    for (const char* line : kHeavyRepros) cases_.push_back(vpmem::check::parse_repro(line));
    for (std::size_t i = 0; i < scaled(kFuzzCases); ++i) {
      const Scope call{spans, "check.sample_case", static_cast<i64>(cases_.size())};
      cases_.push_back(vpmem::check::sample_case(
          rng, i % kFaultPlanEvery == kFaultPlanEvery - 1 ? degraded : healthy));
    }
    results_.assign(cases_.size(), vpmem::check::CaseResult{});
    latency_ms_.assign(cases_.size(), 0.0);
  }

 protected:
  void execute(SpanRecorder& spans, RoundResult& out) override {
    const double t0 = now_s();
    {
      const Scope region{spans, "exec.parallel_for"};
      const std::int64_t parent = region.id();
      vpmem::exec::parallel_for(static_cast<i64>(cases_.size()), kWorkers, [&](i64 i, int) {
        const auto k = static_cast<std::size_t>(i);
        const double start = now_s();
        {
          const Scope call{spans, "check.check_case", i, parent};
          results_[k] = vpmem::check::check_case(cases_[k]);
        }
        latency_ms_[k] = (now_s() - start) * 1e3;
        spans.count("check.check_case.events_compared",
                    static_cast<double>(results_[k].events_compared));
        spans.count("check.check_case.checks_run", static_cast<double>(results_[k].checks_run));
      });
    }
    out.timed_s = now_s() - t0;
    for (std::size_t k = 0; k < cases_.size(); ++k) {
      const auto& res = results_[k];
      Json r = Json::object();
      r["events_compared"] = res.events_compared;
      r["fault_plan"] = !cases_[k].plan.empty();
      r["failure"] = res.ok() ? "" : res.failures.front().check + ": " + res.failures.front().message;
      out.records.push_back(std::move(r));
      out.latency_ms.push_back(latency_ms_[k]);
    }
  }

  std::string check(i64 /*item*/, const Json& r) const override {
    if (!r.at("failure").as_string().empty()) return r.at("failure").as_string();
    if (r.at("events_compared").as_int() <= 0) return "no events compared";
    return {};
  }

 private:
  std::vector<vpmem::check::FuzzCase> cases_;
  std::vector<vpmem::check::CaseResult> results_;  ///< one slot per case
  std::vector<double> latency_ms_;
};

}  // namespace

std::int64_t RoundResult::failed() const {
  return std::count_if(errors.begin(), errors.end(), [](const auto& e) { return !e.empty(); });
}

RoundResult Workload::round(SpanRecorder& spans) {
  RoundResult out;
  execute(spans, out);
  const Scope scope{spans, "bench.validate"};
  out.errors.assign(out.records.size(), std::string{});
  for (std::size_t i = 0; i < out.records.size(); ++i) {
    const auto item = static_cast<i64>(i);
    if (options_.perturb) options_.perturb(item, out.records[i]);
    try {
      out.errors[i] = check(item, out.records[i]);
    } catch (const std::exception& e) {
      out.errors[i] = std::string{"malformed result: "} + e.what();
    }
  }
  check_round(out);
  return out;
}

void Workload::check_round(RoundResult& /*out*/) const {}

std::size_t Workload::scaled(std::size_t count) const {
  return std::max<std::size_t>(1, static_cast<std::size_t>(static_cast<double>(count) * options_.scale));
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"steady_sweep", "xmp_kernels", "trace_export",
                                              "diff_fuzz"};
  return names;
}

std::unique_ptr<Workload> make_workload(std::string_view name, WorkloadOptions options) {
  if (name == "steady_sweep") return std::make_unique<SteadySweep>(std::move(options));
  if (name == "xmp_kernels") return std::make_unique<XmpKernels>(std::move(options));
  if (name == "trace_export") return std::make_unique<TraceExport>(std::move(options));
  if (name == "diff_fuzz") return std::make_unique<DiffFuzz>(std::move(options));
  throw std::invalid_argument{"unknown workload '" + std::string{name} + "'"};
}

std::vector<std::string> chunk_digests(const std::vector<Json>& records) {
  std::vector<std::string> out;
  for (std::size_t begin = 0; begin < records.size(); begin += kDigestChunk) {
    std::string text;
    for (std::size_t i = begin; i < std::min(records.size(), begin + kDigestChunk); ++i) {
      text += records[i].dump();
      text += '\n';
    }
    out.push_back(vpmem::hex64(vpmem::fnv1a64(text)));
  }
  return out;
}

void apply_golden(const std::vector<std::string>& golden, RoundResult& round) {
  const std::vector<std::string> actual = chunk_digests(round.records);
  for (std::size_t c = 0; c < actual.size(); ++c) {
    if (c < golden.size() && golden[c] == actual[c]) continue;
    for (std::size_t i = c * kDigestChunk;
         i < std::min(round.records.size(), (c + 1) * kDigestChunk); ++i) {
      if (round.errors[i].empty()) round.errors[i] = "digest differs from the recorded default-seed digest";
    }
  }
}

}  // namespace perfbench
