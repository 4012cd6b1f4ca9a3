// Self-tests of the benchmark itself: validation catches a perturbed
// simulated result, the percentile helper refuses thin tails, span self
// time is computed correctly, set-up stays out of the timed items, and a
// run discounts host noise by each item's fastest latency.
//
//   python3 perfbench/run.py --selftest
//   perfbench_selftest [SCRATCH_DIR]
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "measure.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using vpmem::Json;

int g_failures = 0;
std::string g_scratch = ".";  ///< where the sweep journal goes

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::cerr << "FAIL: " << what << '\n';
  }
}

bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

// ---------------------------------------------------------------- stats --

void test_percentile() {
  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) samples.push_back(static_cast<double>(i));
  expect(near(percentile(samples, 0.99), 990.0), "p99 of 1..1000 is 990 (10 beyond)");
  expect(near(percentile(samples, 0.50), 500.0), "p50 of 1..1000 is 500");
  expect(near(median(samples), 500.5), "median of 1..1000 is 500.5");

  samples.pop_back();  // 999 samples: only 9 beyond the p99 rank
  bool refused = false;
  try {
    (void)percentile(samples, 0.99);
  } catch (const std::invalid_argument&) {
    refused = true;
  }
  expect(refused, "p99 of 999 samples (9 beyond) is refused");
  refused = false;
  try {
    (void)percentile({1.0, 2.0, 3.0}, 0.5);
  } catch (const std::invalid_argument&) {
    refused = true;
  }
  expect(refused, "p50 of 3 samples is refused");
}

// ---------------------------------------------------------------- spans --

void test_self_time() {
  // Parent [0, 10]; two overlapping children on different threads cover
  // [1, 5]; a third child runs past the parent's end and counts only up
  // to 10; a grandchild inside child 0 does not touch the parent.
  const std::vector<Span> spans{
      {"bench.round", 0.0, 10.0, -1, -1, 0},
      {"sim.a", 1.0, 3.0, 0, 1, 1},
      {"sim.b", 2.0, 5.0, 0, 2, 2},
      {"obs.c", 8.0, 12.0, 0, 3, 1},
      {"util.d", 1.5, 2.5, 1, 1, 1},
  };
  const std::vector<double> self = self_times(spans);
  expect(near(self[0], 4.0), "parent self = 10 - |[1,5] u [8,10]| = 4");
  expect(near(self[1], 1.0), "child self = 2 - 1 (grandchild)");
  expect(near(self[2], 3.0), "leaf self = duration");
  expect(near(self[3], 4.0), "child self is not clipped by the parent");
  expect(near(self[4], 1.0), "grandchild self = duration");

  const SpanTotals t = totals(spans);
  expect(near(t.bench_self_s, 4.0), "bench self time");
  expect(near(t.layer_self_s, 9.0), "layer self time");
  expect(near(t.unattributed_frac(), 4.0 / 13.0), "unattributed = bench / thread time");
  expect(t.calls.at("sim.a") == 1 && near(t.self_s.at("obs.c"), 4.0), "per-name totals");
  expect(layer_of("obs.tracer.chrome_trace") == "obs", "layer of a span name");

  // Scopes nest on a thread and name an explicit parent across threads.
  SpanRecorder recorder{true};
  {
    const Scope outer{recorder, "bench.round"};
    const Scope inner{recorder, "sim.x", 7};
    std::thread worker{[&] { const Scope remote{recorder, "sim.y", 8, outer.id()}; }};
    worker.join();
  }
  const std::vector<Span> recorded = recorder.spans();
  expect(recorded.size() == 3, "three spans recorded");
  expect(recorded[0].parent == -1 && recorded[1].parent == 0 && recorded[2].parent == 0,
         "parents: innermost on the thread, explicit across threads");
  expect(recorded[1].item == 7 && recorded[1].end >= recorded[1].start, "item id and interval");

  SpanRecorder off{false};
  { const Scope ignored{off, "sim.z"}; }
  expect(off.spans().empty(), "a disabled recorder records nothing");
}

// ----------------------------------------------------------- validation --

RoundResult small_round(const std::string& name, double scale,
                        std::function<void(std::int64_t, Json&)> perturb = {}) {
  WorkloadOptions options;
  options.scale = scale;
  options.scratch_dir = g_scratch;
  options.perturb = std::move(perturb);
  auto workload = make_workload(name, options);
  SpanRecorder off{false};
  workload->setup(off);
  return workload->round(off);
}

void test_validation() {
  struct Case {
    std::string workload;
    double scale;
    std::function<void(Json&)> perturb;  ///< breaks an item's simulated result
  };
  const std::vector<Case> cases{
      {"steady_sweep", 0.1, [](Json& r) { r["b_eff"]["num"] = r.at("b_eff").at("num").as_int() + 1; }},
      {"xmp_kernels", 0.1, [](Json& r) { r["cycles"] = 10; }},
      {"trace_export", 0.05, [](Json& r) { r["trace_recorded"] = r.at("trace_recorded").as_int() + 1; }},
      {"diff_fuzz", 0.05, [](Json& r) { r["failure"] = "differential: event 3 differs"; }},
  };
  for (const auto& c : cases) {
    const RoundResult clean = small_round(c.workload, c.scale);
    expect(clean.attempted() > 0 && clean.failed() == 0, c.workload + ": clean round is valid");
    const RoundResult bad = small_round(c.workload, c.scale, [&](std::int64_t item, Json& r) {
      if (item == 0) c.perturb(r);
    });
    expect(bad.failed() == 1 && !bad.errors[0].empty(),
           c.workload + ": a perturbed result fails validation");

    // A change that passes every check still trips the recorded digest.
    RoundResult drift = clean;
    const std::vector<std::string> golden = chunk_digests(clean.records);
    drift.records.back()["drift"] = 1;
    apply_golden(golden, drift);
    expect(drift.failed() >= 1 && drift.errors.back() != "",
           c.workload + ": a changed output trips the digest");

    Tally tally;
    tally.add(clean);
    tally.add(bad);
    expect(tally.failed == 1 && tally.attempted == 2 * clean.attempted(),
           c.workload + ": the failure is counted toward error_rate");
  }

  // The Fig. 10 shape check spans items: making INC 2 the fastest
  // contended stride breaks it.
  const RoundResult shape = small_round("xmp_kernels", 0.1, [](std::int64_t, Json& r) {
    if (!r.contains("grants") && r.at("inc").as_int() == 2) r["cycles"] = 1024;
  });
  expect(shape.failed() >= 16, "Fig. 10 shape violation marks the INC 1..16 rows");
}

// --------------------------------------------------------------- set-up --

/// Items cost ~nothing; set-up sleeps.  None of the sleep may show in the
/// timed items.
class SlowSetup final : public Workload {
 public:
  using Workload::Workload;
  void setup(SpanRecorder&) override { std::this_thread::sleep_for(std::chrono::milliseconds(40)); }

 protected:
  void execute(SpanRecorder&, RoundResult& out) override {
    const double t0 = now_s();
    for (int i = 0; i < 1010; ++i) {
      const double start = now_s();
      out.records.emplace_back(static_cast<vpmem::i64>(i));
      out.latency_ms.push_back((now_s() - start) * 1e3);
    }
    out.timed_s = now_s() - t0;
  }
  std::string check(std::int64_t, const Json&) const override { return {}; }
};

void test_setup_excluded() {
  SlowSetup workload{WorkloadOptions{}};
  const Measurement m = measure(workload, 0.0, 3, nullptr);
  expect(m.setup_s.size() == 3, "three set-ups timed before the round");
  expect(median(m.setup_s) >= 0.04, "set-up time is reported");
  expect(m.rounds.size() == 1 && m.timed_s < 0.02, "set-up is outside the timed phase");
  expect(percentile(m.best_ms, 0.99) < 20.0, "set-up is outside every item latency");
  const std::vector<Metric> metrics = end_to_end_metrics(m);
  expect(metrics[0].name == "items_per_s" && metrics[0].value > 1010 / 0.02,
         "throughput excludes set-up");
}

// ---------------------------------------------------------- fastest of --

/// Serial rounds whose wall time is the sum of their item latencies.
/// Every round slows a different item down, as a moment of host noise
/// would, and every 4th round runs at half speed throughout.
class NoisyRounds final : public Workload {
 public:
  using Workload::Workload;
  void setup(SpanRecorder&) override {}

 protected:
  void execute(SpanRecorder&, RoundResult& out) override {
    const double speed = rounds_ % 4 == 0 ? 0.5 : 1.0;
    for (int i = 0; i < 1010; ++i) {
      const double ms = (1.0 + i + (i == rounds_ % 1010 ? 5000.0 : 0.0)) / speed;
      out.records.emplace_back(static_cast<vpmem::i64>(i));
      out.latency_ms.push_back(ms);
      out.timed_s += ms / 1e3;
    }
    ++rounds_;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::string check(std::int64_t, const Json&) const override { return {}; }

 private:
  int rounds_ = 0;
};

void test_fastest_of_rounds() {
  NoisyRounds workload{WorkloadOptions{}};
  const Measurement m = measure(workload, 0.05, 1, nullptr);
  expect(m.rounds.size() >= 3, "several rounds in 50 ms");
  expect(m.best_ms.size() == 1010 && near(m.best_ms[0], 1.0) && near(m.best_ms[1009], 1010.0),
         "each item keeps its fastest latency over the rounds");
  const std::vector<Metric> metrics = end_to_end_metrics(m);
  // Fastest round time: sum of 1..1010 ms = 510.555 s.
  expect(std::abs(metrics[0].value - 1010.0 / 510.555) < 1e-9,
         "items_per_s takes every round at its items' fastest speed");
  expect(near(metrics[2].value, 1000.0), "item_ms_p99 ignores the noise of single rounds");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) g_scratch = argv[1];
  test_percentile();
  test_self_time();
  test_validation();
  test_setup_excluded();
  test_fastest_of_rounds();
  if (g_failures == 0) {
    std::cout << "perfbench self-tests passed\n";
    return EXIT_SUCCESS;
  }
  std::cout << g_failures << " perfbench self-test check(s) failed\n";
  return EXIT_FAILURE;
}
