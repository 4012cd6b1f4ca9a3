// Engine throughput: cycles/second of the simulator core across port
// counts and memory sizes, plus the cost of steady-state detection and a
// full triad run.  Pure performance benchmark (no figure reproduction).
#include "bench_common.hpp"

namespace {

using namespace vpmem;

void print_figure() {
  std::cout << "==== Simulator engine throughput (google-benchmark below) ====\n\n";
}

std::vector<sim::StreamConfig> make_streams(i64 ports, i64 m) {
  std::vector<sim::StreamConfig> streams;
  for (i64 p = 0; p < ports; ++p) {
    streams.push_back(sim::StreamConfig{
        .start_bank = (p * 3) % m, .distance = 1 + p % 3, .cpu = p % 2});
  }
  return streams;
}

void bm_step(benchmark::State& state) {
  const i64 ports = state.range(0);
  const i64 m = state.range(1);
  sim::MemorySystem mem{{.banks = m, .sections = m / 4, .bank_cycle = 4},
                        make_streams(ports, m)};
  for (auto _ : state) mem.step();
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * ports);
  state.counters["cycles_per_second"] =
      benchmark::Counter(static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
// {2, 4096} shows that a step costs O(p), not O(m): it should read
// close to {2, 16}.
BENCHMARK(bm_step)
    ->Args({1, 16})
    ->Args({2, 16})
    ->Args({6, 16})
    ->Args({6, 64})
    ->Args({16, 256})
    ->Args({2, 4096});

// The same workloads with the full tracing v2 stack attached (bounded
// event buffer + attribution fold in one typed sink).  Comparing
// cycles_per_second against the matching bm_step row gives the tracer
// overhead; steady_perf_test asserts the ratio stays under 2x.
void bm_step_traced(benchmark::State& state) {
  const i64 ports = state.range(0);
  const i64 m = state.range(1);
  sim::MemorySystem mem{{.banks = m, .sections = m / 4, .bank_cycle = 4},
                        make_streams(ports, m)};
  obs::Tracer tracer{mem};
  for (auto _ : state) mem.step();
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * ports);
  state.counters["cycles_per_second"] =
      benchmark::Counter(static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  state.counters["events_per_second"] = benchmark::Counter(
      static_cast<double>(tracer.buffer().recorded()), benchmark::Counter::kIsRate);
}
BENCHMARK(bm_step_traced)->Args({2, 16})->Args({6, 64})->Args({16, 256});

void bm_find_steady_state(benchmark::State& state) {
  const sim::MemoryConfig cfg{.banks = state.range(0), .sections = state.range(0),
                              .bank_cycle = 4};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::find_steady_state(cfg, sim::two_streams(0, 1, 1, 3)));
  }
}
BENCHMARK(bm_find_steady_state)->Arg(16)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

// The X-MP driver adds one simulator port per vector instruction (64+3
// at n = 1024) but only a handful are live at once; cycles_per_second is
// the per-simulated-cycle cost of the driver plus the engine.
void bm_triad_n1024(benchmark::State& state) {
  xmp::XmpConfig machine;
  xmp::TriadSetup setup;
  setup.inc = 2;
  i64 cycles = 0;
  for (auto _ : state) {
    const xmp::TriadResult r = xmp::run_triad(machine, setup, /*other_cpu_active=*/true);
    cycles += r.cycles;
    benchmark::DoNotOptimize(r);
  }
  state.counters["cycles_per_second"] =
      benchmark::Counter(static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(bm_triad_n1024);

// Both CPUs cooperating on one triad: two drivers share one system.
void bm_kernel_multitasked_n1024(benchmark::State& state) {
  xmp::XmpConfig machine;
  xmp::TriadSetup setup;
  setup.inc = 2;
  i64 cycles = 0;
  for (auto _ : state) {
    const xmp::MultitaskResult r =
        xmp::run_kernel_multitasked(machine, xmp::triad_kernel(), setup);
    cycles += r.cycles;
    benchmark::DoNotOptimize(r);
  }
  state.counters["cycles_per_second"] =
      benchmark::Counter(static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(bm_kernel_multitasked_n1024);

void bm_offset_sweep(benchmark::State& state) {
  const sim::MemoryConfig cfg{.banks = 16, .sections = 16, .bank_cycle = 4};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::sweep_start_offsets(cfg, 1, 6));
  }
}
BENCHMARK(bm_offset_sweep);

// The trace export path (`vpmem_cli trace --out`): a finite m = 64 run
// of two 128-element streams, whose Chrome trace holds about 600 events.
sim::MemorySystem traced_export_system() {
  std::vector<sim::StreamConfig> streams = sim::two_streams(3, 5, 40, 9);
  for (sim::StreamConfig& s : streams) s.length = 128;
  return sim::MemorySystem{{.banks = 64, .sections = 16, .bank_cycle = 4}, streams};
}

void bm_json_dump(benchmark::State& state) {
  sim::MemorySystem mem = traced_export_system();
  obs::Tracer tracer{mem};
  mem.run(1'000'000, /*stop_when_finished=*/true);
  const Json doc = tracer.chrome_trace();
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string text = doc.dump(1);
    bytes += text.size();
    benchmark::DoNotOptimize(text.data());
  }
  state.counters["trace_events"] = static_cast<double>(doc.at("traceEvents").size());
  state.counters["MB_per_s"] =
      benchmark::Counter(static_cast<double>(bytes) / 1e6, benchmark::Counter::kIsRate);
}
BENCHMARK(bm_json_dump);

void bm_chrome_trace(benchmark::State& state) {
  sim::MemorySystem mem = traced_export_system();
  obs::Tracer tracer{mem};
  mem.run(1'000'000, /*stop_when_finished=*/true);
  tracer.finish();
  double events = 0;
  for (auto _ : state) {
    const Json doc = tracer.chrome_trace();
    events += static_cast<double>(tracer.buffer().recorded());
    benchmark::DoNotOptimize(doc);
  }
  // Host seconds per recorded simulator event.
  state.counters["s_per_event"] = benchmark::Counter(
      events, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(bm_chrome_trace);

}  // namespace

VPMEM_FIGURE_MAIN_JSON(print_figure, "BENCH_perf_sim_engine.json")
