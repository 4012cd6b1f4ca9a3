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
// event buffer + attribution fold on one hook).  Comparing
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

void bm_triad_n1024(benchmark::State& state) {
  xmp::XmpConfig machine;
  xmp::TriadSetup setup;
  setup.inc = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(xmp::run_triad(machine, setup, /*other_cpu_active=*/true));
  }
}
BENCHMARK(bm_triad_n1024);

void bm_offset_sweep(benchmark::State& state) {
  const sim::MemoryConfig cfg{.banks = 16, .sections = 16, .bank_cycle = 4};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::sweep_start_offsets(cfg, 1, 6));
  }
}
BENCHMARK(bm_offset_sweep);

}  // namespace

VPMEM_FIGURE_MAIN_JSON(print_figure, "BENCH_perf_sim_engine.json")
