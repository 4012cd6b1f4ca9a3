#include "vpmem/xmp/kernels.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "vpmem/baseline/random_traffic.hpp"
#include "vpmem/sim/memory_system.hpp"
#include "vpmem/util/error.hpp"

namespace vpmem::xmp {

namespace {

constexpr std::size_t kUnset = static_cast<std::size_t>(-1);

[[noreturn]] void bad_config(const char* what) { throw Error{ErrorCode::config_invalid, what}; }

void validate_setup(const XmpConfig& config, const TriadSetup& setup) {
  config.memory.validate();
  if (config.vector_length < 1) bad_config("XmpConfig: vector_length >= 1");
  if (config.issue_gap < 0) bad_config("XmpConfig: issue_gap >= 0");
  if (config.chain_latency < 1) bad_config("XmpConfig: chain_latency >= 1");
  if (setup.n < 1) bad_config("TriadSetup: n >= 1");
  if (setup.inc < 1) bad_config("TriadSetup: inc >= 1");
  if (setup.idim < 1) bad_config("TriadSetup: idim >= 1");
  for (i64 b : config.background_start_banks) {
    if (b < 0 || b >= config.memory.banks) {
      bad_config("XmpConfig: background start bank out of range");
    }
  }
}

/// Issues one CPU's strip-mined kernel instructions into a (possibly
/// shared) MemorySystem as their dependencies clear: loads round-robin
/// over the CPU's two load ports, the store chained a fixed latency
/// behind the last operand's first element.  Processes the element range
/// [first_element, first_element + count) of the loop.
class KernelDriver {
 public:
  KernelDriver(sim::MemorySystem& mem, const XmpConfig& config, const KernelSpec& spec,
               const TriadSetup& setup, i64 cpu, i64 first_element, i64 count)
      : mem_{mem},
        config_{config},
        spec_{spec},
        setup_{setup},
        cpu_{cpu},
        first_element_{first_element},
        count_{count},
        nloads_{static_cast<std::size_t>(spec.loads)},
        strips_{static_cast<std::size_t>(ceil_div(count, config.vector_length))},
        load_idx_(strips_, std::vector<std::size_t>(std::max<std::size_t>(nloads_, 1), kUnset)),
        store_idx_(strips_, kUnset) {
    if (count_ < 1) bad_config("KernelDriver: count must be >= 1");
  }

  /// Schedule whatever became ready; call every clock period (and once
  /// before the first step to issue the initial loads).
  ///
  /// Strips are scanned in order, and the scan order is the issue order
  /// (a port's index is its fixed priority).  Every hardware port, the
  /// store port included, issues its instructions in strip order, so two
  /// shortcuts skip only strips in which nothing can issue.  The scan
  /// starts at lo_, the first strip with an unissued instruction.  It
  /// stops after strip lo_ once every load port is busy: a later load
  /// needs a free port, and a later store would have to pass strip lo_'s
  /// store, which is either still unissued or has just made the store
  /// port busy.
  void tick() {
    while (lo_ < strips_ && strip_issued(lo_)) ++lo_;
    for (std::size_t k = lo_; k < strips_; ++k) {
      if (k > lo_ && load_ports_busy()) break;
      for (std::size_t q = 0; q < nloads_; ++q) {
        if (load_idx_[k][q] != kUnset) continue;
        HwPort& hw = load_port_[q % kLoadPorts];
        if (hw.last != kUnset && !mem_.port_done(hw.last)) continue;
        i64 start = (hw.last == kUnset) ? mem_.now() : free_after(hw.last);
        if (spec_.gather && q == 1) {
          // B(IX(I)) cannot issue before indices start arriving.
          if (load_idx_[k][0] == kUnset || stats(load_idx_[k][0]).first_grant_cycle < 0) {
            continue;
          }
          start = std::max(start,
                           stats(load_idx_[k][0]).first_grant_cycle + config_.chain_latency);
        }
        load_idx_[k][q] = add(first_load_array() + q, k, start, hw);
      }
      if (spec_.store && store_idx_[k] == kUnset) {
        bool operands_started = true;
        i64 chain_start = 0;
        for (std::size_t q = 0; q < nloads_; ++q) {
          if (load_idx_[k][q] == kUnset || stats(load_idx_[k][q]).first_grant_cycle < 0) {
            operands_started = false;
            break;
          }
          chain_start = std::max(
              chain_start, stats(load_idx_[k][q]).first_grant_cycle + config_.chain_latency);
        }
        if (!operands_started) continue;
        if (store_port_.last != kUnset) {
          if (!mem_.port_done(store_port_.last)) continue;
          chain_start = std::max(chain_start, free_after(store_port_.last));
        }
        store_idx_[k] = add(0, k, chain_start, store_port_);
      }
    }
  }

  [[nodiscard]] bool finished() const {
    const std::size_t k = strips_ - 1;
    if (spec_.store) return store_idx_[k] != kUnset && mem_.port_done(store_idx_[k]);
    for (std::size_t q = 0; q < nloads_; ++q) {
      if (load_idx_[k][q] == kUnset || !mem_.port_done(load_idx_[k][q])) return false;
    }
    return true;
  }

  [[nodiscard]] const std::vector<std::size_t>& ports() const noexcept { return ports_; }

 private:
  static constexpr std::size_t kLoadPorts = 2;
  struct HwPort {
    std::size_t last = kUnset;  ///< sim-port index of the last instruction
  };

  [[nodiscard]] std::size_t first_load_array() const { return spec_.store ? 1 : 0; }

  [[nodiscard]] bool strip_issued(std::size_t k) const {
    const auto loads = load_idx_[k].begin();
    return std::find(loads, loads + static_cast<std::ptrdiff_t>(nloads_), kUnset) ==
               loads + static_cast<std::ptrdiff_t>(nloads_) &&
           (!spec_.store || store_idx_[k] != kUnset);
  }
  /// Every load port the kernel uses holds an unfinished instruction.
  [[nodiscard]] bool load_ports_busy() const {
    for (std::size_t h = 0; h < std::min(nloads_, kLoadPorts); ++h) {
      const std::size_t last = load_port_[h].last;
      if (last == kUnset || mem_.port_done(last)) return false;
    }
    return true;
  }

  [[nodiscard]] i64 strip_len(std::size_t k) const {
    return std::min<i64>(config_.vector_length,
                         count_ - static_cast<i64>(k) * config_.vector_length);
  }

  [[nodiscard]] sim::StreamConfig make_stream(std::size_t array, std::size_t k,
                                              i64 start_cycle) const {
    const i64 m = config_.memory.banks;
    sim::StreamConfig s;
    s.cpu = cpu_;
    s.length = strip_len(k);
    s.start_cycle = start_cycle;
    const bool indexed_load = spec_.gather && array == first_load_array() + 1;
    const bool indexed_store = spec_.scatter && spec_.store && array == 0;
    if (indexed_load || indexed_store) {
      // The indexed operand: banks determined by the data in IX, modeled
      // as uniform random, deterministic per (cpu, strip).
      s.bank_pattern = baseline::random_bank_pattern(
          m, static_cast<std::size_t>(strip_len(k)),
          0xC0FFEEULL + 1000ULL * static_cast<std::uint64_t>(cpu_) +
              static_cast<std::uint64_t>(k));
    } else {
      const i64 base = mod_norm(setup_.base_bank + static_cast<i64>(array) * setup_.idim, m);
      const i64 element0 = first_element_ + static_cast<i64>(k) * config_.vector_length;
      s.start_bank = mod_norm(base + element0 * setup_.inc, m);
      s.distance = mod_norm(setup_.inc, m);
    }
    return s;
  }

  [[nodiscard]] const sim::PortStats& stats(std::size_t sim_port) const {
    return mem_.port_stats(sim_port);
  }
  [[nodiscard]] i64 free_after(std::size_t sim_port) const {
    return stats(sim_port).last_grant_cycle + 1 + config_.issue_gap;
  }
  std::size_t add(std::size_t array, std::size_t k, i64 start, HwPort& hw) {
    const std::size_t sim_port =
        mem_.add_stream(make_stream(array, k, std::max(start, mem_.now())));
    hw.last = sim_port;
    ports_.push_back(sim_port);
    return sim_port;
  }

  sim::MemorySystem& mem_;
  const XmpConfig& config_;
  const KernelSpec& spec_;
  const TriadSetup& setup_;
  i64 cpu_;
  i64 first_element_;
  i64 count_;
  std::size_t nloads_;
  std::size_t strips_;
  std::size_t lo_ = 0;  ///< first strip with an unissued load or store
  std::array<HwPort, kLoadPorts> load_port_;
  HwPort store_port_;
  std::vector<std::vector<std::size_t>> load_idx_;
  std::vector<std::size_t> store_idx_;
  std::vector<std::size_t> ports_;
};

std::vector<sim::PortStats> collect(const sim::MemorySystem& mem,
                                    const std::vector<std::size_t>& ports, i64* cycles) {
  std::vector<sim::PortStats> out;
  out.reserve(ports.size());
  for (std::size_t sim_port : ports) {
    out.push_back(mem.port_stats(sim_port));
    if (cycles != nullptr) *cycles = std::max(*cycles, out.back().last_grant_cycle + 1);
  }
  return out;
}

}  // namespace

void KernelSpec::validate() const {
  if (loads < 0) bad_config("KernelSpec: loads must be >= 0");
  if (loads == 0 && !store) {
    bad_config("KernelSpec: kernel must access memory");
  }
  if (gather && loads < 2) {
    bad_config("KernelSpec: gather needs an index load and an indexed load");
  }
  if (scatter && (loads < 1 || !store)) {
    bad_config("KernelSpec: scatter needs an index load and a store");
  }
}

KernelSpec copy_kernel() { return KernelSpec{.name = "copy", .loads = 1, .store = true}; }
KernelSpec scale_kernel() { return KernelSpec{.name = "scale", .loads = 1, .store = true}; }
KernelSpec sum_kernel() { return KernelSpec{.name = "sum", .loads = 1, .store = false}; }
KernelSpec daxpy_kernel() { return KernelSpec{.name = "daxpy", .loads = 2, .store = true}; }
KernelSpec triad_kernel() { return KernelSpec{.name = "triad", .loads = 3, .store = true}; }

KernelSpec gather_kernel() {
  return KernelSpec{.name = "gather", .loads = 2, .store = true, .gather = true};
}

KernelSpec scatter_kernel() {
  return KernelSpec{.name = "scatter", .loads = 2, .store = true, .scatter = true};
}

const std::vector<KernelSpec>& all_kernels() {
  static const std::vector<KernelSpec> kernels{copy_kernel(),  scale_kernel(), sum_kernel(),
                                               daxpy_kernel(), triad_kernel(), gather_kernel(),
                                               scatter_kernel()};
  return kernels;
}

TriadResult run_kernel(const XmpConfig& config, const KernelSpec& spec, const TriadSetup& setup,
                       bool other_cpu_active) {
  spec.validate();
  validate_setup(config, setup);

  sim::MemorySystem mem{config.memory, {}};
  KernelDriver driver{mem, config, spec, setup, /*cpu=*/0, /*first_element=*/0, setup.n};
  // Issue the first vector instructions before the background streams so
  // the measured CPU's ports hold fixed-priority seniority — this matters
  // for the eq. 28 equality barriers (e.g. INC = 11 vs the stride-1
  // environment, which only forms when the triad's ports have priority).
  driver.tick();
  std::vector<std::size_t> background_ports;
  if (other_cpu_active) {
    for (i64 bank : config.background_start_banks) {
      sim::StreamConfig s;
      s.start_bank = bank;
      s.distance = 1;
      s.cpu = 1;
      background_ports.push_back(mem.add_stream(s));
    }
  }

  const i64 guard = 1'000'000 + setup.n * 64;
  while (!driver.finished()) {
    if (mem.now() > guard) {
      throw std::runtime_error{"run_kernel: execution did not finish (guard exceeded)"};
    }
    mem.step();
    driver.tick();
  }

  TriadResult out;
  out.triad_ports = collect(mem, driver.ports(), &out.cycles);
  out.conflicts = sim::totals(out.triad_ports);
  out.background_ports = collect(mem, background_ports, nullptr);
  return out;
}

MultitaskResult run_kernel_multitasked(const XmpConfig& config, const KernelSpec& spec,
                                       const TriadSetup& setup) {
  spec.validate();
  validate_setup(config, setup);
  const i64 half = ceil_div(setup.n, 2);

  sim::MemorySystem mem{config.memory, {}};
  KernelDriver cpu0{mem, config, spec, setup, /*cpu=*/0, /*first_element=*/0, half};
  // n == 1: CPU 1 has nothing to do; run single-driver in that case.
  const bool two_halves = setup.n > 1;
  std::optional<KernelDriver> cpu1;
  if (two_halves) cpu1.emplace(mem, config, spec, setup, /*cpu=*/1, half, setup.n - half);
  cpu0.tick();
  if (cpu1) cpu1->tick();

  const i64 guard = 1'000'000 + setup.n * 64;
  while (!(cpu0.finished() && (!cpu1 || cpu1->finished()))) {
    if (mem.now() > guard) {
      throw std::runtime_error{"run_kernel_multitasked: did not finish (guard exceeded)"};
    }
    mem.step();
    cpu0.tick();
    if (cpu1) cpu1->tick();
  }

  MultitaskResult out;
  out.cpu0_ports = collect(mem, cpu0.ports(), &out.cycles);
  if (cpu1) out.cpu1_ports = collect(mem, cpu1->ports(), &out.cycles);
  out.conflicts = sim::totals(out.cpu0_ports);
  const sim::ConflictTotals c1 = sim::totals(out.cpu1_ports);
  out.conflicts.bank += c1.bank;
  out.conflicts.simultaneous += c1.simultaneous;
  out.conflicts.section += c1.section;
  out.conflicts.fault += c1.fault;
  return out;
}

}  // namespace vpmem::xmp
