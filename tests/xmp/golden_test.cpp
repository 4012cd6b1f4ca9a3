// Golden digests of the X-MP kernel driver.  Every (kernel, INC, mode)
// run's cycle count and every port's full PortStats are folded into one
// 64-bit FNV-1a hash.  The port index order is part of the hash, so the
// digest pins the exact instruction issue order (a port's index is its
// fixed priority) as well as the timing.  The expected values were
// recorded before the engine's live-port list and the driver's strip
// cursor existed; those fast paths must not move a single bit.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "vpmem/xmp/kernels.hpp"

namespace vpmem::xmp {
namespace {

class Digest {
 public:
  void add(i64 value) {
    auto bits = static_cast<std::uint64_t>(value);
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= bits & 0xFFU;
      h_ *= 0x100000001b3ULL;
      bits >>= 8;
    }
  }

  void add(const std::vector<sim::PortStats>& ports) {
    add(static_cast<i64>(ports.size()));
    for (const sim::PortStats& p : ports) {
      add(p.grants);
      add(p.bank_conflicts);
      add(p.simultaneous_conflicts);
      add(p.section_conflicts);
      add(p.fault_conflicts);
      add(p.first_grant_cycle);
      add(p.last_grant_cycle);
      add(p.longest_stall);
      add(p.current_stall);
    }
  }

  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Contended, dedicated and multitasked runs of every kernel in `specs`
/// for INC in [1, inc_max], in that nesting order.
std::uint64_t kernel_digest(const XmpConfig& machine, i64 n, i64 inc_max,
                            const std::vector<KernelSpec>& specs = all_kernels()) {
  Digest digest;
  for (const KernelSpec& spec : specs) {
    for (i64 inc = 1; inc <= inc_max; ++inc) {
      TriadSetup setup;
      setup.n = n;
      setup.inc = inc;
      for (const bool other_cpu : {true, false}) {
        const TriadResult r = run_kernel(machine, spec, setup, other_cpu);
        digest.add(r.cycles);
        digest.add(r.triad_ports);
        digest.add(r.background_ports);
      }
      const MultitaskResult mt = run_kernel_multitasked(machine, spec, setup);
      digest.add(mt.cycles);
      digest.add(mt.cpu0_ports);
      digest.add(mt.cpu1_ports);
    }
  }
  return digest.value();
}

TEST(KernelGolden, AllKernelsIncOneToSixtyFourAtN1024) {
  EXPECT_EQ(kernel_digest(XmpConfig{}, 1024, 64), 0xf4b72c101c9843cdULL);
}

TEST(KernelGolden, ShortStripsOddLengthsAndNoIssueGap) {
  // Strip lengths that do not divide n, one-element strips and a zero
  // issue gap stress the driver's strip cursor and its early exit.
  Digest digest;
  for (const i64 vl : {i64{1}, i64{7}, i64{64}}) {
    for (const i64 gap : {i64{0}, i64{3}}) {
      XmpConfig machine;
      machine.vector_length = vl;
      machine.issue_gap = gap;
      for (const i64 n : {i64{1}, i64{65}, i64{130}}) {
        digest.add(static_cast<i64>(kernel_digest(machine, n, 5)));
      }
    }
  }
  EXPECT_EQ(digest.value(), 0x2cb856c34eb1fa06ULL);
}

TEST(KernelGolden, UnusualShapesAndCyclicPriority) {
  // A store-only kernel (no load port in use), more loads than load ports,
  // gather and scatter together, under both priority rules.
  const std::vector<KernelSpec> specs{
      {.name = "store_only", .loads = 0, .store = true},
      {.name = "four_loads", .loads = 4, .store = true},
      {.name = "five_loads_no_store", .loads = 5, .store = false},
      {.name = "gather3", .loads = 3, .store = true, .gather = true},
      {.name = "gather_scatter", .loads = 2, .store = true, .gather = true, .scatter = true}};
  Digest digest;
  for (const sim::PriorityRule rule : {sim::PriorityRule::fixed, sim::PriorityRule::cyclic}) {
    for (const i64 vl : {i64{5}, i64{64}}) {
      XmpConfig machine;
      machine.memory.priority = rule;
      machine.vector_length = vl;
      machine.chain_latency = vl == 5 ? 1 : 17;
      digest.add(static_cast<i64>(kernel_digest(machine, 300, 9, specs)));
    }
  }
  EXPECT_EQ(digest.value(), 0xed15c65871cf0e0bULL);
}

}  // namespace
}  // namespace vpmem::xmp
