// Degraded-mode Theorem 1: under remap_spare the machine with m' = m - f
// surviving banks behaves exactly like a healthy m'-bank interleave, so
// b_eff = min(1, r'/nc) with r' = m'/gcd(m', d).  Validated as an
// EQUALITY against the cycle-accurate simulator across (m, d, nc,
// failed-bank) and as a bound for multi-stream and recovery scenarios.
#include "vpmem/analytic/degraded.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <vector>

#include "vpmem/analytic/stream.hpp"
#include "vpmem/sim/fault.hpp"
#include "vpmem/sim/memory_system.hpp"
#include "vpmem/sim/run.hpp"

namespace vpmem::analytic {
namespace {

sim::MemoryConfig flat(i64 m, i64 nc) {
  return sim::MemoryConfig{.banks = m, .sections = m, .bank_cycle = nc};
}

sim::FaultPlan remap_outage(const std::vector<i64>& banks) {
  sim::FaultPlan plan;
  plan.policy = sim::FaultPolicy::remap_spare;
  for (const i64 b : banks) {
    plan.events.push_back(
        sim::FaultEvent{.kind = sim::FaultEvent::Kind::bank_offline, .cycle = 0, .bank = b});
  }
  return plan;
}

TEST(Degraded, ReturnNumberMatchesHealthyFormulaOnSurvivors) {
  EXPECT_EQ(degraded_return_number(11, 1), 11);
  EXPECT_EQ(degraded_return_number(12, 4), 3);
  EXPECT_EQ(degraded_return_number(9, 6), 3);
  EXPECT_EQ(degraded_return_number(7, 0), 1);  // d=0 hammers one slot
  EXPECT_THROW(static_cast<void>(degraded_return_number(0, 1)), std::invalid_argument);
}

TEST(Degraded, SingleStreamBandwidthFormula) {
  // m=12, one bank down, d=1: r' = 11 >= nc=3 -> full bandwidth.
  EXPECT_EQ(degraded_single_stream_bandwidth(11, 1, 3), (Rational{1, 1}));
  // m=12, one bank down, d=11: gcd(11,11)=11 -> r'=1 -> 1/3.
  EXPECT_EQ(degraded_single_stream_bandwidth(11, 11, 3), (Rational{1, 3}));
  // Zero survivors: no grants at all.
  EXPECT_EQ(degraded_single_stream_bandwidth(0, 1, 3), (Rational{0, 1}));
  EXPECT_THROW(static_cast<void>(degraded_single_stream_bandwidth(-1, 1, 3)),
               std::invalid_argument);
}

TEST(Degraded, CapacityIsMinOfBanksAndPorts) {
  EXPECT_EQ(degraded_capacity(12, 3, 2), (Rational{2, 1}));  // port-bound
  EXPECT_EQ(degraded_capacity(4, 3, 2), (Rational{4, 3}));   // bank-bound
  EXPECT_EQ(degraded_capacity(0, 3, 2), (Rational{0, 1}));
}

/// Exact bandwidth of `streams` under `plan` over [warmup, warmup + window),
/// driven through one system by the guarded driver.
Rational window_bandwidth(const sim::MemoryConfig& config,
                          const std::vector<sim::StreamConfig>& streams,
                          const sim::FaultPlan& plan, i64 warmup, i64 window) {
  sim::MemorySystem mem{config, streams, plan};
  const sim::GuardedRun warm = sim::run_guarded_on(mem, {}, warmup);
  EXPECT_TRUE(warm.ok()) << warm.detail;
  const i64 before = warm.result.total_grants();
  const sim::GuardedRun run = sim::run_guarded_on(mem, {}, warmup + window);
  EXPECT_TRUE(run.ok()) << run.detail;
  EXPECT_EQ(run.result.cycles, window);
  return Rational{run.result.total_grants() - before, window};
}

/// Exact steady-state bandwidth of one affine stream under a permanent
/// remap outage, measured over a window that is a whole number of r'·nc
/// periods so the grant count divides evenly.
Rational measured_degraded_bandwidth(i64 m, i64 nc, i64 d, const std::vector<i64>& dead) {
  const i64 survivors = m - static_cast<i64>(dead.size());
  const i64 period = degraded_return_number(survivors, d) * nc;
  return window_bandwidth(flat(m, nc), {sim::StreamConfig{.start_bank = 0, .distance = d}},
                          remap_outage(dead), /*warmup=*/8 * period, /*window=*/64 * period);
}

TEST(Degraded, BoundIsExactAcrossSweep) {
  // (m, nc) grid crossed with every distance 0..m and every single
  // failed bank — the simulated steady bandwidth must EQUAL
  // min(1, r'/nc) in every cell.
  const std::vector<std::pair<i64, i64>> machines = {{4, 2}, {8, 3}, {12, 3}, {13, 6}, {16, 4}};
  for (const auto& [m, nc] : machines) {
    for (i64 d = 0; d <= m; ++d) {
      for (i64 dead = 0; dead < m; dead += (m > 8 ? 3 : 1)) {
        SCOPED_TRACE("m=" + std::to_string(m) + " nc=" + std::to_string(nc) +
                     " d=" + std::to_string(d) + " dead=" + std::to_string(dead));
        const Rational expected = degraded_single_stream_bandwidth(m - 1, d, nc);
        EXPECT_EQ(measured_degraded_bandwidth(m, nc, d, {dead}), expected);
      }
    }
  }
}

TEST(Degraded, MultipleFailuresStillExact) {
  // m=12 down to m'=9 survivors: r' over 9 banks.
  for (const i64 d : {1, 2, 3, 6, 9}) {
    SCOPED_TRACE("d=" + std::to_string(d));
    const Rational expected = degraded_single_stream_bandwidth(9, d, 3);
    EXPECT_EQ(measured_degraded_bandwidth(12, 3, d, {1, 5, 10}), expected);
  }
}

TEST(Degraded, HealthyMachineReducesToTheorem1) {
  // With zero failures the degraded formula IS Theorem 1.
  for (const i64 m : {8, 12, 13}) {
    for (i64 d = 1; d <= m; ++d) {
      EXPECT_EQ(degraded_single_stream_bandwidth(m, d, 3), single_stream_bandwidth(m, d, 3))
          << "m=" << m << " d=" << d;
    }
  }
}

TEST(Degraded, CapacityBoundsTwoStreamWorkloadDuringOutage) {
  // Two d=1 streams on m=8, nc=4, two banks down: total b_eff can never
  // exceed min(p, m'/nc) = min(2, 6/4) = 3/2.
  const Rational measured = window_bandwidth(flat(8, 4), sim::two_streams(0, 1, 4, 1),
                                             remap_outage({2, 7}), /*warmup=*/96,
                                             /*window=*/960);
  const Rational cap = degraded_capacity(6, 4, 2);
  EXPECT_EQ(cap, (Rational{3, 2}));
  EXPECT_LE(measured.to_double(), cap.to_double() + 1e-12);
}

}  // namespace
}  // namespace vpmem::analytic
