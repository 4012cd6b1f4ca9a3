#include "vpmem/xmp/machine.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "vpmem/util/error.hpp"

namespace vpmem::xmp {
namespace {

/// `f` throws vpmem::Error{config_invalid}.
template <class F>
void expect_config_invalid(F&& f) {
  try {
    f();
    FAIL() << "expected vpmem::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::config_invalid) << e.what();
  }
}

TEST(TriadStartBanks, PaperCommonLayout) {
  const XmpConfig cfg;
  TriadSetup setup;  // IDIM = 16*1024 + 1
  EXPECT_EQ(triad_start_banks(cfg, setup), (std::vector<i64>{0, 1, 2, 3}));
  setup.base_bank = 5;
  EXPECT_EQ(triad_start_banks(cfg, setup), (std::vector<i64>{5, 6, 7, 8}));
  setup.base_bank = 0;
  setup.idim = 16 * 1024;  // unpadded: all arrays alias to one bank
  EXPECT_EQ(triad_start_banks(cfg, setup), (std::vector<i64>{0, 0, 0, 0}));
}

TEST(RunTriad, TransfersEveryElement) {
  XmpConfig cfg;
  TriadSetup setup;
  setup.n = 200;  // not a multiple of VL: exercises the short last strip
  const TriadResult r = run_triad(cfg, setup, /*other_cpu_active=*/false);
  // 4 streams (B, C, D loads + A store) of n elements each.
  i64 grants = 0;
  for (const auto& p : r.triad_ports) grants += p.grants;
  EXPECT_EQ(grants, 4 * setup.n);
  EXPECT_GT(r.cycles, setup.n);  // loads alone need >= 2n/2 port-cycles
}

TEST(RunTriad, DedicatedStrideOneHasFewConflicts) {
  XmpConfig cfg;
  TriadSetup setup;
  setup.n = 256;
  setup.inc = 1;
  const TriadResult r = run_triad(cfg, setup, false);
  // Four streams, distance 1, start banks 0..3: occasional collisions
  // where strips overlap, but far fewer than a self-conflicting stride.
  EXPECT_LT(r.conflicts.total(), setup.n / 2);
  setup.inc = 8;  // r = 2 < nc: conflicts on nearly every element
  const TriadResult bad = run_triad(cfg, setup, false);
  EXPECT_GT(bad.conflicts.total(), 4 * r.conflicts.total());
}

TEST(RunTriad, SelfConflictingStrideIsSlower) {
  XmpConfig cfg;
  TriadSetup setup;
  setup.n = 256;
  setup.inc = 1;
  const i64 fast = run_triad(cfg, setup, false).cycles;
  setup.inc = 8;  // d = 8, r = 2 < nc = 4: severe self-conflict
  const TriadResult slow = run_triad(cfg, setup, false);
  EXPECT_GT(slow.cycles, fast * 3 / 2);
  EXPECT_GT(slow.conflicts.bank, 0);
  setup.inc = 16;  // d = 0: every access to the same bank, r = 1
  const TriadResult worst = run_triad(cfg, setup, false);
  EXPECT_GT(worst.cycles, slow.cycles);
}

TEST(RunTriad, ContentionNeverSpeedsUp) {
  XmpConfig cfg;
  TriadSetup setup;
  setup.n = 128;
  for (i64 inc : {1, 2, 3, 5, 8}) {
    setup.inc = inc;
    const i64 dedicated = run_triad(cfg, setup, false).cycles;
    const i64 contended = run_triad(cfg, setup, true).cycles;
    EXPECT_GE(contended, dedicated) << "inc=" << inc;
  }
}

TEST(RunTriad, ContendedRunSeesCrossCpuConflicts) {
  XmpConfig cfg;
  TriadSetup setup;
  setup.n = 256;
  setup.inc = 2;  // the paper's barrier victim
  const TriadResult r = run_triad(cfg, setup, true);
  EXPECT_GT(r.conflicts.bank, 0);
}

TEST(RunTriad, StrideModuloBanksEquivalence) {
  // d = INC mod m: INC = 17 behaves like INC = 1 for bank conflicts
  // (instruction scheduling is identical too).
  XmpConfig cfg;
  TriadSetup setup;
  setup.n = 128;
  setup.inc = 1;
  const TriadResult a = run_triad(cfg, setup, false);
  setup.inc = 17;
  const TriadResult b = run_triad(cfg, setup, false);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.conflicts.total(), b.conflicts.total());
}

TEST(RunTriad, CyclesPerElement) {
  TriadResult r;
  r.cycles = 512;
  EXPECT_DOUBLE_EQ(r.cycles_per_element(256), 2.0);
  EXPECT_DOUBLE_EQ(r.cycles_per_element(0), 0.0);
}

TEST(RunTriad, Validation) {
  XmpConfig cfg;
  TriadSetup setup;
  setup.n = 0;
  expect_config_invalid([&] { static_cast<void>(run_triad(cfg, setup, false)); });
  setup.n = 64;
  setup.inc = 0;
  expect_config_invalid([&] { static_cast<void>(run_triad(cfg, setup, false)); });
  setup.inc = 1;
  setup.idim = 0;
  expect_config_invalid([&] { static_cast<void>(run_triad(cfg, setup, false)); });
  setup.idim = 1;
  cfg.vector_length = 0;
  expect_config_invalid([&] { static_cast<void>(run_triad(cfg, setup, false)); });
  cfg.vector_length = 64;
  cfg.background_start_banks = {99};
  expect_config_invalid([&] { static_cast<void>(run_triad(cfg, setup, true)); });
}

TEST(RunTriad, SmallVectorLengthStillCorrect) {
  XmpConfig cfg;
  cfg.vector_length = 8;  // many strips
  TriadSetup setup;
  setup.n = 50;
  const TriadResult r = run_triad(cfg, setup, false);
  i64 grants = 0;
  for (const auto& p : r.triad_ports) grants += p.grants;
  EXPECT_EQ(grants, 4 * setup.n);
}

TEST(RunTriad, BarrierFormerStridesDelayTheOtherCpu) {
  // Section IV: for INC = 6 (isomorphic to 2 (+) 3 against the stride-1
  // environment) the triad's requests are "fairly undisturbed while the
  // access requests of the other CPU are greatly delayed".
  XmpConfig cfg;
  TriadSetup setup;
  setup.n = 1024;  // full paper length: the INC=11 (eq. 28) barrier needs
                   // the triad's ports to hold priority; see EXPERIMENTS.md
  setup.inc = 1;
  const TriadResult friendly = run_triad(cfg, setup, true);
  setup.inc = 11;
  const TriadResult barrier = run_triad(cfg, setup, true);
  EXPECT_LT(barrier.background_goodput(), 0.6 * friendly.background_goodput());
  ASSERT_EQ(barrier.background_ports.size(), 3u);
  // And the triad itself is nearly undisturbed.
  const i64 dedicated = run_triad(cfg, setup, false).cycles;
  EXPECT_LT(barrier.cycles, dedicated * 11 / 10);
}

TEST(RunTriad, DedicatedRunHasNoBackgroundStats) {
  XmpConfig cfg;
  TriadSetup setup;
  setup.n = 64;
  const TriadResult r = run_triad(cfg, setup, false);
  EXPECT_TRUE(r.background_ports.empty());
  EXPECT_DOUBLE_EQ(r.background_goodput(), 0.0);
}

TEST(RunTriad, BestStridesBeatBarrierVictimsUnderContention) {
  // The paper's headline (Fig. 10a): INC = 2 and 3 suffer badly from the
  // other CPU's stride-1 streams; INC = 1 and 6 do not.
  XmpConfig cfg;
  TriadSetup setup;
  setup.n = 512;
  auto contended = [&](i64 inc) {
    setup.inc = inc;
    return run_triad(cfg, setup, true).cycles;
  };
  const i64 t1 = contended(1);
  const i64 t2 = contended(2);
  const i64 t3 = contended(3);
  const i64 t6 = contended(6);
  EXPECT_GT(t2, t1 * 5 / 4);  // paper: roughly +50 %
  EXPECT_GT(t3, t1 * 3 / 2);  // paper: roughly +100 %
  EXPECT_LE(t6, t1 * 11 / 10);
}

}  // namespace
}  // namespace vpmem::xmp
