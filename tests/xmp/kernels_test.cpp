#include "vpmem/xmp/kernels.hpp"

#include <gtest/gtest.h>

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

i64 total_grants(const TriadResult& r) {
  i64 g = 0;
  for (const auto& p : r.triad_ports) g += p.grants;
  return g;
}

TEST(KernelSpec, Validation) {
  EXPECT_NO_THROW(triad_kernel().validate());
  KernelSpec bad{.name = "bad", .loads = -1, .store = true};
  expect_config_invalid([&] { bad.validate(); });
  KernelSpec empty{.name = "empty", .loads = 0, .store = false};
  expect_config_invalid([&] { empty.validate(); });
}

TEST(Kernels, CatalogShapes) {
  EXPECT_EQ(copy_kernel().loads, 1);
  EXPECT_TRUE(copy_kernel().store);
  EXPECT_EQ(sum_kernel().loads, 1);
  EXPECT_FALSE(sum_kernel().store);
  EXPECT_EQ(daxpy_kernel().loads, 2);
  EXPECT_EQ(triad_kernel().loads, 3);
  EXPECT_TRUE(gather_kernel().gather);
  EXPECT_TRUE(scatter_kernel().scatter);
  EXPECT_EQ(all_kernels().size(), 7u);
}

TEST(RunKernel, GrantCountsMatchShape) {
  XmpConfig cfg;
  TriadSetup setup;
  setup.n = 200;
  for (const auto& spec : all_kernels()) {
    const TriadResult r = run_kernel(cfg, spec, setup, false);
    const i64 arrays = spec.loads + (spec.store ? 1 : 0);
    EXPECT_EQ(total_grants(r), arrays * setup.n) << spec.name;
    EXPECT_GT(r.cycles, 0) << spec.name;
  }
}

TEST(RunKernel, TriadMatchesRunTriad) {
  XmpConfig cfg;
  TriadSetup setup;
  setup.n = 256;
  setup.inc = 3;
  const TriadResult a = run_kernel(cfg, triad_kernel(), setup, true);
  const TriadResult b = run_triad(cfg, setup, true);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.conflicts.total(), b.conflicts.total());
}

TEST(RunKernel, MoreOperandsTakeLonger) {
  // copy (2 arrays) < daxpy (3) < triad (4) in memory traffic, hence time,
  // at equal stride and length.
  XmpConfig cfg;
  TriadSetup setup;
  setup.n = 512;
  const i64 t_copy = run_kernel(cfg, copy_kernel(), setup, false).cycles;
  const i64 t_daxpy = run_kernel(cfg, daxpy_kernel(), setup, false).cycles;
  const i64 t_triad = run_kernel(cfg, triad_kernel(), setup, false).cycles;
  EXPECT_LT(t_copy, t_daxpy);
  EXPECT_LE(t_daxpy, t_triad);
}

TEST(RunKernel, SumUsesOnlyLoadPort) {
  // A reduction issues no store; one load port streams the whole array.
  XmpConfig cfg;
  TriadSetup setup;
  setup.n = 256;
  const TriadResult r = run_kernel(cfg, sum_kernel(), setup, false);
  EXPECT_EQ(total_grants(r), setup.n);
  // At stride 1 the lone stream is conflict-free: n grants, port busy
  // n cycles + issue gaps between strips.
  EXPECT_LT(r.cycles, setup.n + 4 * (cfg.issue_gap + 1) + 8);
}

TEST(RunKernel, SelfConflictingStrideHurtsEveryKernel) {
  XmpConfig cfg;
  TriadSetup setup;
  setup.n = 256;
  for (const auto& spec : all_kernels()) {
    setup.inc = 1;
    const i64 good = run_kernel(cfg, spec, setup, false).cycles;
    setup.inc = 8;
    const i64 bad = run_kernel(cfg, spec, setup, false).cycles;
    EXPECT_GT(bad, good) << spec.name;
  }
}

TEST(RunKernel, GatherValidation) {
  KernelSpec bad = gather_kernel();
  bad.loads = 1;
  expect_config_invalid([&] { bad.validate(); });
}

TEST(RunKernel, GatherTransfersEveryElement) {
  XmpConfig cfg;
  TriadSetup setup;
  setup.n = 200;
  const TriadResult r = run_kernel(cfg, gather_kernel(), setup, false);
  EXPECT_EQ(total_grants(r), 3 * setup.n);  // IX, B(IX), A
}

TEST(RunKernel, GatherIsDeterministic) {
  XmpConfig cfg;
  TriadSetup setup;
  setup.n = 256;
  const TriadResult a = run_kernel(cfg, gather_kernel(), setup, true);
  const TriadResult b = run_kernel(cfg, gather_kernel(), setup, true);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.conflicts.total(), b.conflicts.total());
}

TEST(RunKernel, GatherPaysRandomTrafficTax) {
  // The indexed operand hits random banks: at stride 1, gather must be
  // slower than daxpy (same operand count, all affine) and insensitive to
  // the stride cure that fixes affine kernels.
  XmpConfig cfg;
  TriadSetup setup;
  setup.n = 512;
  setup.inc = 1;
  const i64 affine = run_kernel(cfg, daxpy_kernel(), setup, false).cycles;
  const TriadResult gathered = run_kernel(cfg, gather_kernel(), setup, false);
  EXPECT_GT(gathered.cycles, affine);
  EXPECT_GT(gathered.conflicts.bank, 0);
}

TEST(RunKernel, ContentionSlowsKernels) {
  XmpConfig cfg;
  TriadSetup setup;
  setup.n = 192;
  setup.inc = 2;
  for (const auto& spec : all_kernels()) {
    const i64 dedicated = run_kernel(cfg, spec, setup, false).cycles;
    const i64 contended = run_kernel(cfg, spec, setup, true).cycles;
    EXPECT_GE(contended, dedicated) << spec.name;
  }
}

}  // namespace
}  // namespace vpmem::xmp
