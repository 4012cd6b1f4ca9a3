#include "vpmem/core/group.hpp"

#include <gtest/gtest.h>

#include "vpmem/util/error.hpp"

namespace vpmem::core {
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

sim::MemoryConfig flat(i64 m, i64 nc) {
  return sim::MemoryConfig{.banks = m, .sections = m, .bank_cycle = nc};
}

TEST(UniformStreams, Construction) {
  const auto streams = uniform_streams(4, 1, 3, 16);
  ASSERT_EQ(streams.size(), 4u);
  EXPECT_EQ(streams[2].start_bank, 6);
  EXPECT_EQ(streams[2].cpu, 2);
  const auto same = uniform_streams(3, 2, 5, 16, /*same_cpu=*/true);
  for (const auto& s : same) EXPECT_EQ(s.cpu, 0);
  expect_config_invalid([] { static_cast<void>(uniform_streams(0, 1, 1, 16)); });
  expect_config_invalid([] { static_cast<void>(uniform_streams(2, 1, 1, 0)); });
}

TEST(AnalyzeGroup, FourStaggeredStrideOneStreamsAreConflictFree) {
  // p*nc = 16 = m: with nc-spaced starts the schedule packs perfectly.
  const GroupReport r =
      analyze_group(flat(16, 4), uniform_streams(4, 1, /*stagger=*/4, 16));
  EXPECT_EQ(r.bandwidth, Rational{4});
  EXPECT_EQ(r.conflicts_in_period.total(), 0);
  EXPECT_DOUBLE_EQ(r.utilization(16, 4), 1.0);
}

TEST(AnalyzeGroup, SaturationBeyondServiceBound) {
  // The paper's Section IV remark: 6 ports on 16 banks with nc = 4 cannot
  // all stream (6*4 = 24 > 16): b_eff <= m/nc = 4.
  const GroupReport r =
      analyze_group(flat(16, 4), uniform_streams(6, 1, /*stagger=*/3, 16));
  EXPECT_LE(r.bandwidth, Rational{4});
  EXPECT_GT(r.conflicts_in_period.total(), 0);
}

TEST(AnalyzeGroup, ServiceSlotBoundHoldsForAnyStagger) {
  for (i64 stagger = 0; stagger < 8; ++stagger) {
    const GroupReport r = analyze_group(flat(8, 2), uniform_streams(6, 1, stagger, 8));
    EXPECT_LE(r.bandwidth, Rational{4}) << "stagger=" << stagger;  // m/nc
  }
}

TEST(AnalyzeGroup, PerPortSumsToTotal) {
  const GroupReport r = analyze_group(flat(16, 4), uniform_streams(5, 3, 2, 16));
  Rational sum{0};
  for (const auto& bw : r.per_port) sum += bw;
  EXPECT_EQ(sum, r.bandwidth);
}

TEST(AnalyzeGroup, UtilizationValidation) {
  GroupReport r;
  expect_config_invalid([&] { static_cast<void>(r.utilization(0, 1)); });
  expect_config_invalid([&] { static_cast<void>(r.utilization(4, 0)); });
}

}  // namespace
}  // namespace vpmem::core
