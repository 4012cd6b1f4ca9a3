#include "vpmem/trace/timeline.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace vpmem::trace {
namespace {

sim::MemoryConfig flat(i64 m, i64 nc) {
  return sim::MemoryConfig{.banks = m, .sections = m, .bank_cycle = nc};
}

TEST(Timeline, SingleStreamServiceBlocks) {
  sim::MemorySystem mem{flat(4, 2), {sim::StreamConfig{.start_bank = 0, .distance = 1, .length = 3}}};
  Timeline tl{mem};
  mem.run(100);
  const auto g = tl.grid(0, 5);
  ASSERT_EQ(g.size(), 4u);
  EXPECT_EQ(g[0], "11...");
  EXPECT_EQ(g[1], ".11..");
  EXPECT_EQ(g[2], "..11.");
  EXPECT_EQ(g[3], ".....");
}

TEST(Timeline, DelayMarkersForBankConflict) {
  // Fig. 3 pattern: stream 2 (d=6) waits '<' on the bank stream 1 holds.
  sim::MemorySystem mem{flat(13, 6), sim::two_streams(0, 1, 0, 6)};
  Timeline tl{mem};
  mem.run(40, false);
  const std::string diagram = tl.render(0, 40);
  EXPECT_NE(diagram.find('<'), std::string::npos);
  EXPECT_NE(diagram.find("222222"), std::string::npos);
  EXPECT_NE(diagram.find("111111"), std::string::npos);
  // Row for bank 0 starts with stream 1's grant then stream 2's delays.
  const auto g = tl.grid(0, 13);
  EXPECT_EQ(g[0].substr(0, 12), "1<<<<<222222");
}

TEST(Timeline, SectionConflictMarker) {
  // Fig. 8(a) linked conflict shows '*' section-conflict markers.
  sim::MemoryConfig cfg{.banks = 12, .sections = 3, .bank_cycle = 3};
  sim::MemorySystem mem{cfg, sim::two_streams(0, 1, 1, 1, /*same_cpu=*/true)};
  Timeline tl{mem};
  mem.run(40, false);
  const std::string diagram = tl.render(0, 40, /*show_sections=*/true);
  EXPECT_NE(diagram.find('*'), std::string::npos);
  // Section labels "0 - 0", "1 - 1" appear when requested.
  EXPECT_NE(diagram.find("0 - 0"), std::string::npos);
  EXPECT_NE(diagram.find("2 - 11"), std::string::npos);
}

TEST(Timeline, InvertedBarrierUsesGreaterMarker) {
  // Fig. 6: stream 2 delays stream 1 -> '>' markers.
  sim::MemorySystem mem{flat(13, 4), sim::two_streams(0, 1, 1, 3)};
  Timeline tl{mem};
  mem.run(60, false);
  const std::string diagram = tl.render(0, 60);
  EXPECT_NE(diagram.find('>'), std::string::npos);
}

TEST(Timeline, WindowValidation) {
  sim::MemorySystem mem{flat(4, 2), {sim::StreamConfig{.length = 1}}};
  Timeline tl{mem};
  EXPECT_THROW(static_cast<void>(tl.grid(-1, 4)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(tl.grid(5, 4)), std::invalid_argument);
  EXPECT_NO_THROW(static_cast<void>(tl.grid(0, 0)));
}

TEST(Timeline, EventsRecorded) {
  sim::MemorySystem mem{flat(4, 2), {sim::StreamConfig{.start_bank = 0, .distance = 1, .length = 2}}};
  Timeline tl{mem};
  mem.run(10);
  ASSERT_EQ(tl.events().size(), 2u);
  EXPECT_EQ(tl.events()[0].type, sim::Event::Type::grant);
}

TEST(Timeline, RecordsTheWholeRunAndDetachesOnDestruction) {
  sim::MemorySystem mem{flat(8, 3), sim::two_streams(0, 1, 0, 2)};
  i64 recorded = 0;
  {
    Timeline tl{mem};
    EXPECT_EQ(mem.event_sink_count(), 1u);
    mem.run(40, /*stop_when_finished=*/false);
    recorded = tl.buffer().recorded();
    // Every event of the run is in the buffer: grants + conflicts equal
    // the simulator's own counters.
    i64 expected = 0;
    for (const auto& s : mem.all_stats()) expected += s.grants + s.total_conflicts();
    EXPECT_EQ(recorded, expected);
  }
  EXPECT_GT(recorded, 0);
  EXPECT_EQ(mem.event_sink_count(), 0u);
  mem.run(10, /*stop_when_finished=*/false);  // nothing left to call
}

TEST(RenderRun, OneShotHelper) {
  const std::string out =
      render_run(flat(12, 3), sim::two_streams(0, 1, 3, 7), 24);
  EXPECT_NE(out.find("clock-period"), std::string::npos);
  EXPECT_NE(out.find("111"), std::string::npos);
  EXPECT_NE(out.find("222"), std::string::npos);
  // Conflict-free: no delay markers anywhere.
  EXPECT_EQ(out.find('<'), std::string::npos);
  EXPECT_EQ(out.find('>'), std::string::npos);
  EXPECT_EQ(out.find('*'), std::string::npos);
}

TEST(Timeline, WindowClipsServiceAcrossBoundary) {
  sim::MemorySystem mem{flat(4, 3), {sim::StreamConfig{.start_bank = 0, .distance = 1, .length = 4}}};
  Timeline tl{mem};
  mem.run(100);
  // Grant on bank 1 at t=1 runs t=1..3; window [2,5) sees its tail.
  const auto g = tl.grid(2, 5);
  EXPECT_EQ(g[1], "11.");
}

}  // namespace
}  // namespace vpmem::trace
