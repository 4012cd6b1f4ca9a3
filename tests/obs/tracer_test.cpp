// Tracer: Chrome trace-event export (schema vpmem.trace/1), buffer/
// counter reconciliation, coexistence with a recording Timeline on one
// run, and the golden bytes of the trace and run-report exports.
#include "vpmem/obs/tracer.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "vpmem/obs/report.hpp"
#include "vpmem/sim/memory_system.hpp"
#include "vpmem/sim/steady_state.hpp"
#include "vpmem/trace/timeline.hpp"
#include "vpmem/util/hash.hpp"

namespace vpmem::obs {
namespace {

// Fig. 3 of the paper: m = 13, nc = 6, streams (0,1) and (0,6) — the
// barrier-situation with b_eff = 7/6, rich in both grants and conflicts.
const sim::MemoryConfig kFig3{.banks = 13, .sections = 13, .bank_cycle = 6};

std::vector<sim::StreamConfig> fig3_streams() { return sim::two_streams(0, 1, 0, 6); }

TEST(Tracer, EventCountsMatchAllStats) {
  sim::MemorySystem mem{kFig3, fig3_streams()};
  Tracer tracer{mem};
  mem.run(156, /*stop_when_finished=*/false);
  tracer.finish();

  i64 grants = 0;
  i64 conflicts = 0;
  for (const auto& p : mem.all_stats()) {
    grants += p.grants;
    conflicts += p.total_conflicts();
  }
  EXPECT_EQ(tracer.buffer().recorded(), grants + conflicts);
  EXPECT_EQ(tracer.buffer().dropped(), 0);

  i64 buffer_grants = 0;
  i64 buffer_conflicts = 0;
  tracer.buffer().for_each([&](const sim::Event& e) {
    (e.type == sim::Event::Type::grant ? buffer_grants : buffer_conflicts) += 1;
  });
  EXPECT_EQ(buffer_grants, grants);
  EXPECT_EQ(buffer_conflicts, conflicts);
}

TEST(Tracer, AttributionMatchesAllStats) {
  sim::MemorySystem mem{kFig3, fig3_streams()};
  Tracer tracer{mem};
  mem.run(156, /*stop_when_finished=*/false);
  tracer.finish();

  const ConflictAttribution* a = tracer.attribution();
  ASSERT_NE(a, nullptr);
  const auto stats = mem.all_stats();
  for (std::size_t p = 0; p < stats.size(); ++p) {
    const sim::ConflictTotals t = a->totals(p);
    EXPECT_EQ(t.bank, stats[p].bank_conflicts);
    EXPECT_EQ(t.simultaneous, stats[p].simultaneous_conflicts);
    EXPECT_EQ(t.section, stats[p].section_conflicts);
  }
}

TEST(Tracer, ChromeTraceRoundTripsThroughJson) {
  sim::MemorySystem mem{kFig3, fig3_streams()};
  Tracer tracer{mem};
  mem.run(84, /*stop_when_finished=*/false);

  std::ostringstream os;
  tracer.write_chrome_trace(os);  // implies finish()
  const Json doc = Json::parse(os.str());
  EXPECT_EQ(doc, tracer.chrome_trace());

  EXPECT_EQ(doc.at("schema").as_string(), kTraceSchema);
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_FALSE(events.empty());

  // Track metadata: both synthetic processes are named, and every bank /
  // port has a thread_name row.
  i64 process_names = 0;
  i64 thread_names = 0;
  i64 grant_slices = 0;
  i64 service_slices = 0;
  i64 conflict_instants = 0;
  i64 counter_samples = 0;
  for (const Json& e : events) {
    const std::string& ph = e.at("ph").as_string();
    if (ph == "M") {
      (e.at("name").as_string() == "process_name" ? process_names : thread_names) += 1;
      continue;
    }
    if (ph == "C") {
      ++counter_samples;
      continue;
    }
    if (ph == "i") {
      ++conflict_instants;
      const Json& args = e.at("args");
      EXPECT_TRUE(args.contains("kind"));
      EXPECT_TRUE(args.contains("blocker"));
      EXPECT_TRUE(args.contains("element"));
      continue;
    }
    ASSERT_EQ(ph, "X");
    if (e.at("pid").as_int() == 1) {
      ++service_slices;
      EXPECT_EQ(e.at("dur").as_int(), kFig3.bank_cycle);
    } else {
      ++grant_slices;
      EXPECT_EQ(e.at("dur").as_int(), 1);
    }
  }
  EXPECT_EQ(process_names, 2);
  EXPECT_EQ(thread_names, kFig3.banks + static_cast<i64>(mem.port_count()));

  // One service slice + one transfer slice per grant, one instant per
  // conflict, one counter sample per b_eff window.
  const auto stats = mem.all_stats();
  i64 grants = 0;
  i64 conflicts = 0;
  for (const auto& p : stats) {
    grants += p.grants;
    conflicts += p.total_conflicts();
  }
  EXPECT_EQ(service_slices, grants);
  EXPECT_EQ(grant_slices, grants);
  EXPECT_EQ(conflict_instants, conflicts);
  ASSERT_NE(tracer.attribution(), nullptr);
  EXPECT_EQ(counter_samples,
            static_cast<i64>(tracer.attribution()->bandwidth_series().size()));

  // The embedded attribution summary reconciles with the engine counters.
  const Json& attr = doc.at("otherData").at("attribution");
  EXPECT_EQ(attr.at("schema").as_string(), kAttributionSchema);
  EXPECT_EQ(attr.at("grants").as_int(), grants);
  EXPECT_EQ(attr.at("lost_cycles").at("total").as_int(), conflicts);
}

TEST(Tracer, SaveWritesAParseableFile) {
  sim::MemorySystem mem{kFig3, fig3_streams()};
  Tracer tracer{mem};
  mem.run(30, /*stop_when_finished=*/false);
  const std::string path = ::testing::TempDir() + "vpmem_tracer_test_trace.json";
  tracer.save_chrome_trace(path);
  std::ifstream in{path};
  ASSERT_TRUE(in.is_open());
  std::stringstream content;
  content << in.rdbuf();
  const Json doc = Json::parse(content.str());
  EXPECT_EQ(doc.at("schema").as_string(), kTraceSchema);
  std::remove(path.c_str());
  EXPECT_THROW(tracer.save_chrome_trace("/nonexistent-dir/trace.json"), std::runtime_error);
}

TEST(Tracer, FinishDetachesAndIsIdempotent) {
  sim::MemorySystem mem{kFig3, fig3_streams()};
  Tracer tracer{mem};
  EXPECT_EQ(mem.event_sink_count(), 1u);
  mem.run(20, /*stop_when_finished=*/false);
  tracer.finish();
  tracer.finish();
  EXPECT_EQ(mem.event_sink_count(), 0u);
  const i64 recorded = tracer.buffer().recorded();
  mem.run(20, /*stop_when_finished=*/false);
  EXPECT_EQ(tracer.buffer().recorded(), recorded);
}

TEST(Tracer, AttributionCanBeDisabled) {
  sim::MemorySystem mem{kFig3, fig3_streams()};
  Tracer tracer{mem, TracerOptions{.attribution = false}};
  mem.run(40, /*stop_when_finished=*/false);
  EXPECT_EQ(tracer.attribution(), nullptr);
  const Json doc = tracer.chrome_trace();
  for (const Json& e : doc.at("traceEvents").as_array()) {
    EXPECT_NE(e.at("ph").as_string(), "C");
  }
  EXPECT_TRUE(doc.at("otherData").at("attribution").is_null());
}

TEST(Tracer, BoundedCapacityEvictsButAttributionStaysExact) {
  sim::MemorySystem mem{kFig3, fig3_streams()};
  // Tiny buffer: one chunk. The run emits ~2 events/cycle, so 3000 cycles
  // overflow 4096 retained events — attribution must not notice.
  Tracer tracer{mem, TracerOptions{.capacity = 1}};
  mem.run(3000, /*stop_when_finished=*/false);
  tracer.finish();
  EXPECT_GT(tracer.buffer().dropped(), 0);
  const auto stats = mem.all_stats();
  ASSERT_NE(tracer.attribution(), nullptr);
  for (std::size_t p = 0; p < stats.size(); ++p) {
    EXPECT_EQ(tracer.attribution()->totals(p).total(), stats[p].total_conflicts());
  }
}

TEST(Tracer, CoexistsWithARecordingTimeline) {
  // A Tracer and a Timeline with its own buffer are two sinks on one
  // run; each must see the full event stream.
  sim::MemorySystem mem{kFig3, fig3_streams()};
  trace::Timeline timeline{mem};
  Tracer tracer{mem};
  EXPECT_EQ(mem.event_sink_count(), 2u);
  mem.run(200, /*stop_when_finished=*/false);
  tracer.finish();
  EXPECT_EQ(mem.event_sink_count(), 1u);  // the Timeline is still attached

  i64 grants = 0;
  i64 conflicts = 0;
  for (const auto& p : mem.all_stats()) {
    grants += p.grants;
    conflicts += p.total_conflicts();
  }
  i64 timeline_grants = 0;
  i64 timeline_conflicts = 0;
  for (const auto& e : timeline.events()) {
    (e.type == sim::Event::Type::grant ? timeline_grants : timeline_conflicts) += 1;
  }
  EXPECT_EQ(timeline_grants, grants);
  EXPECT_EQ(timeline_conflicts, conflicts);
  EXPECT_EQ(tracer.buffer().recorded(), grants + conflicts);
}

// Golden bytes: FNV-1a of the exported documents.  The values were
// recorded with the earlier ostream-based writer, so any change to member
// order, number formatting, escaping or indentation fails here.

/// The `vpmem_cli trace` window for infinite streams: the transient plus
/// one steady-state period.
std::string trace_digest(const sim::MemoryConfig& cfg,
                         const std::vector<sim::StreamConfig>& streams) {
  const sim::SteadyState ss = sim::find_steady_state(cfg, streams);
  sim::MemorySystem mem{cfg, streams};
  Tracer tracer{mem};
  mem.run(ss.transient_cycles + ss.period, /*stop_when_finished=*/false);
  return hex64(fnv1a64(tracer.chrome_trace().dump(1)));
}

TEST(TracerGolden, Fig2TraceBytes) {
  EXPECT_EQ(trace_digest({.banks = 12, .sections = 12, .bank_cycle = 3},
                         sim::two_streams(0, 1, 3, 7)),
            "743473e06a7c3aaa");
}

TEST(TracerGolden, Fig3TraceBytes) {
  EXPECT_EQ(trace_digest(kFig3, fig3_streams()), "f400b2ddd10435b4");
}

TEST(TracerGolden, Fig7TraceBytes) {
  EXPECT_EQ(trace_digest({.banks = 12, .sections = 2, .bank_cycle = 2},
                         sim::two_streams(0, 1, 2, 1, /*same_cpu=*/true)),
            "81f9fd507d08e262");
}

TEST(TracerGolden, RingEvictingTraceBytes) {
  // m = 64 with a one-chunk ring: 20k cycles evict most of the run, so
  // the export starts mid-stream and reports the dropped count.
  sim::MemorySystem mem{{.banks = 64, .sections = 64, .bank_cycle = 4},
                        sim::two_streams(0, 1, 5, 3)};
  Tracer tracer{mem, TracerOptions{.capacity = 1}};
  mem.run(20'000, /*stop_when_finished=*/false);
  tracer.finish();
  ASSERT_GT(tracer.buffer().dropped(), 0);
  EXPECT_EQ(hex64(fnv1a64(tracer.chrome_trace().dump(1))), "df5f2d963267e4eb");
}

/// report_run(...).to_json().dump(2) without the wall-clock "perf" block.
std::string report_digest(const sim::MemoryConfig& cfg,
                          const std::vector<sim::StreamConfig>& streams) {
  Json::Object members = report_run(cfg, streams).to_json().as_object();
  std::erase_if(members, [](const auto& member) { return member.first == "perf"; });
  return hex64(fnv1a64(Json{std::move(members)}.dump(2)));
}

TEST(TracerGolden, ReportBytes) {
  EXPECT_EQ(report_digest(kFig3, fig3_streams()), "3523096331d15c0c");
  std::vector<sim::StreamConfig> finite = sim::two_streams(7, 3, 40, 5);
  finite[0].length = 130;
  finite[1].length = 117;
  EXPECT_EQ(report_digest({.banks = 64, .sections = 16, .bank_cycle = 4}, finite),
            "8a8601e60a3b6194");
}

}  // namespace
}  // namespace vpmem::obs
